// Cross-query partition-cache tests: LRU semantics under a byte budget,
// stale-version invalidation, warm-serving reuse through the FaaS
// instance state, abort consistency, and the guarantee the cache must
// never break — byte-identical outputs with the cache on or off.
#include <gtest/gtest.h>

#include "cloud/cloud.h"
#include "core/partition_cache.h"
#include "core/serving.h"
#include "model/input_gen.h"
#include "model/reference.h"

namespace fsd::core {
namespace {

// ---------------------------------------------------------------------------
// PartitionCache unit semantics
// ---------------------------------------------------------------------------

TEST(PartitionCache, MissThenHitThenRecencyRefresh) {
  PartitionCache cache(/*budget_bytes=*/1000);
  EXPECT_EQ(cache.Find("fam", 0, 1), PartitionCache::Lookup::kMiss);
  const PartitionCache::InsertOutcome first = cache.Insert("fam", 0, 1, 400);
  EXPECT_TRUE(first.inserted);
  EXPECT_EQ(first.evicted, 0);
  EXPECT_EQ(cache.Find("fam", 0, 1), PartitionCache::Lookup::kHit);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.bytes_cached(), 400u);
  EXPECT_EQ(cache.entries(), 1);

  // Another partition of the same family is a distinct entry.
  EXPECT_EQ(cache.Find("fam", 1, 1), PartitionCache::Lookup::kMiss);
  EXPECT_TRUE(cache.Insert("fam", 1, 1, 400).inserted);
  EXPECT_EQ(cache.entries(), 2);

  // Touch entry 0 so it is most recent, then overflow: entry 1 (LRU) goes.
  EXPECT_EQ(cache.Find("fam", 0, 1), PartitionCache::Lookup::kHit);
  EXPECT_EQ(cache.Insert("fam", 2, 1, 400).evicted, 1);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.Find("fam", 1, 1), PartitionCache::Lookup::kMiss);
  EXPECT_EQ(cache.Find("fam", 0, 1), PartitionCache::Lookup::kHit);
  EXPECT_LE(cache.bytes_cached(), cache.budget_bytes());
}

TEST(PartitionCache, EvictsLruUntilBudgetHolds) {
  PartitionCache cache(/*budget_bytes=*/1000);
  cache.Insert("fam", 0, 1, 400);
  cache.Insert("fam", 1, 1, 400);
  // 900 bytes only fit alone: both residents must go.
  EXPECT_EQ(cache.Insert("fam", 2, 1, 900).evicted, 2);
  EXPECT_EQ(cache.entries(), 1);
  EXPECT_EQ(cache.bytes_cached(), 900u);
  EXPECT_EQ(cache.Find("fam", 2, 1), PartitionCache::Lookup::kHit);
}

TEST(PartitionCache, OversizedShareIsNotCached) {
  PartitionCache cache(/*budget_bytes=*/100);
  // An oversize reject is DISTINCT from a clean no-evict insert (both
  // historically returned 0): inserted=false and the reject counter moves.
  const PartitionCache::InsertOutcome rejected =
      cache.Insert("fam", 0, 1, 101);
  EXPECT_FALSE(rejected.inserted);
  EXPECT_EQ(rejected.evicted, 0);
  EXPECT_EQ(cache.oversize_rejects(), 1);
  EXPECT_EQ(cache.entries(), 0);
  EXPECT_EQ(cache.bytes_cached(), 0u);
  EXPECT_EQ(cache.Find("fam", 0, 1), PartitionCache::Lookup::kMiss);
  // And it must not have evicted residents to make room it can't use.
  EXPECT_TRUE(cache.Insert("fam", 1, 1, 90).inserted);
  EXPECT_EQ(cache.oversize_rejects(), 1);
  EXPECT_FALSE(cache.Insert("fam", 2, 1, 200).inserted);
  EXPECT_EQ(cache.oversize_rejects(), 2);
  EXPECT_EQ(cache.Find("fam", 1, 1), PartitionCache::Lookup::kHit);
}

TEST(PartitionCache, ContainsPeeksWithoutTouchingAccounting) {
  PartitionCache cache(/*budget_bytes=*/1000);
  cache.Insert("fam", 0, /*version=*/1, 400);
  const int64_t hits = cache.hits();
  const int64_t misses = cache.misses();
  EXPECT_TRUE(cache.Contains("fam", 0, 1));
  EXPECT_FALSE(cache.Contains("fam", 0, 2));  // other version: no invalidate
  EXPECT_FALSE(cache.Contains("fam", 1, 1));
  EXPECT_EQ(cache.hits(), hits);
  EXPECT_EQ(cache.misses(), misses);
  EXPECT_EQ(cache.invalidations(), 0);
  // The stale-at-other-version entry is still resident: Contains must not
  // have dropped it the way Find() would.
  EXPECT_EQ(cache.entries(), 1);
}

TEST(PartitionCache, PrewarmedFlagReportsFirstHitOnly) {
  PartitionCache cache(/*budget_bytes=*/1000);
  cache.Insert("fam", 0, 1, 400, /*prewarmed=*/true);
  bool prewarmed = false;
  EXPECT_EQ(cache.Find("fam", 0, 1, &prewarmed),
            PartitionCache::Lookup::kHit);
  EXPECT_TRUE(prewarmed) << "first hit consumes the planted flag";
  EXPECT_EQ(cache.Find("fam", 0, 1, &prewarmed),
            PartitionCache::Lookup::kHit);
  EXPECT_FALSE(prewarmed) << "subsequent hits are plain warm hits";
  // A normal insert never reports prewarmed, even without the out-param.
  cache.Insert("fam", 1, 1, 400);
  EXPECT_EQ(cache.Find("fam", 1, 1), PartitionCache::Lookup::kHit);
  bool flag = true;
  EXPECT_EQ(cache.Find("fam", 1, 1, &flag), PartitionCache::Lookup::kHit);
  EXPECT_FALSE(flag);
}

TEST(PartitionCache, VersionChangeInvalidatesResidentShare) {
  PartitionCache cache(/*budget_bytes=*/1000);
  cache.Insert("fam", 0, /*version=*/1, 400);
  // Looking up version 2 drops the stale entry immediately.
  EXPECT_EQ(cache.Find("fam", 0, 2), PartitionCache::Lookup::kStale);
  EXPECT_EQ(cache.invalidations(), 1);
  EXPECT_EQ(cache.entries(), 0);
  EXPECT_EQ(cache.bytes_cached(), 0u);
  // Even going BACK to version 1 misses: the stale share is gone.
  EXPECT_EQ(cache.Find("fam", 0, 1), PartitionCache::Lookup::kMiss);
  // Re-inserting at the new version works normally.
  cache.Insert("fam", 0, 2, 400);
  EXPECT_EQ(cache.Find("fam", 0, 2), PartitionCache::Lookup::kHit);
}

TEST(PartitionCache, ReinsertSameKeyReplacesInsteadOfDoubleCounting) {
  PartitionCache cache(/*budget_bytes=*/1000);
  cache.Insert("fam", 0, 1, 400);
  cache.Insert("fam", 0, 2, 600);
  EXPECT_EQ(cache.entries(), 1);
  EXPECT_EQ(cache.bytes_cached(), 600u);
  EXPECT_EQ(cache.Find("fam", 0, 2), PartitionCache::Lookup::kHit);
}

TEST(PartitionCache, ZeroBudgetCachesNothing) {
  PartitionCache cache(/*budget_bytes=*/0);
  EXPECT_FALSE(cache.Insert("fam", 0, 1, 1).inserted);
  EXPECT_EQ(cache.Find("fam", 0, 1), PartitionCache::Lookup::kMiss);
  EXPECT_EQ(cache.entries(), 0);
}

// ---------------------------------------------------------------------------
// Cache-family derivation: no aliasing across models or partitionings
// ---------------------------------------------------------------------------

std::string CacheFamilyFor(const model::SparseDnn& dnn,
                           const part::ModelPartition& partition,
                           const linalg::ActivationMap& input,
                           const FsdOptions& base = {}) {
  sim::Simulation sim;
  cloud::CloudEnv cloud(&sim);
  InferenceRequest request;
  request.dnn = &dnn;
  request.partition = &partition;
  request.batches = {&input};
  request.options = base;
  request.options.num_workers = partition.num_parts;
  auto state = PrepareRunState(&cloud, request, cloud.AllocateRunId());
  EXPECT_TRUE(state.ok()) << state.status().ToString();
  return (*state)->cache_family;
}

TEST(PartitionCacheFamily, DistinctPartitioningsOfOneModelNeverAlias) {
  // Warm pools are shared per function group, so queries of one model
  // under DIFFERENT partitionings (hypergraph vs random at the same P,
  // or a different P) can land on the same instance; their derived cache
  // families must differ or a worker would serve the wrong share as a
  // hit. Identical requests must keep deriving the identical family.
  model::SparseDnnConfig config;
  config.neurons = 256;
  config.layers = 6;
  auto dnn = model::GenerateSparseDnn(config);
  ASSERT_TRUE(dnn.ok());
  model::InputConfig ic;
  ic.neurons = 256;
  ic.batch = 8;
  auto input = model::GenerateInputBatch(ic);
  ASSERT_TRUE(input.ok());

  part::ModelPartitionOptions hypergraph;
  part::ModelPartitionOptions random;
  random.scheme = part::PartitionScheme::kRandom;
  auto hgp4 = part::PartitionModel(*dnn, 4, hypergraph);
  auto rnd4 = part::PartitionModel(*dnn, 4, random);
  auto hgp2 = part::PartitionModel(*dnn, 2, hypergraph);
  ASSERT_TRUE(hgp4.ok() && rnd4.ok() && hgp2.ok());

  const std::string f_hgp4 = CacheFamilyFor(*dnn, *hgp4, *input);
  EXPECT_FALSE(f_hgp4.empty());
  EXPECT_EQ(f_hgp4, CacheFamilyFor(*dnn, *hgp4, *input));  // stable
  EXPECT_NE(f_hgp4, CacheFamilyFor(*dnn, *rnd4, *input));  // same P, other rows
  EXPECT_NE(f_hgp4, CacheFamilyFor(*dnn, *hgp2, *input));  // other P

  // A user-supplied family is qualified with the layout fingerprint too.
  FsdOptions named;
  named.model_family = "prod-model";
  EXPECT_NE(CacheFamilyFor(*dnn, *hgp4, *input, named),
            CacheFamilyFor(*dnn, *rnd4, *input, named));
}

TEST(PartitionCacheFamily, WeightAffectingConfigChangesTheFamily) {
  // Every generator field that changes the weights must change the
  // derived family — nnz_per_row (and friends) are part of the identity,
  // not just (neurons, layers, seed).
  model::InputConfig ic;
  ic.neurons = 256;
  ic.batch = 8;
  auto input = model::GenerateInputBatch(ic);
  ASSERT_TRUE(input.ok());
  auto family_for = [&](const model::SparseDnnConfig& config) {
    auto dnn = model::GenerateSparseDnn(config);
    EXPECT_TRUE(dnn.ok());
    part::ModelPartitionOptions po;
    auto partition = part::PartitionModel(*dnn, 2, po);
    EXPECT_TRUE(partition.ok());
    return CacheFamilyFor(*dnn, *partition, *input);
  };
  model::SparseDnnConfig base;
  base.neurons = 256;
  base.layers = 6;
  const std::string family = family_for(base);

  model::SparseDnnConfig other_nnz = base;
  other_nnz.nnz_per_row = 16;
  EXPECT_NE(family, family_for(other_nnz));

  model::SparseDnnConfig other_window = base;
  other_window.window = 24;
  EXPECT_NE(family, family_for(other_window));

  model::SparseDnnConfig other_seed = base;
  other_seed.seed = base.seed + 1;
  EXPECT_NE(family, family_for(other_seed));
}

// ---------------------------------------------------------------------------
// Serving integration: warm-state reuse across queries
// ---------------------------------------------------------------------------

struct Workload {
  model::SparseDnn dnn;
  part::ModelPartition partition;
  linalg::ActivationMap input;
  linalg::ActivationMap expected;
};

Workload MakeWorkload(int32_t neurons, int32_t layers, int32_t batch,
                      int32_t workers, uint64_t seed = 7) {
  model::SparseDnnConfig config;
  config.neurons = neurons;
  config.layers = layers;
  config.seed = seed;
  auto dnn = model::GenerateSparseDnn(config);
  EXPECT_TRUE(dnn.ok()) << dnn.status().ToString();
  part::ModelPartitionOptions po;
  auto partition = part::PartitionModel(*dnn, workers, po);
  EXPECT_TRUE(partition.ok()) << partition.status().ToString();
  model::InputConfig input_config;
  input_config.neurons = neurons;
  input_config.batch = batch;
  input_config.seed = seed + 1;
  auto input = model::GenerateInputBatch(input_config);
  EXPECT_TRUE(input.ok()) << input.status().ToString();
  auto expected = model::ReferenceInference(*dnn, *input);
  EXPECT_TRUE(expected.ok()) << expected.status().ToString();
  return Workload{std::move(*dnn), std::move(*partition), std::move(*input),
                  std::move(*expected)};
}

InferenceRequest MakeRequest(const Workload& w, Variant variant,
                             int32_t workers) {
  InferenceRequest request;
  request.dnn = &w.dnn;
  request.partition = &w.partition;
  request.batches = {&w.input};
  request.options.variant = variant;
  request.options.num_workers = workers;
  return request;
}

/// Runs `requests` (paired with arrival offsets) through one serving
/// runtime and returns the report.
ServingReport Serve(const std::vector<std::pair<InferenceRequest, double>>&
                        submissions) {
  sim::Simulation sim;
  cloud::CloudEnv cloud(&sim);
  ServingRuntime serving(&cloud);
  for (const auto& [request, arrival] : submissions) {
    EXPECT_TRUE(serving.Submit(request, arrival).ok());
  }
  auto report = serving.Drain();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return std::move(*report);
}

TEST(PartitionCacheServing, SingleWorkerWarmQueriesHitDeterministically) {
  // P=1 gives a one-instance warm pool, so instance reuse (and therefore
  // the cache-hit pattern) is exact: query 1 reads, queries 2..K hit.
  constexpr int kQueries = 4;
  Workload w = MakeWorkload(256, 6, 16, /*workers=*/1);
  InferenceRequest request = MakeRequest(w, Variant::kQueue, 1);
  std::vector<std::pair<InferenceRequest, double>> submissions;
  for (int q = 0; q < kQueries; ++q) {
    submissions.emplace_back(request, 30.0 * q);  // inside the keep-alive
  }
  ServingReport report = Serve(submissions);

  for (int q = 0; q < kQueries; ++q) {
    const QueryOutcome& outcome = report.queries[q];
    ASSERT_TRUE(outcome.report.status.ok())
        << outcome.report.status.ToString();
    EXPECT_EQ(outcome.report.outputs[0], w.expected) << "query " << q;
    const RunMetrics& m = outcome.report.metrics;
    if (q == 0) {
      EXPECT_EQ(m.cache_hits, 0) << "cold query";
      EXPECT_EQ(m.cache_misses, 1);
      EXPECT_GT(m.model_get_parts, 0);
    } else {
      EXPECT_EQ(m.cache_hits, 1) << "warm query " << q;
      EXPECT_EQ(m.cache_misses, 0);
      EXPECT_EQ(m.model_get_parts, 0) << "hit must skip the share GETs";
      EXPECT_GT(m.model_bytes_saved, 0);
      // A warm hit makes the model load virtually instant.
      EXPECT_LT(m.workers[0].model_load_s, 1e-9);
    }
  }
  EXPECT_EQ(report.fleet.cache_hits, kQueries - 1);
  EXPECT_EQ(report.fleet.cache_misses, 1);
  EXPECT_DOUBLE_EQ(report.fleet.cache_hit_ratio,
                   static_cast<double>(kQueries - 1) / kQueries);
  EXPECT_GT(report.fleet.model_bytes_saved, 0);
}

TEST(PartitionCacheServing, MultiWorkerFleetConvergesAndSavesGets) {
  // With P workers the LIFO warm pool shuffles instances across worker
  // ids, so hits accumulate as instances fill with shares; assert the
  // aggregate accounting instead of an exact schedule.
  constexpr int32_t kWorkers = 4;
  constexpr int kQueries = 6;
  Workload w = MakeWorkload(256, 8, 16, kWorkers);
  InferenceRequest request = MakeRequest(w, Variant::kQueue, kWorkers);
  std::vector<std::pair<InferenceRequest, double>> submissions;
  for (int q = 0; q < kQueries; ++q) {
    submissions.emplace_back(request, 30.0 * q);
  }
  ServingReport report = Serve(submissions);

  int64_t ledger_model_gets = 0;
  for (const QueryOutcome& outcome : report.queries) {
    ASSERT_TRUE(outcome.report.status.ok());
    EXPECT_EQ(outcome.report.outputs[0], w.expected);
    ledger_model_gets += outcome.report.metrics.model_get_parts;
  }
  // Every load is either a hit or a miss; every miss read, every hit saved.
  EXPECT_EQ(report.fleet.cache_hits + report.fleet.cache_misses,
            static_cast<int64_t>(kWorkers) * kQueries);
  EXPECT_GT(report.fleet.cache_hits, 0);
  EXPECT_GT(report.fleet.model_gets_saved, 0);
  // Shares at this size are one GET part each, so the identity is exact.
  EXPECT_EQ(report.fleet.model_gets_saved + ledger_model_gets,
            static_cast<int64_t>(kWorkers) * kQueries);
  // The whole-workload ledger shows the savings: fewer object GETs than
  // the cache-off ablation of the same workload.
  std::vector<std::pair<InferenceRequest, double>> ablation = submissions;
  for (auto& [req, arrival] : ablation) req.options.partition_cache = false;
  ServingReport off = Serve(ablation);
  EXPECT_EQ(off.fleet.cache_hits, 0);
  EXPECT_EQ(off.fleet.cache_misses, 0);
  EXPECT_GT(report.billing.quantity(cloud::BillingDimension::kObjectGet), 0);
  EXPECT_LT(report.billing.quantity(cloud::BillingDimension::kObjectGet),
            off.billing.quantity(cloud::BillingDimension::kObjectGet));
}

TEST(PartitionCacheServing, CacheOnAndOffAreByteIdentical) {
  // The cache changes when shares are read, never what workers compute:
  // per-query activations must be byte-identical with the cache on or off.
  constexpr int32_t kWorkers = 4;
  constexpr int kQueries = 3;
  Workload w = MakeWorkload(256, 8, 16, kWorkers, /*seed=*/42);
  for (Variant variant :
       {Variant::kQueue, Variant::kObject, Variant::kKv}) {
    SCOPED_TRACE(std::string(VariantName(variant)));
    auto run = [&](bool cache_on) {
      InferenceRequest request = MakeRequest(w, variant, kWorkers);
      request.options.partition_cache = cache_on;
      std::vector<std::pair<InferenceRequest, double>> submissions;
      for (int q = 0; q < kQueries; ++q) {
        submissions.emplace_back(request, 20.0 * q);
      }
      ServingReport report = Serve(submissions);
      std::vector<std::vector<linalg::ActivationMap>> outputs;
      for (const QueryOutcome& outcome : report.queries) {
        EXPECT_TRUE(outcome.report.status.ok())
            << outcome.report.status.ToString();
        outputs.push_back(outcome.report.outputs);
      }
      return outputs;
    };
    const auto on = run(true);
    const auto off = run(false);
    EXPECT_EQ(on, off);
    for (const auto& outputs : on) {
      ASSERT_EQ(outputs.size(), 1u);
      EXPECT_EQ(outputs[0], w.expected);
    }
  }
}

TEST(PartitionCacheServing, VersionBumpInvalidatesWarmShares) {
  constexpr int kWarmups = 2;
  Workload w = MakeWorkload(256, 6, 16, /*workers=*/1);
  InferenceRequest v1 = MakeRequest(w, Variant::kQueue, 1);
  v1.options.model_family = "prod-model";
  v1.options.model_version = 1;
  InferenceRequest v2 = v1;
  v2.options.model_version = 2;

  std::vector<std::pair<InferenceRequest, double>> submissions;
  for (int q = 0; q < kWarmups; ++q) submissions.emplace_back(v1, 30.0 * q);
  submissions.emplace_back(v2, 30.0 * kWarmups);
  submissions.emplace_back(v2, 30.0 * (kWarmups + 1));
  ServingReport report = Serve(submissions);

  // v1 warms up: one miss then hits.
  EXPECT_EQ(report.queries[1].report.metrics.cache_hits, 1);
  // The first v2 query finds the v1 share, invalidates it and re-reads.
  const RunMetrics& upgraded = report.queries[kWarmups].report.metrics;
  EXPECT_EQ(upgraded.cache_hits, 0);
  EXPECT_EQ(upgraded.cache_invalidations, 1);
  EXPECT_GT(upgraded.model_get_parts, 0);
  // The second v2 query hits the re-cached v2 share.
  EXPECT_EQ(report.queries[kWarmups + 1].report.metrics.cache_hits, 1);
  for (const QueryOutcome& outcome : report.queries) {
    ASSERT_TRUE(outcome.report.status.ok());
    EXPECT_EQ(outcome.report.outputs[0], w.expected);
  }
}

TEST(PartitionCacheServing, EvictionForcesAccountedReRead) {
  // Two families alternating through a budget sized for exactly one share:
  // every load misses (the other family always evicted it) and the
  // evictions are visible in the metrics.
  Workload a = MakeWorkload(256, 6, 16, /*workers=*/1, /*seed=*/7);
  Workload b = MakeWorkload(256, 6, 16, /*workers=*/1, /*seed=*/8);
  const uint64_t share_a = a.partition.WeightShareBytes(a.dnn, 0);
  const uint64_t share_b = b.partition.WeightShareBytes(b.dnn, 0);
  InferenceRequest ra = MakeRequest(a, Variant::kQueue, 1);
  InferenceRequest rb = MakeRequest(b, Variant::kQueue, 1);
  ra.options.partition_cache_budget_bytes = std::max(share_a, share_b);
  rb.options.partition_cache_budget_bytes = std::max(share_a, share_b);

  ServingReport report = Serve({{ra, 0.0},
                                {rb, 30.0},
                                {ra, 60.0},
                                {rb, 90.0}});
  for (const QueryOutcome& outcome : report.queries) {
    ASSERT_TRUE(outcome.report.status.ok());
    // Each load was a miss billed as a full re-read.
    EXPECT_EQ(outcome.report.metrics.cache_hits, 0);
    EXPECT_EQ(outcome.report.metrics.cache_misses, 1);
    EXPECT_GT(outcome.report.metrics.model_get_parts, 0);
  }
  // Inserts of queries 2..4 each evicted the other family's share.
  EXPECT_EQ(report.fleet.cache_evictions, 3);
  EXPECT_EQ(report.queries[0].report.outputs[0], a.expected);
  EXPECT_EQ(report.queries[1].report.outputs[0], b.expected);
}

TEST(PartitionCacheServing, AbortedQueryLeavesCacheConsistent) {
  // A query killed mid-flight (timeout far below its latency) must not
  // leave a half-read share in the cache: the next healthy query of the
  // same family re-reads and produces correct output.
  Workload w = MakeWorkload(256, 8, 16, /*workers=*/1);
  InferenceRequest poisoned = MakeRequest(w, Variant::kQueue, 1);
  poisoned.options.worker_timeout_s = 0.01;  // dies during the model load
  InferenceRequest healthy = MakeRequest(w, Variant::kQueue, 1);

  ServingReport report = Serve({{poisoned, 0.0}, {healthy, 30.0}});
  EXPECT_FALSE(report.queries[0].report.status.ok());
  const RunMetrics& h = report.queries[1].report.metrics;
  ASSERT_TRUE(report.queries[1].report.status.ok())
      << report.queries[1].report.status.ToString();
  EXPECT_EQ(report.queries[1].report.outputs[0], w.expected);
  // The interrupted read never populated the cache; separate worker
  // functions aside, the healthy query can only have read its own share.
  EXPECT_EQ(h.cache_hits, 0);
  EXPECT_GT(h.model_get_parts, 0);
}

TEST(PartitionCacheServing, DifferentBudgetsNeverShareWarmInstances) {
  // The cache budget is part of the serving function-group key: a
  // budget-ablation stream must not land on instances whose cache was
  // created under another budget. Observable as cold starts — the
  // small-budget query finds no warm pool despite the big-budget
  // queries' instances sitting warm.
  Workload w = MakeWorkload(256, 6, 16, /*workers=*/1);
  InferenceRequest big = MakeRequest(w, Variant::kQueue, 1);
  InferenceRequest small = big;
  small.options.partition_cache_budget_bytes = 1024 * 1024;

  ServingReport report =
      Serve({{big, 0.0}, {big, 30.0}, {small, 60.0}});
  for (const QueryOutcome& outcome : report.queries) {
    ASSERT_TRUE(outcome.report.status.ok());
    EXPECT_EQ(outcome.report.outputs[0], w.expected);
  }
  EXPECT_EQ(report.queries[0].report.metrics.cold_starts, 1);  // cold pool
  EXPECT_EQ(report.queries[1].report.metrics.cold_starts, 0);  // warm reuse
  EXPECT_EQ(report.queries[1].report.metrics.cache_hits, 1);
  // Different budget => different function group => its own cold start
  // and an empty cache, even with warm big-budget instances available.
  EXPECT_EQ(report.queries[2].report.metrics.cold_starts, 1);
  EXPECT_EQ(report.queries[2].report.metrics.cache_hits, 0);
}

TEST(PartitionCacheServing, DisabledCacheKeepsPaperBehaviour) {
  // partition_cache=false reproduces every-query-reads: no lookups, no
  // savings, model GETs scale with queries x workers.
  constexpr int32_t kWorkers = 2;
  constexpr int kQueries = 3;
  Workload w = MakeWorkload(256, 6, 16, kWorkers);
  InferenceRequest request = MakeRequest(w, Variant::kQueue, kWorkers);
  request.options.partition_cache = false;
  std::vector<std::pair<InferenceRequest, double>> submissions;
  for (int q = 0; q < kQueries; ++q) {
    submissions.emplace_back(request, 30.0 * q);
  }
  ServingReport report = Serve(submissions);
  int64_t model_gets = 0;
  for (const QueryOutcome& outcome : report.queries) {
    ASSERT_TRUE(outcome.report.status.ok());
    EXPECT_EQ(outcome.report.metrics.cache_hits, 0);
    EXPECT_EQ(outcome.report.metrics.cache_misses, 0);
    EXPECT_EQ(outcome.report.metrics.model_gets_saved, 0);
    model_gets += outcome.report.metrics.model_get_parts;
  }
  EXPECT_GE(model_gets, static_cast<int64_t>(kWorkers) * kQueries);
  EXPECT_EQ(report.fleet.cache_hit_ratio, 0.0);
}

}  // namespace
}  // namespace fsd::core
