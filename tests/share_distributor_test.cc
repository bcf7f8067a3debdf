// λScale-style share distribution tests: relay fallback must deliver
// multi-chunk shares byte-identically, dead holders must fall out of the
// registry (storage fallback, never a ghost transfer), and the serving
// integration (peer transfer + predictive pre-warm) must leave query
// outputs byte-identical to the storage-only cold path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string_view>
#include <vector>

#include "cloud/cloud.h"
#include "core/cost_model.h"
#include "core/serving.h"
#include "core/share_distributor.h"
#include "core/worker.h"
#include "model/input_gen.h"
#include "model/reference.h"

namespace fsd::core {
namespace {

TEST(ShareDistributor, ChunkEncodingIsDeterministic) {
  EXPECT_EQ(ShareDistributor::ChunkCount(0, 128), 1u);
  EXPECT_EQ(ShareDistributor::ChunkCount(128, 128), 1u);
  EXPECT_EQ(ShareDistributor::ChunkCount(129, 128), 2u);
  EXPECT_EQ(ShareDistributor::ChunkCount(300 * 1024, 128 * 1024), 3u);

  const Bytes a = ShareDistributor::EncodeShareChunk("fam", 2, 7, 1, 3, 4096);
  const Bytes b = ShareDistributor::EncodeShareChunk("fam", 2, 7, 1, 3, 4096);
  EXPECT_EQ(a, b);  // replay-stable wire encoding
  EXPECT_GT(a.size(), 4096u);  // header + payload
  // Any field change must change the bytes (receiver-side verification
  // depends on it).
  EXPECT_NE(a, ShareDistributor::EncodeShareChunk("fam", 2, 7, 2, 3, 4096));
  EXPECT_NE(a, ShareDistributor::EncodeShareChunk("fam", 3, 7, 1, 3, 4096));
  EXPECT_NE(a, ShareDistributor::EncodeShareChunk("fam", 2, 8, 1, 3, 4096));
}

// Forced punch failure: the transfer must fall back to the KV relay and
// still deliver every chunk byte-identically (the receiver verifies each
// chunk against EncodeShareChunk; a corrupt delivery would degrade to
// kStorage, not kPeer).
TEST(ShareDistributor, RelayFallbackDeliversMultiChunkShareByteIdentically) {
  sim::Simulation sim;
  cloud::CloudConfig config;
  config.latency.p2p_punch_failure_rate = 1.0;  // every punch fails
  cloud::CloudEnv cloud(&sim, config);

  ShareDistributor distributor(&cloud, {});
  const FsdOptions options;  // defaults: cache on, version 0
  const std::string family = "fam@relay";
  const uint64_t share_bytes = 300 * 1024;  // 3 relay chunks at 128 KiB
  const uint64_t chunks = ShareDistributor::ChunkCount(
      share_bytes, distributor.options().relay_chunk_bytes);
  ASSERT_EQ(chunks, 3u);

  WorkerMetrics loader_metrics, puller_metrics;
  auto loader_source = ShareDistributor::Source::kPeer;
  auto puller_source = ShareDistributor::Source::kStorage;

  cloud::FaasFunctionConfig loader_fn;
  loader_fn.name = "sd-loader";
  loader_fn.memory_mb = 1024;
  loader_fn.handler = [&](cloud::FaasContext* ctx) {
    loader_source = distributor.Acquire(ctx, options, family, 0, share_bytes,
                                        &loader_metrics);
    ASSERT_EQ(loader_source, ShareDistributor::Source::kStorage);
    // Model the storage read taking a while: concurrent requesters must
    // wait it out instead of issuing a second read.
    ASSERT_TRUE(ctx->SleepFor(3.0).ok());
    PartitionCache* cache = InstancePartitionCache(ctx, options);
    ASSERT_NE(cache, nullptr);
    EXPECT_TRUE(cache->Insert(family, 0, options.model_version, share_bytes)
                    .inserted);
    distributor.Publish(ctx, options, family, 0);
    ctx->set_result(Status::OK());
  };
  ASSERT_TRUE(cloud.faas().RegisterFunction(loader_fn).ok());

  cloud::FaasFunctionConfig puller_fn;
  puller_fn.name = "sd-puller";
  puller_fn.memory_mb = 1024;
  puller_fn.handler = [&](cloud::FaasContext* ctx) {
    puller_source = distributor.Acquire(ctx, options, family, 0, share_bytes,
                                        &puller_metrics);
    PartitionCache* cache = InstancePartitionCache(ctx, options);
    ASSERT_NE(cache, nullptr);
    // A peer delivery must have planted the share in this instance's cache.
    EXPECT_TRUE(cache->Contains(family, 0, options.model_version));
    ctx->set_result(Status::OK());
  };
  ASSERT_TRUE(cloud.faas().RegisterFunction(puller_fn).ok());

  ASSERT_TRUE(cloud.faas().InvokeAsync("sd-loader", {}).status.ok());
  // After the loader registered its pending read, before it publishes.
  sim.AddProcess(
      "invoke-puller",
      [&]() { ASSERT_TRUE(cloud.faas().InvokeAsync("sd-puller", {}).status.ok()); },
      /*start=*/1.5);
  sim.Run();

  EXPECT_EQ(loader_source, ShareDistributor::Source::kStorage);
  EXPECT_EQ(puller_source, ShareDistributor::Source::kPeer);
  EXPECT_EQ(puller_metrics.share_loads_peer, 1);
  // Every chunk moved over the relay, none over the punched fabric.
  EXPECT_EQ(puller_metrics.share_relay_chunks, static_cast<int64_t>(chunks));
  EXPECT_GE(puller_metrics.share_relay_requests,
            static_cast<int64_t>(chunks));
  EXPECT_GE(puller_metrics.share_relay_bytes,
            static_cast<int64_t>(share_bytes));
  EXPECT_EQ(puller_metrics.share_peer_chunks, 0);
  EXPECT_EQ(puller_metrics.share_peer_bytes, 0);
  EXPECT_EQ(puller_metrics.share_peer_connects, 0);
  // Both instances now hold the share.
  EXPECT_EQ(distributor.HolderCount(family, 0, options.model_version), 2);
}

// A holder whose instance was reclaimed at keep-alive expiry must be pruned
// on the next lookup; the requester degrades to the storage read it was
// going to do anyway.
TEST(ShareDistributor, DeadHolderIsPrunedAndRequesterFallsBackToStorage) {
  sim::Simulation sim;
  cloud::CloudEnv cloud(&sim);
  cloud.faas().set_keep_alive_s(1.0);  // tiny warm window

  ShareDistributor distributor(&cloud, {});
  const FsdOptions options;
  const std::string family = "fam@dead";
  const uint64_t share_bytes = 64 * 1024;

  WorkerMetrics metrics;
  auto late_source = ShareDistributor::Source::kPeer;
  int64_t holders_seen_by_late = -1;

  cloud::FaasFunctionConfig fn;
  fn.name = "sd-holder";
  fn.memory_mb = 1024;
  fn.handler = [&](cloud::FaasContext* ctx) {
    WorkerMetrics scratch;
    const auto source = distributor.Acquire(ctx, options, family, 0,
                                            share_bytes, &scratch);
    if (source == ShareDistributor::Source::kStorage) {
      PartitionCache* cache = InstancePartitionCache(ctx, options);
      ASSERT_NE(cache, nullptr);
      EXPECT_TRUE(cache->Insert(family, 0, options.model_version, share_bytes)
                      .inserted);
      distributor.Publish(ctx, options, family, 0);
    }
    ctx->set_result(Status::OK());
  };
  ASSERT_TRUE(cloud.faas().RegisterFunction(fn).ok());

  cloud::FaasFunctionConfig late_fn;
  late_fn.name = "sd-late";
  late_fn.memory_mb = 1024;
  late_fn.handler = [&](cloud::FaasContext* ctx) {
    // The original holder's instance expired at t=0+keep_alive; its cache
    // died with it, so the registry must prune it here.
    holders_seen_by_late =
        distributor.HolderCount(family, 0, options.model_version);
    late_source = distributor.Acquire(ctx, options, family, 0, share_bytes,
                                      &metrics);
    if (late_source == ShareDistributor::Source::kStorage) {
      distributor.Abandon(family, 0, options.model_version);
    }
    ctx->set_result(Status::OK());
  };
  ASSERT_TRUE(cloud.faas().RegisterFunction(late_fn).ok());

  ASSERT_TRUE(cloud.faas().InvokeAsync("sd-holder", {}).status.ok());
  // Reclaim the holder's instance: an invoke of the SAME function sweeps
  // its expired warm pool (state — and the registered cache — dies).
  sim.AddProcess(
      "reinvoke-holder",
      [&]() { ASSERT_TRUE(cloud.faas().InvokeAsync("sd-holder", {}).status.ok()); },
      /*start=*/30.0);
  sim.Run();
  // The second sd-holder invocation ran cold (its predecessor expired), so
  // it re-read from storage and re-published.
  EXPECT_EQ(distributor.HolderCount(family, 0, options.model_version), 1);

  sim.AddProcess(
      "late-check",
      [&]() { ASSERT_TRUE(cloud.faas().InvokeAsync("sd-late", {}).status.ok()); },
      /*start=*/100.0);  // long past every keep-alive
  sim.Run();

  EXPECT_EQ(holders_seen_by_late, 0);  // pruned, no ghost holders
  EXPECT_EQ(late_source, ShareDistributor::Source::kStorage);
  EXPECT_EQ(metrics.share_loads_peer, 0);
}

// ---- serving integration ----

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

InferenceRequest MakeRequest(const Workload& w, int32_t workers) {
  InferenceRequest request;
  request.dnn = &w.dnn;
  request.partition = &w.partition;
  request.batches = {&w.input};
  request.options.variant = Variant::kQueue;
  request.options.num_workers = workers;
  return request;
}

// Feature flag on vs. off over the same burst: outputs must be
// byte-identical (the distributor moves bytes, never values), and the peer
// path must absorb cold loads the storage-only baseline paid for.
TEST(ServingFastScaling, PeerTransferKeepsOutputsIdenticalAndCutsStorageReads) {
  constexpr int32_t kWorkers = 4;
  constexpr int kQueries = 6;
  Workload w = MakeWorkload(256, 8, 16, kWorkers);
  InferenceRequest request = MakeRequest(w, kWorkers);

  auto run = [&](bool peer) {
    sim::Simulation sim;
    cloud::CloudEnv cloud(&sim);
    ServingOptions so;
    so.peer_share_transfer = peer;
    ServingRuntime serving(&cloud, so);
    for (int q = 0; q < kQueries; ++q) {
      EXPECT_TRUE(serving.Submit(request, 0.001 * q).ok());
    }
    auto report = serving.Drain();
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return std::move(*report);
  };
  const ServingReport off = run(false);
  const ServingReport on = run(true);

  ASSERT_EQ(off.queries.size(), static_cast<size_t>(kQueries));
  ASSERT_EQ(on.queries.size(), static_cast<size_t>(kQueries));
  for (int q = 0; q < kQueries; ++q) {
    ASSERT_TRUE(on.queries[q].report.status.ok())
        << on.queries[q].report.status.ToString();
    EXPECT_EQ(on.queries[q].report.outputs, off.queries[q].report.outputs)
        << "query " << q;
    EXPECT_EQ(on.queries[q].report.outputs[0], w.expected) << "query " << q;
  }
  EXPECT_EQ(off.fleet.share_loads_peer, 0);
  EXPECT_GT(on.fleet.share_loads_peer, 0);
  EXPECT_LT(on.fleet.share_loads_storage, off.fleet.share_loads_storage);
  // Total cold loads are conserved — the peer path changes WHERE bytes come
  // from, not how many instances needed them.
  EXPECT_EQ(on.fleet.share_loads_storage + on.fleet.share_loads_peer,
            off.fleet.share_loads_storage + off.fleet.share_loads_peer);
}

// Steady arrivals: the rate policy must fire pre-warm invocations, stay
// inside the dollar budget, and never perturb query outputs.
TEST(ServingFastScaling, PredictivePrewarmFiresWithinBudget) {
  constexpr int32_t kWorkers = 4;
  constexpr int kQueries = 8;
  Workload w = MakeWorkload(256, 8, 16, kWorkers);
  InferenceRequest request = MakeRequest(w, kWorkers);

  sim::Simulation sim;
  cloud::CloudEnv cloud(&sim);
  ServingOptions so;
  so.peer_share_transfer = true;
  so.predictive_prewarm = true;
  so.prewarm_budget_dollars = 0.01;
  ServingRuntime serving(&cloud, so);
  for (int q = 0; q < kQueries; ++q) {
    ASSERT_TRUE(serving.Submit(request, 0.4 * q).ok());
  }
  auto report = serving.Drain();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  ASSERT_EQ(report->queries.size(), static_cast<size_t>(kQueries));
  for (int q = 0; q < kQueries; ++q) {
    ASSERT_TRUE(report->queries[q].report.status.ok());
    EXPECT_EQ(report->queries[q].report.outputs[0], w.expected)
        << "query " << q;
  }
  EXPECT_GT(report->fleet.prewarm_invocations, 0);
  EXPECT_GT(report->fleet.prewarm_budget_spent, 0.0);
  EXPECT_LE(report->fleet.prewarm_budget_spent, so.prewarm_budget_dollars);
  EXPECT_EQ(report->fleet.failed, 0);
}

// Fires a fixed pre-warm burst during an early window and nothing after —
// isolates "pre-warmed then evicted" from the rate policy re-firing at the
// late arrival (which would stand capacity back up and mask the eviction).
class EarlyWindowPolicy final : public PreWarmPolicy {
 public:
  std::string_view name() const override { return "early-window"; }
  PrewarmDecision Decide(const PrewarmSnapshot& snapshot) override {
    PrewarmDecision decision;
    if (snapshot.now_s < 1.0 && snapshot.pending_prewarms == 0) {
      decision.instances = snapshot.workers_per_run;
      decision.reason = "test: early burst";
    } else {
      decision.reason = "test: outside window";
    }
    return decision;
  }
};

// Pre-warmed instances reclaimed before the predicted arrival: the late
// query pays its cold start again but must still complete correctly — the
// pre-warm loop can waste dollars, never correctness.
TEST(ServingFastScaling, PrewarmedInstancesEvictedBeforeArrivalStayCorrect) {
  constexpr int32_t kWorkers = 4;
  Workload w = MakeWorkload(256, 8, 16, kWorkers);
  InferenceRequest request = MakeRequest(w, kWorkers);

  sim::Simulation sim;
  cloud::CloudEnv cloud(&sim);
  cloud.faas().set_keep_alive_s(0.2);  // everything expires almost at once
  ServingOptions so;
  so.peer_share_transfer = true;
  so.predictive_prewarm = true;
  so.prewarm_budget_dollars = 0.05;
  so.prewarm_policy = std::make_shared<EarlyWindowPolicy>();
  ServingRuntime serving(&cloud, so);
  // A short trickle seeds the EWMA and triggers pre-warms...
  ASSERT_TRUE(serving.Submit(request, 0.0).ok());
  ASSERT_TRUE(serving.Submit(request, 0.3).ok());
  ASSERT_TRUE(serving.Submit(request, 0.6).ok());
  // ...then a long silence lets every instance (pre-warmed included) die
  // before the next arrival.
  ASSERT_TRUE(serving.Submit(request, 60.0).ok());
  auto report = serving.Drain();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  ASSERT_EQ(report->queries.size(), 4u);
  for (const QueryOutcome& outcome : report->queries) {
    ASSERT_TRUE(outcome.report.status.ok())
        << outcome.report.status.ToString();
    EXPECT_EQ(outcome.report.outputs[0], w.expected);
  }
  EXPECT_GT(report->fleet.prewarm_invocations, 0);
  // The late query found nothing warm: its workers all cold-started and no
  // pre-warmed cache entry survived to serve it.
  const RunMetrics& late = report->queries[3].report.metrics;
  EXPECT_GT(late.cold_starts, 0);
  EXPECT_EQ(late.prewarmed_hits, 0);
  EXPECT_EQ(report->fleet.failed, 0);
}

// Wraps the default rate policy and records every snapshot it was shown
// together with its decision.
class RecordingRatePolicy final : public PreWarmPolicy {
 public:
  struct Call {
    PrewarmSnapshot snapshot;
    PrewarmDecision decision;
  };
  std::string_view name() const override { return "recording-rate"; }
  PrewarmDecision Decide(const PrewarmSnapshot& snapshot) override {
    calls.push_back({snapshot, inner_->Decide(snapshot)});
    return calls.back().decision;
  }
  std::vector<Call> calls;

 private:
  std::shared_ptr<PreWarmPolicy> inner_ = MakeRatePreWarmPolicy();
};

// Steady arrivals, then two arrivals 1 ms apart: the rate must be the count
// of arrivals inside est_run_s over est_run_s, so the close pair cannot
// spike it (a 1/gap sample would read ~1000 qps off the pair and fire
// hundreds of instances), and the policy fires no more than that count of
// trees' worth of instances beyond the standing supply.
TEST(ServingFastScaling, CloseArrivalsDoNotSpikeTheRateEstimate) {
  constexpr int32_t kWorkers = 4;
  Workload w = MakeWorkload(256, 8, 16, kWorkers);
  InferenceRequest request = MakeRequest(w, kWorkers);

  sim::Simulation sim;
  cloud::CloudEnv cloud(&sim);
  ServingOptions so;
  so.peer_share_transfer = true;
  so.predictive_prewarm = true;
  so.prewarm_budget_dollars = 1.0;  // never the binding constraint here
  auto policy = std::make_shared<RecordingRatePolicy>();
  so.prewarm_policy = policy;
  ServingRuntime serving(&cloud, so);
  std::vector<double> arrivals;
  for (int q = 0; q < 6; ++q) arrivals.push_back(0.5 * q);
  arrivals.push_back(3.2);
  arrivals.push_back(3.201);
  for (double at : arrivals) ASSERT_TRUE(serving.Submit(request, at).ok());
  auto report = serving.Drain();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (const QueryOutcome& outcome : report->queries) {
    ASSERT_TRUE(outcome.report.status.ok());
    EXPECT_EQ(outcome.report.outputs[0], w.expected);
  }

  ASSERT_EQ(policy->calls.size(), arrivals.size());
  for (const RecordingRatePolicy::Call& call : policy->calls) {
    const PrewarmSnapshot& s = call.snapshot;
    ASSERT_GT(s.est_run_s, 0.0);
    const auto in_window = std::count_if(
        arrivals.begin(), arrivals.end(), [&s](double at) {
          return at > s.now_s - s.est_run_s && at <= s.now_s;
        });
    const double bound = static_cast<double>(in_window) / s.est_run_s;
    EXPECT_LE(s.arrival_rate_qps, bound) << "at t=" << s.now_s;
    const int64_t supply =
        s.warm_instances +
        static_cast<int64_t>(s.in_flight_runs) * s.workers_per_run +
        s.pending_prewarms;
    const int64_t cap =
        static_cast<int64_t>(s.workers_per_run) *
            static_cast<int64_t>(std::ceil(bound * s.est_run_s)) -
        supply;
    EXPECT_LE(call.decision.instances, std::max<int64_t>(cap, 0))
        << "at t=" << s.now_s;
  }
  EXPECT_EQ(report->fleet.failed, 0);
}

// Admits nothing before `open_at_s`: those arrivals still reach the
// pre-warm stage, but no query run bills the ledger.
class ClosedUntilAdmission final : public AdmissionPolicy {
 public:
  explicit ClosedUntilAdmission(double open_at_s) : open_at_s_(open_at_s) {}
  std::string_view name() const override { return "closed-until"; }
  AdmissionDecision Decide(const SchedQuery&, const LoadSnapshot& load,
                           const std::vector<SchedQuery>&) override {
    AdmissionDecision decision;
    if (load.now_s < open_at_s_) {
      decision.action = AdmissionDecision::Action::kReject;
      decision.reason = "test: closed";
    }
    return decision;
  }

 private:
  double open_at_s_;
};

// Fires `instances` pre-warms at every arrival before `until_s`, and
// records what the ledger and the budget say at each arrival.
class LedgerProbePolicy final : public PreWarmPolicy {
 public:
  LedgerProbePolicy(const cloud::BillingLedger* ledger, int32_t instances,
                    double until_s)
      : ledger_(ledger), instances_(instances), until_s_(until_s) {}
  std::string_view name() const override { return "ledger-probe"; }
  PrewarmDecision Decide(const PrewarmSnapshot& snapshot) override {
    ledger_dollars.push_back(ledger_->TotalCost());
    budget_remaining.push_back(snapshot.budget_remaining);
    PrewarmDecision decision;
    if (snapshot.now_s < until_s_) decision.instances = instances_;
    decision.reason = "test: probe";
    return decision;
  }
  std::vector<double> ledger_dollars;
  std::vector<double> budget_remaining;

 private:
  const cloud::BillingLedger* ledger_;
  int32_t instances_;
  double until_s_;
};

// Pre-warms fired before the first admitted query: until it arrives the
// ledger bills nothing but them, so the trued-up budget spend must equal
// the ledger to within 0.1% — on the storage path, and with peer pricing
// cheap enough that the second load of each share takes the peer path.
TEST(ServingFastScaling, PrewarmBudgetReconcilesWithLedger) {
  constexpr int32_t kWorkers = 4;
  Workload w = MakeWorkload(256, 8, 16, kWorkers);
  InferenceRequest request = MakeRequest(w, kWorkers);

  for (const bool cheap_peer : {false, true}) {
    SCOPED_TRACE(cheap_peer ? "cheap peer path" : "storage path");
    sim::Simulation sim;
    cloud::CloudConfig config;
    if (cheap_peer) {
      config.pricing.p2p_per_connection = 1e-9;
      config.pricing.p2p_per_byte = 0.0;
      config.latency.p2p_punch_failure_rate = 0.0;
    }
    cloud::CloudEnv cloud(&sim, config);
    ServingOptions so;
    so.peer_share_transfer = true;
    so.predictive_prewarm = true;
    so.prewarm_budget_dollars = 0.05;
    so.admission_policy = std::make_shared<ClosedUntilAdmission>(20.0);
    auto policy = std::make_shared<LedgerProbePolicy>(
        &cloud.billing(), 2 * kWorkers, /*until_s=*/1.0);
    so.prewarm_policy = policy;
    ServingRuntime serving(&cloud, so);
    ASSERT_TRUE(serving.Submit(request, 0.0).ok());   // rejected
    ASSERT_TRUE(serving.Submit(request, 30.0).ok());  // admitted
    auto report = serving.Drain();
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    ASSERT_EQ(report->fleet.prewarm_invocations, 2 * kWorkers);
    EXPECT_GT(report->fleet.prewarm_storage_parts, 0);
    if (cheap_peer) {
      EXPECT_GT(report->fleet.prewarm_peer_connects, 0);
    }
    ASSERT_EQ(policy->ledger_dollars.size(), 2u);
    EXPECT_EQ(policy->ledger_dollars[0], 0.0);
    const double window_dollars = policy->ledger_dollars[1];
    ASSERT_GT(window_dollars, 0.0);
    EXPECT_NEAR(report->fleet.prewarm_budget_spent, window_dollars,
                0.001 * window_dollars);
    EXPECT_NEAR(so.prewarm_budget_dollars - policy->budget_remaining[1],
                window_dollars, 0.001 * window_dollars);
    ASSERT_TRUE(report->queries[1].report.status.ok());
    EXPECT_EQ(report->queries[1].report.outputs[0], w.expected);
  }
}

// A budget worth about one instance against a policy asking for many at
// every arrival: the pre-warm loop's billed dollars (the whole ledger, as
// every query is rejected) never exceed the budget. Slow, jittery storage
// reads make the billed MB-seconds dominate the charge and, for some
// request seeds, overshoot the median-priced estimate committed at fire.
TEST(ServingFastScaling, TinyPrewarmBudgetBindsInBilledDollars) {
  constexpr int32_t kWorkers = 4;
  constexpr int kArrivals = 6;
  Workload w = MakeWorkload(256, 8, 16, kWorkers);
  InferenceRequest request = MakeRequest(w, kWorkers);

  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(testing::Message() << "request seed " << seed);
    request.options.seed = seed;
    sim::Simulation sim;
    cloud::CloudConfig config;
    config.latency.object_get.median_s = 0.5;
    config.latency.object_get.sigma = 1.0;
    cloud::CloudEnv cloud(&sim, config);
    const PrewarmLoadPlan plan = PlanPrewarmLoad(
        cloud.billing().pricing(), cloud.latency(), cloud.compute(),
        w.partition.WeightShareBytes(w.dnn, 0),
        ShareDistributor::Options().relay_chunk_bytes,
        DefaultWorkerMemoryMb(w.dnn.neurons(), Variant::kQueue),
        /*peer_enabled=*/true);
    ServingOptions so;
    so.peer_share_transfer = true;
    so.predictive_prewarm = true;
    so.prewarm_budget_dollars = 1.5 * plan.cost;
    so.admission_policy = std::make_shared<ClosedUntilAdmission>(1e9);
    so.prewarm_policy = std::make_shared<LedgerProbePolicy>(
        &cloud.billing(), 4 * kWorkers, /*until_s=*/1e9);
    ServingRuntime serving(&cloud, so);
    for (int q = 0; q < kArrivals; ++q) {
      ASSERT_TRUE(serving.Submit(request, 10.0 * q).ok());
    }
    auto report = serving.Drain();
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    const double billed = cloud.billing().TotalCost();
    EXPECT_GT(report->fleet.prewarm_invocations, 0);
    EXPECT_LE(billed, so.prewarm_budget_dollars);
    EXPECT_LE(report->fleet.prewarm_budget_spent, so.prewarm_budget_dollars);
    EXPECT_NEAR(report->fleet.prewarm_budget_spent, billed, 0.001 * billed);
  }
}

}  // namespace
}  // namespace fsd::core
