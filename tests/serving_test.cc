// Concurrent serving-runtime tests: overlapping queries must be
// value-identical to sequential RunInference calls, warm pools must be
// reused across bursts, and aborts/teardown must drain cleanly.
#include <gtest/gtest.h>

#include "cloud/cloud.h"
#include "core/serving.h"
#include "model/input_gen.h"
#include "model/reference.h"

namespace fsd::core {
namespace {

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

TEST(Serving, OverlappingQueriesMatchSequentialRunsExactly) {
  constexpr int32_t kWorkers = 4;
  constexpr int kQueries = 3;
  for (Variant variant :
       {Variant::kQueue, Variant::kObject, Variant::kKv}) {
    SCOPED_TRACE(std::string(VariantName(variant)));
    Workload w = MakeWorkload(256, 8, 16, kWorkers);
    InferenceRequest request = MakeRequest(w, variant, kWorkers);

    // Baseline: N queries through the sequential entry point.
    std::vector<std::vector<linalg::ActivationMap>> sequential;
    {
      sim::Simulation sim;
      cloud::CloudEnv cloud(&sim);
      for (int q = 0; q < kQueries; ++q) {
        auto report = RunInference(&cloud, request);
        ASSERT_TRUE(report.ok()) << report.status().ToString();
        ASSERT_TRUE(report->status.ok()) << report->status.ToString();
        sequential.push_back(report->outputs);
      }
    }

    // The same N queries, overlapping inside one simulation.
    sim::Simulation sim;
    cloud::CloudEnv cloud(&sim);
    ServingRuntime serving(&cloud);
    for (int q = 0; q < kQueries; ++q) {
      auto id = serving.Submit(request, 0.01 * q);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
    }
    auto report = serving.Drain();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_EQ(report->queries.size(), static_cast<size_t>(kQueries));

    double max_arrival = 0.0;
    double min_finish = 1e300;
    for (int q = 0; q < kQueries; ++q) {
      const QueryOutcome& outcome = report->queries[q];
      ASSERT_TRUE(outcome.report.status.ok())
          << outcome.report.status.ToString();
      // Byte-identical activations: concurrency must not change values.
      EXPECT_EQ(outcome.report.outputs, sequential[q]) << "query " << q;
      EXPECT_EQ(outcome.report.outputs[0], w.expected) << "query " << q;
      max_arrival = std::max(max_arrival, outcome.arrival_s);
      min_finish = std::min(min_finish, outcome.finish_s);
    }
    // The runs genuinely overlapped: every query arrived before the first
    // one finished.
    EXPECT_LT(max_arrival, min_finish);
    EXPECT_EQ(report->fleet.queries, kQueries);
    EXPECT_EQ(report->fleet.failed, 0);
    EXPECT_GT(report->fleet.throughput_qps, 0.0);
    EXPECT_GE(report->billing.total_cost, 0.0);
  }
}

TEST(Serving, ServingWorkloadIsDeterministic) {
  constexpr int32_t kWorkers = 4;
  Workload w = MakeWorkload(256, 8, 16, kWorkers);
  InferenceRequest request = MakeRequest(w, Variant::kQueue, kWorkers);
  auto run_once = [&]() {
    sim::Simulation sim;
    cloud::CloudEnv cloud(&sim);
    ServingRuntime serving(&cloud);
    const std::vector<double> arrivals = PoissonArrivals(2.0, 4, 99);
    for (double t : arrivals) {
      EXPECT_TRUE(serving.Submit(request, t).ok());
    }
    auto report = serving.Drain();
    EXPECT_TRUE(report.ok());
    std::vector<double> latencies;
    for (const QueryOutcome& outcome : report->queries) {
      latencies.push_back(outcome.report.latency_s);
    }
    return latencies;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Serving, ByteIdenticalOutputsAcrossBackendsAndScheduling) {
  // Determinism regression: one seed, one workload — every channel backend
  // must produce byte-identical per-query activations, whether queries run
  // sequentially (one simulation per query) or overlapped (one serving
  // simulation), and repeated runs must reproduce themselves exactly.
  constexpr int32_t kWorkers = 4;
  constexpr int kQueries = 3;
  Workload w = MakeWorkload(256, 8, 16, kWorkers, /*seed=*/42);
  for (Variant variant :
       {Variant::kQueue, Variant::kObject, Variant::kKv}) {
    SCOPED_TRACE(std::string(VariantName(variant)));
    InferenceRequest request = MakeRequest(w, variant, kWorkers);

    auto run_sequential = [&]() {
      std::vector<std::vector<linalg::ActivationMap>> outputs;
      sim::Simulation sim;
      cloud::CloudEnv cloud(&sim);
      for (int q = 0; q < kQueries; ++q) {
        auto report = RunInference(&cloud, request);
        EXPECT_TRUE(report.ok() && report->status.ok());
        outputs.push_back(report->outputs);
      }
      return outputs;
    };
    auto run_overlapped = [&]() {
      std::vector<std::vector<linalg::ActivationMap>> outputs;
      sim::Simulation sim;
      cloud::CloudEnv cloud(&sim);
      ServingRuntime serving(&cloud);
      for (int q = 0; q < kQueries; ++q) {
        EXPECT_TRUE(serving.Submit(request, 0.01 * q).ok());
      }
      auto report = serving.Drain();
      EXPECT_TRUE(report.ok());
      for (const QueryOutcome& outcome : report->queries) {
        EXPECT_TRUE(outcome.report.status.ok())
            << outcome.report.status.ToString();
        outputs.push_back(outcome.report.outputs);
      }
      return outputs;
    };

    const auto sequential = run_sequential();
    const auto overlapped = run_overlapped();
    // Repeat both schedules: byte-identical reproduction.
    EXPECT_EQ(sequential, run_sequential());
    EXPECT_EQ(overlapped, run_overlapped());
    // Overlap never changes values, and every query matches the serial
    // reference — which also makes outputs identical ACROSS backends.
    EXPECT_EQ(sequential, overlapped);
    for (const auto& outputs : overlapped) {
      ASSERT_EQ(outputs.size(), 1u);
      EXPECT_EQ(outputs[0], w.expected);
    }
  }
}

TEST(Serving, BurstArrivalsReuseWarmInstances) {
  constexpr int32_t kWorkers = 4;
  constexpr int32_t kPerBurst = 2;
  Workload w = MakeWorkload(256, 8, 16, kWorkers);
  InferenceRequest request = MakeRequest(w, Variant::kQueue, kWorkers);

  // Two bursts 60 s apart (within the keep-alive): the second burst must
  // find the first burst's instances warm.
  const std::vector<double> arrivals =
      BurstArrivals(/*bursts=*/2, kPerBurst, /*gap_s=*/60.0);
  ASSERT_EQ(arrivals.size(), 4u);

  sim::Simulation sim;
  cloud::CloudEnv cloud(&sim);
  ServingRuntime serving(&cloud);
  for (double t : arrivals) {
    ASSERT_TRUE(serving.Submit(request, t).ok());
  }
  auto report = serving.Drain();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->fleet.failed, 0);

  // Burst 1: every worker instance is cold. Burst 2: all warm.
  for (int q = 0; q < 2 * kPerBurst; ++q) {
    const RunMetrics& metrics = report->queries[q].report.metrics;
    if (q < kPerBurst) {
      EXPECT_EQ(metrics.cold_starts, kWorkers) << "query " << q;
    } else {
      EXPECT_EQ(metrics.cold_starts, 0) << "warm query " << q;
    }
  }
  EXPECT_EQ(report->fleet.cold_starts, kPerBurst * kWorkers);
  EXPECT_DOUBLE_EQ(report->fleet.cold_start_ratio, 0.5);

  // Ablation: per-query functions can never reuse instances.
  sim::Simulation cold_sim;
  cloud::CloudEnv cold_cloud(&cold_sim);
  ServingOptions cold_options;
  cold_options.share_functions = false;
  ServingRuntime cold_serving(&cold_cloud, cold_options);
  for (double t : arrivals) {
    ASSERT_TRUE(cold_serving.Submit(request, t).ok());
  }
  auto cold_report = cold_serving.Drain();
  ASSERT_TRUE(cold_report.ok()) << cold_report.status().ToString();
  EXPECT_EQ(cold_report->fleet.cold_starts, 2 * kPerBurst * kWorkers);
  EXPECT_DOUBLE_EQ(cold_report->fleet.cold_start_ratio, 1.0);
}

TEST(Serving, StopOnFailureAbortsInFlightQueries) {
  constexpr int32_t kWorkers = 4;
  Workload w = MakeWorkload(256, 8, 16, kWorkers);
  InferenceRequest healthy = MakeRequest(w, Variant::kQueue, kWorkers);
  InferenceRequest poisoned = healthy;
  // A runtime cap far below the query latency: workers DeadlineExceeded.
  poisoned.options.worker_timeout_s = 0.01;

  sim::Simulation sim;
  cloud::CloudEnv cloud(&sim);
  ServingOptions options;
  options.stop_on_failure = true;
  ServingRuntime serving(&cloud, options);
  ASSERT_TRUE(serving.Submit(poisoned, 0.0).ok());
  for (int q = 0; q < 3; ++q) {
    ASSERT_TRUE(serving.Submit(healthy, 0.005 * (q + 1)).ok());
  }
  auto report = serving.Drain();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // The poisoned query failed; the workload drained (simulation is not
  // stuck with live pollers) and every query reached a terminal state.
  EXPECT_GE(report->fleet.failed, 1);
  EXPECT_FALSE(report->queries[0].report.status.ok());
  for (const QueryOutcome& outcome : report->queries) {
    EXPECT_GT(outcome.finish_s, 0.0);
  }
  EXPECT_EQ(sim.live_processes(), 0);
}

TEST(Serving, ResumedDrainCompletesCutOffQueries) {
  constexpr int32_t kWorkers = 4;
  Workload w = MakeWorkload(256, 8, 16, kWorkers);
  InferenceRequest request = MakeRequest(w, Variant::kQueue, kWorkers);

  sim::Simulation sim;
  cloud::CloudEnv cloud(&sim);
  ServingOptions options;
  options.run_until = 0.2;  // well before any query can finish
  ServingRuntime serving(&cloud, options);
  for (int q = 0; q < 3; ++q) {
    ASSERT_TRUE(serving.Submit(request, 0.01 * q).ok());
  }
  auto cut = serving.Drain();
  ASSERT_TRUE(cut.ok());
  for (const QueryOutcome& outcome : cut->queries) {
    EXPECT_FALSE(outcome.report.status.ok());
  }

  // Extending the horizon resumes the in-flight queries to completion.
  auto resumed = serving.Drain(/*run_until=*/-1.0);
  ASSERT_TRUE(resumed.ok());
  for (const QueryOutcome& outcome : resumed->queries) {
    ASSERT_TRUE(outcome.report.status.ok())
        << outcome.report.status.ToString();
    EXPECT_EQ(outcome.report.outputs[0], w.expected);
  }
  EXPECT_EQ(sim.live_processes(), 0);
  // Fleet dollars span both drains, not just the resumed interval.
  EXPECT_GT(resumed->fleet.total_cost, 0.0);
  EXPECT_GE(resumed->fleet.total_cost, resumed->billing.total_cost);
}

TEST(Serving, OutputsAreHandedOverByTheFirstDrainOnly) {
  constexpr int32_t kWorkers = 4;
  Workload w = MakeWorkload(256, 8, 16, kWorkers);
  InferenceRequest request = MakeRequest(w, Variant::kQueue, kWorkers);

  sim::Simulation sim;
  cloud::CloudEnv cloud(&sim);
  ServingRuntime serving(&cloud);
  for (int q = 0; q < 3; ++q) {
    ASSERT_TRUE(serving.Submit(request, 0.05 * q).ok());
  }
  auto first = serving.Drain();
  ASSERT_TRUE(first.ok());
  for (const QueryOutcome& outcome : first->queries) {
    ASSERT_TRUE(outcome.report.status.ok())
        << outcome.report.status.ToString();
    ASSERT_EQ(outcome.report.outputs.size(), 1u);
    EXPECT_EQ(outcome.report.outputs[0], w.expected);
  }

  // A second Drain repeats every outcome but hands no outputs over twice.
  auto second = serving.Drain();
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->queries.size(), first->queries.size());
  for (size_t i = 0; i < first->queries.size(); ++i) {
    const QueryOutcome& a = first->queries[i];
    const QueryOutcome& b = second->queries[i];
    EXPECT_EQ(b.query_id, a.query_id);
    EXPECT_EQ(b.disposition, a.disposition);
    EXPECT_EQ(b.finish_s, a.finish_s);
    EXPECT_EQ(b.queue_wait_s, a.queue_wait_s);
    EXPECT_EQ(b.deadline_met, a.deadline_met);
    EXPECT_EQ(b.report.latency_s, a.report.latency_s);
    EXPECT_EQ(b.report.metrics.Summary(), a.report.metrics.Summary());
    EXPECT_TRUE(b.report.outputs.empty());
  }
  EXPECT_EQ(second->fleet.Summary(), first->fleet.Summary());
  EXPECT_EQ(second->fleet.total_cost, first->fleet.total_cost);
  EXPECT_EQ(second->billing.total_cost, 0.0);
}

TEST(Serving, FreshCloudEnvsAllocateTheSameRunIds) {
  // Run ids come from the CloudEnv, not the process: the same workload on
  // a fresh env gets the same ids and channel scopes however many runs the
  // process served before it.
  constexpr int32_t kWorkers = 2;
  Workload w = MakeWorkload(128, 4, 8, kWorkers);
  InferenceRequest request = MakeRequest(w, Variant::kQueue, kWorkers);
  struct Names {
    std::string scope;
    std::vector<uint64_t> ids;
  };
  auto names_on_fresh_env = [&]() {
    sim::Simulation sim;
    cloud::CloudEnv cloud(&sim);
    Names names;
    auto state = PrepareRunState(&cloud, request, cloud.AllocateRunId());
    EXPECT_TRUE(state.ok()) << state.status().ToString();
    names.scope = (*state)->options.channel_scope;
    EXPECT_TRUE(RunInference(&cloud, request).ok());
    ServingRuntime serving(&cloud);
    for (int q = 0; q < 2; ++q) {
      EXPECT_TRUE(serving.Submit(request, 0.05 * q).ok());
    }
    auto report = serving.Drain();
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    for (const QueryOutcome& outcome : report->queries) {
      EXPECT_TRUE(outcome.report.status.ok());
      names.ids.push_back(outcome.query_id);
      names.ids.push_back(outcome.run_id);
    }
    return names;
  };
  const Names first = names_on_fresh_env();
  const Names second = names_on_fresh_env();
  EXPECT_EQ(first.scope, "r0-");
  EXPECT_EQ(second.scope, first.scope);
  EXPECT_EQ(second.ids, first.ids);
}

TEST(Serving, DestructSimulationWithLiveServingQueries) {
  // Cutting a serving workload off mid-flight leaves many concurrent
  // in-flight queries; destructing the Simulation must unwind them all.
  constexpr int32_t kWorkers = 4;
  Workload w = MakeWorkload(256, 8, 16, kWorkers);
  InferenceRequest request = MakeRequest(w, Variant::kQueue, kWorkers);
  {
    sim::Simulation sim;
    cloud::CloudEnv cloud(&sim);
    ServingOptions options;
    options.run_until = 0.2;  // well before any query can finish
    ServingRuntime serving(&cloud, options);
    for (int q = 0; q < 4; ++q) {
      ASSERT_TRUE(serving.Submit(request, 0.01 * q).ok());
    }
    auto report = serving.Drain();
    ASSERT_TRUE(report.ok());
    for (const QueryOutcome& outcome : report->queries) {
      EXPECT_FALSE(outcome.report.status.ok());
    }
    EXPECT_GT(sim.live_processes(), 0);
  }  // Simulation destructor unwinds the live queries
  SUCCEED();
}

}  // namespace
}  // namespace fsd::core
