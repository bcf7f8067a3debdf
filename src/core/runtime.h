// FsdRuntime: the public entry point of the FSD-Inference library.
//
// Owns the interaction with the simulated cloud: provisions communication
// resources (offline), registers the coordinator and worker functions,
// submits an inference request, and collects latency / metrics / billing
// into an InferenceReport.
#ifndef FSD_CORE_RUNTIME_H_
#define FSD_CORE_RUNTIME_H_

#include <memory>
#include <string>
#include <vector>

#include "cloud/cloud.h"
#include "core/cost_model.h"
#include "core/fsd_config.h"
#include "core/metrics.h"
#include "core/worker.h"
#include "model/sparse_dnn.h"
#include "part/model_partition.h"

namespace fsd::core {

struct InferenceRequest {
  const model::SparseDnn* dnn = nullptr;
  const part::ModelPartition* partition = nullptr;
  /// One or more pre-buffered batches (the paper assumes batching upstream).
  std::vector<const linalg::ActivationMap*> batches;
  FsdOptions options;
};

/// Per-dimension billing delta attributable to one run.
struct BillingDelta {
  double faas_cost = 0.0;
  double comm_cost = 0.0;
  double total_cost = 0.0;
  double quantities[static_cast<int>(
      cloud::BillingDimension::kDimensionCount)] = {0};

  double quantity(cloud::BillingDimension dim) const {
    return quantities[static_cast<int>(dim)];
  }
};

struct InferenceReport {
  Status status;
  /// End-to-end query latency: request submission -> root returns x^L.
  double latency_s = 0.0;
  /// When the last worker of the tree had started (launch ablation metric).
  double launch_complete_s = 0.0;
  int32_t total_samples = 0;
  double per_sample_ms = 0.0;
  std::vector<linalg::ActivationMap> outputs;  ///< one per batch
  RunMetrics metrics;
  BillingDelta billing;            ///< "actual" charges for this run
  CostBreakdown predicted;         ///< cost-model prediction from metrics
  int32_t worker_memory_mb = 0;
};

/// Runs one inference request against `cloud`. Reentrant across runs on the
/// same CloudEnv (function names are uniqued; warm pools persist between
/// runs, matching repeated queries against a deployed stack).
Result<InferenceReport> RunInference(cloud::CloudEnv* cloud,
                                     const InferenceRequest& request);

/// ---- building blocks shared by RunInference and ServingRuntime ----
/// (serving.h runs many requests as overlapping processes in one
/// Simulation; these pieces keep the two paths byte-identical.)

/// The effective partition-cache family PrepareRunState stamps into
/// RunState::cache_family: the request's model_family (or a fingerprint of
/// the generator config) qualified with the partition-layout fingerprint.
/// Empty when the request's options disable caching. Exposed because the
/// serving runtime's pre-warm path must name the family BEFORE any run of
/// it exists.
std::string DeriveCacheFamily(const InferenceRequest& request);

/// Request validation alone (model/partition/batch shape checks), without
/// provisioning anything. The serving runtime's batch aggregator validates
/// at Submit() but defers PrepareRunState until the batch flushes, so
/// callers still get synchronous errors for malformed requests.
Status ValidateInferenceRequest(const InferenceRequest& request);

/// Sample columns across a validated request's batches (a batch's width is
/// its first row's SparseVector dim). The batching size-cap currency and
/// the per-member cost-attribution denominator — one definition so the two
/// can never diverge.
int32_t RequestSampleCols(const InferenceRequest& request);

/// Validates `request`, applies option defaults (worker memory), provisions
/// the channel resources named by `options.channel_scope`, and builds the
/// per-run shared state. Does NOT register FaaS functions: RunInference
/// registers per-run functions while ServingRuntime registers shared
/// dispatchers (one warm pool across queries); callers must set
/// `RunState::worker_function` before the coordinator executes.
Result<std::unique_ptr<RunState>> PrepareRunState(
    cloud::CloudEnv* cloud, const InferenceRequest& request, uint64_t run_id);

/// Coordinator handler body (paper §VI-A1): parses the request and invokes
/// the first level of the worker tree. Fires the run's done-signal on
/// failure or when the run was aborted before it started.
void RunCoordinator(cloud::FaasContext* ctx, RunState* state);

/// Assembles one member query's report (latency, outputs, metrics,
/// cost-model prediction) once the run's done-signal has fired; `t0`/`t1`
/// are the member's submission and the run's completion virtual times.
/// Moves the member's slice of the outputs out of the state; metrics are
/// sliced by attribution, not consumed:
///  - per-layer counters (communication, compute) are attributed exactly —
///    each batch's phases belong to exactly one member;
///  - tree-level costs every member shares (worker durations, model-share
///    reads, cache counters, launch time) are split by batch share
///    (member cols / total cols), with integer counters apportioned by
///    cumulative rounding so member slices always sum exactly to the run's
///    totals (workload-level predictions must reconcile with the ledger);
///  - cold starts are attributed to the first member (they happened once).
/// The sliced RunMetrics carries the member's share in `tree_share` so
/// PredictFromMetrics bills the member its fraction of the P worker
/// invocations. Billing is the caller's concern: under concurrent runs
/// only workload-level ledger diffs are meaningful.
InferenceReport CollectMemberReport(RunState* state, size_t member_index,
                                    double t0, double t1);

/// Single-member convenience (RunInference's whole-run collection): the
/// run's one member spans every batch, so this is CollectMemberReport of
/// member 0 — byte-identical to pre-batching collection.
InferenceReport CollectReport(RunState* state, double t0, double t1);

/// Ledger snapshot/diff used to attribute "actual" charges to an interval.
std::vector<cloud::BillingLine> SnapshotLedger(
    const cloud::BillingLedger& ledger);
BillingDelta DiffLedger(const std::vector<cloud::BillingLine>& before,
                        const cloud::BillingLedger& after);

}  // namespace fsd::core

#endif  // FSD_CORE_RUNTIME_H_
