#include "core/runtime.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/strings.h"
#include "core/channel.h"
#include "core/launcher.h"

namespace fsd::core {
namespace {

uint64_t MixHash(uint64_t h, uint64_t v) {
  return h ^ (v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2));
}

uint64_t FloatBits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// Order-sensitive fingerprint over every weight-determining generator
/// field: any config change that alters the generated weights must change
/// the derived cache family, or a warm instance would serve a share of a
/// different model as a hit.
uint64_t ModelConfigFingerprint(const model::SparseDnnConfig& c) {
  uint64_t h = 0xF5DCAFEull;
  h = MixHash(h, static_cast<uint64_t>(c.neurons));
  h = MixHash(h, static_cast<uint64_t>(c.layers));
  h = MixHash(h, static_cast<uint64_t>(c.nnz_per_row));
  h = MixHash(h, FloatBits(c.relu_cap));
  h = MixHash(h, FloatBits(c.bias));
  h = MixHash(h, static_cast<uint64_t>(c.window));
  h = MixHash(h, FloatBits(c.long_range_fraction));
  h = MixHash(h, static_cast<uint64_t>(c.num_global_offsets));
  h = MixHash(h, FloatBits(c.weight_min));
  h = MixHash(h, FloatBits(c.weight_max));
  h = MixHash(h, c.seed);
  return h;
}

/// Fingerprint of the partition layout (row ownership per part). Two
/// partitionings of one model — even at the same P, e.g. hypergraph vs
/// random — own different rows, so their shares must never alias in the
/// cache; function groups share warm instances across all of them.
uint64_t PartitionFingerprint(const part::ModelPartition& partition) {
  uint64_t h = MixHash(0xA9717ull,
                       static_cast<uint64_t>(partition.num_parts));
  for (const auto& rows : partition.owned_rows) {
    h = MixHash(h, rows.size());
    for (int32_t row : rows) h = MixHash(h, static_cast<uint64_t>(row));
  }
  return h;
}

/// Apportions an integer tree-level counter to the cumulative-share
/// interval [cum_before, cum_after]: member slices telescope, so summing
/// over members reproduces `total` exactly (the last member's cum_after is
/// exactly 1.0 because the share denominators are identical).
int64_t Apportion(int64_t total, double cum_before, double cum_after) {
  return std::llround(static_cast<double>(total) * cum_after) -
         std::llround(static_cast<double>(total) * cum_before);
}

Status Validate(const InferenceRequest& request) {
  if (request.dnn == nullptr || request.partition == nullptr) {
    return Status::InvalidArgument("request needs a model and a partition");
  }
  if (request.batches.empty()) {
    return Status::InvalidArgument("request carries no input batches");
  }
  const FsdOptions& options = request.options;
  if (options.num_workers < 1) {
    return Status::InvalidArgument("num_workers must be >= 1");
  }
  if (options.variant == Variant::kSerial && options.num_workers != 1) {
    return Status::InvalidArgument("FSD-Inf-Serial runs on a single worker");
  }
  if (request.partition->num_parts != options.num_workers) {
    return Status::FailedPrecondition(StrFormat(
        "model partitioned for %d workers but request asks for %d "
        "(the paper requires pre-partitioning for the chosen k)",
        request.partition->num_parts, options.num_workers));
  }
  if (static_cast<int32_t>(request.partition->layers.size()) !=
      request.dnn->layers()) {
    return Status::FailedPrecondition("partition does not match the model");
  }
  for (const auto* batch : request.batches) {
    if (batch == nullptr || batch->empty()) {
      return Status::InvalidArgument("null or empty input batch");
    }
  }
  return Status::OK();
}

}  // namespace

std::vector<cloud::BillingLine> SnapshotLedger(
    const cloud::BillingLedger& ledger) {
  std::vector<cloud::BillingLine> lines;
  for (int i = 0; i < static_cast<int>(cloud::BillingDimension::kDimensionCount);
       ++i) {
    lines.push_back(ledger.line(static_cast<cloud::BillingDimension>(i)));
  }
  return lines;
}

BillingDelta DiffLedger(const std::vector<cloud::BillingLine>& before,
                        const cloud::BillingLedger& after) {
  BillingDelta delta;
  for (int i = 0; i < static_cast<int>(cloud::BillingDimension::kDimensionCount);
       ++i) {
    const auto dim = static_cast<cloud::BillingDimension>(i);
    const cloud::BillingLine& b = before[i];
    const cloud::BillingLine& a = after.line(dim);
    const double cost = a.cost - b.cost;
    delta.quantities[i] = a.quantity - b.quantity;
    delta.total_cost += cost;
    if (dim == cloud::BillingDimension::kFaasInvocation ||
        dim == cloud::BillingDimension::kFaasRuntimeMbSec) {
      delta.faas_cost += cost;
    } else if (dim != cloud::BillingDimension::kVmSecond) {
      delta.comm_cost += cost;
    }
  }
  return delta;
}

std::string DeriveCacheFamily(const InferenceRequest& request) {
  const FsdOptions& options = request.options;
  if (!options.partition_cache || options.partition_cache_budget_bytes == 0 ||
      request.dnn == nullptr || request.partition == nullptr) {
    return "";
  }
  // Effective cache family: the caller's identity (or a fingerprint of
  // the full generator config, which uniquely determines synthetic
  // weights), always qualified with the partition-layout fingerprint —
  // shares of the same model under a different partitioning (different
  // P, or different scheme at the same P) must never alias.
  const std::string family =
      options.model_family.empty()
          ? StrFormat("dnn-%016llx",
                      static_cast<unsigned long long>(
                          ModelConfigFingerprint(request.dnn->config)))
          : options.model_family;
  return StrFormat("%s@%016llx", family.c_str(),
                   static_cast<unsigned long long>(
                       PartitionFingerprint(*request.partition)));
}

Status ValidateInferenceRequest(const InferenceRequest& request) {
  return Validate(request);
}

int32_t RequestSampleCols(const InferenceRequest& request) {
  int32_t cols = 0;
  for (const auto* batch : request.batches) {
    cols += batch->begin()->second.dim;
  }
  return cols;
}

Result<std::unique_ptr<RunState>> PrepareRunState(
    cloud::CloudEnv* cloud, const InferenceRequest& request,
    uint64_t run_id) {
  FSD_RETURN_IF_ERROR(Validate(request));
  FsdOptions options = request.options;
  if (options.worker_memory_mb <= 0) {
    options.worker_memory_mb =
        DefaultWorkerMemoryMb(request.dnn->neurons(), options.variant);
  }
  if (options.channel_scope.empty()) {
    // Default to a per-run scope. Shared unscoped resources leak state
    // between runs on one CloudEnv: a later run's receiver can list a
    // previous run's leftover object for the same (phase, source, target)
    // and then race the overwriting PUT's visibility window.
    options.channel_scope =
        StrFormat("r%llu-", static_cast<unsigned long long>(run_id));
  }

  // Offline provisioning (pre-created resources; not billed/timed). Scoped
  // names keep concurrent runs' channels isolated from one another.
  FSD_RETURN_IF_ERROR(ProvisionChannelResources(cloud, options));

  auto state = std::make_unique<RunState>();
  state->run_id = run_id;
  state->dnn = request.dnn;
  state->partition = request.partition;
  state->cache_family = DeriveCacheFamily(request);
  state->batches = request.batches;
  // Default membership: ONE query spanning every batch. The serving
  // runtime's batch aggregator overwrites this with the per-query slices
  // of a coalesced run.
  RunState::Member member;
  member.query_id = run_id;
  member.batch_begin = 0;
  member.batch_count = static_cast<int32_t>(request.batches.size());
  member.cols = RequestSampleCols(request);
  state->members = {member};
  state->options = std::move(options);
  state->cloud = cloud;
  state->outputs.resize(request.batches.size());
  state->metrics.workers.resize(state->options.num_workers);
  state->worker_status.assign(state->options.num_workers,
                              Status::Internal("worker never completed"));
  state->done = cloud->sim()->MakeSignal();
  state->quiesced = cloud->sim()->MakeSignal();
  return state;
}

void RunCoordinator(cloud::FaasContext* ctx, RunState* state) {
  // While the coordinator is alive it may launch more workers, so the run
  // cannot quiesce before it exits (see RunState::MaybeQuiesce).
  ++state->coordinators_active;
  Status status;
  if (state->abort) {
    // The workload was aborted before this query started: drain without
    // launching a worker tree that would only unwind again. Stamp worker 0
    // so the collected report carries the abort reason instead of the
    // opaque "never completed" placeholder.
    status = Status::Unavailable("run aborted before start");
    state->worker_status[0] = status;
    state->done->Fire();
  } else {
    // Parse request (tiny CPU), then invoke the first layer of workers.
    status = ctx->Burn(2e6);
    Rng rng(state->options.seed ^ 0xC00Dull);
    const std::vector<int32_t> first =
        CoordinatorInvokes(state->options.launch, state->options.num_workers);
    for (int32_t id : first) {
      if (!status.ok()) break;
      if (state->abort) {
        status = Status::Unavailable("run aborted during launch");
        break;
      }
      status =
          ctx->SleepFor(state->cloud->latency().faas_invoke_api.Sample(&rng));
      if (!status.ok()) break;
      cloud::FaasService::InvokeOutcome outcome =
          state->cloud->faas().InvokeAsync(
              state->worker_function,
              EncodeWorkerPayload(state->run_id, id));
      status = outcome.status;
      if (status.ok()) ++state->workers_launched;
    }
    if (!status.ok()) {
      state->abort = true;
      state->done->Fire();
    }
  }
  ctx->set_result(status);
  --state->coordinators_active;
  state->MaybeQuiesce();
}

InferenceReport CollectMemberReport(RunState* state, size_t member_index,
                                    double t0, double t1) {
  const RunState::Member& member = state->members[member_index];
  const double total_cols =
      std::max<double>(1.0, static_cast<double>(state->TotalCols()));
  double cols_before = 0.0;
  for (size_t i = 0; i < member_index; ++i) {
    cols_before += static_cast<double>(state->members[i].cols);
  }
  const double cum_before = cols_before / total_cols;
  const double cum_after =
      (cols_before + static_cast<double>(member.cols)) / total_cols;
  const double share = cum_after - cum_before;

  InferenceReport report;
  report.latency_s = t1 - t0;
  report.launch_complete_s = state->launch_complete_s - t0;
  report.worker_memory_mb = state->options.worker_memory_mb;
  report.status = Status::OK();
  for (const Status& s : state->worker_status) {
    if (!s.ok() && report.status.ok()) report.status = s;
  }
  if (state->options.variant == Variant::kSerial) {
    // Only worker 0 exists; its status decides.
    report.status = state->worker_status[0];
  }

  // The member's slice of the outputs (one map per of its batches).
  report.outputs.reserve(static_cast<size_t>(member.batch_count));
  for (int32_t b = 0; b < member.batch_count; ++b) {
    report.outputs.push_back(std::move(
        state->outputs[static_cast<size_t>(member.batch_begin + b)]));
  }

  // Metric attribution. Per-layer counters are exact — the member's batches
  // own the phase range [batch_begin, batch_begin + batch_count) * PPB.
  // Tree-level costs are split by batch share; integer counters by
  // cumulative rounding so member slices sum exactly to run totals.
  const int32_t ppb = state->PhasesPerBatch();
  const int32_t phase_begin = member.batch_begin * ppb;
  const int32_t phase_end = (member.batch_begin + member.batch_count) * ppb;
  report.metrics.workers.reserve(state->metrics.workers.size());
  for (const WorkerMetrics& w : state->metrics.workers) {
    WorkerMetrics out;
    out.worker_id = w.worker_id;
    // Cold starts happened once per tree; the first member carries them so
    // fleet-level cold-start counts stay exact under batching.
    out.cold_start = member_index == 0 && w.cold_start;
    const double duration = w.duration_s();
    out.start_time = w.start_time + cum_before * duration;
    out.end_time = w.start_time + cum_after * duration;
    out.model_load_s = w.model_load_s * share;
    out.launch_children_s = w.launch_children_s * share;
    out.model_get_parts = Apportion(w.model_get_parts, cum_before, cum_after);
    out.model_bytes_read =
        Apportion(w.model_bytes_read, cum_before, cum_after);
    out.model_gets_saved =
        Apportion(w.model_gets_saved, cum_before, cum_after);
    out.model_bytes_saved =
        Apportion(w.model_bytes_saved, cum_before, cum_after);
    out.cache_hits = Apportion(w.cache_hits, cum_before, cum_after);
    out.cache_misses = Apportion(w.cache_misses, cum_before, cum_after);
    out.cache_evictions = Apportion(w.cache_evictions, cum_before, cum_after);
    out.cache_invalidations =
        Apportion(w.cache_invalidations, cum_before, cum_after);
    out.cache_oversize_rejects =
        Apportion(w.cache_oversize_rejects, cum_before, cum_after);
    out.share_loads_storage =
        Apportion(w.share_loads_storage, cum_before, cum_after);
    out.share_loads_peer =
        Apportion(w.share_loads_peer, cum_before, cum_after);
    out.prewarmed_hits = Apportion(w.prewarmed_hits, cum_before, cum_after);
    out.share_peer_connects =
        Apportion(w.share_peer_connects, cum_before, cum_after);
    out.share_peer_chunks =
        Apportion(w.share_peer_chunks, cum_before, cum_after);
    out.share_peer_bytes =
        Apportion(w.share_peer_bytes, cum_before, cum_after);
    out.share_relay_chunks =
        Apportion(w.share_relay_chunks, cum_before, cum_after);
    out.share_relay_requests =
        Apportion(w.share_relay_requests, cum_before, cum_after);
    out.share_relay_bytes =
        Apportion(w.share_relay_bytes, cum_before, cum_after);
    const int32_t layer_end = std::min(
        phase_end, static_cast<int32_t>(w.layers.size()));
    for (int32_t phase = phase_begin; phase < layer_end; ++phase) {
      // Re-based so a member's metrics read like an unbatched run's.
      out.Layer(phase - phase_begin) = w.layers[static_cast<size_t>(phase)];
    }
    report.metrics.workers.push_back(std::move(out));
  }
  report.metrics.tree_share = share;
  report.metrics.Finalize();

  report.total_samples = member.cols;
  report.per_sample_ms =
      member.cols > 0 ? report.latency_s * 1000.0 / member.cols : 0.0;
  report.predicted = PredictFromMetrics(
      state->cloud->billing().pricing(), state->options, report.metrics,
      state->options.worker_memory_mb);
  return report;
}

InferenceReport CollectReport(RunState* state, double t0, double t1) {
  return CollectMemberReport(state, 0, t0, t1);
}

Result<InferenceReport> RunInference(cloud::CloudEnv* cloud,
                                     const InferenceRequest& request) {
  const uint64_t run_id = cloud->AllocateRunId();
  FSD_ASSIGN_OR_RETURN(std::unique_ptr<RunState> state,
                       PrepareRunState(cloud, request, run_id));
  RunState* raw_state = state.get();

  state->worker_function = StrFormat(
      "fsd-worker-%llu", static_cast<unsigned long long>(run_id));
  const std::string coordinator_fn = StrFormat(
      "fsd-coordinator-%llu", static_cast<unsigned long long>(run_id));

  cloud::FaasFunctionConfig worker_config;
  worker_config.name = state->worker_function;
  worker_config.memory_mb = state->options.worker_memory_mb;
  worker_config.timeout_s = state->options.worker_timeout_s;
  worker_config.handler = [raw_state](cloud::FaasContext* ctx) {
    Result<WorkerPayload> payload = DecodeWorkerPayload(ctx->payload());
    if (!payload.ok()) {
      ctx->set_result(payload.status());
      return;
    }
    RunFsiWorker(ctx, raw_state, payload->worker_id);
  };
  // On any failure from here on, per-run channel resources provisioned by
  // PrepareRunState must still be released (KV namespaces are stateful).
  Status status = cloud->faas().RegisterFunction(worker_config);
  if (!status.ok()) {
    TeardownChannelResources(cloud, raw_state->options).ok();
    return status;
  }

  // Coordinator: lightweight parser + first-level launcher (paper §VI-A1).
  cloud::FaasFunctionConfig coord_config;
  coord_config.name = coordinator_fn;
  coord_config.memory_mb = state->options.coordinator_memory_mb;
  coord_config.timeout_s = 900.0;
  coord_config.handler = [raw_state](cloud::FaasContext* ctx) {
    RunCoordinator(ctx, raw_state);
  };
  status = cloud->faas().RegisterFunction(coord_config);
  if (!status.ok()) {
    TeardownChannelResources(cloud, raw_state->options).ok();
    return status;
  }

  // --- submit the query and drive the simulation to completion ---
  const std::vector<cloud::BillingLine> before =
      SnapshotLedger(cloud->billing());
  Status client_status = Status::OK();
  double t0 = 0.0;
  double t1 = -1.0;
  cloud->sim()->AddProcess(
      StrFormat("client-%llu", static_cast<unsigned long long>(run_id)),
      [&, raw_state]() {
        t0 = cloud->sim()->Now();
        cloud::FaasService::InvokeOutcome outcome = cloud->faas().InvokeAsync(
            coordinator_fn, EncodeWorkerPayload(raw_state->run_id, 0));
        if (!outcome.status.ok()) {
          client_status = outcome.status;
          return;
        }
        cloud->sim()->WaitSignal(raw_state->done.get());
        t1 = cloud->sim()->Now();
      });
  cloud->sim()->Run();

  // Release per-run channel resources before diffing the ledger so the KV
  // namespace's node time is attributed to this run — on failure paths
  // too, or a long-lived CloudEnv would accumulate dead namespaces.
  const Status teardown =
      TeardownChannelResources(cloud, raw_state->options);
  FSD_RETURN_IF_ERROR(client_status);
  if (t1 < 0.0) {
    return Status::Internal("inference run never completed (deadlock?)");
  }
  FSD_RETURN_IF_ERROR(teardown);
  InferenceReport report = CollectReport(raw_state, t0, t1);
  report.billing = DiffLedger(before, cloud->billing());
  return report;
}

}  // namespace fsd::core
