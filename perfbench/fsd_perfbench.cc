// One process of the repository benchmark.
//
// Builds a seeded workload through the library's public entry points
// (model::GenerateSparseDnn / GenerateInputBatch, part::PartitionModel,
// core::GenerateTrace), runs it once with the default SimTuning on one
// thread (core::RunInference, or ServingRuntime + ReplayTrace), checks every
// query's output against model::ReferenceInference and prints one JSON line
// of measurements on both clocks:
//   "v.*"  virtual-time figures from the simulated cloud (deterministic);
//   "w.*"  wall-clock figures of this process;
//   "n.*"  query accounting.
//
// Usage: fsd_perfbench --workload <name> --seed <n> [--seconds <s>]
//            [--trace-seed <n>] [--trace <spans.json>]
//
// With --trace, spans (name, start, end, parent) are recorded around the
// benchmark's own calls into each layer, the layer probes re-issue the
// run's data-plane calls (LayerForwardAll, EncodeRows/DecodeRows, LZ, CRC)
// on the workload's own model, batch and send maps, and the spans are
// written to the given file at exit. Exits 1 on a wrong output, a query
// accounting that does not add up, a virtual figure that differs between
// repetitions, or a failed call; 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cloud/cloud.h"
#include "codec/crc32.h"
#include "codec/lz.h"
#include "core/runtime.h"
#include "core/serialization.h"
#include "core/serving.h"
#include "core/trace.h"
#include "linalg/spmm.h"
#include "model/input_gen.h"
#include "model/reference.h"
#include "model/sparse_dnn.h"
#include "part/model_partition.h"
#include "sim/simulation.h"

namespace {

using namespace fsd;
using Clock = std::chrono::steady_clock;

constexpr double kMiB = 1024.0 * 1024.0;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "fsd_perfbench: %s\n", what.c_str());
  std::exit(1);
}

template <typename T>
T Unwrap(Result<T> result, const char* what) {
  if (!result.ok()) {
    Fail(std::string(what) + ": " + result.status().ToString());
  }
  return std::move(result).value();
}

// ---------------------------------------------------------------------------
// Spans: kept in memory, written out once at exit. Off = no-ops.

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), t0_(Clock::now()) {}

  /// Pauses or resumes recording; call only while no span other than the
  /// root is open.
  void set_enabled(bool on) { on_ = on; }

  int Begin(const char* name) {
    if (!on_) return -1;
    spans_.push_back({name, SecondsSince(t0_), 0.0,
                      open_.empty() ? -1 : open_.back()});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void End(int id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end = SecondsSince(t0_);
    open_.pop_back();
  }
  /// Summed duration of every span called `name`.
  double Total(const std::string& name) const {
    double total = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name) total += s.end - s.start;
    }
    return total;
  }
  bool Write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,"
                   "\"end_s\":%.9f,\"parent\":%d}%s\n",
                   i, s.name.c_str(), s.start, s.end, s.parent,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    double start;
    double end;
    int parent;
  };
  bool on_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer->Begin(name)) {}
  ~Scope() { tracer_->End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// ---------------------------------------------------------------------------
// Workloads.

struct Spec {
  int32_t neurons = 0;
  int32_t layers = 0;
  int32_t batch = 0;   ///< samples per query
  int32_t workers = 0;  ///< P
  int32_t setups = 0;   ///< set-up repetitions (a fixed count per workload)
};

Spec SpecFor(const std::string& workload) {
  if (workload == "batch_lossless") return {4096, 4, 64, 20, 6};
  if (workload == "serving_serial") return {1024, 2, 16, 1, 100};
  if (workload == "flash_crowd") return {1024, 2, 16, 8, 12};
  return {};
}

struct Inputs {
  model::SparseDnn dnn;
  linalg::ActivationMap input;
  part::ModelPartition partition;
  core::WorkloadTrace trace;  ///< empty for the closed-loop workload
};

/// The open-loop traces. Serving: a diurnal swing of +-60% over the trace
/// with an interactive tenant (deadline near the batching window) and a
/// bulk tenant (loose deadline). Flash crowd: a quiet base rate with a x12
/// step lasting one sixth of the trace. Like the model, the trace is part
/// of the workload's definition: the benchmark seed does not change it, and
/// `trace_seed` defaults to the generator's default seed.
core::TraceConfig TraceFor(const std::string& workload, uint64_t trace_seed) {
  core::TraceConfig config;
  config.seed = trace_seed;
  if (workload == "serving_serial") {
    config.duration_s = 240.0;
    config.base_rate_qps = 4.5;
    config.diurnal_amplitude = 0.6;
    config.diurnal_period_s = config.duration_s;
    core::TenantSpec interactive;
    interactive.tenant = 1;
    interactive.name = "interactive";
    interactive.qps_share = 0.5;
    interactive.priority = 1;
    interactive.slo_deadline_s = 0.5;
    core::TenantSpec bulk;
    bulk.tenant = 2;
    bulk.name = "bulk";
    bulk.qps_share = 0.5;
    bulk.priority = 0;
    bulk.slo_deadline_s = 30.0;
    config.tenants = {interactive, bulk};
  } else {
    config.duration_s = 120.0;
    config.base_rate_qps = 0.25;
    config.flash_crowds = {
        {config.duration_s / 2.0, config.duration_s / 6.0, 12.0}};
  }
  return config;
}

/// The model (generator seed 7) and the trace are fixed per workload; the
/// benchmark seed draws the query batch.
Inputs BuildInputs(const std::string& workload, const Spec& spec,
                   uint64_t seed, uint64_t trace_seed, Tracer* tracer) {
  Inputs in;
  {
    Scope span(tracer, "model.generate");
    model::SparseDnnConfig config;
    config.neurons = spec.neurons;
    config.layers = spec.layers;
    in.dnn = Unwrap(model::GenerateSparseDnn(config), "GenerateSparseDnn");
    model::InputConfig input_config;
    input_config.neurons = spec.neurons;
    input_config.batch = spec.batch;
    input_config.seed = seed * 40503ull + 11;
    in.input = Unwrap(model::GenerateInputBatch(input_config),
                      "GenerateInputBatch");
  }
  {
    Scope span(tracer, "part.partition");
    in.partition = Unwrap(part::PartitionModel(in.dnn, spec.workers, {}),
                          "PartitionModel");
  }
  if (workload != "batch_lossless") {
    Scope span(tracer, "core.trace");
    in.trace = Unwrap(core::GenerateTrace(TraceFor(workload, trace_seed)),
                      "GenerateTrace");
  }
  return in;
}

struct Measured {
  int64_t submitted = 0;
  int64_t completed = 0;
  int64_t failed = 0;
  int64_t rejected = 0;
  int64_t shed = 0;
  int64_t wrong = 0;
  int64_t slo_met = 0;  ///< completed by the deadline (none = met)
  std::vector<double> latencies;
  std::vector<double> queue_waits;
  core::LayerMetrics totals;  ///< summed over completed queries
  double model_load_s = 0.0;
  int64_t invocations = 0;
  int64_t cold_starts = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t storage_loads = 0;
  int64_t peer_loads = 0;
  int64_t peer_bytes = 0;
  int64_t prewarm_invocations = 0;
  int64_t prewarmed_hits = 0;
  double occupancy_mean = 1.0;
  uint64_t events = 0;
  core::BillingDelta billing;
  double run_wall_s = 0.0;
  /// Options of each completed query, whose data-plane calls the layer
  /// probes re-issue.
  std::vector<core::FsdOptions> probe_runs;
};

void AddQueryMetrics(const core::RunMetrics& metrics, Measured* out) {
  out->totals.Add(metrics.totals);
  for (const core::WorkerMetrics& w : metrics.workers) {
    out->model_load_s += w.model_load_s;
  }
  out->cache_hits += metrics.cache_hits;
  out->cache_misses += metrics.cache_misses;
  out->storage_loads += metrics.share_loads_storage;
  out->peer_loads += metrics.share_loads_peer;
  out->peer_bytes += metrics.share_peer_bytes;
}

bool SameOutputs(const std::vector<linalg::ActivationMap>& outputs,
                 const linalg::ActivationMap& expected) {
  return outputs.size() == 1 && outputs[0] == expected;
}

/// Closed loop, one client: two passes over queue -> object -> kv -> direct
/// on one CloudEnv, so cold and warm trees both appear.
Measured RunBatch(const Inputs& in, const linalg::ActivationMap& expected,
                  Tracer* tracer) {
  Measured m;
  sim::Simulation sim;
  cloud::CloudEnv cloud(&sim);
  const auto before = core::SnapshotLedger(cloud.billing());
  const core::Variant backends[] = {core::Variant::kQueue,
                                    core::Variant::kObject,
                                    core::Variant::kKv, core::Variant::kDirect};
  const Clock::time_point t0 = Clock::now();
  {
    Scope span(tracer, "runtime.run");
    for (int pass = 0; pass < 2; ++pass) {
      for (core::Variant variant : backends) {
        core::InferenceRequest request;
        request.dnn = &in.dnn;
        request.partition = &in.partition;
        request.batches = {&in.input};
        request.options.variant = variant;
        request.options.num_workers = in.partition.num_parts;
        ++m.submitted;
        auto report = core::RunInference(&cloud, request);
        if (!report.ok() || !report->status.ok()) {
          ++m.failed;
          continue;
        }
        ++m.completed;
        ++m.slo_met;  // closed-loop queries carry no deadline
        if (!SameOutputs(report->outputs, expected)) ++m.wrong;
        m.latencies.push_back(report->latency_s);
        m.queue_waits.push_back(0.0);
        AddQueryMetrics(report->metrics, &m);
        m.invocations += static_cast<int64_t>(report->metrics.workers.size());
        m.cold_starts += report->metrics.cold_starts;
        m.probe_runs.push_back(request.options);
      }
    }
  }
  m.run_wall_s = SecondsSince(t0);
  m.events = sim.events_dispatched();
  m.billing = core::DiffLedger(before, cloud.billing());
  return m;
}

/// Open loop in virtual time: the trace replayed into one ServingRuntime.
Measured RunServing(const std::string& workload, const Inputs& in,
                    const linalg::ActivationMap& expected, Tracer* tracer) {
  Measured m;
  sim::Simulation sim;
  cloud::CloudEnv cloud(&sim);
  const auto before = core::SnapshotLedger(cloud.billing());

  core::ServingOptions options;
  core::InferenceRequest request;
  request.dnn = &in.dnn;
  request.partition = &in.partition;
  request.batches = {&in.input};
  request.options.num_workers = in.partition.num_parts;
  if (workload == "serving_serial") {
    request.options.variant = core::Variant::kSerial;
    options.batch_window_s = 0.5;
    options.admission_control = true;
    options.queue_discipline = core::QueueDiscipline::kEdf;
    options.max_concurrent_runs = 4;
  } else {
    request.options.variant = core::Variant::kQueue;
    options.peer_share_transfer = true;
    options.predictive_prewarm = true;
  }

  core::ServingReport report;
  const Clock::time_point t0 = Clock::now();
  {
    auto runtime = std::make_unique<core::ServingRuntime>(&cloud, options);
    {
      Scope span(tracer, "runtime.run");
      report = Unwrap(core::ReplayTrace(*runtime, in.trace, request),
                      "ReplayTrace");
    }
  }  // teardown bills the share distributor's relay: part of the workload
  m.run_wall_s = SecondsSince(t0);
  m.events = sim.events_dispatched();
  m.billing = core::DiffLedger(before, cloud.billing());

  for (const core::QueryOutcome& q : report.queries) {
    ++m.submitted;
    switch (q.disposition) {
      case core::QueryDisposition::kCompleted:
        break;
      case core::QueryDisposition::kRejected:
        ++m.rejected;
        continue;
      case core::QueryDisposition::kShed:
        ++m.shed;
        continue;
      default:
        ++m.failed;
        continue;
    }
    if (!q.report.status.ok()) {
      ++m.failed;
      continue;
    }
    ++m.completed;
    if (q.deadline_met) ++m.slo_met;
    if (!SameOutputs(q.report.outputs, expected)) ++m.wrong;
    m.latencies.push_back(q.report.latency_s);
    m.queue_waits.push_back(q.queue_wait_s);
    AddQueryMetrics(q.report.metrics, &m);
    m.probe_runs.push_back(request.options);
  }
  // Tree-level counters: the fleet view counts them once per tree.
  m.invocations = report.fleet.worker_invocations;
  m.cold_starts = report.fleet.cold_starts;
  m.prewarm_invocations = report.fleet.prewarm_invocations;
  m.prewarmed_hits = report.fleet.prewarmed_hits;
  m.occupancy_mean = report.fleet.batch_occupancy_mean;
  return m;
}

// ---------------------------------------------------------------------------
// Layer probes: re-issue each completed query's data-plane calls.

struct Probe {
  double macs = 0.0;
  int64_t codec_calls = 0;
  double raw_bytes = 0.0;
  uint32_t crc = 0;  ///< folded CRC of the raw payloads (keeps the calls)
};

/// Chunk cap each backend passes to EncodeRows.
uint64_t ChunkCap(const core::FsdOptions& options) {
  switch (options.variant) {
    case core::Variant::kQueue:
      return options.max_message_bytes;
    case core::Variant::kKv:
    case core::Variant::kDirect:
      return options.kv_max_value_bytes;
    default:
      return 0;  // object payloads are one unbounded chunk
  }
}

Probe RunProbes(const Inputs& in,
                const std::vector<linalg::ActivationMap>& layer_inputs,
                const std::vector<core::FsdOptions>& runs, Tracer* tracer) {
  Probe probe;
  const int32_t batch = in.input.begin()->second.dim;
  for (const core::FsdOptions& options : runs) {
    Scope run_span(tracer, "probe.run");
    const core::WireCodec codec = core::WireCodecFromOptions(options);
    const uint64_t cap = ChunkCap(options);
    for (size_t k = 0; k < layer_inputs.size(); ++k) {
      const linalg::ActivationMap& x = layer_inputs[k];
      {
        Scope span(tracer, "linalg.forward");
        linalg::LayerForwardStats stats;
        linalg::ActivationMap out = linalg::LayerForwardAll(
            in.dnn.weights[k],
            [&x](int32_t row) -> const linalg::SparseVector* {
              auto it = x.find(row);
              return it == x.end() ? nullptr : &it->second;
            },
            in.dnn.config.bias, in.dnn.config.relu_cap, batch, &stats);
        probe.macs += stats.macs;
      }
      if (in.partition.num_parts < 2) continue;  // no sends
      const part::LayerComm& comm = in.partition.layers[k];
      std::vector<const std::vector<int32_t>*> sent;
      for (const auto& sends : comm.send) {
        for (const part::SendEntry& entry : sends) {
          if (options.variant == core::Variant::kObject &&
              options.nul_markers &&
              core::PlanRows(x, entry.rows, cap).active_rows == 0) {
            continue;  // a .nul marker, no payload
          }
          sent.push_back(&entry.rows);
        }
      }
      std::vector<core::EncodeResult> encoded;
      {
        Scope span(tracer, "codec.encode");
        for (const std::vector<int32_t>* rows : sent) {
          encoded.push_back(core::EncodeRows(x, *rows, cap, codec));
          ++probe.codec_calls;
        }
      }
      {
        Scope span(tracer, "codec.decode");
        for (const core::EncodeResult& result : encoded) {
          for (const core::RowChunk& chunk : result.chunks) {
            linalg::ActivationMap received;
            if (!core::DecodeRows(chunk.wire, &received).ok()) {
              Fail("DecodeRows rejected an EncodeRows chunk");
            }
            ++probe.codec_calls;
            probe.raw_bytes += static_cast<double>(chunk.raw_bytes);
          }
        }
      }
      if (!codec.compress) continue;
      // The LZ and CRC stages on their own, over the same raw payloads.
      std::vector<Bytes> raw;  // uncompressed chunks minus the tag byte
      for (const std::vector<int32_t>* rows : sent) {
        for (const core::RowChunk& chunk :
             core::EncodeRows(x, *rows, cap, core::LosslessCodec()).chunks) {
          raw.emplace_back(chunk.wire.begin() + 1, chunk.wire.end());
        }
      }
      std::vector<Bytes> packed;
      {
        Scope span(tracer, "codec.lz_compress");
        for (const Bytes& r : raw) {
          packed.push_back(codec::LzCompress(r, codec.lz));
        }
      }
      {
        Scope span(tracer, "codec.lz_decompress");
        for (const Bytes& p : packed) {
          if (!codec::LzDecompress(p).ok()) Fail("LzDecompress failed");
        }
      }
      {
        Scope span(tracer, "codec.crc32");
        for (const Bytes& r : raw) {
          probe.crc ^= codec::Crc32(r.data(), r.size());
        }
      }
    }
  }
  return probe;
}

// ---------------------------------------------------------------------------
// Output.

/// The highest nearest-rank percentile with at least ten samples beyond it
/// (the maximum when fewer than 11 samples exist): {value, percentile}.
std::pair<double, double> Tail(std::vector<double> values) {
  if (values.empty()) return {0.0, 0.0};
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n < 11) return {values.back(), 100.0};
  const size_t rank = n - 10;  // 1-based; ten samples lie beyond it
  return {values[rank - 1], 100.0 * static_cast<double>(rank) /
                                static_cast<double>(n)};
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

const char* Sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "asan";
#elif defined(__SANITIZE_THREAD__)
  return "tsan";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return "asan";
#elif __has_feature(thread_sanitizer)
  return "tsan";
#else
  return "none";
#endif
#else
  return "none";
#endif
}

class JsonLine {
 public:
  void Num(const std::string& key, int64_t value) {
    Num(key, static_cast<double>(value));
  }
  void Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    Raw(key, buf);
  }
  void Str(const std::string& key, const std::string& value) {
    Raw(key, "\"" + value + "\"");
  }
  std::string Done() const { return "{" + body_ + "}"; }

 private:
  void Raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + value;
  }
  std::string body_;
};

/// The query accounting and every virtual-time figure of one run: a pure
/// function of the seed, so repetitions must reproduce it byte for byte.
void VirtualFields(const Measured& m, JsonLine* out) {
  JsonLine& j = *out;
  j.Num("n.submitted", m.submitted);
  j.Num("n.completed", m.completed);
  j.Num("n.failed", m.failed);
  j.Num("n.rejected", m.rejected);
  j.Num("n.shed", m.shed);
  j.Num("n.wrong", m.wrong);
  const auto [tail, tail_pct] = Tail(m.latencies);
  const core::LayerMetrics& t = m.totals;
  const double receives =
      static_cast<double>(t.polls + t.kv_pops + t.direct_pops);
  const double empty_receives = static_cast<double>(
      t.empty_polls + t.kv_empty_pops + t.direct_empty_pops);
  const double requests = static_cast<double>(
      t.publishes + t.polls + t.deletes + t.puts_dat + t.puts_nul + t.lists +
      t.gets + t.kv_pushes + t.kv_pops + t.direct_msgs + t.direct_pops);
  j.Num("v.latency_p50_s", Median(m.latencies));
  j.Num("v.latency_tail_s", tail);
  j.Num("v.latency_tail_pct", tail_pct);
  j.Num("v.latency_n", static_cast<double>(m.latencies.size()));
  j.Num("v.dollars_per_query",
        Ratio(m.billing.total_cost, static_cast<double>(m.completed)));
  j.Num("v.slo_met_share",
        Ratio(static_cast<double>(m.slo_met),
              static_cast<double>(m.submitted)));
  j.Num("v.worker.compute_s", t.compute_s);
  j.Num("v.worker.model_load_s", m.model_load_s);
  j.Num("v.serialization.serialize_s", t.serialize_s);
  j.Num("v.serialization.deserialize_s", t.deserialize_s);
  j.Num("v.serialization.wire_mb",
        static_cast<double>(t.send_wire_bytes) / kMiB);
  j.Num("v.serialization.wire_ratio",
        Ratio(static_cast<double>(t.send_wire_bytes),
              static_cast<double>(t.send_raw_bytes)));
  j.Num("v.channel.recv_wait_s", t.recv_wait_s);
  j.Num("v.channel.requests", requests);
  j.Num("v.channel.empty_receive_ratio", Ratio(empty_receives, receives));
  j.Num("v.collectives.rounds", t.collective_rounds);
  j.Num("v.collectives.round_s", t.collective_round_s);
  j.Num("v.p2p.punch_failures", t.punch_failures);
  j.Num("v.p2p.relay_fallback_msgs", t.relay_fallback_msgs);
  j.Num("v.partition_cache.hit_ratio",
        Ratio(static_cast<double>(m.cache_hits),
              static_cast<double>(m.cache_hits + m.cache_misses)));
  j.Num("v.share_distributor.storage_loads", m.storage_loads);
  j.Num("v.share_distributor.peer_loads", m.peer_loads);
  j.Num("v.share_distributor.peer_mb",
        static_cast<double>(m.peer_bytes) / kMiB);
  j.Num("v.prewarm.invocations", m.prewarm_invocations);
  j.Num("v.prewarm.useful_ratio",
        Ratio(static_cast<double>(m.prewarmed_hits),
              static_cast<double>(m.prewarm_invocations)));
  j.Num("v.faas.worker_invocations", m.invocations);
  j.Num("v.faas.cold_start_ratio",
        Ratio(static_cast<double>(m.cold_starts),
              static_cast<double>(m.invocations)));
  j.Num("v.scheduler.queue_wait_p50_s", Median(m.queue_waits));
  j.Num("v.scheduler.queue_wait_tail_s", Tail(m.queue_waits).first);
  j.Num("v.scheduler.batch_occupancy_mean", m.occupancy_mean);
  j.Num("v.scheduler.rejected", m.rejected);
  j.Num("v.scheduler.shed", m.shed);
  j.Num("v.sim.events", static_cast<double>(m.events));
  j.Num("v.billing.faas_dollars", m.billing.faas_cost);
  j.Num("v.billing.comm_dollars", m.billing.comm_cost);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string spans_path;
  uint64_t seed = 0;
  uint64_t trace_seed = core::TraceConfig{}.seed;
  double seconds = 0.0;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      workload = argv[i + 1];
    } else if (flag == "--seed") {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
      have_seed = true;
    } else if (flag == "--trace-seed") {
      trace_seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(argv[i + 1], nullptr);
    } else if (flag == "--trace") {
      spans_path = argv[i + 1];
    } else {
      break;
    }
  }
  const Spec spec = SpecFor(workload);
  if (spec.neurons == 0 || !have_seed || argc % 2 == 0) {
    std::fprintf(stderr,
                 "usage: fsd_perfbench --workload batch_lossless|"
                 "serving_serial|flash_crowd --seed <n> [--seconds <s>] "
                 "[--trace-seed <n>] [--trace <spans.json>]\n");
    return 2;
  }
  const bool tracing = !spans_path.empty();
  Tracer tracer(tracing);
  const int root = tracer.Begin("workload");

  // Set-up repeats a fixed number of times and is reported as the fastest,
  // the least disturbed by other work on the host; the traced run sets up
  // once so that its spans describe one set-up. The previous set is freed
  // first, so that peak RSS holds one set of inputs.
  const int32_t setups = tracing ? 1 : spec.setups;
  std::vector<double> setup_times;
  Inputs in;
  for (int32_t i = 0; i < setups; ++i) {
    in = Inputs{};
    const Clock::time_point t0 = Clock::now();
    Scope span(&tracer, "setup");
    in = BuildInputs(workload, spec, seed, trace_seed, &tracer);
    setup_times.push_back(SecondsSince(t0));
  }

  // Ground truth; the traced run also keeps every layer's input x^{k-1}.
  std::vector<linalg::ActivationMap> layer_inputs;
  linalg::ActivationMap expected;
  {
    Scope span(&tracer, "model.reference");
    std::function<void(int32_t, const linalg::ActivationMap&)> keep;
    if (tracing) {
      layer_inputs.push_back(in.input);
      keep = [&](int32_t, const linalg::ActivationMap& x) {
        layer_inputs.push_back(x);
      };
    }
    expected = Unwrap(
        model::ReferenceInference(in.dnn, in.input, nullptr, keep),
        "ReferenceInference");
    if (!layer_inputs.empty()) layer_inputs.pop_back();  // the final output
  }

  // The workload runs on a fresh simulated cloud per repetition: at least
  // three times and until `seconds` have passed, or, traced, exactly three
  // times (warm-up, untraced, traced). Every repetition must reproduce the
  // first one's virtual figures exactly.
  Measured m;
  std::string virtual_digest;
  std::vector<double> walls;
  std::vector<double> rates;
  int64_t mismatches = 0;
  double peak_rss_mb = 0.0;
  const Clock::time_point runs_start = Clock::now();
  while (walls.size() < 3 || (!tracing && walls.size() < 50 &&
                              SecondsSince(runs_start) < seconds)) {
    tracer.set_enabled(tracing && walls.size() == 2);
    Measured rep = workload == "batch_lossless"
                       ? RunBatch(in, expected, &tracer)
                       : RunServing(workload, in, expected, &tracer);
    JsonLine digest;
    VirtualFields(rep, &digest);
    const double rate = static_cast<double>(rep.completed) / rep.run_wall_s;
    walls.push_back(rep.run_wall_s);
    if (!(tracing && walls.size() == 3)) rates.push_back(rate);  // untraced
    std::fprintf(stderr, "repetition %zu: %.3f s wall, %.3f queries/s\n",
                 walls.size(), rep.run_wall_s, rate);
    if (walls.size() == 1) {
      // Peak RSS of set-up plus one repetition: later repetitions only
      // re-use (and fragment) the same heap, so their number, which
      // depends on the host's speed, must not move the figure.
      peak_rss_mb = PeakRssMb();
      virtual_digest = digest.Done();
      m = std::move(rep);
    } else if (digest.Done() != virtual_digest) {
      ++mismatches;
      std::fprintf(stderr, "repetition %zu differs:\n  %s\n  %s\n",
                   walls.size(), virtual_digest.c_str(),
                   digest.Done().c_str());
    }
  }
  tracer.set_enabled(tracing);

  Probe probe;
  if (tracing) {
    Scope span(&tracer, "probe");
    probe = RunProbes(in, layer_inputs, m.probe_runs, &tracer);
  }
  tracer.End(root);

  JsonLine j;
  j.Str("workload", workload);
  j.Num("seed", static_cast<double>(seed));
  j.Num("trace_seed", static_cast<double>(trace_seed));
  j.Num("host.cores",
        static_cast<int64_t>(std::thread::hardware_concurrency()));
  j.Str("host.kernel", linalg::LayerForwardKernelName());
  j.Str("host.compiler", __VERSION__);
  j.Str("host.sanitizer", Sanitizer());
  j.Num("n.repetitions", static_cast<double>(walls.size()));
  j.Num("n.repeat_mismatches", mismatches);
  // Interference from other work on the host only slows a set-up or a
  // repetition, so the fastest one is the least disturbed measurement of
  // the program.
  j.Num("w.setup_s",
        *std::min_element(setup_times.begin(), setup_times.end()));
  j.Num("w.queries_per_wall_s",
        *std::max_element(rates.begin(), rates.end()));
  j.Num("w.queries_per_wall_median", Median(rates));
  j.Num("w.peak_rss_mb", peak_rss_mb);
  VirtualFields(m, &j);
  if (tracing) {
    const double run_wall_s = walls[2];
    const double forward_s = tracer.Total("linalg.forward");
    const double encode_s = tracer.Total("codec.encode");
    const double decode_s = tracer.Total("codec.decode");
    j.Num("w.runtime.run_wall_s", run_wall_s);
    j.Num("w.trace.overhead_s", run_wall_s - walls[1]);
    j.Num("w.model.generate_s", tracer.Total("model.generate"));
    j.Num("w.part.partition_s", tracer.Total("part.partition"));
    j.Num("w.linalg.forward_s", forward_s);
    j.Num("w.linalg.macs", probe.macs);
    j.Num("w.codec.encode_s", encode_s);
    j.Num("w.codec.decode_s", decode_s);
    j.Num("w.codec.calls", probe.codec_calls);
    j.Num("w.codec.raw_mb", probe.raw_bytes / kMiB);
    j.Num("w.codec.lz_compress_s", tracer.Total("codec.lz_compress"));
    j.Num("w.codec.lz_decompress_s", tracer.Total("codec.lz_decompress"));
    j.Num("w.codec.crc32_s", tracer.Total("codec.crc32"));
    j.Num("w.runtime.unattributed_s",
          run_wall_s - forward_s - encode_s - decode_s);
    if (!tracer.Write(spans_path)) Fail("cannot write " + spans_path);
  }
  std::printf("%s\n", j.Done().c_str());

  bool ok = true;
  if (m.wrong != 0) {
    std::fprintf(stderr, "fsd_perfbench: %lld outputs differ from the "
                 "reference\n", static_cast<long long>(m.wrong));
    ok = false;
  }
  if (mismatches != 0) {
    std::fprintf(stderr, "fsd_perfbench: %lld repetitions changed a virtual "
                 "figure\n", static_cast<long long>(mismatches));
    ok = false;
  }
  if (m.completed + m.failed + m.rejected + m.shed != m.submitted) {
    std::fprintf(stderr, "fsd_perfbench: query dispositions do not add up\n");
    ok = false;
  }
  return ok ? 0 : 1;
}
