// Million-query trace replay: DES kernel throughput on a production-style
// workload trace (diurnal sinusoid + flash crowd + three-tenant mix).
//
// The replay is a synthetic serving loop — arrival processes contending
// for a fixed pool of service slots via signals, with timeout waits,
// callback churn and streaming FleetStats aggregation — so the measured
// cost is the KERNEL's (process handshakes, event heap, signal wakeups),
// not the sparse math behind real worker trees. The trace replays on the
// default kernel tier (ucontext fibers where available, else pooled
// threads with a semaphore handoff) at least kMinReplays times and for at
// least kMinTimedReplayS of wall clock; sim_events_per_sec is the fastest
// replay's rate, so one descheduled replay cannot fail the wall-clock
// gate. Virtual-time results must be BYTE-IDENTICAL across the repeated
// replays — the kernel's speed never changes what it decides — so the
// deterministic FleetStats summary doubles as a correctness gate, and its
// virtual p50/p95 feed the (deterministic) perf-regression baseline while
// events_per_sec gates direction-aware.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/metrics.h"
#include "core/trace.h"
#include "linalg/spmm.h"
#include "model/input_gen.h"
#include "model/sparse_dnn.h"
#include "sim/simulation.h"

using namespace fsd;
using bench::ScaleConfig;

namespace {

/// Floors for the best-of-k replay timing behind sim_events_per_sec.
constexpr int kMinReplays = 5;
constexpr double kMinTimedReplayS = 0.25;

struct ReplayResult {
  std::string fleet_summary;  // deterministic virtual-time results
  double p50_s = 0.0;
  double p95_s = 0.0;
  uint64_t events = 0;
  double wall_s = 0.0;
};

/// Replays the trace as a synthetic serving loop against one kernel
/// tuning. Every virtual-time decision (slot grants, waits, service
/// durations) is a deterministic function of the trace and seed.
ReplayResult Replay(const core::WorkloadTrace& trace, sim::SimTuning tuning,
                    int32_t slots) {
  ReplayResult result;
  sim::Simulation sim(tuning);

  // Service slots: FIFO grant order. Everything runs inside the
  // single-threaded scheduler, so plain shared state is race-free and,
  // more importantly, deterministic.
  int32_t free_slots = slots;
  std::deque<std::shared_ptr<sim::SimSignal>> slot_waiters;
  auto acquire_slot = [&]() {
    if (free_slots > 0) {
      --free_slots;
      return;
    }
    auto signal = sim.MakeSignal();
    slot_waiters.push_back(signal);
    sim.WaitSignal(signal.get(), /*timeout=*/600.0);
  };
  auto release_slot = [&]() {
    if (!slot_waiters.empty()) {
      slot_waiters.front()->Fire();  // slot hands over directly
      slot_waiters.pop_front();
    } else {
      ++free_slots;
    }
  };

  core::FleetStats fleet;
  fleet.set_streaming_threshold(512);  // bounded memory at 10^5+ queries
  uint64_t heartbeat_fires = 0;

  // One generator walks the trace in arrival order and spawns a process
  // per query; service times are drawn HERE so the draw order is the
  // trace order regardless of how queries interleave.
  Rng rng(trace.config.seed ^ 0x7E97A5C0DEull);
  sim.AddProcess("trace-replay", [&]() {
    for (const core::TraceQuery& query : trace.queries) {
      const double now = sim.Now();
      if (query.arrival_s > now) sim.Hold(query.arrival_s - now);
      const double service_s = rng.NextLogNormal(-3.6, 0.35);  // ~30ms
      const int32_t tenant = query.tenant;
      sim.Spawn("q", [&, service_s, tenant]() {
        const double arrival = sim.Now();
        // Watchdog-style callback churn: every query arms one, mirroring
        // per-query timeout bookkeeping in the real serving runtime.
        sim.ScheduleCallback(0.25, [&heartbeat_fires]() {
          ++heartbeat_fires;
        });
        acquire_slot();
        const double wait_s = sim.Now() - arrival;
        sim.Hold(service_s);
        release_slot();
        core::FleetStats::QuerySample sample;
        sample.arrival_s = arrival;
        sample.finish_s = sim.Now();
        sample.latency_s = sample.finish_s - arrival;
        sample.queue_wait_s = wait_s;
        sample.disposition = core::QueryDisposition::kCompleted;
        sample.tenant = tenant;
        fleet.AddQuery(sample, {});
      });
    }
  });

  const auto start = std::chrono::steady_clock::now();
  sim.Run();
  const auto stop = std::chrono::steady_clock::now();
  result.wall_s = std::chrono::duration<double>(stop - start).count();
  result.events = sim.events_dispatched();

  fleet.Finalize();
  result.fleet_summary = fleet.Summary() +
                         StrFormat(" heartbeats=%llu",
                                   static_cast<unsigned long long>(
                                       heartbeat_fires));
  result.p50_s = fleet.latency_p50_s;
  result.p95_s = fleet.latency_p95_s;
  return result;
}

struct ComputeReplayResult {
  uint64_t checksum = 0;   // folds every output row of every closure
  uint64_t events = 0;     // kernel events dispatched (virtual behaviour)
  double virtual_end = 0;  // final virtual clock
  uint64_t closures = 0;   // offloaded kernels executed
  double wall_s = 0.0;
};

uint64_t FoldHash(uint64_t h, uint64_t x) {
  h ^= x + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

/// Replays a compute-bound worker fleet: 16 processes each submit `rounds`
/// real sparse-kernel closures through Simulation::Offload. Virtual time
/// per closure is a fixed analytic charge, so events, checksums and the
/// final clock must be byte-identical for every pool size — only the wall
/// clock may move.
ComputeReplayResult ComputeReplay(const model::SparseDnn& dnn,
                                  const std::vector<linalg::ActivationMap>& inputs,
                                  int compute_threads, int rounds) {
  ComputeReplayResult result;
  sim::SimTuning tuning;
  tuning.compute_threads = compute_threads;
  sim::Simulation sim(tuning);

  const int32_t batch = 32;
  std::vector<uint64_t> worker_hash(inputs.size(), 0);
  for (size_t w = 0; w < inputs.size(); ++w) {
    sim.AddProcess(StrFormat("compute-%zu", w), [&, w]() {
      const linalg::ActivationMap& input = inputs[w];
      const linalg::RowProvider provider =
          [&input](int32_t row) -> const linalg::SparseVector* {
        auto it = input.find(row);
        return it == input.end() ? nullptr : &it->second;
      };
      for (int r = 0; r < rounds; ++r) {
        // Worker-owned output + stats: legal closure state per the offload
        // contract (the submitter owns it; nothing else reads it before
        // the join).
        linalg::ActivationMap out;
        linalg::LayerForwardStats stats;
        sim.Offload(1e-3, [&]() {
          out = linalg::LayerForwardAll(dnn.weights[0], provider,
                                        dnn.config.bias, dnn.config.relu_cap,
                                        batch, &stats);
        });
        uint64_t h = worker_hash[w];
        h = FoldHash(h, static_cast<uint64_t>(stats.macs));
        h = FoldHash(h, static_cast<uint64_t>(stats.output_nnz));
        for (const auto& [row, vec] : out) {
          h = FoldHash(h, static_cast<uint64_t>(static_cast<uint32_t>(row)));
          for (size_t i = 0; i < vec.idx.size(); ++i) {
            uint32_t bits;
            static_assert(sizeof(bits) == sizeof(float));
            __builtin_memcpy(&bits, &vec.val[i], sizeof(bits));
            h = FoldHash(h, (static_cast<uint64_t>(
                                static_cast<uint32_t>(vec.idx[i]))
                             << 32) |
                                bits);
          }
        }
        worker_hash[w] = h;
      }
    });
  }

  const auto start = std::chrono::steady_clock::now();
  sim.Run();
  const auto stop = std::chrono::steady_clock::now();
  result.wall_s = std::chrono::duration<double>(stop - start).count();
  result.events = sim.events_dispatched();
  result.virtual_end = sim.Now();
  result.closures = sim.offload_stats().calls;
  uint64_t checksum = 0;
  for (uint64_t h : worker_hash) checksum = FoldHash(checksum, h);
  result.checksum = checksum;
  return result;
}

}  // namespace

int main() {
  const ScaleConfig scale = ScaleConfig::FromEnv();
  const uint64_t num_queries = scale.tiny ? 3000 : 120000;
  const int32_t slots = 16;

  core::TraceConfig config;
  config.base_rate_qps = 200.0;
  config.duration_s = static_cast<double>(num_queries);  // cap hits first
  config.max_queries = num_queries;
  config.diurnal_amplitude = 0.3;
  config.diurnal_period_s = 240.0;
  config.seed = 20240;
  // Peak offered load (200 x 1.3 x 1.15 = ~300 qps) stays under the slot
  // pool's ~530 qps service capacity, so the waiter queue — and with it
  // the live-process count — stays bounded.
  config.flash_crowds = {core::FlashCrowd{60.0, 15.0, 1.15}};
  core::TenantSpec gold;
  gold.tenant = 1;
  gold.qps_share = 3.0;
  core::TenantSpec silver;
  silver.tenant = 2;
  silver.qps_share = 2.0;
  core::TenantSpec bronze;
  bronze.tenant = 3;
  bronze.qps_share = 1.0;
  config.tenants = {gold, silver, bronze};

  auto trace = core::GenerateTrace(config);
  if (!trace.ok()) {
    std::fprintf(stderr, "trace generation failed: %s\n",
                 trace.status().ToString().c_str());
    return 1;
  }

  bench::PrintHeader(
      "TRACE REPLAY — DES kernel throughput on a production-style trace",
      StrFormat("%zu queries, 3 tenants, diurnal + flash crowd; default "
                "kernel tier, best of >= %d replays",
                trace->queries.size(), kMinReplays));

  // Best-of-k timing: one replay at tiny scale lasts ~10 ms, short enough
  // for a single scheduler hiccup to sink the wall-clock gate. Repeat until
  // both floors are met and report the fastest replay; every repetition
  // must reproduce the first one's virtual results byte for byte.
  const ReplayResult first = Replay(*trace, sim::SimTuning{}, slots);
  double best_wall_s = first.wall_s;
  double timed_s = first.wall_s;
  int replays = 1;
  while (replays < kMinReplays || timed_s < kMinTimedReplayS) {
    const ReplayResult again = Replay(*trace, sim::SimTuning{}, slots);
    if (again.fleet_summary != first.fleet_summary ||
        again.events != first.events) {
      std::fprintf(stderr,
                   "FAIL: replay %d is not deterministic\nfirst: %s\n"
                   "again: %s\n",
                   replays + 1, first.fleet_summary.c_str(),
                   again.fleet_summary.c_str());
      return 1;
    }
    best_wall_s = std::min(best_wall_s, again.wall_s);
    timed_s += again.wall_s;
    ++replays;
  }
  const double events_per_sec =
      static_cast<double>(first.events) / best_wall_s;

  std::printf("%-8s | %12s %14s %14s %10s\n", "replays", "events",
              "best wall (s)", "total wall (s)", "events/s");
  bench::PrintRule();
  std::printf("%-8d | %12llu %14.4f %14.3f %10.0f\n", replays,
              static_cast<unsigned long long>(first.events), best_wall_s,
              timed_s, events_per_sec);
  std::printf("\nvirtual p50=%.3fs p95=%.3fs\n", first.p50_s, first.p95_s);
  std::printf("determinism: all %d replays byte-identical — OK\n", replays);

  // ---- compute offload: multi-core worker kernels, one virtual time ----
  // 16 processes each push `rounds` real sparse-kernel closures through
  // Simulation::Offload; the run repeats with an 8-thread compute pool.
  // Checksums, event counts and the final virtual clock must be
  // byte-identical — the pool may only move the wall clock.
  const int32_t neurons = scale.tiny ? 512 : 4096;
  const int rounds = scale.tiny ? 2 : 24;
  const size_t fleet = 16;
  model::SparseDnnConfig dnn_config;
  dnn_config.neurons = neurons;
  dnn_config.layers = 1;
  auto dnn = model::GenerateSparseDnn(dnn_config);
  if (!dnn.ok()) {
    std::fprintf(stderr, "dnn generation failed: %s\n",
                 dnn.status().ToString().c_str());
    return 1;
  }
  std::vector<linalg::ActivationMap> inputs(fleet);
  for (size_t w = 0; w < fleet; ++w) {
    model::InputConfig ic;
    ic.neurons = neurons;
    ic.batch = 32;
    ic.seed = 77 + static_cast<uint64_t>(w);
    auto input = model::GenerateInputBatch(ic);
    if (!input.ok()) {
      std::fprintf(stderr, "input generation failed: %s\n",
                   input.status().ToString().c_str());
      return 1;
    }
    inputs[w] = std::move(*input);
  }

  const ComputeReplayResult inline_run =
      ComputeReplay(*dnn, inputs, /*compute_threads=*/0, rounds);
  const ComputeReplayResult pooled_run =
      ComputeReplay(*dnn, inputs, /*compute_threads=*/8, rounds);

  const double inline_cps =
      static_cast<double>(inline_run.closures) / inline_run.wall_s;
  const double pooled_cps =
      static_cast<double>(pooled_run.closures) / pooled_run.wall_s;
  const double offload_speedup = pooled_cps / inline_cps;

  std::printf("\n%-8s | %10s %12s %14s %12s\n", "pool", "closures", "events",
              "wall (s)", "kernels/s");
  bench::PrintRule();
  std::printf("%-8s | %10llu %12llu %14.3f %12.0f\n", "inline",
              static_cast<unsigned long long>(inline_run.closures),
              static_cast<unsigned long long>(inline_run.events),
              inline_run.wall_s, inline_cps);
  std::printf("%-8s | %10llu %12llu %14.3f %12.0f\n", "8-thread",
              static_cast<unsigned long long>(pooled_run.closures),
              static_cast<unsigned long long>(pooled_run.events),
              pooled_run.wall_s, pooled_cps);
  std::printf("\noffload speedup: %.2fx\n", offload_speedup);

  if (inline_run.checksum != pooled_run.checksum ||
      inline_run.events != pooled_run.events ||
      inline_run.virtual_end != pooled_run.virtual_end ||
      inline_run.closures != pooled_run.closures) {
    std::fprintf(stderr,
                 "FAIL: compute pool changed virtual behaviour\n"
                 "inline: checksum=%016llx events=%llu end=%.9f\n"
                 "pooled: checksum=%016llx events=%llu end=%.9f\n",
                 static_cast<unsigned long long>(inline_run.checksum),
                 static_cast<unsigned long long>(inline_run.events),
                 inline_run.virtual_end,
                 static_cast<unsigned long long>(pooled_run.checksum),
                 static_cast<unsigned long long>(pooled_run.events),
                 pooled_run.virtual_end);
    return 1;
  }
  std::printf("determinism: inline==8-thread (checksums, events, clock) — "
              "OK\n");

  // Perf gate: with 16 compute-bound processes, an 8-thread pool must
  // deliver >= 1.5x wall-clock (typically ~2x and above; the gate leaves
  // headroom for loaded CI hosts). Tiny runs are too short to time,
  // sanitizers distort thread costs, and hosts without enough cores cannot
  // overlap anything — report only there.
  const unsigned cores = std::thread::hardware_concurrency();
  if (!scale.tiny && !FSD_SANITIZED && cores >= 4 && offload_speedup < 1.5) {
    std::fprintf(stderr, "FAIL: offload speedup %.2fx < 1.5x\n",
                 offload_speedup);
    return 1;
  }
  if (cores < 4) {
    std::printf("(offload speedup gate skipped: %u host core%s)\n", cores,
                cores == 1 ? "" : "s");
  }

  bench::WriteBenchJson(
      "trace_replay",
      {
          {"sim_events_per_sec", events_per_sec},
          {"replay_latency_p50_s", first.p50_s},
          {"replay_latency_p95_s", first.p95_s},
          {"replay_events", static_cast<double>(first.events)},
          {"compute_replay_per_sec", pooled_cps},
          {"compute_replay_per_sec_inline", inline_cps},
          {"compute_offload_speedup", offload_speedup},
      });
  return 0;
}
