// Cross-commit identity pin for the channel backends: one fixed small query
// per backend x collective topology, with every per-phase send/receive
// counter, the ledger shape, the event count and the headline doubles
// compared against constants recorded once. Refactors of the channel
// framing (encode, chunk accounting, header parsing, decode batching) must
// leave every number below unchanged; the constants are never re-recorded
// to make a refactor pass.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "cloud/cloud.h"
#include "common/strings.h"
#include "core/runtime.h"
#include "model/input_gen.h"

namespace fsd::core {
namespace {

constexpr int32_t kNeurons = 256;
constexpr int32_t kLayers = 3;
constexpr int32_t kBatch = 8;
constexpr int32_t kWorkers = 4;
constexpr uint64_t kSeed = 7;
constexpr double kDefaultPunchFailureRate = 0.08;
constexpr double kRelayPunchFailureRate = 0.75;
/// Small chunk caps, so queue, KV and direct split each send into several
/// chunks and the receivers reassemble them by (seq, total).
constexpr uint64_t kChunkCapBytes = 1024;

/// One pinned case: a backend, a topology and the direct backend's punch
/// failure rate (raised in the relay cases so the KV relay carries data).
struct GoldenCase {
  Variant variant;
  CollectiveTopology topology;
  double punch_failure_rate;
  const char* expected;
};

/// Per-phase counters, summed over workers. Zero fields are omitted.
std::string PhaseLine(int32_t phase, const LayerMetrics& m) {
  const std::vector<std::pair<const char*, int64_t>> fields = {
      {"targets", m.send_targets},
      {"rows_mapped", m.send_rows_mapped},
      {"rows_active", m.send_rows_active},
      {"chunks", m.send_chunks},
      {"raw", m.send_raw_bytes},
      {"wire", m.send_wire_bytes},
      {"billed", m.send_billed_bytes},
      {"publishes", m.publishes},
      {"publish_chunks", m.publish_chunks},
      {"puts_dat", m.puts_dat},
      {"puts_nul", m.puts_nul},
      {"kv_pushes", m.kv_pushes},
      {"connects", m.direct_connects},
      {"punch_failures", m.punch_failures},
      {"direct_msgs", m.direct_msgs},
      {"direct_billed", m.direct_billed_bytes},
      {"relayed", m.relay_fallback_msgs},
      {"polls", m.polls},
      {"empty_polls", m.empty_polls},
      {"deletes", m.deletes},
      {"msgs", m.msgs_received},
      {"lists", m.lists},
      {"gets", m.gets},
      {"kv_pops", m.kv_pops},
      {"kv_empty_pops", m.kv_empty_pops},
      {"direct_pops", m.direct_pops},
      {"direct_empty_pops", m.direct_empty_pops},
      {"nul_skipped", m.nul_skipped},
      {"redundant", m.redundant_skipped},
      {"recv_wire", m.recv_wire_bytes},
      {"recv_billed", m.recv_billed_bytes},
      {"recv_rows", m.recv_rows},
      {"offload_calls", m.offload_calls},
  };
  std::string line = StrFormat("p%d", phase);
  for (const auto& [name, value] : fields) {
    if (value != 0) {
      line += StrFormat(" %s=%lld", name, static_cast<long long>(value));
    }
  }
  return line + "\n";
}

std::string RunFingerprint(const GoldenCase& c) {
  model::SparseDnnConfig config;
  config.neurons = kNeurons;
  config.layers = kLayers;
  config.seed = kSeed;
  auto dnn = model::GenerateSparseDnn(config);
  EXPECT_TRUE(dnn.ok()) << dnn.status().ToString();
  auto partition =
      part::PartitionModel(*dnn, kWorkers, part::ModelPartitionOptions{});
  EXPECT_TRUE(partition.ok()) << partition.status().ToString();
  model::InputConfig input_config;
  input_config.neurons = kNeurons;
  input_config.batch = kBatch;
  input_config.seed = kSeed + 1;
  auto input = model::GenerateInputBatch(input_config);
  EXPECT_TRUE(input.ok()) << input.status().ToString();

  sim::Simulation sim;
  cloud::CloudConfig cloud_config;
  cloud_config.latency.p2p_punch_failure_rate = c.punch_failure_rate;
  cloud::CloudEnv cloud(&sim, cloud_config);
  InferenceRequest request;
  request.dnn = &*dnn;
  request.partition = &*partition;
  request.batches = {&*input};
  request.options.variant = c.variant;
  request.options.num_workers = kWorkers;
  request.options.collective_topology = c.topology;
  request.options.max_message_bytes = kChunkCapBytes;
  request.options.kv_max_value_bytes = kChunkCapBytes;
  auto report = RunInference(&cloud, request);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (!report.ok()) return "";
  EXPECT_TRUE(report->status.ok()) << report->status.ToString();

  std::vector<LayerMetrics> phases;
  double serialize_s = 0.0;
  double deserialize_s = 0.0;
  double offload_virtual_s = 0.0;
  for (const WorkerMetrics& worker : report->metrics.workers) {
    if (worker.layers.size() > phases.size()) {
      phases.resize(worker.layers.size());
    }
    for (size_t k = 0; k < worker.layers.size(); ++k) {
      phases[k].Add(worker.layers[k]);
      serialize_s += worker.layers[k].serialize_s;
      deserialize_s += worker.layers[k].deserialize_s;
      offload_virtual_s += worker.layers[k].offload_virtual_s;
    }
  }
  uint64_t ledger_events = 0;
  int32_t ledger_lines = 0;
  constexpr int kDimensions =
      static_cast<int>(cloud::BillingDimension::kDimensionCount);
  for (int d = 0; d < kDimensions; ++d) {
    const cloud::BillingLine& line =
        cloud.billing().line(static_cast<cloud::BillingDimension>(d));
    if (line.events == 0) continue;
    ++ledger_lines;
    ledger_events += line.events;
  }

  std::string out = StrFormat(
      "latency=%.17g ledger_total=%.17g ledger_lines=%d ledger_events=%llu "
      "events=%llu\n",
      report->latency_s, cloud.billing().TotalCost(), ledger_lines,
      static_cast<unsigned long long>(ledger_events),
      static_cast<unsigned long long>(sim.events_dispatched()));
  out += StrFormat("serialize=%.17g deserialize=%.17g offload_virtual=%.17g\n",
                   serialize_s, deserialize_s, offload_virtual_s);
  for (size_t k = 0; k < phases.size(); ++k) {
    out += PhaseLine(static_cast<int32_t>(k), phases[k]);
  }
  return out;
}

// Recorded once, before the backends shared one framing layer.
const GoldenCase kCases[] = {
    {Variant::kQueue, CollectiveTopology::kThroughRoot,
     kDefaultPunchFailureRate, R"(latency=1.1486778215809681 ledger_total=8.8993028187358541e-05 ledger_lines=6 ledger_events=237 events=458
serialize=0.00017835565025252527 deserialize=0.00051668333333333336 offload_virtual=0.0012389458302447807
p0 targets=12 rows_mapped=719 rows_active=503 chunks=12 raw=5739 wire=3665 billed=4949 publishes=4 publish_chunks=4 polls=9 deletes=9 msgs=12 recv_wire=3665 recv_rows=503 offload_calls=20
p1 targets=12 rows_mapped=709 rows_active=709 chunks=37 raw=23714 wire=23511 billed=27470 publishes=4 publish_chunks=4 polls=14 deletes=14 msgs=37 recv_wire=23511 recv_rows=709 offload_calls=45
p2 targets=12 rows_mapped=736 rows_active=736 chunks=45 raw=29514 wire=27936 billed=32751 publishes=7 publish_chunks=7 polls=13 deletes=13 msgs=45 recv_wire=27936 recv_rows=736 offload_calls=53
p3 targets=3 chunks=3 raw=3 wire=6 billed=327 publishes=3 publish_chunks=3 polls=3 deletes=3 msgs=3 recv_wire=6 offload_calls=6
p4 targets=3 chunks=3 raw=3 wire=6 billed=327 publishes=1 publish_chunks=1 polls=3 deletes=3 msgs=3 recv_wire=6 offload_calls=4
p5 targets=3 rows_mapped=192 rows_active=192 chunks=11 raw=7170 wire=6878 billed=8055 publishes=3 publish_chunks=3 polls=3 deletes=3 msgs=11 recv_wire=6878 recv_rows=192 offload_calls=14
)"},
    {Variant::kQueue, CollectiveTopology::kBinomialTree,
     kDefaultPunchFailureRate, R"(latency=1.303889585895351 ledger_total=9.9588512065347531e-05 ledger_lines=6 ledger_events=248 events=482
serialize=0.00017880356691919196 deserialize=0.00053509166666666666 offload_virtual=0.0012578020802447806
p0 targets=12 rows_mapped=719 rows_active=503 chunks=12 raw=5739 wire=3665 billed=4949 publishes=4 publish_chunks=4 polls=9 deletes=9 msgs=12 recv_wire=3665 recv_rows=503 offload_calls=20
p1 targets=12 rows_mapped=709 rows_active=709 chunks=37 raw=23714 wire=23511 billed=27470 publishes=4 publish_chunks=4 polls=14 deletes=14 msgs=37 recv_wire=23511 recv_rows=709 offload_calls=45
p2 targets=12 rows_mapped=736 rows_active=736 chunks=45 raw=29514 wire=27936 billed=32751 publishes=7 publish_chunks=7 polls=13 deletes=13 msgs=45 recv_wire=27936 recv_rows=736 offload_calls=53
p3 targets=2 chunks=2 raw=2 wire=4 billed=218 publishes=2 publish_chunks=2 polls=2 deletes=2 msgs=2 recv_wire=4 offload_calls=4
p4 targets=1 chunks=1 raw=1 wire=2 billed=109 publishes=1 publish_chunks=1 polls=1 deletes=1 msgs=1 recv_wire=2 offload_calls=2
p5 targets=1 chunks=1 raw=1 wire=2 billed=109 publishes=1 publish_chunks=1 polls=1 deletes=1 msgs=1 recv_wire=2 offload_calls=2
p6 targets=2 chunks=2 raw=2 wire=4 billed=218 publishes=2 publish_chunks=2 polls=2 deletes=2 msgs=2 recv_wire=4 offload_calls=4
p7 targets=2 rows_mapped=132 rows_active=132 chunks=8 raw=5045 wire=4808 billed=5664 publishes=2 publish_chunks=2 polls=4 deletes=4 msgs=8 recv_wire=4808 recv_rows=132 offload_calls=10
p8 targets=1 rows_mapped=122 rows_active=122 chunks=6 raw=4453 wire=4279 billed=4921 publishes=1 publish_chunks=1 polls=2 deletes=2 msgs=6 recv_wire=4279 recv_rows=122 offload_calls=7
)"},
    {Variant::kQueue, CollectiveTopology::kRing,
     kDefaultPunchFailureRate, R"(latency=1.5086436410583632 ledger_total=0.00011343817000592349 ledger_lines=6 ledger_events=256 events=496
serialize=0.00018823856691919195 deserialize=0.00057048333333333337 offload_virtual=0.0013026287469114469
p0 targets=12 rows_mapped=719 rows_active=503 chunks=12 raw=5739 wire=3665 billed=4949 publishes=4 publish_chunks=4 polls=9 deletes=9 msgs=12 recv_wire=3665 recv_rows=503 offload_calls=20
p1 targets=12 rows_mapped=709 rows_active=709 chunks=37 raw=23714 wire=23511 billed=27470 publishes=4 publish_chunks=4 polls=14 deletes=14 msgs=37 recv_wire=23511 recv_rows=709 offload_calls=45
p2 targets=12 rows_mapped=736 rows_active=736 chunks=45 raw=29514 wire=27936 billed=32751 publishes=7 publish_chunks=7 polls=13 deletes=13 msgs=45 recv_wire=27936 recv_rows=736 offload_calls=53
p3 targets=1 chunks=1 raw=1 wire=2 billed=109 publishes=1 publish_chunks=1 polls=1 deletes=1 msgs=1 recv_wire=2 offload_calls=2
p4 targets=1 chunks=1 raw=1 wire=2 billed=109 publishes=1 publish_chunks=1 polls=1 deletes=1 msgs=1 recv_wire=2 offload_calls=2
p5 targets=1 chunks=1 raw=1 wire=2 billed=109 publishes=1 publish_chunks=1 polls=1 deletes=1 msgs=1 recv_wire=2 offload_calls=2
p6 targets=1 chunks=1 raw=1 wire=2 billed=109 publishes=1 publish_chunks=1 polls=1 deletes=1 msgs=1 recv_wire=2 offload_calls=2
p7 targets=1 chunks=1 raw=1 wire=2 billed=109 publishes=1 publish_chunks=1 polls=1 deletes=1 msgs=1 recv_wire=2 offload_calls=2
p8 targets=1 chunks=1 raw=1 wire=2 billed=109 publishes=1 publish_chunks=1 polls=1 deletes=1 msgs=1 recv_wire=2 offload_calls=2
p9 targets=1 rows_mapped=62 rows_active=62 chunks=4 raw=2329 wire=2238 billed=2666 publishes=1 publish_chunks=1 polls=2 deletes=2 msgs=4 recv_wire=2238 recv_rows=62 offload_calls=5
p10 targets=1 rows_mapped=122 rows_active=122 chunks=6 raw=4453 wire=4279 billed=4927 publishes=1 publish_chunks=1 polls=2 deletes=2 msgs=6 recv_wire=4279 recv_rows=122 offload_calls=7
p11 targets=1 rows_mapped=192 rows_active=192 chunks=10 raw=7169 wire=6817 billed=7907 publishes=1 publish_chunks=1 polls=3 deletes=3 msgs=10 recv_wire=6817 recv_rows=192 offload_calls=11
)"},
    {Variant::kObject, CollectiveTopology::kThroughRoot,
     kDefaultPunchFailureRate, R"(latency=1.4194410228071863 ledger_total=0.00059062366568541779 ledger_lines=5 ledger_events=158 events=247
serialize=0.00033497916666666664 deserialize=0.00044570000000000005 offload_virtual=0.54417285616860966
p0 targets=12 rows_mapped=719 rows_active=503 chunks=12 raw=5739 wire=3665 puts_dat=12 lists=15 gets=12 redundant=12 recv_wire=3665 recv_rows=503 offload_calls=16
p1 targets=12 rows_mapped=709 rows_active=709 chunks=12 raw=23689 wire=20273 puts_dat=12 lists=11 gets=12 redundant=7 recv_wire=20273 recv_rows=709 offload_calls=16
p2 targets=12 rows_mapped=736 rows_active=736 chunks=12 raw=29481 wire=23707 puts_dat=12 lists=11 gets=12 redundant=6 recv_wire=23707 recv_rows=736 offload_calls=16
p3 targets=3 puts_nul=3 lists=2 nul_skipped=3 offload_calls=3
p4 targets=3 puts_nul=3 lists=16 nul_skipped=3 offload_calls=1
p5 targets=3 rows_mapped=192 rows_active=192 chunks=3 raw=7162 wire=5839 puts_dat=3 lists=5 gets=3 redundant=2 recv_wire=5839 recv_rows=192 offload_calls=5
)"},
    {Variant::kObject, CollectiveTopology::kBinomialTree,
     kDefaultPunchFailureRate, R"(latency=1.5992912684292788 ledger_total=0.00067093371535863135 ledger_lines=5 ledger_events=172 events=277
serialize=0.00036404166666666665 deserialize=0.00046034166666666671 offload_virtual=0.55252198933947871
p0 targets=12 rows_mapped=719 rows_active=503 chunks=12 raw=5739 wire=3665 puts_dat=12 lists=15 gets=12 redundant=12 recv_wire=3665 recv_rows=503 offload_calls=16
p1 targets=12 rows_mapped=709 rows_active=709 chunks=12 raw=23689 wire=20273 puts_dat=12 lists=11 gets=12 redundant=7 recv_wire=20273 recv_rows=709 offload_calls=16
p2 targets=12 rows_mapped=736 rows_active=736 chunks=12 raw=29481 wire=23707 puts_dat=12 lists=11 gets=12 redundant=6 recv_wire=23707 recv_rows=736 offload_calls=16
p3 targets=2 puts_nul=2 lists=3 nul_skipped=2 offload_calls=2
p4 targets=1 puts_nul=1 lists=3 nul_skipped=1 offload_calls=1
p5 targets=1 puts_nul=1 lists=4 nul_skipped=1 offload_calls=1
p6 targets=2 puts_nul=2 lists=15 nul_skipped=2 offload_calls=2
p7 targets=2 rows_mapped=132 rows_active=132 chunks=2 raw=5039 wire=4074 puts_dat=2 lists=8 gets=2 recv_wire=4074 recv_rows=132 offload_calls=4
p8 targets=1 rows_mapped=122 rows_active=122 chunks=1 raw=4448 wire=3522 puts_dat=1 lists=4 gets=1 recv_wire=3522 recv_rows=122 offload_calls=2
)"},
    {Variant::kObject, CollectiveTopology::kRing,
     kDefaultPunchFailureRate, R"(latency=1.67213601390074 ledger_total=0.00071171849079566655 ledger_lines=5 ledger_events=179 events=291
serialize=0.00041964166666666664 deserialize=0.00048825833333333336 offload_virtual=0.55918337258919637
p0 targets=12 rows_mapped=719 rows_active=503 chunks=12 raw=5739 wire=3665 puts_dat=12 lists=15 gets=12 redundant=12 recv_wire=3665 recv_rows=503 offload_calls=16
p1 targets=12 rows_mapped=709 rows_active=709 chunks=12 raw=23689 wire=20273 puts_dat=12 lists=11 gets=12 redundant=7 recv_wire=20273 recv_rows=709 offload_calls=16
p2 targets=12 rows_mapped=736 rows_active=736 chunks=12 raw=29481 wire=23707 puts_dat=12 lists=11 gets=12 redundant=6 recv_wire=23707 recv_rows=736 offload_calls=16
p3 targets=1 puts_nul=1 lists=1 nul_skipped=1 offload_calls=1
p4 targets=1 puts_nul=1 lists=4 nul_skipped=1 offload_calls=1
p5 targets=1 puts_nul=1 lists=4 nul_skipped=1 offload_calls=1
p6 targets=1 puts_nul=1 lists=3 nul_skipped=1 offload_calls=1
p7 targets=1 puts_nul=1 lists=6 nul_skipped=1 offload_calls=1
p8 targets=1 puts_nul=1 lists=8 nul_skipped=1 offload_calls=1
p9 targets=1 rows_mapped=62 rows_active=62 chunks=1 raw=2326 wire=1915 puts_dat=1 lists=3 gets=1 recv_wire=1915 recv_rows=62 offload_calls=2
p10 targets=1 rows_mapped=122 rows_active=122 chunks=1 raw=4448 wire=3522 puts_dat=1 lists=6 gets=1 recv_wire=3522 recv_rows=122 offload_calls=2
p11 targets=1 rows_mapped=192 rows_active=192 chunks=1 raw=7161 wire=5509 puts_dat=1 lists=9 gets=1 recv_wire=5509 recv_rows=192 offload_calls=2
)"},
    {Variant::kKv, CollectiveTopology::kThroughRoot,
     kDefaultPunchFailureRate, R"(latency=0.73384164671699392 ledger_total=0.00011098476333725961 ledger_lines=6 ledger_events=301 events=396
serialize=0.00017835565025252527 deserialize=0.00051668333333333336 offload_virtual=0.0012389458302447807
p0 targets=12 rows_mapped=719 rows_active=503 chunks=12 raw=5739 wire=3665 billed=3701 kv_pushes=12 kv_pops=9 recv_wire=3665 recv_billed=3701 recv_rows=503 offload_calls=17
p1 targets=12 rows_mapped=709 rows_active=709 chunks=37 raw=23714 wire=23511 billed=23622 kv_pushes=37 kv_pops=7 recv_wire=23511 recv_billed=23622 recv_rows=709 offload_calls=15
p2 targets=12 rows_mapped=736 rows_active=736 chunks=45 raw=29514 wire=27936 billed=28071 kv_pushes=45 kv_pops=7 recv_wire=27936 recv_billed=28071 recv_rows=736 offload_calls=15
p3 targets=3 chunks=3 raw=3 wire=6 billed=15 kv_pushes=3 kv_pops=3 recv_wire=6 recv_billed=15 offload_calls=6
p4 targets=3 chunks=3 raw=3 wire=6 billed=15 kv_pushes=3 kv_pops=3 recv_wire=6 recv_billed=15 offload_calls=4
p5 targets=3 rows_mapped=192 rows_active=192 chunks=11 raw=7170 wire=6878 billed=6911 kv_pushes=11 kv_pops=3 recv_wire=6878 recv_billed=6911 recv_rows=192 offload_calls=6
)"},
    {Variant::kKv, CollectiveTopology::kBinomialTree,
     kDefaultPunchFailureRate, R"(latency=0.738487615727909 ledger_total=0.00011374293697070397 ledger_lines=6 ledger_events=311 events=429
serialize=0.00017880356691919196 deserialize=0.00053509166666666677 offload_virtual=0.0012578020802447806
p0 targets=12 rows_mapped=719 rows_active=503 chunks=12 raw=5739 wire=3665 billed=3701 kv_pushes=12 kv_pops=9 recv_wire=3665 recv_billed=3701 recv_rows=503 offload_calls=17
p1 targets=12 rows_mapped=709 rows_active=709 chunks=37 raw=23714 wire=23511 billed=23622 kv_pushes=37 kv_pops=7 recv_wire=23511 recv_billed=23622 recv_rows=709 offload_calls=15
p2 targets=12 rows_mapped=736 rows_active=736 chunks=45 raw=29514 wire=27936 billed=28071 kv_pushes=45 kv_pops=7 recv_wire=27936 recv_billed=28071 recv_rows=736 offload_calls=15
p3 targets=2 chunks=2 raw=2 wire=4 billed=10 kv_pushes=2 kv_pops=2 recv_wire=4 recv_billed=10 offload_calls=4
p4 targets=1 chunks=1 raw=1 wire=2 billed=5 kv_pushes=1 kv_pops=1 recv_wire=2 recv_billed=5 offload_calls=2
p5 targets=1 chunks=1 raw=1 wire=2 billed=5 kv_pushes=1 kv_pops=1 recv_wire=2 recv_billed=5 offload_calls=2
p6 targets=2 chunks=2 raw=2 wire=4 billed=10 kv_pushes=2 kv_pops=2 recv_wire=4 recv_billed=10 offload_calls=4
p7 targets=2 rows_mapped=132 rows_active=132 chunks=8 raw=5045 wire=4808 billed=4832 kv_pushes=8 kv_pops=4 recv_wire=4808 recv_billed=4832 recv_rows=132 offload_calls=6
p8 targets=1 rows_mapped=122 rows_active=122 chunks=6 raw=4453 wire=4279 billed=4297 kv_pushes=6 kv_pops=1 recv_wire=4279 recv_billed=4297 recv_rows=122 offload_calls=2
)"},
    {Variant::kKv, CollectiveTopology::kRing,
     kDefaultPunchFailureRate, R"(latency=0.74655530976728468 ledger_total=0.00011855123801416877 ledger_lines=6 ledger_events=327 events=451
serialize=0.00018823856691919195 deserialize=0.00057048333333333337 offload_virtual=0.0013026287469114469
p0 targets=12 rows_mapped=719 rows_active=503 chunks=12 raw=5739 wire=3665 billed=3701 kv_pushes=12 kv_pops=9 recv_wire=3665 recv_billed=3701 recv_rows=503 offload_calls=17
p1 targets=12 rows_mapped=709 rows_active=709 chunks=37 raw=23714 wire=23511 billed=23622 kv_pushes=37 kv_pops=7 recv_wire=23511 recv_billed=23622 recv_rows=709 offload_calls=15
p2 targets=12 rows_mapped=736 rows_active=736 chunks=45 raw=29514 wire=27936 billed=28071 kv_pushes=45 kv_pops=7 recv_wire=27936 recv_billed=28071 recv_rows=736 offload_calls=15
p3 targets=1 chunks=1 raw=1 wire=2 billed=5 kv_pushes=1 kv_pops=1 recv_wire=2 recv_billed=5 offload_calls=2
p4 targets=1 chunks=1 raw=1 wire=2 billed=5 kv_pushes=1 kv_pops=1 recv_wire=2 recv_billed=5 offload_calls=2
p5 targets=1 chunks=1 raw=1 wire=2 billed=5 kv_pushes=1 kv_pops=1 recv_wire=2 recv_billed=5 offload_calls=2
p6 targets=1 chunks=1 raw=1 wire=2 billed=5 kv_pushes=1 kv_pops=1 recv_wire=2 recv_billed=5 offload_calls=2
p7 targets=1 chunks=1 raw=1 wire=2 billed=5 kv_pushes=1 kv_pops=1 recv_wire=2 recv_billed=5 offload_calls=2
p8 targets=1 chunks=1 raw=1 wire=2 billed=5 kv_pushes=1 kv_pops=1 recv_wire=2 recv_billed=5 offload_calls=2
p9 targets=1 rows_mapped=62 rows_active=62 chunks=4 raw=2329 wire=2238 billed=2250 kv_pushes=4 kv_pops=2 recv_wire=2238 recv_billed=2250 recv_rows=62 offload_calls=3
p10 targets=1 rows_mapped=122 rows_active=122 chunks=6 raw=4453 wire=4279 billed=4297 kv_pushes=6 kv_pops=2 recv_wire=4279 recv_billed=4297 recv_rows=122 offload_calls=3
p11 targets=1 rows_mapped=192 rows_active=192 chunks=10 raw=7169 wire=6817 billed=6847 kv_pushes=10 kv_pops=3 recv_wire=6817 recv_billed=6847 recv_rows=192 offload_calls=4
)"},
    {Variant::kDirect, CollectiveTopology::kThroughRoot,
     kDefaultPunchFailureRate, R"(latency=0.72372693723241766 ledger_total=0.00031298697209047524 ledger_lines=6 ledger_events=132 events=376
serialize=0.00017835565025252527 deserialize=0.00051945833333333336 offload_virtual=0.0012417208302447805
p0 targets=12 rows_mapped=719 rows_active=503 chunks=12 raw=5739 wire=3665 connects=6 direct_msgs=12 direct_billed=3701 direct_pops=9 recv_wire=3665 recv_rows=503 offload_calls=17
p1 targets=12 rows_mapped=709 rows_active=709 chunks=37 raw=23714 wire=23511 direct_msgs=37 direct_billed=23622 direct_pops=4 recv_wire=23511 recv_rows=709 offload_calls=12
p2 targets=12 rows_mapped=736 rows_active=736 chunks=45 raw=29514 wire=27936 direct_msgs=45 direct_billed=28071 direct_pops=4 recv_wire=27936 recv_rows=736 offload_calls=12
p3 targets=3 chunks=3 raw=3 wire=6 direct_msgs=3 direct_billed=15 direct_pops=2 recv_wire=6 offload_calls=5
p4 targets=3 chunks=3 raw=3 wire=6 direct_msgs=3 direct_billed=15 direct_pops=3 recv_wire=6 offload_calls=4
p5 targets=3 rows_mapped=192 rows_active=192 chunks=11 raw=7170 wire=6878 direct_msgs=11 direct_billed=6911 direct_pops=4 recv_wire=6878 recv_rows=192 offload_calls=7
)"},
    {Variant::kDirect, CollectiveTopology::kBinomialTree,
     kDefaultPunchFailureRate, R"(latency=0.72473402876692694 ledger_total=0.00031309018409631336 ledger_lines=6 ledger_events=135 events=398
serialize=0.00017880356691919196 deserialize=0.00053794166666666675 offload_virtual=0.0012606520802447806
p0 targets=12 rows_mapped=719 rows_active=503 chunks=12 raw=5739 wire=3665 connects=6 direct_msgs=12 direct_billed=3701 direct_pops=9 recv_wire=3665 recv_rows=503 offload_calls=17
p1 targets=12 rows_mapped=709 rows_active=709 chunks=37 raw=23714 wire=23511 direct_msgs=37 direct_billed=23622 direct_pops=4 recv_wire=23511 recv_rows=709 offload_calls=12
p2 targets=12 rows_mapped=736 rows_active=736 chunks=45 raw=29514 wire=27936 direct_msgs=45 direct_billed=28071 direct_pops=4 recv_wire=27936 recv_rows=736 offload_calls=12
p3 targets=2 chunks=2 raw=2 wire=4 direct_msgs=2 direct_billed=10 direct_pops=2 recv_wire=4 offload_calls=4
p4 targets=1 chunks=1 raw=1 wire=2 direct_msgs=1 direct_billed=5 direct_pops=1 recv_wire=2 offload_calls=2
p5 targets=1 chunks=1 raw=1 wire=2 direct_msgs=1 direct_billed=5 direct_pops=1 recv_wire=2 offload_calls=2
p6 targets=2 chunks=2 raw=2 wire=4 direct_msgs=2 direct_billed=10 direct_pops=2 recv_wire=4 offload_calls=4
p7 targets=2 rows_mapped=132 rows_active=132 chunks=8 raw=5045 wire=4808 direct_msgs=8 direct_billed=4832 direct_pops=3 recv_wire=4808 recv_rows=132 offload_calls=5
p8 targets=1 rows_mapped=122 rows_active=122 chunks=6 raw=4453 wire=4279 direct_msgs=6 direct_billed=4297 direct_pops=2 recv_wire=4279 recv_rows=122 offload_calls=3
)"},
    {Variant::kDirect, CollectiveTopology::kRing,
     kDefaultPunchFailureRate, R"(latency=0.72654649239224933 ledger_total=0.00031328462273559615 ledger_lines=6 ledger_events=141 events=421
serialize=0.00018823856691919195 deserialize=0.00057348333333333344 offload_virtual=0.0013056287469114473
p0 targets=12 rows_mapped=719 rows_active=503 chunks=12 raw=5739 wire=3665 connects=6 direct_msgs=12 direct_billed=3701 direct_pops=9 recv_wire=3665 recv_rows=503 offload_calls=17
p1 targets=12 rows_mapped=709 rows_active=709 chunks=37 raw=23714 wire=23511 direct_msgs=37 direct_billed=23622 direct_pops=4 recv_wire=23511 recv_rows=709 offload_calls=12
p2 targets=12 rows_mapped=736 rows_active=736 chunks=45 raw=29514 wire=27936 direct_msgs=45 direct_billed=28071 direct_pops=4 recv_wire=27936 recv_rows=736 offload_calls=12
p3 targets=1 chunks=1 raw=1 wire=2 direct_msgs=1 direct_billed=5 direct_pops=1 recv_wire=2 offload_calls=2
p4 targets=1 chunks=1 raw=1 wire=2 direct_msgs=1 direct_billed=5 direct_pops=1 recv_wire=2 offload_calls=2
p5 targets=1 chunks=1 raw=1 wire=2 direct_msgs=1 direct_billed=5 direct_pops=1 recv_wire=2 offload_calls=2
p6 targets=1 chunks=1 raw=1 wire=2 direct_msgs=1 direct_billed=5 direct_pops=1 recv_wire=2 offload_calls=2
p7 targets=1 chunks=1 raw=1 wire=2 direct_msgs=1 direct_billed=5 direct_pops=1 recv_wire=2 offload_calls=2
p8 targets=1 chunks=1 raw=1 wire=2 direct_msgs=1 direct_billed=5 direct_pops=1 recv_wire=2 offload_calls=2
p9 targets=1 rows_mapped=62 rows_active=62 chunks=4 raw=2329 wire=2238 direct_msgs=4 direct_billed=2250 direct_pops=2 recv_wire=2238 recv_rows=62 offload_calls=3
p10 targets=1 rows_mapped=122 rows_active=122 chunks=6 raw=4453 wire=4279 direct_msgs=6 direct_billed=4297 direct_pops=2 recv_wire=4279 recv_rows=122 offload_calls=3
p11 targets=1 rows_mapped=192 rows_active=192 chunks=10 raw=7169 wire=6817 direct_msgs=10 direct_billed=6847 direct_pops=4 recv_wire=6817 recv_rows=192 offload_calls=5
)"},
    {Variant::kDirect, CollectiveTopology::kThroughRoot,
     kRelayPunchFailureRate, R"(latency=0.73378709530609454 ledger_total=0.00018987209916129647 ledger_lines=8 ledger_events=250 events=412
serialize=0.00017835565025252527 deserialize=0.00051945833333333336 offload_virtual=0.0012417208302447807
p0 targets=12 rows_mapped=719 rows_active=503 chunks=12 raw=5739 wire=3665 billed=2465 kv_pushes=8 connects=2 punch_failures=4 direct_msgs=4 direct_billed=1236 relayed=8 kv_pops=7 direct_pops=4 recv_wire=3665 recv_billed=2465 recv_rows=503 offload_calls=19
p1 targets=12 rows_mapped=709 rows_active=709 chunks=37 raw=23714 wire=23511 billed=16476 kv_pushes=25 direct_msgs=12 direct_billed=7146 relayed=25 kv_pops=7 direct_pops=3 recv_wire=23511 recv_billed=16476 recv_rows=709 offload_calls=18
p2 targets=12 rows_mapped=736 rows_active=736 chunks=45 raw=29514 wire=27936 billed=19078 kv_pushes=30 direct_msgs=15 direct_billed=8993 relayed=30 kv_pops=4 direct_pops=3 recv_wire=27936 recv_billed=19078 recv_rows=736 offload_calls=15
p3 targets=3 chunks=3 raw=3 wire=6 billed=10 kv_pushes=2 direct_msgs=1 direct_billed=5 relayed=2 kv_pops=2 direct_pops=1 recv_wire=6 recv_billed=10 offload_calls=6
p4 targets=3 chunks=3 raw=3 wire=6 billed=10 kv_pushes=2 direct_msgs=1 direct_billed=5 relayed=2 kv_pops=2 direct_pops=1 recv_wire=6 recv_billed=10 offload_calls=4
p5 targets=3 rows_mapped=192 rows_active=192 chunks=11 raw=7170 wire=6878 billed=4661 kv_pushes=7 direct_msgs=4 direct_billed=2250 relayed=7 kv_pops=2 direct_pops=2 recv_wire=6878 recv_billed=4661 recv_rows=192 offload_calls=7
)"},
    {Variant::kDirect, CollectiveTopology::kBinomialTree,
     kRelayPunchFailureRate, R"(latency=0.73411726756903539 ledger_total=0.0001921299227165753 ledger_lines=8 ledger_events=258 events=420
serialize=0.00017880356691919196 deserialize=0.00053794166666666665 offload_virtual=0.0012606520802447806
p0 targets=12 rows_mapped=719 rows_active=503 chunks=12 raw=5739 wire=3665 billed=2465 kv_pushes=8 connects=2 punch_failures=4 direct_msgs=4 direct_billed=1236 relayed=8 kv_pops=7 direct_pops=4 recv_wire=3665 recv_billed=2465 recv_rows=503 offload_calls=19
p1 targets=12 rows_mapped=709 rows_active=709 chunks=37 raw=23714 wire=23511 billed=16476 kv_pushes=25 direct_msgs=12 direct_billed=7146 relayed=25 kv_pops=7 direct_pops=3 recv_wire=23511 recv_billed=16476 recv_rows=709 offload_calls=18
p2 targets=12 rows_mapped=736 rows_active=736 chunks=45 raw=29514 wire=27936 billed=19078 kv_pushes=30 direct_msgs=15 direct_billed=8993 relayed=30 kv_pops=4 direct_pops=3 recv_wire=27936 recv_billed=19078 recv_rows=736 offload_calls=15
p3 targets=2 chunks=2 raw=2 wire=4 billed=5 kv_pushes=1 direct_msgs=1 direct_billed=5 relayed=1 kv_pops=1 direct_pops=1 recv_wire=4 recv_billed=5 offload_calls=4
p4 targets=1 chunks=1 raw=1 wire=2 billed=5 kv_pushes=1 relayed=1 kv_pops=1 recv_wire=2 recv_billed=5 offload_calls=2
p5 targets=1 chunks=1 raw=1 wire=2 billed=5 kv_pushes=1 relayed=1 kv_pops=1 recv_wire=2 recv_billed=5 offload_calls=2
p6 targets=2 chunks=2 raw=2 wire=4 billed=5 kv_pushes=1 direct_msgs=1 direct_billed=5 relayed=1 kv_pops=1 direct_pops=1 recv_wire=4 recv_billed=5 offload_calls=4
p7 targets=2 rows_mapped=132 rows_active=132 chunks=8 raw=5045 wire=4808 billed=2582 kv_pushes=4 direct_msgs=4 direct_billed=2250 relayed=4 kv_pops=1 direct_pops=2 recv_wire=4808 recv_billed=2582 recv_rows=132 offload_calls=5
p8 targets=1 rows_mapped=122 rows_active=122 chunks=6 raw=4453 wire=4279 billed=4297 kv_pushes=6 relayed=6 kv_pops=2 recv_wire=4279 recv_billed=4297 recv_rows=122 offload_calls=3
)"},
    {Variant::kDirect, CollectiveTopology::kRing,
     kRelayPunchFailureRate, R"(latency=0.73954289185975319 ledger_total=0.00019641598887222995 ledger_lines=8 ledger_events=270 events=456
serialize=0.00018823856691919195 deserialize=0.00057348333333333344 offload_virtual=0.0013056287469114471
p0 targets=12 rows_mapped=719 rows_active=503 chunks=12 raw=5739 wire=3665 billed=2465 kv_pushes=8 connects=2 punch_failures=4 direct_msgs=4 direct_billed=1236 relayed=8 kv_pops=7 direct_pops=4 recv_wire=3665 recv_billed=2465 recv_rows=503 offload_calls=19
p1 targets=12 rows_mapped=709 rows_active=709 chunks=37 raw=23714 wire=23511 billed=16476 kv_pushes=25 direct_msgs=12 direct_billed=7146 relayed=25 kv_pops=7 direct_pops=3 recv_wire=23511 recv_billed=16476 recv_rows=709 offload_calls=18
p2 targets=12 rows_mapped=736 rows_active=736 chunks=45 raw=29514 wire=27936 billed=19078 kv_pushes=30 direct_msgs=15 direct_billed=8993 relayed=30 kv_pops=4 direct_pops=3 recv_wire=27936 recv_billed=19078 recv_rows=736 offload_calls=15
p3 targets=1 chunks=1 raw=1 wire=2 direct_msgs=1 direct_billed=5 direct_pops=1 recv_wire=2 offload_calls=2
p4 targets=1 chunks=1 raw=1 wire=2 billed=5 kv_pushes=1 relayed=1 kv_pops=1 recv_wire=2 recv_billed=5 offload_calls=2
p5 targets=1 chunks=1 raw=1 wire=2 billed=5 kv_pushes=1 relayed=1 kv_pops=1 recv_wire=2 recv_billed=5 offload_calls=2
p6 targets=1 chunks=1 raw=1 wire=2 billed=5 kv_pushes=1 relayed=1 kv_pops=1 recv_wire=2 recv_billed=5 offload_calls=2
p7 targets=1 chunks=1 raw=1 wire=2 billed=5 kv_pushes=1 relayed=1 kv_pops=1 recv_wire=2 recv_billed=5 offload_calls=2
p8 targets=1 chunks=1 raw=1 wire=2 direct_msgs=1 direct_billed=5 direct_pops=1 recv_wire=2 offload_calls=2
p9 targets=1 rows_mapped=62 rows_active=62 chunks=4 raw=2329 wire=2238 direct_msgs=4 direct_billed=2250 direct_pops=2 recv_wire=2238 recv_rows=62 offload_calls=3
p10 targets=1 rows_mapped=122 rows_active=122 chunks=6 raw=4453 wire=4279 billed=4297 kv_pushes=6 relayed=6 kv_pops=1 recv_wire=4279 recv_billed=4297 recv_rows=122 offload_calls=2
p11 targets=1 rows_mapped=192 rows_active=192 chunks=10 raw=7169 wire=6817 billed=6847 kv_pushes=10 relayed=10 kv_pops=2 recv_wire=6817 recv_billed=6847 recv_rows=192 offload_calls=3
)"},
};

std::string CaseName(const GoldenCase& c) {
  std::string name = c.variant == Variant::kQueue    ? "Queue"
                     : c.variant == Variant::kObject ? "Object"
                     : c.variant == Variant::kKv     ? "Kv"
                                                     : "Direct";
  if (c.punch_failure_rate > kDefaultPunchFailureRate) name += "Relay";
  name += c.topology == CollectiveTopology::kThroughRoot ? "ThroughRoot"
          : c.topology == CollectiveTopology::kBinomialTree ? "Binomial"
                                                            : "Ring";
  return name;
}

// Keeps the listed test names free of the expected text's address.
void PrintTo(const GoldenCase& c, std::ostream* os) { *os << CaseName(c); }

class ChannelGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(ChannelGolden, CountersAndLedgerMatchRecordedRun) {
  EXPECT_EQ(GetParam().expected, RunFingerprint(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(BackendsByTopology, ChannelGolden,
                         ::testing::ValuesIn(kCases),
                         [](const auto& info) { return CaseName(info.param); });

}  // namespace
}  // namespace fsd::core
