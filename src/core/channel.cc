#include "core/channel.h"

#include <algorithm>
#include <limits>

#include "common/strings.h"
#include "core/direct_channel.h"
#include "core/kv_channel.h"
#include "core/object_channel.h"
#include "core/queue_channel.h"
#include "sim/simulation.h"

namespace fsd::core {

int32_t CollectiveRounds(CollectiveTopology topology, int32_t num_workers) {
  switch (topology) {
    case CollectiveTopology::kThroughRoot:
      return 1;
    case CollectiveTopology::kBinomialTree: {
      // ceil(log2 P): the round count of a binomial gather/scatter.
      int32_t rounds = 0;
      while ((1 << rounds) < num_workers) ++rounds;
      return rounds > 0 ? rounds : 1;
    }
    case CollectiveTopology::kRing:
      return num_workers > 1 ? num_workers - 1 : 1;
  }
  return 1;
}

namespace {

/// Accounts one encoded chunk on the send side (send_chunks, raw and wire
/// bytes, quantized-wire counters).
void AccountSendChunk(LayerMetrics* metrics, const RowChunk& chunk) {
  metrics->send_chunks += 1;
  metrics->send_raw_bytes += static_cast<int64_t>(chunk.raw_bytes);
  metrics->send_wire_bytes += static_cast<int64_t>(chunk.wire.size());
  if (chunk.quant_bits != 0) {
    metrics->quant_chunks += 1;
    metrics->quant_values += chunk.quant_values;
    if (chunk.quant_err_max > metrics->quant_err_max) {
      metrics->quant_err_max = chunk.quant_err_max;
    }
  }
}

/// Charges the serialization/compression CPU for `serialize_bytes` of
/// payload split over `items` parallel work items on the worker's IPC
/// lanes (the makespan lands in metrics->serialize_s and virtual time),
/// with the real encode work offloaded under the charged window.
Status OffloadSerializeCpu(WorkerEnv* env, LayerMetrics* metrics,
                           uint64_t serialize_bytes, size_t items,
                           std::function<void()> encode) {
  double per_byte_s = 1.0 / env->cloud->compute().serialize_bytes_per_s;
  if (env->options->quant_bits != 0) {
    // Quantized wire mode: one extra pass over the raw payload to scan the
    // scale and pack symbols — the CPU side of the break-even trade.
    per_byte_s += 1.0 / env->cloud->compute().quant_bytes_per_s;
  }
  const double serialize_s = static_cast<double>(serialize_bytes) * per_byte_s;
  std::vector<double> lane_costs;  // rough per-item split for makespan
  if (items > 0) {
    lane_costs.assign(items, serialize_s / static_cast<double>(items));
  }
  const double serialize_makespan =
      sim::ParallelMakespan(lane_costs, env->options->io_lanes);
  metrics->serialize_s += serialize_makespan;
  metrics->offload_calls += 1;
  metrics->offload_virtual_s += serialize_makespan;
  return env->faas->OffloadFor(serialize_makespan, std::move(encode));
}

}  // namespace

Result<std::vector<Frame>> EncodeFrames(WorkerEnv* env, LayerMetrics* metrics,
                                        const linalg::ActivationMap& source,
                                        const std::vector<SendSpec>& sends,
                                        uint64_t max_chunk_bytes,
                                        bool skip_empty) {
  metrics->send_targets += static_cast<int64_t>(sends.size());

  // Plan the encode: chunk counts and exact raw byte totals are determined
  // by the inputs alone (PlanRows replays the NNZ chunking heuristic and
  // the wire layout arithmetic), so the serialization charge is computable
  // before a single byte is encoded. An empty send still plans one marker
  // chunk so the receiver's per-source accounting completes without data.
  // A skipped send keeps a chunk-less result (EncodeRows always emits at
  // least one chunk); until the encode, each result holds its plan's
  // active row count.
  uint64_t serialize_bytes = 0;
  size_t total_chunks = 0;
  std::vector<EncodeResult> encoded(sends.size());
  auto skipped = [&](size_t s) {
    return skip_empty && encoded[s].active_rows == 0;
  };
  for (size_t s = 0; s < sends.size(); ++s) {
    metrics->send_rows_mapped += static_cast<int64_t>(sends[s].rows->size());
    const EncodePlan plan = PlanRows(source, *sends[s].rows, max_chunk_bytes);
    metrics->send_rows_active += plan.active_rows;
    total_chunks += plan.num_chunks;
    encoded[s].active_rows = plan.active_rows;
    if (!skipped(s)) serialize_bytes += plan.raw_bytes;
  }

  // Run the encode (varint packing + LZ/quant passes) under the charged
  // window. All post-encode work — chunk accounting here, message building
  // and dispatch in the backend — follows the join, so the result is
  // byte-identical for every compute pool size.
  const WireCodec codec = WireCodecFromOptions(*env->options);
  FSD_RETURN_IF_ERROR(OffloadSerializeCpu(
      env, metrics, serialize_bytes, total_chunks, [&]() {
        for (size_t s = 0; s < sends.size(); ++s) {
          if (skipped(s)) continue;
          encoded[s] =
              EncodeRows(source, *sends[s].rows, max_chunk_bytes, codec);
        }
      }));

  std::vector<Frame> frames;
  frames.reserve(total_chunks);
  for (size_t s = 0; s < sends.size(); ++s) {
    if (encoded[s].chunks.empty()) {
      frames.push_back({env->worker_id, sends[s].target, 0, 1, {}});
      continue;
    }
    const int32_t total = static_cast<int32_t>(encoded[s].chunks.size());
    for (int32_t seq = 0; seq < total; ++seq) {
      RowChunk& chunk = encoded[s].chunks[seq];
      AccountSendChunk(metrics, chunk);
      frames.push_back(
          {env->worker_id, sends[s].target, seq, total, std::move(chunk.wire)});
    }
  }
  return frames;
}

Result<Frame> ParseFrameHeader(uint64_t source, uint64_t seq, uint64_t total,
                               int32_t num_workers) {
  constexpr uint64_t kMax = std::numeric_limits<int32_t>::max();
  if (source > kMax || seq > kMax || total > kMax) {
    return Status::InvalidArgument("frame header field overflows int32");
  }
  if (total < 1 || seq >= total) {
    return Status::InvalidArgument(StrFormat(
        "frame header seq %llu outside [0, total %llu)",
        static_cast<unsigned long long>(seq),
        static_cast<unsigned long long>(total)));
  }
  if (num_workers <= 0 || source >= static_cast<uint64_t>(num_workers)) {
    return Status::InvalidArgument(
        StrFormat("frame header source %llu outside [0, %d)",
                  static_cast<unsigned long long>(source), num_workers));
  }
  Frame frame;
  frame.source = static_cast<int32_t>(source);
  frame.seq = static_cast<int32_t>(seq);
  frame.total = static_cast<int32_t>(total);
  return frame;
}

FrameTracker::FrameTracker(const std::vector<int32_t>& sources,
                           LayerMetrics* metrics)
    : metrics_(metrics) {
  for (int32_t s : sources) pending_.emplace(s, Progress{});
}

bool FrameTracker::Accept(const Frame& frame) {
  auto it = pending_.find(frame.source);
  if (it == pending_.end()) {
    ++metrics_->redundant_skipped;
    return false;
  }
  it->second.expected = frame.total;
  ++it->second.got;
  metrics_->recv_wire_bytes += static_cast<int64_t>(frame.body.size());
  if (it->second.got == it->second.expected) pending_.erase(it);
  return true;
}

Status DecodeUnderCharge(WorkerEnv* env, LayerMetrics* metrics,
                         uint64_t deserialize_bytes, double extra_window_s,
                         std::span<const Bytes> bodies,
                         linalg::ActivationMap* received) {
  // The charge depends only on byte counts, so the decode itself runs
  // under the charged window (pool thread when the sim has
  // compute_threads > 0). A decode error surfaces after the window —
  // uniformly for every pool size.
  const double deser_s = static_cast<double>(deserialize_bytes) /
                         env->cloud->compute().deserialize_bytes_per_s;
  metrics->deserialize_s += deser_s;
  const double window_s = extra_window_s + deser_s;
  Status decoded;
  std::function<void()> decode;
  if (!bodies.empty()) {
    metrics->offload_calls += 1;
    metrics->offload_virtual_s += window_s;
    decode = [&]() {
      for (const Bytes& body : bodies) {
        decoded = DecodeRows(body, received);
        if (!decoded.ok()) return;
      }
    };
  }
  const size_t before = received->size();
  FSD_RETURN_IF_ERROR(env->faas->OffloadFor(window_s, std::move(decode)));
  FSD_RETURN_IF_ERROR(decoded);
  metrics->recv_rows += static_cast<int64_t>(received->size() - before);
  return Status::OK();
}

DispatchLanes::DispatchLanes(WorkerEnv* env, double op_estimate_s)
    : env_(env),
      lane_free_(static_cast<size_t>(std::max(env->options->io_lanes, 1)),
                 0.0),
      estimate_(op_estimate_s) {}

void DispatchLanes::Dispatch(std::function<void()> call) {
  auto lane = std::min_element(lane_free_.begin(), lane_free_.end());
  const double offset = *lane;
  *lane += estimate_;
  ++calls_;
  env_->cloud->sim()->ScheduleCallback(offset, std::move(call));
}

Status DispatchLanes::ChargeOverhead() const {
  return env_->faas->SleepFor(0.0002 * static_cast<double>(calls_));
}

std::unique_ptr<CommChannel> MakeCommChannel(Variant variant) {
  switch (variant) {
    case Variant::kQueue:
      return std::make_unique<QueueChannel>();
    case Variant::kObject:
      return std::make_unique<ObjectChannel>();
    case Variant::kKv:
      return std::make_unique<KvChannel>();
    case Variant::kDirect:
      return std::make_unique<DirectChannel>();
    case Variant::kSerial:
      return nullptr;
  }
  return nullptr;
}

Status ProvisionChannelResources(cloud::CloudEnv* cloud,
                                 const FsdOptions& options) {
  switch (options.variant) {
    case Variant::kQueue:
      return QueueChannel::Provision(cloud, options);
    case Variant::kObject:
      return ObjectChannel::Provision(cloud, options);
    case Variant::kKv:
      return KvChannel::Provision(cloud, options);
    case Variant::kDirect:
      return DirectChannel::Provision(cloud, options);
    case Variant::kSerial:
      return Status::OK();
  }
  return Status::OK();
}

Status TeardownChannelResources(cloud::CloudEnv* cloud,
                                const FsdOptions& options) {
  switch (options.variant) {
    case Variant::kObject:
      return ObjectChannel::Teardown(cloud, options);
    case Variant::kKv:
      return KvChannel::Teardown(cloud, options);
    case Variant::kDirect:
      return DirectChannel::Teardown(cloud, options);
    case Variant::kQueue:
    case Variant::kSerial:
      return Status::OK();
  }
  return Status::OK();
}

}  // namespace fsd::core
