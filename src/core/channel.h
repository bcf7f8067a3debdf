// CommChannel: the fully serverless point-to-point communication abstraction
// (paper §III-A/B). Four backends implement it — QueueChannel (FSD-Inf-Queue:
// pub-sub + per-worker queues), ObjectChannel (FSD-Inf-Object: sharded object
// storage), KvChannel (FSD-Inf-KV: in-memory KV inbox lists) and
// DirectChannel (FSD-Inf-Direct: NAT-punched links with a KV relay) — plus
// the degenerate serial case, which performs no communication. All four
// share one framing layer (EncodeFrames, ParseFrameHeader, FrameTracker,
// DecodeUnderCharge below) and differ only in their transport.
//
// The channel moves *phases* of activation rows. Phases 0..L-1 carry the
// x^{k-1} exchanges feeding each layer k; collective operations (barrier,
// reduce) reuse the same machinery under phase ids >= L, so MPI-style
// primitives (Send, Recv, Barrier, Reduce, Broadcast) all ride on one code
// path per backend.
#ifndef FSD_CORE_CHANNEL_H_
#define FSD_CORE_CHANNEL_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "cloud/cloud.h"
#include "common/result.h"
#include "core/fsd_config.h"
#include "core/metrics.h"
#include "core/serialization.h"
#include "linalg/spmm.h"

namespace fsd::core {

/// Per-worker execution environment threaded through channel calls.
struct WorkerEnv {
  cloud::FaasContext* faas = nullptr;
  cloud::CloudEnv* cloud = nullptr;
  const FsdOptions* options = nullptr;
  WorkerMetrics* metrics = nullptr;
  int32_t worker_id = 0;
  /// Set when any worker in the run failed; receive loops drain promptly
  /// instead of polling until their own runtime cap.
  const bool* abort = nullptr;

  Status CheckAbort() const {
    if (abort != nullptr && *abort) {
      return Status::Unavailable("run aborted by a failed peer");
    }
    return Status::OK();
  }
};

/// One phase send: ship the listed x rows (those present in the source map)
/// to `target`.
struct SendSpec {
  int32_t target = 0;
  const std::vector<int32_t>* rows = nullptr;
};

class CommChannel {
 public:
  virtual ~CommChannel() = default;
  virtual std::string_view name() const = 0;

  /// Dispatches one phase's sends. Non-blocking with respect to network
  /// time: the worker pays CPU (serialization/compression) and per-call
  /// dispatch overhead; transfers complete asynchronously so the caller can
  /// overlap communication with computation (Algorithms 1 & 2).
  virtual Status SendPhase(WorkerEnv* env, int32_t phase,
                           const linalg::ActivationMap& source,
                           const std::vector<SendSpec>& sends) = 0;

  /// Blocks until every worker in `sources` has delivered its phase data;
  /// returns the merged activation rows. Sources with nothing to send
  /// deliver an explicit empty marker (empty chunk / ".nul" object).
  virtual Result<linalg::ActivationMap> ReceivePhase(
      WorkerEnv* env, int32_t phase, const std::vector<int32_t>& sources) = 0;
};

/// Builds the channel implementation for a variant (nullptr for kSerial,
/// which performs no communication). One instance per worker: channels
/// carry per-worker receive state.
std::unique_ptr<CommChannel> MakeCommChannel(Variant variant);

/// Pre-creates the communication resources named by `options.channel_scope`
/// for the variant (topics/queues, buckets, or the KV namespace). Offline
/// step: not billed per request and not timed, matching the paper.
Status ProvisionChannelResources(cloud::CloudEnv* cloud,
                                 const FsdOptions& options);

/// Releases per-run channel resources. Queue resources are request-priced
/// and free to keep, so this is a no-op for them. The object channel
/// deletes its bucket shards and every payload in them (free, untimed).
/// The KV namespace is deleted, which bills its node time; the direct
/// channel deletes its punch-brokering session (links close free) and its
/// KV relay namespace, billing the relay's node time if any pair relayed.
/// As with a deleted KV namespace, a dispatch callback that lands after
/// teardown fails with NotFound and bills nothing.
Status TeardownChannelResources(cloud::CloudEnv* cloud,
                                const FsdOptions& options);

/// Asynchronous API dispatch on the worker's IPC lanes. Each call starts
/// when the least-loaded lane frees up, advancing that lane by the op's
/// median latency (the estimate; the true latency is sampled when the
/// call runs). The worker itself pays only a small per-call overhead to
/// hand the calls to its pool; the round trips ride the lanes.
class DispatchLanes {
 public:
  DispatchLanes(WorkerEnv* env, double op_estimate_s);
  /// Schedules one API call on the least-loaded lane.
  void Dispatch(std::function<void()> call);
  /// Charges the worker the hand-off overhead of every dispatched call.
  Status ChargeOverhead() const;

 private:
  WorkerEnv* env_;
  std::vector<double> lane_free_;
  double estimate_;
  size_t calls_ = 0;
};

/// ---- the shared framing layer ----
/// The paper's row exchange is one pipeline with interchangeable
/// transports (§III-A/B); these helpers are that pipeline. A backend
/// supplies only its transport — naming, provisioning, dispatch,
/// pop/poll/list/GET — and the metering specific to its service.

/// One chunk of a (source -> target) phase send. The send side fills it
/// from the encode; the receive side rebuilds the header from the
/// transport's envelope (queue attributes, the inbox varint header, an
/// object key) through ParseFrameHeader.
struct Frame {
  int32_t source = 0;
  int32_t target = 0;
  int32_t seq = 0;    ///< chunk index within the send
  int32_t total = 1;  ///< chunks in the send (>= 1)
  Bytes body;         ///< encoded rows (RowChunk::wire)
};

/// Runs the send pipeline for one phase: meters send_targets and
/// send_rows_mapped/active, charges the serialization CPU a PlanRows
/// pre-pass prices, runs EncodeRows under that charged window
/// (FaasContext::OffloadFor), then accounts every chunk. Returns one frame
/// per chunk, in send order. With `skip_empty`, a send with no active rows
/// is not encoded: it yields one frame with an empty body (the object
/// channel's ".nul" marker), which counts as an encode item but adds no
/// serialize bytes.
Result<std::vector<Frame>> EncodeFrames(WorkerEnv* env, LayerMetrics* metrics,
                                        const linalg::ActivationMap& source,
                                        const std::vector<SendSpec>& sends,
                                        uint64_t max_chunk_bytes,
                                        bool skip_empty);

/// The one check every receiver runs on a frame header, whatever envelope
/// carried it. Fails with InvalidArgument unless each field fits in
/// int32, total >= 1, seq is in [0, total) and source is in
/// [0, num_workers) — a header no sender of this run can produce would
/// otherwise stall its receiver until the deadline or credit the wrong
/// worker.
Result<Frame> ParseFrameHeader(uint64_t source, uint64_t seq, uint64_t total,
                               int32_t num_workers);

/// Per-source completion for one phase receive: a source is done once it
/// delivered as many frames as its headers announce. Frames from sources
/// that are not (or no longer) pending count in redundant_skipped;
/// accepted frames count their body in recv_wire_bytes.
class FrameTracker {
 public:
  FrameTracker(const std::vector<int32_t>& sources, LayerMetrics* metrics);

  bool done() const { return pending_.empty(); }
  bool pending(int32_t source) const { return pending_.contains(source); }

  /// Returns whether `frame` was accepted (its source was pending).
  bool Accept(const Frame& frame);

 private:
  struct Progress {
    int32_t expected = -1;  ///< unknown until the source's first frame
    int32_t got = 0;
  };
  std::map<int32_t, Progress> pending_;
  LayerMetrics* metrics_;
};

/// Decodes received frame bodies into `received` under one charged
/// window: `deserialize_bytes` at the deserialization rate (metered in
/// deserialize_s) plus `extra_window_s` (the object channel's GET
/// makespan). A non-empty batch counts one offload call over the whole
/// window and recv_rows for the rows it adds. An empty batch still waits
/// its window — zero-length or not, that wait schedules a wake, so it is
/// an event.
Status DecodeUnderCharge(WorkerEnv* env, LayerMetrics* metrics,
                         uint64_t deserialize_bytes, double extra_window_s,
                         std::span<const Bytes> bodies,
                         linalg::ActivationMap* received);

/// ---- phase-id layout shared by workers and collectives ----
/// A batch's phase budget is `layers` layer-exchange phases followed by
/// one reserved block per collective operation. Multi-round topologies
/// (binomial tree, ring) need a DISTINCT phase id per round — channels
/// key delivery on (phase, source), and the same ordered pair carries
/// different data in different rounds — so each block reserves the
/// topology's worst-case round count. The allocator replaces the old
/// fixed kPhaseBarrierArrive/kPhaseReduce/... constants; with the
/// through-root topology (1 round per op) it reproduces that legacy
/// layout exactly: arrive=L, release=L+1, reduce=L+2, broadcast=L+3.

/// The collective operations with reserved phase blocks, in block order.
enum class CollectiveOp : int {
  kBarrierArrive = 0,
  kBarrierRelease = 1,
  kReduce = 2,
  kBroadcast = 3,
};
inline constexpr int32_t kCollectiveOpCount = 4;

/// Worst-case send rounds one collective op needs under a topology at P
/// workers (also the per-op phase reservation).
int32_t CollectiveRounds(CollectiveTopology topology, int32_t num_workers);

/// One collective op's reserved block: `rounds` consecutive phase ids
/// starting at `first`; round r runs on phase first + r.
struct PhaseBlock {
  int32_t first = 0;
  int32_t rounds = 1;
  int32_t Round(int32_t r) const {
    assert(r >= 0 && r < rounds);
    return first + r;
  }
};

/// Lays out one batch's phase ids: layer phases [base, base+layers), then
/// kCollectiveOpCount disjoint per-op blocks of `rounds_per_op` phases
/// each. Disjointness is structural — every accessor asserts its index
/// stays inside its own region (debug builds).
class PhaseAllocator {
 public:
  PhaseAllocator(int32_t base, int32_t layers, int32_t rounds_per_op)
      : base_(base), layers_(layers), rounds_per_op_(rounds_per_op) {
    assert(layers_ >= 0 && rounds_per_op_ >= 1);
  }

  /// Phase carrying the x^{k-1} exchange feeding layer k.
  int32_t LayerPhase(int32_t k) const {
    assert(k >= 0 && k < layers_);
    return base_ + k;
  }

  /// The reserved block for one collective op.
  PhaseBlock Block(CollectiveOp op) const {
    const int32_t index = static_cast<int32_t>(op);
    assert(index >= 0 && index < kCollectiveOpCount);
    return PhaseBlock{base_ + layers_ + index * rounds_per_op_,
                      rounds_per_op_};
  }

  int32_t phases_per_batch() const {
    return layers_ + kCollectiveOpCount * rounds_per_op_;
  }

 private:
  int32_t base_;
  int32_t layers_;
  int32_t rounds_per_op_;
};

}  // namespace fsd::core

#endif  // FSD_CORE_CHANNEL_H_
