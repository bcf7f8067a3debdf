#include "core/object_channel.h"

#include <algorithm>

#include "common/strings.h"
#include "sim/simulation.h"

namespace fsd::core {

std::string ObjectChannel::BucketName(int32_t target,
                                      const FsdOptions& options) {
  return StrFormat("%sbucket-%d", options.channel_scope.c_str(),
                   target % options.num_buckets);
}

std::string ObjectChannel::ObjectKey(int32_t phase, int32_t source,
                                     int32_t target, bool empty_marker) {
  return StrFormat("%d/%d/%d_%d.%s", phase, target, source, target,
                   empty_marker ? "nul" : "dat");
}

Status ObjectChannel::Provision(cloud::CloudEnv* cloud,
                                const FsdOptions& options) {
  for (int32_t b = 0; b < options.num_buckets; ++b) {
    const std::string bucket = BucketName(b, options);
    if (!cloud->objects().BucketExists(bucket)) {
      FSD_RETURN_IF_ERROR(cloud->objects().CreateBucket(bucket));
    }
  }
  return Status::OK();
}

Status ObjectChannel::Teardown(cloud::CloudEnv* cloud,
                               const FsdOptions& options) {
  for (int32_t b = 0; b < options.num_buckets; ++b) {
    const std::string bucket = BucketName(b, options);
    if (cloud->objects().BucketExists(bucket)) {
      FSD_RETURN_IF_ERROR(cloud->objects().DeleteBucket(bucket));
    }
  }
  return Status::OK();
}

Status ObjectChannel::SendPhase(WorkerEnv* env, int32_t phase,
                                const linalg::ActivationMap& source,
                                const std::vector<SendSpec>& sends) {
  if (sends.empty()) return Status::OK();
  const FsdOptions& options = *env->options;
  LayerMetrics& metrics = env->metrics->Layer(phase);
  // One unbounded chunk per target (object payloads are size-free), so
  // every send yields exactly one outgoing object. A target with nothing to
  // transmit gets a 0-byte ".nul" marker instead of an encode.
  FSD_ASSIGN_OR_RETURN(
      std::vector<Frame> frames,
      EncodeFrames(env, &metrics, source, sends, /*max_chunk_bytes=*/0,
                   /*skip_empty=*/options.nul_markers));

  // Non-blocking multi-threaded PUTs: lane-scheduled dispatch callbacks.
  DispatchLanes lanes(env, env->cloud->latency().object_put.median_s);
  for (Frame& frame : frames) {
    const bool is_nul = frame.body.empty();
    ++(is_nul ? metrics.puts_nul : metrics.puts_dat);
    lanes.Dispatch([cloud = env->cloud,
                    bucket = BucketName(frame.target, options),
                    key = ObjectKey(phase, frame.source, frame.target, is_nul),
                    body = std::move(frame.body)]() {
      cloud->objects().Put(bucket, key, body);
    });
  }
  return lanes.ChargeOverhead();
}

Result<linalg::ActivationMap> ObjectChannel::ReceivePhase(
    WorkerEnv* env, int32_t phase, const std::vector<int32_t>& sources) {
  linalg::ActivationMap received;
  if (sources.empty()) return received;
  const FsdOptions& options = *env->options;
  LayerMetrics& metrics = env->metrics->Layer(phase);
  const double start = env->cloud->sim()->Now();
  FrameTracker tracker(sources, &metrics);
  const std::string bucket = BucketName(env->worker_id, options);
  const std::string prefix =
      StrFormat("%d/%d/", phase, env->worker_id);

  while (!tracker.done()) {
    FSD_RETURN_IF_ERROR(env->CheckAbort());
    FSD_RETURN_IF_ERROR(env->faas->CheckDeadline());
    FSD_ASSIGN_OR_RETURN(std::vector<cloud::ObjectMeta> handles,
                         env->cloud->objects().List(bucket, prefix));
    ++metrics.lists;

    // Decide which handles to fetch this round.
    std::vector<std::pair<int32_t, std::string>> to_get;
    for (const cloud::ObjectMeta& meta : handles) {
      // Key tail: "{source}_{target}.ext"
      const size_t slash = meta.key.rfind('/');
      const std::string tail = meta.key.substr(slash + 1);
      const int32_t source = std::atoi(tail.c_str());
      const bool is_nul = tail.size() > 4 &&
                          tail.compare(tail.size() - 4, 4, ".nul") == 0;
      if (!tracker.pending(source)) {
        if (!is_nul) ++metrics.redundant_skipped;  // already received
        continue;
      }
      if (is_nul) {
        // Source had nothing to transmit; no GET needed.
        tracker.Accept(Frame{source, env->worker_id, 0, 1, {}});
        ++metrics.nul_skipped;
        continue;
      }
      to_get.push_back({source, meta.key});
    }

    // Parallel GETs on the IPC lanes. Fetch and bookkeeping stay inline
    // (they drive the poll loop); the row decode for the whole round is
    // batched and runs under the round's GET+deserialize window.
    if (!to_get.empty()) {
      std::vector<double> latencies;
      std::vector<Bytes> bodies;
      bodies.reserve(to_get.size());
      uint64_t got_bytes = 0;
      for (auto& [source, key] : to_get) {
        cloud::ObjectStore::GetOutcome got =
            env->cloud->objects().Get(bucket, key);
        ++metrics.gets;
        if (!got.status.ok()) return got.status;
        latencies.push_back(got.latency);
        got_bytes += got.body.size();
        Frame frame{source, env->worker_id, 0, 1, std::move(got.body)};
        tracker.Accept(frame);
        bodies.push_back(std::move(frame.body));
      }
      FSD_RETURN_IF_ERROR(DecodeUnderCharge(
          env, &metrics, got_bytes,
          sim::ParallelMakespan(latencies, options.io_lanes), bodies,
          &received));
    } else if (!tracker.done()) {
      // Nothing new this scan; brief back-off before re-listing keeps the
      // LIST count (and cost) down, as in the paper's optimization.
      FSD_RETURN_IF_ERROR(env->faas->SleepFor(options.object_scan_interval_s));
    }
  }

  metrics.recv_wait_s += env->cloud->sim()->Now() - start;
  return received;
}

}  // namespace fsd::core
