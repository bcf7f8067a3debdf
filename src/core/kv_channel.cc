#include "core/kv_channel.h"

#include <algorithm>

#include "codec/varint.h"
#include "common/strings.h"
#include "sim/simulation.h"

namespace fsd::core {

Bytes EncodeInboxValue(Frame frame) {
  Bytes out;
  out.reserve(frame.body.size() + 6);
  codec::PutVarint64(&out, static_cast<uint64_t>(frame.source));
  codec::PutVarint64(&out, static_cast<uint64_t>(frame.seq));
  codec::PutVarint64(&out, static_cast<uint64_t>(frame.total));
  out.insert(out.end(), frame.body.begin(), frame.body.end());
  return out;
}

Result<Frame> DecodeInboxValue(const Bytes& value, int32_t num_workers) {
  ByteReader reader(value);
  FSD_ASSIGN_OR_RETURN(const uint64_t source, codec::GetVarint64(&reader));
  FSD_ASSIGN_OR_RETURN(const uint64_t seq, codec::GetVarint64(&reader));
  FSD_ASSIGN_OR_RETURN(const uint64_t total, codec::GetVarint64(&reader));
  FSD_ASSIGN_OR_RETURN(Frame frame,
                       ParseFrameHeader(source, seq, total, num_workers));
  FSD_ASSIGN_OR_RETURN(frame.body, reader.ReadBytes(reader.remaining()));
  return frame;
}

std::string KvChannel::NamespaceName(const FsdOptions& options) {
  return StrFormat("%skv", options.channel_scope.c_str());
}

std::string KvChannel::InboxKey(int32_t phase, int32_t target) {
  return StrFormat("p%d/w%d", phase, target);
}

Status KvChannel::CreateNamespace(cloud::CloudEnv* cloud,
                                  const std::string& ns,
                                  const FsdOptions& options) {
  if (!cloud->kv().NamespaceExists(ns)) {
    cloud::KvNamespaceOptions ns_options;
    ns_options.num_shards = std::max<int32_t>(1, options.kv_shards);
    FSD_RETURN_IF_ERROR(cloud->kv().CreateNamespace(ns, ns_options));
  }
  return Status::OK();
}

Status KvChannel::DeleteNamespace(cloud::CloudEnv* cloud,
                                  const std::string& ns) {
  if (!cloud->kv().NamespaceExists(ns)) return Status::OK();
  return cloud->kv().DeleteNamespace(ns);
}

Status KvChannel::Provision(cloud::CloudEnv* cloud,
                            const FsdOptions& options) {
  return CreateNamespace(cloud, NamespaceName(options), options);
}

Status KvChannel::Teardown(cloud::CloudEnv* cloud, const FsdOptions& options) {
  return DeleteNamespace(cloud, NamespaceName(options));
}

Status KvChannel::SendPhase(WorkerEnv* env, int32_t phase,
                            const linalg::ActivationMap& source,
                            const std::vector<SendSpec>& sends) {
  if (sends.empty()) return Status::OK();
  const FsdOptions& options = *env->options;
  LayerMetrics& metrics = env->metrics->Layer(phase);
  FSD_ASSIGN_OR_RETURN(
      std::vector<Frame> frames,
      EncodeFrames(env, &metrics, source, sends, options.kv_max_value_bytes,
                   /*skip_empty=*/false));

  // Lane-scheduled pushes of headed inbox values: each lane issues its
  // next push when the previous completes, using the median op latency as
  // the lane estimate.
  DispatchLanes lanes(env, env->cloud->latency().kv_push.median_s);
  metrics.kv_pushes += static_cast<int64_t>(frames.size());
  const std::string ns = NamespaceName(options);
  for (Frame& frame : frames) {
    const int32_t target = frame.target;
    Bytes value = EncodeInboxValue(std::move(frame));
    // The cache meters processed bytes per request: a push processes the
    // whole value (header + chunk) — mirrored exactly for the cost model.
    metrics.send_billed_bytes += static_cast<int64_t>(value.size());
    lanes.Dispatch([cloud = env->cloud, ns, key = InboxKey(phase, target),
                    value = std::move(value)]() mutable {
      cloud->kv().Push(ns, key, std::move(value));
    });
  }
  return lanes.ChargeOverhead();
}

Result<linalg::ActivationMap> KvChannel::ReceivePhase(
    WorkerEnv* env, int32_t phase, const std::vector<int32_t>& sources) {
  linalg::ActivationMap received;
  if (sources.empty()) return received;
  const FsdOptions& options = *env->options;
  LayerMetrics& metrics = env->metrics->Layer(phase);
  const double start = env->cloud->sim()->Now();
  FrameTracker tracker(sources, &metrics);

  const std::string ns = NamespaceName(options);
  const std::string inbox = InboxKey(phase, env->worker_id);
  while (!tracker.done()) {
    FSD_RETURN_IF_ERROR(env->CheckAbort());
    FSD_RETURN_IF_ERROR(env->faas->CheckDeadline());
    FSD_ASSIGN_OR_RETURN(
        std::vector<Bytes> values,
        env->cloud->kv().BlockingPopAll(ns, inbox, cloud::kMaxValuesPerPop,
                                        options.kv_poll_wait_s));
    ++metrics.kv_pops;
    if (values.empty()) {
      ++metrics.kv_empty_pops;
      continue;
    }
    // Header checks and per-source bookkeeping stay inline (they drive
    // the poll loop); the accepted bodies decode as one batch under the
    // deserialization window for their bytes.
    uint64_t accepted_bytes = 0;
    std::vector<Bytes> bodies;
    bodies.reserve(values.size());
    for (const Bytes& value : values) {
      // Processed bytes the pop was billed for: the full value, header
      // included — counted before any skip, because the service meters
      // what it moved, not what the receiver could use.
      metrics.recv_billed_bytes += static_cast<int64_t>(value.size());
      FSD_ASSIGN_OR_RETURN(Frame frame,
                           DecodeInboxValue(value, options.num_workers));
      // Pops are destructive, so a frame from a non-pending source can only
      // be a stray value from a mis-scoped sender; the tracker counts it.
      if (!tracker.Accept(frame)) continue;
      accepted_bytes += frame.body.size();
      bodies.push_back(std::move(frame.body));
    }
    FSD_RETURN_IF_ERROR(DecodeUnderCharge(env, &metrics, accepted_bytes,
                                          /*extra_window_s=*/0.0, bodies,
                                          &received));
  }

  metrics.recv_wait_s += env->cloud->sim()->Now() - start;
  return received;
}

}  // namespace fsd::core
