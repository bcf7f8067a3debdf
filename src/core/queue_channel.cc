#include "core/queue_channel.h"

#include <charconv>
#include <cstdint>

#include "common/strings.h"
#include "sim/simulation.h"

namespace fsd::core {
namespace {

constexpr char kAttrTarget[] = "target";
constexpr char kAttrSource[] = "src";
constexpr char kAttrPhase[] = "phase";
constexpr char kAttrSeq[] = "seq";
constexpr char kAttrTotal[] = "total";

/// Billed increments for one request moving `bytes` bytes under a
/// `increment_bytes` billing granularity (>= 1 increment per request —
/// the pub-sub 64 KiB publish-chunk rule).
int64_t BilledIncrementChunks(uint64_t bytes, uint64_t increment_bytes) {
  const uint64_t chunks = (bytes + increment_bytes - 1) / increment_bytes;
  return static_cast<int64_t>(chunks > 0 ? chunks : 1);
}

/// One decimal header attribute. A missing or garbled attribute is an
/// error, never a silent zero.
Result<uint64_t> HeaderAttr(const cloud::QueueMessage& msg, const char* key) {
  uint64_t value = 0;
  if (auto it = msg.attributes.find(key); it != msg.attributes.end()) {
    const char* first = it->second.data();
    const char* last = first + it->second.size();
    const auto [end, ec] = std::from_chars(first, last, value);
    if (ec == std::errc() && end == last) return value;
  }
  return Status::InvalidArgument(
      StrFormat("queue message attribute '%s' missing or malformed", key));
}

/// Rebuilds a frame from a message's header attributes (moving its body)
/// and reports the phase the message belongs to.
Result<Frame> ParseMessage(cloud::QueueMessage* msg, int32_t num_workers,
                           int32_t* phase) {
  FSD_ASSIGN_OR_RETURN(const uint64_t msg_phase, HeaderAttr(*msg, kAttrPhase));
  FSD_ASSIGN_OR_RETURN(const uint64_t source, HeaderAttr(*msg, kAttrSource));
  FSD_ASSIGN_OR_RETURN(const uint64_t seq, HeaderAttr(*msg, kAttrSeq));
  FSD_ASSIGN_OR_RETURN(const uint64_t total, HeaderAttr(*msg, kAttrTotal));
  if (msg_phase > static_cast<uint64_t>(INT32_MAX)) {
    return Status::InvalidArgument("queue message phase overflows int32");
  }
  FSD_ASSIGN_OR_RETURN(Frame frame,
                       ParseFrameHeader(source, seq, total, num_workers));
  frame.body = std::move(msg->body);
  *phase = static_cast<int32_t>(msg_phase);
  return frame;
}

}  // namespace

std::string QueueChannel::TopicName(int32_t source,
                                    const FsdOptions& options) {
  return StrFormat("%stopic-%d", options.channel_scope.c_str(),
                   source % options.num_topics);
}

std::string QueueChannel::QueueName(int32_t worker,
                                    const FsdOptions& options) {
  return StrFormat("%squeue-%d", options.channel_scope.c_str(), worker);
}

Status QueueChannel::Provision(cloud::CloudEnv* cloud,
                               const FsdOptions& options) {
  for (int32_t t = 0; t < options.num_topics; ++t) {
    const std::string topic = TopicName(t, options);
    if (!cloud->pubsub().TopicExists(topic)) {
      FSD_RETURN_IF_ERROR(cloud->pubsub().CreateTopic(topic));
    }
  }
  for (int32_t n = 0; n < options.num_workers; ++n) {
    const std::string queue = QueueName(n, options);
    if (!cloud->queues().QueueExists(queue)) {
      FSD_RETURN_IF_ERROR(cloud->queues().CreateQueue(queue));
    }
    // Any worker may publish on any topic shard; the filter policy routes
    // messages whose "target" attribute names this worker.
    cloud::FilterPolicy policy;
    policy.equals[kAttrTarget] = {StrFormat("%d", n)};
    for (int32_t t = 0; t < options.num_topics; ++t) {
      FSD_RETURN_IF_ERROR(
          cloud->pubsub().Subscribe(TopicName(t, options), queue, policy));
    }
  }
  return Status::OK();
}

Status QueueChannel::SendPhase(WorkerEnv* env, int32_t phase,
                               const linalg::ActivationMap& source,
                               const std::vector<SendSpec>& sends) {
  if (sends.empty()) return Status::OK();
  const FsdOptions& options = *env->options;
  LayerMetrics& metrics = env->metrics->Layer(phase);
  FSD_ASSIGN_OR_RETURN(
      std::vector<Frame> frames,
      EncodeFrames(env, &metrics, source, sends, options.max_message_bytes,
                   /*skip_empty=*/false));

  // Pop publish batches: group <=10 messages and <=256 KiB per publish
  // (pop_batches in Algorithm 1). Messages for different targets may share
  // one publish — the filter policy splits them downstream. Each message
  // carries its frame header in attributes.
  struct Batch {
    std::string topic;
    std::vector<cloud::QueueMessage> messages;
    uint64_t bytes = 0;
  };
  std::vector<Batch> batches;
  const std::string my_topic = TopicName(env->worker_id, options);
  Batch current{my_topic, {}, 0};
  auto flush = [&]() {
    if (!current.messages.empty()) {
      batches.push_back(std::move(current));
      current = Batch{my_topic, {}, 0};
    }
  };
  for (Frame& frame : frames) {
    cloud::QueueMessage msg;
    msg.body = std::move(frame.body);
    msg.attributes[kAttrTarget] = StrFormat("%d", frame.target);
    msg.attributes[kAttrSource] = StrFormat("%d", frame.source);
    msg.attributes[kAttrPhase] = StrFormat("%d", phase);
    msg.attributes[kAttrSeq] = StrFormat("%d", frame.seq);
    msg.attributes[kAttrTotal] = StrFormat("%d", frame.total);
    const uint64_t size = msg.SizeBytes();
    const bool overflow =
        current.bytes + size > cloud::kMaxPublishBytes ||
        current.messages.size() >=
            static_cast<size_t>(cloud::kMaxMessagesPerPublish);
    if (!options.greedy_packing || overflow) flush();
    current.messages.push_back(std::move(msg));
    current.bytes += size;
    if (!options.greedy_packing) flush();
  }
  flush();

  // Dispatch publishes on parallel IPC lanes: each lane issues its next
  // publish when the previous completes. Lane offsets use the median API
  // latency as the estimate; the true latency is sampled at publish time.
  DispatchLanes lanes(env, env->cloud->latency().pubsub_publish.median_s);
  metrics.publishes += static_cast<int64_t>(batches.size());
  const uint64_t increment =
      env->cloud->billing().pricing().pubsub_billing_increment_bytes;
  for (Batch& batch : batches) {
    // Mirror the service's batch-level 64 KiB-increment billing in the
    // worker metrics (the paper's per-layer S counter).
    metrics.publish_chunks += BilledIncrementChunks(batch.bytes, increment);
    // Every message fans out to exactly one queue (its target's filter),
    // so the service bills delivery bytes = message sizes incl. attribute
    // envelopes — mirrored here so the cost model's Z term is exact.
    metrics.send_billed_bytes += static_cast<int64_t>(batch.bytes);
    lanes.Dispatch([cloud = env->cloud, topic = batch.topic,
                    messages = std::move(batch.messages)]() mutable {
      cloud->pubsub().PublishBatch(topic, std::move(messages));
    });
  }
  return lanes.ChargeOverhead();
}

Result<linalg::ActivationMap> QueueChannel::ReceivePhase(
    WorkerEnv* env, int32_t phase, const std::vector<int32_t>& sources) {
  linalg::ActivationMap received;
  if (sources.empty()) return received;
  const FsdOptions& options = *env->options;
  LayerMetrics& metrics = env->metrics->Layer(phase);
  const double start = env->cloud->sim()->Now();
  FrameTracker tracker(sources, &metrics);

  // Each in-phase message decodes under its own deserialization window.
  auto consume = [&](const Frame& frame) -> Status {
    if (tracker.pending(frame.source) &&
        !seen_.insert({phase, frame.source, frame.seq}).second) {
      ++metrics.redundant_skipped;  // visibility-timeout redelivery
      return Status::OK();
    }
    if (!tracker.Accept(frame)) return Status::OK();
    return DecodeUnderCharge(env, &metrics, frame.body.size(),
                             /*extra_window_s=*/0.0, {&frame.body, 1},
                             &received);
  };

  // Drain the stash first: chunks for this phase may have arrived while we
  // were receiving an earlier phase.
  if (auto it = stash_.find(phase); it != stash_.end()) {
    for (const Frame& frame : it->second) {
      FSD_RETURN_IF_ERROR(consume(frame));
    }
    stash_.erase(it);
  }

  const std::string my_queue = QueueName(env->worker_id, options);
  while (!tracker.done()) {
    FSD_RETURN_IF_ERROR(env->CheckAbort());
    FSD_RETURN_IF_ERROR(env->faas->CheckDeadline());
    FSD_ASSIGN_OR_RETURN(
        std::vector<cloud::QueueMessage> messages,
        env->cloud->queues().Receive(my_queue, cloud::kMaxMessagesPerReceive,
                                     options.poll_wait_s));
    ++metrics.polls;
    if (messages.empty()) {
      ++metrics.empty_polls;
      continue;
    }
    metrics.msgs_received += static_cast<int64_t>(messages.size());
    std::vector<uint64_t> to_delete;
    for (cloud::QueueMessage& msg : messages) {
      to_delete.push_back(msg.id);
      int32_t msg_phase = 0;
      FSD_ASSIGN_OR_RETURN(Frame frame,
                           ParseMessage(&msg, options.num_workers, &msg_phase));
      if (msg_phase != phase) {
        stash_[msg_phase].push_back(std::move(frame));
        continue;
      }
      FSD_RETURN_IF_ERROR(consume(frame));
    }
    FSD_RETURN_IF_ERROR(
        env->cloud->queues().DeleteMessages(my_queue, to_delete));
    ++metrics.deletes;
  }

  metrics.recv_wait_s += env->cloud->sim()->Now() - start;
  return received;
}

}  // namespace fsd::core
