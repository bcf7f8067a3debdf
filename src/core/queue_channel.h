// QueueChannel — FSD-Inf-Queue (paper §III-A, Algorithm 1, Figure 2).
//
// Send path: activation rows are packed into size-capped byte strings with
// the NNZ heuristic, grouped into <=10-message / <=256 KiB publish batches
// (reducing API calls and cost), and published to topic-{m % num_topics}.
// Service-side filter policies fan each message out to the dedicated queue
// of its target worker, so consumers never parse unwanted messages.
// Publishing is modelled on the worker's IPC thread pool: the worker pays
// serialization CPU, while the publish API calls run on parallel lanes that
// overlap the subsequent local compute.
//
// Receive path: the worker long-polls its own queue (up to 10 messages per
// receive), stashes messages belonging to other phases (a fast upstream
// worker may already be sending layer k+1), deduplicates redeliveries, and
// deletes consumed messages. Per-source chunk counts ride in message
// attributes so the worker knows when a source is complete.
#ifndef FSD_CORE_QUEUE_CHANNEL_H_
#define FSD_CORE_QUEUE_CHANNEL_H_

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/channel.h"
#include "core/serialization.h"

namespace fsd::core {

class QueueChannel : public CommChannel {
 public:
  /// Binds the channel to one worker's execution (stash state is per
  /// worker). Resources must have been provisioned beforehand.
  QueueChannel() = default;

  /// Pre-creates topics, per-worker queues and filter-policy subscriptions
  /// (offline step; no inference-time cost, matching the paper).
  static Status Provision(cloud::CloudEnv* cloud, const FsdOptions& options);

  static std::string TopicName(int32_t source, const FsdOptions& options);
  static std::string QueueName(int32_t worker, const FsdOptions& options);

  std::string_view name() const override { return "queue"; }

  Status SendPhase(WorkerEnv* env, int32_t phase,
                   const linalg::ActivationMap& source,
                   const std::vector<SendSpec>& sends) override;

  Result<linalg::ActivationMap> ReceivePhase(
      WorkerEnv* env, int32_t phase,
      const std::vector<int32_t>& sources) override;

 private:
  /// Frames that arrived while receiving a different phase.
  std::map<int32_t, std::vector<Frame>> stash_;
  /// (phase, source, seq) already consumed — redelivery dedup.
  std::set<std::tuple<int32_t, int32_t, int32_t>> seen_;
};

}  // namespace fsd::core

#endif  // FSD_CORE_QUEUE_CHANNEL_H_
