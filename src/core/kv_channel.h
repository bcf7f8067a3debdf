// KvChannel — FSD-Inf-KV: the in-memory key-value channel extension.
//
// Rationale (FMI, Copik et al.; lambda-scale warm-state serving): a
// Redis/ElastiCache-style cache reaches sub-millisecond operation latency —
// one to two orders of magnitude below pub-sub/queue and object-storage
// APIs — which dominates end-to-end latency for the small activation
// payloads sparse inference exchanges. The trade-off is a standing
// node-hour cost and per-byte processing charges, so request-priced object
// storage still wins on dollars at large volumes (see cost_model.h).
//
// Send path: activation rows are packed into value-capped chunks (same NNZ
// heuristic as the queue channel), prefixed with a (source, seq, total)
// varint header, and RPUSHed onto the target's per-phase inbox list
// "p{phase}/w{target}" in the run's namespace. Pushes are dispatched on the
// worker's IPC lanes and overlap the subsequent compute.
//
// Receive path: the worker blocking-pops its own inbox list. Pops are
// destructive, so there is no delete call and no redelivery dedup; phases
// have dedicated lists, so there is no cross-phase stash either. Per-source
// chunk counts ride in the value headers.
#ifndef FSD_CORE_KV_CHANNEL_H_
#define FSD_CORE_KV_CHANNEL_H_

#include <string>
#include <vector>

#include "core/channel.h"
#include "core/serialization.h"

namespace fsd::core {

/// Inbox value layout: varint(source), varint(seq), varint(total), frame
/// body. Shared with the direct channel, whose values (punched or relayed)
/// must stay byte-identical to a KvChannel send so relay costs meter the
/// same way.
Bytes EncodeInboxValue(Frame frame);

/// Parses an inbox value of a `num_workers` run. Truncated varints and
/// headers ParseFrameHeader rejects return a non-OK Status.
Result<Frame> DecodeInboxValue(const Bytes& value, int32_t num_workers);

class KvChannel : public CommChannel {
 public:
  KvChannel() = default;

  /// Creates the run's namespace (offline step; node billing starts).
  static Status Provision(cloud::CloudEnv* cloud, const FsdOptions& options);

  /// Deletes the run's namespace, billing node time for its lifetime.
  static Status Teardown(cloud::CloudEnv* cloud, const FsdOptions& options);

  /// Creates / deletes one namespace if (not) present: the KV channel's
  /// own, or the direct channel's relay.
  static Status CreateNamespace(cloud::CloudEnv* cloud, const std::string& ns,
                                const FsdOptions& options);
  static Status DeleteNamespace(cloud::CloudEnv* cloud, const std::string& ns);

  static std::string NamespaceName(const FsdOptions& options);
  /// Inbox list key "p{phase}/w{target}" (also the direct channel's
  /// fabric and relay inbox).
  static std::string InboxKey(int32_t phase, int32_t target);

  std::string_view name() const override { return "kv"; }

  Status SendPhase(WorkerEnv* env, int32_t phase,
                   const linalg::ActivationMap& source,
                   const std::vector<SendSpec>& sends) override;

  Result<linalg::ActivationMap> ReceivePhase(
      WorkerEnv* env, int32_t phase,
      const std::vector<int32_t>& sources) override;
};

}  // namespace fsd::core

#endif  // FSD_CORE_KV_CHANNEL_H_
