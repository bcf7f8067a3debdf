#include "core/direct_channel.h"

#include <algorithm>
#include <map>

#include "common/strings.h"
#include "core/kv_channel.h"
#include "sim/simulation.h"

namespace fsd::core {
namespace {

/// Ensures the pair's link exists and accounts a fresh punch attempt.
/// Punching is mutual, so the fabric keys link state by the unordered
/// pair: whichever side asks first books the one connection/failure, and
/// the reverse direction's Connect is a free cache hit — never a second
/// charge for the same physical link.
/// Returns whether the pair is punched (false: the pair relays via KV).
Result<bool> EnsureLink(WorkerEnv* env, LayerMetrics* metrics,
                        const std::string& session, int32_t src,
                        int32_t dst) {
  cloud::P2pFabric::ConnectOutcome conn =
      env->cloud->p2p().Connect(session, src, dst);
  FSD_RETURN_IF_ERROR(conn.status);
  if (conn.fresh) {
    if (conn.punched) {
      ++metrics->direct_connects;
    } else {
      ++metrics->punch_failures;
    }
  }
  return conn.punched;
}

}  // namespace

std::string DirectChannel::SessionName(const FsdOptions& options) {
  return StrFormat("%sp2p", options.channel_scope.c_str());
}

std::string DirectChannel::RelayNamespaceName(const FsdOptions& options) {
  return StrFormat("%srelay", options.channel_scope.c_str());
}

Status DirectChannel::Provision(cloud::CloudEnv* cloud,
                                const FsdOptions& options) {
  const std::string session = SessionName(options);
  if (!cloud->p2p().SessionExists(session)) {
    FSD_RETURN_IF_ERROR(cloud->p2p().CreateSession(session));
  }
  return KvChannel::CreateNamespace(cloud, RelayNamespaceName(options),
                                    options);
}

Status DirectChannel::Teardown(cloud::CloudEnv* cloud,
                               const FsdOptions& options) {
  const std::string session = SessionName(options);
  if (cloud->p2p().SessionExists(session)) {
    FSD_RETURN_IF_ERROR(cloud->p2p().DeleteSession(session));
  }
  return KvChannel::DeleteNamespace(cloud, RelayNamespaceName(options));
}

Status DirectChannel::SendPhase(WorkerEnv* env, int32_t phase,
                                const linalg::ActivationMap& source,
                                const std::vector<SendSpec>& sends) {
  if (sends.empty()) return Status::OK();
  const FsdOptions& options = *env->options;
  LayerMetrics& metrics = env->metrics->Layer(phase);
  const std::string session = SessionName(options);
  const int32_t me = env->worker_id;

  // Resolve punch state per target before the encode. Chunks use the KV
  // value cap: the relay must accept any chunk verbatim.
  std::map<int32_t, bool> punched;
  for (const SendSpec& send : sends) {
    FSD_ASSIGN_OR_RETURN(punched[send.target],
                         EnsureLink(env, &metrics, session, me, send.target));
  }
  FSD_ASSIGN_OR_RETURN(
      std::vector<Frame> frames,
      EncodeFrames(env, &metrics, source, sends, options.kv_max_value_bytes,
                   /*skip_empty=*/false));

  // Lane-scheduled dispatch. Punched values ship over the fabric (bytes
  // billed at send); relayed values are KV pushes, metered exactly like
  // FSD-Inf-KV traffic so the cost model's relay terms stay exact.
  DispatchLanes lanes(env, env->cloud->latency().p2p_send.median_s);
  const std::string relay = RelayNamespaceName(options);
  for (Frame& frame : frames) {
    const int32_t target = frame.target;
    std::string key = KvChannel::InboxKey(phase, target);
    Bytes value = EncodeInboxValue(std::move(frame));
    cloud::CloudEnv* cloud = env->cloud;
    if (punched[target]) {
      ++metrics.direct_msgs;
      metrics.direct_billed_bytes += static_cast<int64_t>(value.size());
      lanes.Dispatch([cloud, session, me, target, key = std::move(key),
                      value = std::move(value)]() mutable {
        cloud->p2p().Send(session, me, target, key, std::move(value));
      });
    } else {
      ++metrics.kv_pushes;
      ++metrics.relay_fallback_msgs;
      metrics.send_billed_bytes += static_cast<int64_t>(value.size());
      lanes.Dispatch([cloud, relay, key = std::move(key),
                      value = std::move(value)]() mutable {
        cloud->kv().Push(relay, key, std::move(value));
      });
    }
  }
  return lanes.ChargeOverhead();
}

Result<linalg::ActivationMap> DirectChannel::ReceivePhase(
    WorkerEnv* env, int32_t phase, const std::vector<int32_t>& sources) {
  linalg::ActivationMap received;
  if (sources.empty()) return received;
  const FsdOptions& options = *env->options;
  LayerMetrics& metrics = env->metrics->Layer(phase);
  const double start = env->cloud->sim()->Now();
  FrameTracker tracker(sources, &metrics);
  const std::string session = SessionName(options);
  const std::string relay = RelayNamespaceName(options);
  const std::string inbox = KvChannel::InboxKey(phase, env->worker_id);

  // Punch outcomes are deterministic per ordered pair, so the receiver
  // knows up front which sources must relay (Connect is idempotent and
  // punching is mutual — asking from this side costs nothing extra). The
  // loop below then only ever blocks on an inbox that can still deliver:
  // fully-punched phases never touch the KV relay, and once every punched
  // source completed, the fabric pop (which nothing will ever feed again)
  // is skipped instead of burning its full wait before each relay pop.
  std::map<int32_t, bool> punched;
  for (int32_t s : sources) {
    FSD_ASSIGN_OR_RETURN(punched[s],
                         EnsureLink(env, &metrics, session, s, env->worker_id));
  }
  auto awaiting = [&](bool via_fabric) {
    return std::any_of(sources.begin(), sources.end(), [&](int32_t s) {
      return punched[s] == via_fabric && tracker.pending(s);
    });
  };

  // Header checks and per-source bookkeeping stay inline (they drive the
  // poll loop); each pop's accepted bodies decode as one batch, charged on
  // the full popped value bytes.
  auto drain = [&](const std::vector<Bytes>& values, bool billed) -> Status {
    uint64_t popped_bytes = 0;
    std::vector<Bytes> bodies;
    for (const Bytes& value : values) {
      popped_bytes += value.size();
      if (billed) {
        // Relay pops bill the full value, header included — the cache
        // meters what it moved, not what the receiver could use.
        metrics.recv_billed_bytes += static_cast<int64_t>(value.size());
      }
      FSD_ASSIGN_OR_RETURN(Frame frame,
                           DecodeInboxValue(value, options.num_workers));
      if (tracker.Accept(frame)) bodies.push_back(std::move(frame.body));
    }
    return DecodeUnderCharge(env, &metrics, popped_bytes,
                             /*extra_window_s=*/0.0, bodies, &received);
  };

  while (!tracker.done()) {
    FSD_RETURN_IF_ERROR(env->CheckAbort());
    FSD_RETURN_IF_ERROR(env->faas->CheckDeadline());
    if (awaiting(/*via_fabric=*/true)) {
      FSD_ASSIGN_OR_RETURN(
          std::vector<Bytes> values,
          env->cloud->p2p().BlockingPopAll(session, inbox,
                                           cloud::kMaxValuesPerInboxPop,
                                           options.direct_poll_wait_s));
      ++metrics.direct_pops;
      if (values.empty()) ++metrics.direct_empty_pops;
      FSD_RETURN_IF_ERROR(drain(values, /*billed=*/false));
    }
    if (!awaiting(/*via_fabric=*/false)) continue;

    FSD_RETURN_IF_ERROR(env->CheckAbort());
    FSD_ASSIGN_OR_RETURN(
        std::vector<Bytes> relayed,
        env->cloud->kv().BlockingPopAll(relay, inbox, cloud::kMaxValuesPerPop,
                                        options.kv_poll_wait_s));
    ++metrics.kv_pops;
    if (relayed.empty()) ++metrics.kv_empty_pops;
    FSD_RETURN_IF_ERROR(drain(relayed, /*billed=*/true));
  }

  metrics.recv_wait_s += env->cloud->sim()->Now() - start;
  return received;
}

}  // namespace fsd::core
