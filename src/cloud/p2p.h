// P2pFabric: simulated NAT-punched direct worker-to-worker links (the
// transport FMI builds on; FSD-Inf-Direct's data plane).
//
// Models what distinguishes direct TCP links from every managed service in
// this cloud:
//  - a one-time, per-unordered-pair connection setup (STUN exchange + hole
//    punch brokered by the coordinator — punching is mutual, so the pair
//    shares ONE physical link whichever side asks first), billed once per
//    established link
//  - deterministic, probabilistic punch FAILURE per pair (symmetric /
//    carrier-grade NATs): failed pairs must relay through a managed
//    service instead — the fabric never carries their data
//  - per-pair bandwidth variation (NAT path quality differs per pair)
//  - sub-millisecond sends with NO per-request service charge and NO
//    service-side rate cap: once punched, the link is kernel TCP, so only
//    bytes are billed (inter-AZ transfer class)
//  - delivery into per-key receiver inboxes with KvStore-style blocking
//    pops, so receive loops can long-poll without spinning
#ifndef FSD_CLOUD_P2P_H_
#define FSD_CLOUD_P2P_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cloud/billing.h"
#include "cloud/latency.h"
#include "common/bytes.h"
#include "common/result.h"
#include "common/rng.h"
#include "sim/simulation.h"

namespace fsd::cloud {

/// Maximum values returned by one blocking inbox pop (mirrors the KV
/// store's bound so receive loops share drain logic).
constexpr int kMaxValuesPerInboxPop = 64;

class P2pFabric {
 public:
  P2pFabric(sim::Simulation* sim, BillingLedger* billing,
            const LatencyConfig* latency, Rng rng)
      : sim_(sim), billing_(billing), latency_(latency), rng_(rng) {}

  /// Creates a punch-brokering session (one per run scope). Control-plane
  /// operation: not billed and not timed.
  Status CreateSession(const std::string& name);
  bool SessionExists(const std::string& name) const;

  /// Tears the session down: established links close (free) and pending
  /// blocking pops observe NotFound on their next wake.
  Status DeleteSession(const std::string& name);

  struct ConnectOutcome {
    Status status;
    /// Link established; false means the hole punch failed and the pair
    /// must relay through a managed service.
    bool punched = false;
    /// First Connect touching this unordered pair from either side (a
    /// fresh punch attempt was made; successful fresh punches bill one
    /// kP2pConnection). Connect(b, a) after Connect(a, b) is NOT fresh:
    /// the handshake already established the link both ways.
    bool fresh = false;
    /// Seconds until the link is usable (remaining handshake time; sends
    /// dispatched earlier deliver after the link is ready). Zero once the
    /// handshake completed, and always zero for failed punches.
    double setup_s = 0.0;
  };

  /// Ensures the pair's link exists (idempotent; cached after the first
  /// call from either side). Non-blocking: the punch handshake runs on
  /// async sockets, so the caller keeps working while it completes.
  /// Whether a pair punches at all is DETERMINISTIC in (session creation
  /// index on this fabric, {src, dst}) — symmetric, independent of call
  /// order AND of the session's name, so reruns on a fresh CloudEnv
  /// replay the same punch pattern even though per-run channel scopes
  /// embed the run id.
  ConnectOutcome Connect(const std::string& session, int32_t src,
                         int32_t dst);

  struct SendOutcome {
    Status status;
    /// Delay from call time until the value is poppable at the receiver
    /// (includes any remaining handshake time plus transfer).
    double latency = 0.0;
  };

  /// Ships `value` over the punched link src->dst into the receiver inbox
  /// `key`. Non-blocking (callers dispatch on parallel lanes); bills
  /// kP2pByte only. FailedPrecondition if the pair never punched.
  SendOutcome Send(const std::string& session, int32_t src, int32_t dst,
                   const std::string& key, Bytes value);

  /// BLPOP-style pop of up to `max_values` (<= 64) values from inbox
  /// `key`, waiting up to `wait_s` while it is empty. Unbilled: the inbox
  /// is the receiving worker's own memory, not a service. No Hold beyond
  /// the wait — delivered values already paid their link latency.
  Result<std::vector<Bytes>> BlockingPopAll(const std::string& session,
                                            const std::string& key,
                                            int max_values, double wait_s);

  /// Visible values on inbox `key` (diagnostics/tests).
  Result<size_t> InboxDepth(const std::string& session,
                            const std::string& key) const;

 private:
  struct Link {
    bool punched = false;
    double ready_at = 0.0;  ///< handshake completion (virtual time)
    double bandwidth_bytes_per_s = 0.0;
  };
  struct DeliveredValue {
    Bytes body;
    double visible_at = 0.0;
  };
  struct Inbox {
    std::deque<DeliveredValue> values;
    std::shared_ptr<sim::SimSignal> arrival_signal;
  };
  struct Session {
    /// Per-session draw salt: the fabric-local creation index. Punch luck
    /// must not derive from the session NAME — scoped names embed the
    /// run id, which would make otherwise-identical runs draw different
    /// punch patterns.
    uint64_t salt = 0;
    std::map<std::pair<int32_t, int32_t>, Link> links;
    std::map<std::string, Inbox> inboxes;
  };

  Session* Find(const std::string& name);
  const Session* Find(const std::string& name) const;

  sim::Simulation* sim_;
  BillingLedger* billing_;
  const LatencyConfig* latency_;
  Rng rng_;
  uint64_t next_session_salt_ = 0;
  std::map<std::string, Session> sessions_;
};

}  // namespace fsd::cloud

#endif  // FSD_CLOUD_P2P_H_
