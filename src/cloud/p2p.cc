#include "cloud/p2p.h"

namespace fsd::cloud {
namespace {

/// splitmix64 finalizer: spreads the combined pair identity into uniform
/// bits so punch outcomes and bandwidth factors look independent.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Deterministic uniform in [0, 1) for an unordered pair within a session.
/// Independent of call order, so which pairs punch (and each pair's link
/// quality) is a property of the configuration, not of scheduling. Keyed
/// by the session's creation-index salt, never its name: scoped names
/// embed the run id, and hashing them would hand otherwise-identical runs
/// different punch patterns.
double PairUniform(uint64_t session_salt, int32_t src, int32_t dst,
                   uint64_t salt) {
  uint64_t h = Mix64(session_salt + 0x632d70756e6368ull);
  h = Mix64(h ^ salt);
  h = Mix64(h ^ ((static_cast<uint64_t>(static_cast<uint32_t>(src)) << 32) |
                 static_cast<uint32_t>(dst)));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Canonical key for the one physical link a pair shares. A NAT hole punch
/// is mutual — the handshake establishes src<->dst in both directions — so
/// link state, the punch verdict and the connection charge must be keyed
/// by the unordered pair, never once per asking side.
std::pair<int32_t, int32_t> LinkKey(int32_t a, int32_t b) {
  return a <= b ? std::make_pair(a, b) : std::make_pair(b, a);
}

}  // namespace

Status P2pFabric::CreateSession(const std::string& name) {
  if (sessions_.contains(name)) {
    return Status::AlreadyExists("p2p session exists: " + name);
  }
  Session session;
  session.salt = next_session_salt_++;
  sessions_.emplace(name, std::move(session));
  return Status::OK();
}

bool P2pFabric::SessionExists(const std::string& name) const {
  return sessions_.contains(name);
}

Status P2pFabric::DeleteSession(const std::string& name) {
  auto it = sessions_.find(name);
  if (it == sessions_.end()) {
    return Status::NotFound("no such p2p session: " + name);
  }
  // Wake any blocked poppers; they observe NotFound on re-entry.
  for (auto& [key, inbox] : it->second.inboxes) {
    if (inbox.arrival_signal != nullptr) inbox.arrival_signal->Fire();
  }
  sessions_.erase(it);
  return Status::OK();
}

P2pFabric::Session* P2pFabric::Find(const std::string& name) {
  auto it = sessions_.find(name);
  return it == sessions_.end() ? nullptr : &it->second;
}

const P2pFabric::Session* P2pFabric::Find(const std::string& name) const {
  auto it = sessions_.find(name);
  return it == sessions_.end() ? nullptr : &it->second;
}

P2pFabric::ConnectOutcome P2pFabric::Connect(const std::string& session,
                                             int32_t src, int32_t dst) {
  ConnectOutcome outcome;
  Session* s = Find(session);
  if (s == nullptr) {
    outcome.status = Status::NotFound("no such p2p session: " + session);
    return outcome;
  }
  const std::pair<int32_t, int32_t> pair = LinkKey(src, dst);
  auto [it, fresh] = s->links.try_emplace(pair);
  Link& link = it->second;
  if (fresh) {
    link.punched =
        PairUniform(s->salt, pair.first, pair.second, 0x70756e6368ull) >=
        latency_->p2p_punch_failure_rate;
    if (link.punched) {
      const double spread = latency_->p2p_bandwidth_spread;
      const double factor =
          1.0 + spread * (PairUniform(s->salt, pair.first, pair.second,
                                      0x62616e64ull) -
                          0.5);
      link.bandwidth_bytes_per_s =
          latency_->p2p_bandwidth_bytes_per_s * factor;
      link.ready_at = sim_->Now() + latency_->p2p_setup.Sample(&rng_);
      // The established link is the billed resource: one connection
      // charge at punch time, then bytes only. Failed punches bill
      // nothing here — their penalty is every message paying the managed
      // relay's request pricing and latency instead.
      billing_->Record(BillingDimension::kP2pConnection, 1);
    }
  }
  outcome.status = Status::OK();
  outcome.punched = link.punched;
  outcome.fresh = fresh;
  outcome.setup_s =
      link.ready_at > sim_->Now() ? link.ready_at - sim_->Now() : 0.0;
  return outcome;
}

P2pFabric::SendOutcome P2pFabric::Send(const std::string& session,
                                       int32_t src, int32_t dst,
                                       const std::string& key, Bytes value) {
  SendOutcome outcome;
  Session* s = Find(session);
  if (s == nullptr) {
    outcome.status = Status::NotFound("no such p2p session: " + session);
    return outcome;
  }
  auto it = s->links.find(LinkKey(src, dst));
  if (it == s->links.end() || !it->second.punched) {
    outcome.status = Status::FailedPrecondition(
        "no punched p2p link for pair; use the relay");
    return outcome;
  }
  const Link& link = it->second;
  billing_->Record(BillingDimension::kP2pByte,
                   static_cast<double>(value.size()));
  // Sends dispatched while the handshake is still in flight queue behind
  // it; afterwards the message pays the link's base latency plus transfer
  // at the pair's punched bandwidth.
  const double handshake_wait =
      link.ready_at > sim_->Now() ? link.ready_at - sim_->Now() : 0.0;
  const double transfer =
      static_cast<double>(value.size()) / link.bandwidth_bytes_per_s;
  outcome.latency =
      handshake_wait + latency_->p2p_send.Sample(&rng_) + transfer;

  Inbox& inbox = s->inboxes[key];
  inbox.values.push_back(
      DeliveredValue{std::move(value), sim_->Now() + outcome.latency});
  // Wake long-pollers when the value becomes visible, then re-arm. As in
  // KvStore::Push, the signal is popper-allocated, so an unobserved
  // delivery skips the fire/re-arm allocation cycle entirely.
  std::string session_copy = session;
  std::string key_copy = key;
  sim_->ScheduleCallback(
      outcome.latency, [this, session_copy, key_copy]() {
        Session* target = Find(session_copy);
        if (target == nullptr) return;  // session torn down in flight
        auto inbox_it = target->inboxes.find(key_copy);
        if (inbox_it == target->inboxes.end()) return;
        std::shared_ptr<sim::SimSignal>& signal =
            inbox_it->second.arrival_signal;
        if (signal == nullptr || !signal->has_waiters()) return;
        signal->Fire();
        signal = sim_->MakeSignal();
      });
  outcome.status = Status::OK();
  return outcome;
}

Result<std::vector<Bytes>> P2pFabric::BlockingPopAll(
    const std::string& session, const std::string& key, int max_values,
    double wait_s) {
  if (max_values < 1 || max_values > kMaxValuesPerInboxPop) {
    return Status::InvalidArgument("max_values must be in [1, 64]");
  }
  Session* s = Find(session);
  if (s == nullptr) {
    return Status::NotFound("no such p2p session: " + session);
  }

  auto gather = [&](Session* space) {
    std::vector<Bytes> out;
    auto it = space->inboxes.find(key);
    if (it == space->inboxes.end()) return out;
    const double now = sim_->Now();
    std::deque<DeliveredValue>& values = it->second.values;
    while (!values.empty() && static_cast<int>(out.size()) < max_values &&
           values.front().visible_at <= now) {
      out.push_back(std::move(values.front().body));
      values.pop_front();
    }
    // Erase fully drained, unwatched inboxes — phase-scoped keys would
    // otherwise accumulate for the life of the session (see the matching
    // note in KvStore::BlockingPopAll for why this is safe).
    if (values.empty() && (it->second.arrival_signal == nullptr ||
                           !it->second.arrival_signal->has_waiters())) {
      space->inboxes.erase(it);
    }
    return out;
  };

  std::vector<Bytes> got = gather(s);
  const double deadline = sim_->Now() + wait_s;
  while (got.empty()) {
    const double remaining = deadline - sim_->Now();
    if (remaining <= 0.0) break;
    Inbox& inbox = s->inboxes[key];
    if (inbox.arrival_signal == nullptr) {
      inbox.arrival_signal = sim_->MakeSignal();
    }
    std::shared_ptr<sim::SimSignal> signal = inbox.arrival_signal;
    if (!sim_->WaitSignal(signal.get(), remaining)) break;
    // Re-resolve: the session may have been torn down while we slept.
    s = Find(session);
    if (s == nullptr) {
      return Status::NotFound("p2p session deleted: " + session);
    }
    got = gather(s);
  }
  return got;
}

Result<size_t> P2pFabric::InboxDepth(const std::string& session,
                                     const std::string& key) const {
  const Session* s = Find(session);
  if (s == nullptr) {
    return Status::NotFound("no such p2p session: " + session);
  }
  auto it = s->inboxes.find(key);
  if (it == s->inboxes.end()) return static_cast<size_t>(0);
  size_t visible = 0;
  for (const DeliveredValue& v : it->second.values) {
    if (v.visible_at <= sim_->Now()) ++visible;
  }
  return visible;
}

}  // namespace fsd::cloud
