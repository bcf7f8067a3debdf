#include "core/scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "common/strings.h"

namespace fsd::core {

std::string_view ShedPolicyName(ShedPolicy policy) {
  switch (policy) {
    case ShedPolicy::kRejectNew:
      return "reject-new";
    case ShedPolicy::kShedLowestPriority:
      return "shed-lowest-priority";
  }
  return "unknown";
}

std::string_view QueueDisciplineName(QueueDiscipline discipline) {
  switch (discipline) {
    case QueueDiscipline::kFifo:
      return "fifo";
    case QueueDiscipline::kEdf:
      return "edf";
  }
  return "unknown";
}

size_t ShedVictimIndex(const std::vector<SchedQuery>& queue) {
  size_t victim = 0;
  for (size_t i = 1; i < queue.size(); ++i) {
    const SchedQuery& q = queue[i];
    const SchedQuery& v = queue[victim];
    if (q.priority != v.priority) {
      if (q.priority < v.priority) victim = i;
      continue;
    }
    if (q.deadline_s != v.deadline_s) {
      if (q.deadline_s > v.deadline_s) victim = i;
      continue;
    }
    if (q.arrival_s > v.arrival_s) victim = i;
  }
  return victim;
}

void QueuePolicy::Order(std::vector<SchedQuery>* queue) const {
  std::stable_sort(queue->begin(), queue->end(),
                   [this](const SchedQuery& a, const SchedQuery& b) {
                     return Before(a, b);
                   });
}

size_t QueuePolicy::ShedVictim(const std::vector<SchedQuery>& queue) const {
  return ShedVictimIndex(queue);
}

namespace {

class AdmitAllPolicy final : public AdmissionPolicy {
 public:
  std::string_view name() const override { return "admit-all"; }
  AdmissionDecision Decide(const SchedQuery&, const LoadSnapshot&,
                           const std::vector<SchedQuery>&) override {
    return {};
  }
};

class DepthBoundAdmission final : public AdmissionPolicy {
 public:
  DepthBoundAdmission(int32_t max_queue_depth, double max_queue_wait_s,
                      ShedPolicy shed)
      : max_queue_depth_(max_queue_depth),
        max_queue_wait_s_(max_queue_wait_s),
        shed_(shed) {}

  std::string_view name() const override { return "depth-bound"; }

  AdmissionDecision Decide(const SchedQuery& arrival, const LoadSnapshot& load,
                           const std::vector<SchedQuery>& queue) override {
    AdmissionDecision decision;
    // Wait bound: the arrival's predicted queue wait — the queries already
    // ahead of it served at the sustainable rate. Applies even below the
    // depth bound: a deep-enough backlog relative to throughput is
    // overload whatever the configured depth. An empty queue predicts no
    // wait, so the bound can never starve an idle fleet.
    if (max_queue_wait_s_ >= 0.0 && load.queued > 0 &&
        load.sustainable_qps > 0.0 && std::isfinite(load.sustainable_qps)) {
      const double predicted_wait_s =
          static_cast<double>(load.queued) / load.sustainable_qps;
      if (predicted_wait_s > max_queue_wait_s_) {
        decision.action = AdmissionDecision::Action::kReject;
        decision.reason = StrFormat(
            "predicted queue wait %.3fs exceeds bound %.3fs "
            "(%d queued at %.3f sustainable qps)",
            predicted_wait_s, max_queue_wait_s_, load.queued,
            load.sustainable_qps);
        return decision;
      }
    }
    if (max_queue_depth_ > 0 && load.queued >= max_queue_depth_) {
      if (shed_ == ShedPolicy::kShedLowestPriority && !queue.empty()) {
        const size_t victim = ShedVictimIndex(queue);
        if (queue[victim].priority < arrival.priority) {
          decision.action = AdmissionDecision::Action::kShedVictim;
          decision.victim_query_id = queue[victim].query_id;
          decision.reason = StrFormat(
              "shed for priority-%d arrival (queue at depth bound %d)",
              arrival.priority, max_queue_depth_);
          return decision;
        }
      }
      decision.action = AdmissionDecision::Action::kReject;
      decision.reason =
          StrFormat("queue depth %d at bound %d (%s)", load.queued,
                    max_queue_depth_,
                    std::string(ShedPolicyName(shed_)).c_str());
      return decision;
    }
    return decision;
  }

 private:
  int32_t max_queue_depth_ = 0;
  double max_queue_wait_s_ = -1.0;
  ShedPolicy shed_ = ShedPolicy::kRejectNew;
};

class TenantQuotaAdmission final : public AdmissionPolicy {
 public:
  TenantQuotaAdmission(std::vector<TenantQuota> quotas,
                       std::shared_ptr<AdmissionPolicy> inner)
      : inner_(std::move(inner)) {
    for (const TenantQuota& q : quotas) {
      Bucket bucket;
      bucket.rate_qps = q.rate_qps;
      bucket.burst = q.burst > 0.0 ? q.burst : std::max(1.0, q.rate_qps);
      bucket.tokens = bucket.burst;  // a fresh tenant may burst immediately
      bucket.max_queue_share = q.max_queue_share;
      buckets_[q.tenant] = bucket;
    }
  }

  std::string_view name() const override { return "tenant-quota"; }

  AdmissionDecision Decide(const SchedQuery& arrival, const LoadSnapshot& load,
                           const std::vector<SchedQuery>& queue) override {
    auto it = buckets_.find(arrival.tenant);
    if (it == buckets_.end()) return inner_->Decide(arrival, load, queue);
    Bucket& bucket = it->second;
    // Fair share of the backlog: with the arrival included, the tenant may
    // hold at most ceil(share x (queued + 1)) queue entries. Checked
    // before the rate bucket so a monopolizing tenant is named as such
    // (and keeps its tokens for when the queue thins out).
    if (bucket.max_queue_share > 0.0) {
      int32_t held = 0;
      for (const SchedQuery& q : queue) {
        if (q.tenant == arrival.tenant) ++held;
      }
      const double allowed = std::ceil(
          bucket.max_queue_share * static_cast<double>(queue.size() + 1));
      if (static_cast<double>(held + 1) > allowed) {
        AdmissionDecision decision;
        decision.action = AdmissionDecision::Action::kReject;
        decision.reason = StrFormat(
            "tenant %d over queue share %.2f (%d of %zu queued)",
            arrival.tenant, bucket.max_queue_share, held, queue.size());
        return decision;
      }
    }
    if (bucket.rate_qps > 0.0) {
      // Deterministic token refill driven by virtual time; load.now_s is
      // non-decreasing across arrivals of one trace.
      if (bucket.last_refill_s >= 0.0) {
        bucket.tokens = std::min(
            bucket.burst,
            bucket.tokens +
                (load.now_s - bucket.last_refill_s) * bucket.rate_qps);
      }
      bucket.last_refill_s = load.now_s;
      if (bucket.tokens < 1.0) {
        AdmissionDecision decision;
        decision.action = AdmissionDecision::Action::kReject;
        decision.reason = StrFormat(
            "tenant %d quota exceeded (%.3f qps, %.2f tokens)",
            arrival.tenant, bucket.rate_qps, bucket.tokens);
        return decision;
      }
      AdmissionDecision decision = inner_->Decide(arrival, load, queue);
      // Only an actually-admitted query consumes a token: a depth-bound
      // rejection downstream must not burn the tenant's budget.
      if (decision.action != AdmissionDecision::Action::kReject) {
        bucket.tokens -= 1.0;
      }
      return decision;
    }
    return inner_->Decide(arrival, load, queue);
  }

 private:
  struct Bucket {
    double rate_qps = 0.0;
    double burst = 0.0;
    double tokens = 0.0;
    double last_refill_s = -1.0;
    double max_queue_share = 0.0;
  };
  std::map<int32_t, Bucket> buckets_;
  std::shared_ptr<AdmissionPolicy> inner_;
};

class FifoQueuePolicy final : public QueuePolicy {
 public:
  std::string_view name() const override { return "fifo"; }
  bool Before(const SchedQuery& a, const SchedQuery& b) const override {
    if (a.arrival_s != b.arrival_s) return a.arrival_s < b.arrival_s;
    return a.query_id < b.query_id;
  }
};

class EdfQueuePolicy final : public QueuePolicy {
 public:
  std::string_view name() const override { return "edf"; }
  bool Before(const SchedQuery& a, const SchedQuery& b) const override {
    // Higher priority classes launch first; within a class, earliest
    // absolute deadline, then arrival order (deadline-free queries sort
    // after every deadline-carrying one: kNoDeadline is +inf).
    if (a.priority != b.priority) return a.priority > b.priority;
    if (a.deadline_s != b.deadline_s) return a.deadline_s < b.deadline_s;
    if (a.arrival_s != b.arrival_s) return a.arrival_s < b.arrival_s;
    return a.query_id < b.query_id;
  }
};

class RatePreWarmPolicy final : public PreWarmPolicy {
 public:
  std::string_view name() const override { return "rate"; }

  PrewarmDecision Decide(const PrewarmSnapshot& s) override {
    PrewarmDecision decision;
    // No measured signal, no spend: an unseeded rate or run-time estimate
    // (or a degenerate tree size) would turn the demand formula into
    // noise, so the policy stays idle until both estimates carry data.
    if (s.arrival_rate_qps <= 0.0 || !std::isfinite(s.arrival_rate_qps) ||
        s.est_run_s <= 0.0 || !std::isfinite(s.est_run_s) ||
        s.workers_per_run <= 0) {
      decision.reason = "no demand signal";
      return decision;
    }
    // Little's law: trees concurrently in service at this arrival rate.
    const double concurrent_trees = s.arrival_rate_qps * s.est_run_s;
    const int64_t demand = static_cast<int64_t>(std::ceil(concurrent_trees)) *
                           static_cast<int64_t>(s.workers_per_run);
    const int64_t supply =
        static_cast<int64_t>(s.warm_instances) +
        static_cast<int64_t>(s.in_flight_runs) *
            static_cast<int64_t>(s.workers_per_run) +
        static_cast<int64_t>(s.pending_prewarms);
    int64_t deficit = demand - supply;
    if (deficit <= 0) {
      decision.reason = "supply covers demand";
      return decision;
    }
    if (s.est_cost_per_instance > 0.0) {
      const int64_t affordable = static_cast<int64_t>(
          s.budget_remaining / s.est_cost_per_instance);
      if (affordable <= 0) {
        decision.reason = "budget exhausted";
        return decision;
      }
      deficit = std::min(deficit, affordable);
    }
    decision.instances = static_cast<int32_t>(
        std::min<int64_t>(deficit, std::numeric_limits<int32_t>::max()));
    decision.reason = StrFormat(
        "demand %lld instances (%.3f qps x %.3fs x %d), supply %lld",
        static_cast<long long>(demand), s.arrival_rate_qps, s.est_run_s,
        s.workers_per_run, static_cast<long long>(supply));
    return decision;
  }
};

class DeadlineBatchPolicy final : public BatchPolicy {
 public:
  std::string_view name() const override { return "deadline-slack"; }
  double FlushIn(const std::vector<SchedQuery>& members, double now_s,
                 double window_s, double est_exec_s) const override {
    double earliest = kNoDeadline;
    for (const SchedQuery& m : members) {
      if (m.deadline_s < earliest) earliest = m.deadline_s;
    }
    if (!std::isfinite(earliest)) return window_s;  // no SLO: fixed window
    // Flush when the oldest member's slack runs out: any later launch and
    // the predicted execution time (with its safety margin) would miss the
    // deadline.
    const double slack_s =
        (earliest - now_s) - kSlackSafetyFactor * est_exec_s;
    if (slack_s <= 0.0) return 0.0;
    return std::min(window_s, slack_s);
  }
};

}  // namespace

std::shared_ptr<AdmissionPolicy> MakeAdmitAll() {
  return std::make_shared<AdmitAllPolicy>();
}

std::shared_ptr<AdmissionPolicy> MakeDepthBoundAdmission(
    int32_t max_queue_depth, double max_queue_wait_s, ShedPolicy shed) {
  return std::make_shared<DepthBoundAdmission>(max_queue_depth,
                                               max_queue_wait_s, shed);
}

std::shared_ptr<AdmissionPolicy> MakeTenantQuotaAdmission(
    std::vector<TenantQuota> quotas, std::shared_ptr<AdmissionPolicy> inner) {
  if (!inner) inner = MakeAdmitAll();
  return std::make_shared<TenantQuotaAdmission>(std::move(quotas),
                                                std::move(inner));
}

std::shared_ptr<QueuePolicy> MakeQueuePolicy(QueueDiscipline discipline) {
  if (discipline == QueueDiscipline::kEdf) {
    return std::make_shared<EdfQueuePolicy>();
  }
  return std::make_shared<FifoQueuePolicy>();
}

std::shared_ptr<BatchPolicy> MakeDeadlineBatchPolicy() {
  return std::make_shared<DeadlineBatchPolicy>();
}

std::shared_ptr<PreWarmPolicy> MakeRatePreWarmPolicy() {
  return std::make_shared<RatePreWarmPolicy>();
}

}  // namespace fsd::core
