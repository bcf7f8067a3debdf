#include "core/collectives.h"

#include <algorithm>

namespace fsd::core {
namespace {

/// Row-id list covering every row present in `rows`.
std::vector<int32_t> AllIds(const linalg::ActivationMap& rows) {
  std::vector<int32_t> ids;
  ids.reserve(rows.size());
  for (const auto& [id, vec] : rows) ids.push_back(id);
  return ids;
}

std::vector<int32_t> Everyone(int32_t num_workers, int32_t except) {
  std::vector<int32_t> ids;
  for (int32_t i = 0; i < num_workers; ++i) {
    if (i != except) ids.push_back(i);
  }
  return ids;
}

/// Times one collective round this worker participates in, attributing
/// rounds + duration to the round's phase slot (the per-round comm
/// accounting the topology comparison is measured on). Workers idle in a
/// round do not book it.
class RoundScope {
 public:
  RoundScope(WorkerEnv* env, int32_t phase) : env_(env), phase_(phase) {
    start_ = env_->cloud->sim()->Now();
  }
  ~RoundScope() {
    LayerMetrics& metrics = env_->metrics->Layer(phase_);
    metrics.collective_rounds += 1;
    metrics.collective_round_s += env_->cloud->sim()->Now() - start_;
  }

 private:
  WorkerEnv* env_;
  int32_t phase_;
  double start_;
};

/// Ranks relative to the root: collectives are written for root 0 and map
/// back through these helpers, so any root works with any topology.
int32_t RelRank(int32_t id, int32_t root, int32_t num_workers) {
  return (id - root + num_workers) % num_workers;
}
int32_t AbsRank(int32_t rel, int32_t root, int32_t num_workers) {
  return (rel + root) % num_workers;
}

/// Binomial round count: ceil(log2 P).
int32_t TreeRounds(int32_t num_workers) {
  int32_t rounds = 0;
  while ((1 << rounds) < num_workers) ++rounds;
  return rounds;
}

}  // namespace

Status Send(CommChannel* channel, WorkerEnv* env, int32_t phase,
            int32_t target, const linalg::ActivationMap& rows) {
  const std::vector<int32_t> ids = AllIds(rows);
  std::vector<SendSpec> sends{{target, &ids}};
  return channel->SendPhase(env, phase, rows, sends);
}

Result<linalg::ActivationMap> Recv(CommChannel* channel, WorkerEnv* env,
                                   int32_t phase, int32_t source) {
  return channel->ReceivePhase(env, phase, {source});
}

Result<linalg::ActivationMap> Reduce(CommChannel* channel, WorkerEnv* env,
                                     CollectiveTopology topology,
                                     PhaseBlock block, int32_t num_workers,
                                     const linalg::ActivationMap& mine,
                                     int32_t root) {
  if (num_workers <= 1) return mine;
  const int32_t rel = RelRank(env->worker_id, root, num_workers);

  switch (topology) {
    case CollectiveTopology::kThroughRoot: {
      const int32_t phase = block.Round(0);
      RoundScope scope(env, phase);
      if (rel == 0) {
        FSD_ASSIGN_OR_RETURN(
            linalg::ActivationMap gathered,
            channel->ReceivePhase(env, phase, Everyone(num_workers, root)));
        for (const auto& [id, vec] : mine) gathered[id] = vec;
        return gathered;
      }
      FSD_RETURN_IF_ERROR(Send(channel, env, phase, root, mine));
      return linalg::ActivationMap{};
    }

    case CollectiveTopology::kBinomialTree: {
      // Mask-doubling gather: in round r (mask = 2^r) every worker whose
      // lowest set bit is `mask` ships its accumulated rows to rel - mask
      // and drops out; the survivor merges from rel + mask if it exists.
      linalg::ActivationMap acc = mine;
      int32_t round = 0;
      for (int32_t mask = 1; mask < num_workers; mask <<= 1, ++round) {
        const int32_t phase = block.Round(round);
        if (rel & mask) {
          const int32_t parent = AbsRank(rel - mask, root, num_workers);
          RoundScope scope(env, phase);
          FSD_RETURN_IF_ERROR(Send(channel, env, phase, parent, acc));
          return linalg::ActivationMap{};
        }
        if (rel + mask < num_workers) {
          const int32_t child = AbsRank(rel + mask, root, num_workers);
          RoundScope scope(env, phase);
          FSD_ASSIGN_OR_RETURN(linalg::ActivationMap got,
                               Recv(channel, env, phase, child));
          for (auto& [id, vec] : got) acc[id] = std::move(vec);
        }
      }
      return acc;  // only rel 0 reaches here with every round survived
    }

    case CollectiveTopology::kRing: {
      // Chain pipeline toward the root: round r moves the accumulated
      // rows from rel P-1-r to P-2-r, so rel k receives at round P-2-k
      // and forwards at round P-1-k.
      linalg::ActivationMap acc = mine;
      if (rel != num_workers - 1) {
        const int32_t round = num_workers - 2 - rel;
        const int32_t phase = block.Round(round);
        const int32_t next = AbsRank(rel + 1, root, num_workers);
        RoundScope scope(env, phase);
        FSD_ASSIGN_OR_RETURN(linalg::ActivationMap got,
                             Recv(channel, env, phase, next));
        for (auto& [id, vec] : got) acc[id] = std::move(vec);
      }
      if (rel != 0) {
        const int32_t round = num_workers - 1 - rel;
        const int32_t phase = block.Round(round);
        const int32_t prev = AbsRank(rel - 1, root, num_workers);
        RoundScope scope(env, phase);
        FSD_RETURN_IF_ERROR(Send(channel, env, phase, prev, acc));
        return linalg::ActivationMap{};
      }
      return acc;
    }
  }
  return Status::InvalidArgument("unknown collective topology");
}

Result<linalg::ActivationMap> Broadcast(CommChannel* channel, WorkerEnv* env,
                                        CollectiveTopology topology,
                                        PhaseBlock block, int32_t num_workers,
                                        const linalg::ActivationMap& rows,
                                        int32_t root) {
  if (num_workers <= 1) return rows;
  const int32_t rel = RelRank(env->worker_id, root, num_workers);

  switch (topology) {
    case CollectiveTopology::kThroughRoot: {
      const int32_t phase = block.Round(0);
      RoundScope scope(env, phase);
      if (rel == 0) {
        const std::vector<int32_t> ids = AllIds(rows);
        std::vector<SendSpec> sends;
        for (int32_t n : Everyone(num_workers, root)) {
          sends.push_back({n, &ids});
        }
        FSD_RETURN_IF_ERROR(channel->SendPhase(env, phase, rows, sends));
        return rows;
      }
      return channel->ReceivePhase(env, phase, {root});
    }

    case CollectiveTopology::kBinomialTree: {
      // The gather in reverse: execution round i uses mask = 2^(R-1-i);
      // every worker already holding the data forwards to rel + mask, and
      // a worker whose lowest set bit is `mask` receives in that round.
      const int32_t rounds = TreeRounds(num_workers);
      linalg::ActivationMap data = rel == 0 ? rows : linalg::ActivationMap{};
      bool have = rel == 0;
      for (int32_t i = 0; i < rounds; ++i) {
        const int32_t mask = 1 << (rounds - 1 - i);
        const int32_t phase = block.Round(i);
        if (!have) {
          if ((rel & mask) != 0 && (rel & (mask - 1)) == 0) {
            const int32_t parent = AbsRank(rel - mask, root, num_workers);
            RoundScope scope(env, phase);
            FSD_ASSIGN_OR_RETURN(data, Recv(channel, env, phase, parent));
            have = true;
          }
        } else if ((rel & mask) == 0 && rel + mask < num_workers) {
          const int32_t child = AbsRank(rel + mask, root, num_workers);
          RoundScope scope(env, phase);
          FSD_RETURN_IF_ERROR(Send(channel, env, phase, child, data));
        }
      }
      return data;
    }

    case CollectiveTopology::kRing: {
      // Chain pipeline away from the root: round r moves the data from
      // rel r to rel r+1.
      linalg::ActivationMap data = rel == 0 ? rows : linalg::ActivationMap{};
      if (rel > 0) {
        const int32_t phase = block.Round(rel - 1);
        const int32_t prev = AbsRank(rel - 1, root, num_workers);
        RoundScope scope(env, phase);
        FSD_ASSIGN_OR_RETURN(data, Recv(channel, env, phase, prev));
      }
      if (rel + 1 < num_workers) {
        const int32_t phase = block.Round(rel);
        const int32_t next = AbsRank(rel + 1, root, num_workers);
        RoundScope scope(env, phase);
        FSD_RETURN_IF_ERROR(Send(channel, env, phase, next, data));
      }
      return data;
    }
  }
  return Status::InvalidArgument("unknown collective topology");
}

Status Barrier(CommChannel* channel, WorkerEnv* env,
               CollectiveTopology topology, PhaseBlock arrive,
               PhaseBlock release, int32_t num_workers, int32_t root) {
  if (num_workers <= 1) return Status::OK();
  // Gather-up with empty payloads (markers only), then release-down: both
  // legs reuse the data collectives, so the barrier inherits whatever
  // topology the caller selected (through-root: arrive at the root, then
  // release from it).
  static const linalg::ActivationMap kEmpty;
  FSD_RETURN_IF_ERROR(
      Reduce(channel, env, topology, arrive, num_workers, kEmpty, root)
          .status());
  return Broadcast(channel, env, topology, release, num_workers, kEmpty,
                   root)
      .status();
}

}  // namespace fsd::core
