// MPI-style collective operations over the serverless channels (paper
// §V-A1: "our work also implements MPI primitives (Send, Recv, Broadcast,
// Reduce), but avoids the use of an external provisioned server").
//
// All collectives ride the CommChannel phase machinery, so they work
// identically over every backend. Each operation runs over a selectable
// topology (FMI-style):
//   through-root  one round; the root sends/receives P-1 messages
//   binomial      ceil(log2 P) rounds; every worker handles <= 1 message
//                 per round (tree gather/scatter)
//   ring          P-1 rounds; a chain pipeline with 1 message per round
// Every topology produces byte-identical results — Reduce is a disjoint
// row-set union into an ordered map, so merge order is immaterial — but
// multi-round topologies need one phase id PER ROUND: callers hand each
// operation a PhaseBlock reserved by the PhaseAllocator (see channel.h).
// A through-root operation needs a one-phase block: PhaseBlock{phase, 1}.
#ifndef FSD_CORE_COLLECTIVES_H_
#define FSD_CORE_COLLECTIVES_H_

#include "core/channel.h"

namespace fsd::core {

/// Point-to-point send of activation rows (MPI_Send analogue).
Status Send(CommChannel* channel, WorkerEnv* env, int32_t phase,
            int32_t target, const linalg::ActivationMap& rows);

/// Point-to-point receive from one source (MPI_Recv analogue).
Result<linalg::ActivationMap> Recv(CommChannel* channel, WorkerEnv* env,
                                   int32_t phase, int32_t source);

/// Synchronizes all `num_workers` workers: a gather-up (empty payloads)
/// over the `arrive` block, then a release-down over the `release` block,
/// both run with the selected topology. Each block needs
/// CollectiveRounds(topology, num_workers) phases.
Status Barrier(CommChannel* channel, WorkerEnv* env,
               CollectiveTopology topology, PhaseBlock arrive,
               PhaseBlock release, int32_t num_workers, int32_t root = 0);

/// Gathers every worker's rows at the root over the selected topology;
/// row sets are disjoint under the row-wise decomposition, so the union is
/// the reduction (the paper's reduce(P0, x^L_m)) and every topology yields
/// the same map. Non-roots return an empty map.
Result<linalg::ActivationMap> Reduce(CommChannel* channel, WorkerEnv* env,
                                     CollectiveTopology topology,
                                     PhaseBlock block, int32_t num_workers,
                                     const linalg::ActivationMap& mine,
                                     int32_t root = 0);

/// Broadcasts the root's rows to every worker (MPI_Bcast analogue) over
/// the selected topology.
Result<linalg::ActivationMap> Broadcast(CommChannel* channel, WorkerEnv* env,
                                        CollectiveTopology topology,
                                        PhaseBlock block, int32_t num_workers,
                                        const linalg::ActivationMap& rows,
                                        int32_t root = 0);

}  // namespace fsd::core

#endif  // FSD_CORE_COLLECTIVES_H_
