// Collective operations over both serverless channels (the paper's MPI
// primitives: Send/Recv/Barrier/Reduce/Broadcast).
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "cloud/cloud.h"
#include "common/strings.h"
#include "core/collectives.h"
#include "core/object_channel.h"
#include "core/queue_channel.h"

namespace fsd::core {
namespace {

constexpr CollectiveTopology kThroughRoot = CollectiveTopology::kThroughRoot;

linalg::ActivationMap MakeRows(std::vector<int32_t> ids, float value) {
  linalg::ActivationMap out;
  for (int32_t id : ids) {
    linalg::SparseVector vec;
    vec.dim = 4;
    vec.idx = {0, 2};
    vec.val = {value, value * 2};
    out.emplace(id, std::move(vec));
  }
  return out;
}

/// Typed test over both channel implementations.
template <typename Channel>
class CollectivesTest : public ::testing::Test {
 protected:
  CollectivesTest() : cloud_(&sim_) {
    options_.num_workers = 4;
    options_.poll_wait_s = 2.0;
    options_.object_scan_interval_s = 0.01;
  }

  /// May be called several times per test (each call provisions under the
  /// current options_ and drives the fleet to quiescence); function names
  /// are epoch-qualified so repeated calls never collide.
  void RunWorkers(int32_t count,
                  std::function<void(WorkerEnv*, CommChannel*)> body) {
    const int epoch = epoch_++;
    FSD_CHECK_OK(Channel::Provision(&cloud_, options_));
    metrics_.resize(count);
    for (int32_t id = 0; id < count; ++id) {
      cloud::FaasFunctionConfig fn;
      fn.name = StrFormat("e%d-w%d", epoch, id);
      fn.memory_mb = 2048;
      fn.timeout_s = 600.0;
      WorkerMetrics* metrics = &metrics_[id];
      fn.handler = [this, body, metrics, id](cloud::FaasContext* ctx) {
        Channel channel;
        WorkerEnv env;
        env.faas = ctx;
        env.cloud = &cloud_;
        env.options = &options_;
        env.metrics = metrics;
        env.worker_id = id;
        body(&env, &channel);
        ctx->set_result(Status::OK());
      };
      FSD_CHECK_OK(cloud_.faas().RegisterFunction(fn));
    }
    sim_.AddProcess(StrFormat("kickoff-%d", epoch), [this, epoch, count]() {
      for (int32_t id = 0; id < count; ++id) {
        cloud_.faas().InvokeAsync(StrFormat("e%d-w%d", epoch, id), {});
      }
    });
    sim_.Run();
  }

  sim::Simulation sim_;
  cloud::CloudEnv cloud_;
  FsdOptions options_;
  int epoch_ = 0;
  std::vector<WorkerMetrics> metrics_;
};

using ChannelTypes = ::testing::Types<QueueChannel, ObjectChannel>;
TYPED_TEST_SUITE(CollectivesTest, ChannelTypes);

TYPED_TEST(CollectivesTest, SendRecvPointToPoint) {
  const linalg::ActivationMap rows = MakeRows({1, 5}, 3.0f);
  linalg::ActivationMap got;
  this->RunWorkers(2, [&](WorkerEnv* env, CommChannel* channel) {
    if (env->worker_id == 0) {
      ASSERT_TRUE(Send(channel, env, 0, 1, rows).ok());
    } else {
      auto r = Recv(channel, env, 0, 0);
      ASSERT_TRUE(r.ok());
      got = std::move(*r);
    }
  });
  EXPECT_EQ(got.size(), 2u);
  EXPECT_EQ(got.at(5), rows.at(5));
}

TYPED_TEST(CollectivesTest, BarrierSynchronizesEveryone) {
  std::vector<double> release_times(4, -1.0);
  const double stagger[] = {0.0, 0.5, 1.0, 2.0};
  this->RunWorkers(4, [&](WorkerEnv* env, CommChannel* channel) {
    env->faas->SleepFor(stagger[env->worker_id]).ok();
    ASSERT_TRUE(Barrier(channel, env, kThroughRoot, PhaseBlock{0, 1},
                        PhaseBlock{1, 1}, 4)
                    .ok());
    release_times[env->worker_id] = env->cloud->sim()->Now();
  });
  // Nobody leaves the barrier before the last arrival (t = 2.0).
  for (double t : release_times) EXPECT_GE(t, 2.0);
}

TYPED_TEST(CollectivesTest, ReduceGathersDisjointRowsAtRoot) {
  linalg::ActivationMap at_root;
  this->RunWorkers(3, [&](WorkerEnv* env, CommChannel* channel) {
    // Worker m owns rows {m, m+10}.
    const linalg::ActivationMap mine =
        MakeRows({env->worker_id, env->worker_id + 10},
                 static_cast<float>(env->worker_id + 1));
    auto gathered =
        Reduce(channel, env, kThroughRoot, PhaseBlock{0, 1}, 3, mine);
    ASSERT_TRUE(gathered.ok());
    if (env->worker_id == 0) {
      at_root = std::move(*gathered);
    } else {
      EXPECT_TRUE(gathered->empty());
    }
  });
  EXPECT_EQ(at_root.size(), 6u);
  for (int32_t m = 0; m < 3; ++m) {
    EXPECT_FLOAT_EQ(at_root.at(m).val[0], static_cast<float>(m + 1));
    EXPECT_TRUE(at_root.contains(m + 10));
  }
}

TYPED_TEST(CollectivesTest, BroadcastDeliversRootRowsToAll) {
  const linalg::ActivationMap rows = MakeRows({7}, 9.0f);
  std::vector<linalg::ActivationMap> got(4);
  this->RunWorkers(4, [&](WorkerEnv* env, CommChannel* channel) {
    const linalg::ActivationMap payload =
        env->worker_id == 0 ? rows : linalg::ActivationMap{};
    auto r = Broadcast(channel, env, kThroughRoot, PhaseBlock{0, 1}, 4,
                       payload);
    ASSERT_TRUE(r.ok());
    got[env->worker_id] = std::move(*r);
  });
  for (int32_t m = 0; m < 4; ++m) {
    ASSERT_EQ(got[m].size(), 1u) << "worker " << m;
    EXPECT_EQ(got[m].at(7), rows.at(7));
  }
}

TYPED_TEST(CollectivesTest, EveryTopologyMatchesThroughRootByteForByte) {
  // The refactor's central invariant: the topology is pure routing. For
  // every fleet size the tree and ring reduce+broadcast must hand back
  // exactly the rows the single-round through-root exchange produces —
  // same keys, same float bits — at the root and at every broadcast
  // receiver.
  constexpr CollectiveTopology kTopologies[] = {
      CollectiveTopology::kThroughRoot, CollectiveTopology::kBinomialTree,
      CollectiveTopology::kRing};
  for (int32_t workers = 1; workers <= 9; ++workers) {
    std::array<linalg::ActivationMap, 3> reduced;
    std::array<std::vector<linalg::ActivationMap>, 3> bcast;
    for (size_t t = 0; t < 3; ++t) {
      const CollectiveTopology topology = kTopologies[t];
      this->options_.num_workers = workers;
      this->options_.collective_topology = topology;
      this->options_.channel_scope = StrFormat("inv-p%d-t%zu-", workers, t);
      bcast[t].resize(workers);
      this->RunWorkers(
          workers, [&, topology, workers](WorkerEnv* env, CommChannel* ch) {
            const PhaseAllocator phases(0, 0,
                                        CollectiveRounds(topology, workers));
            // Worker m owns rows {m, m+100} with m-dependent values.
            const linalg::ActivationMap mine =
                MakeRows({env->worker_id, env->worker_id + 100},
                         static_cast<float>(env->worker_id) + 0.5f);
            auto r = Reduce(ch, env, topology,
                            phases.Block(CollectiveOp::kReduce), workers,
                            mine);
            ASSERT_TRUE(r.ok()) << r.status().ToString();
            if (env->worker_id == 0) reduced[t] = *r;
            auto b = Broadcast(
                ch, env, topology, phases.Block(CollectiveOp::kBroadcast),
                workers,
                env->worker_id == 0 ? *r : linalg::ActivationMap{});
            ASSERT_TRUE(b.ok()) << b.status().ToString();
            bcast[t][env->worker_id] = std::move(*b);
          });
    }
    ASSERT_EQ(reduced[0].size(), 2u * static_cast<size_t>(workers));
    for (size_t t = 1; t < 3; ++t) {
      EXPECT_EQ(reduced[t], reduced[0])
          << "P=" << workers << " topology " << t;
      for (int32_t w = 0; w < workers; ++w) {
        EXPECT_EQ(bcast[t][w], bcast[0][w])
            << "P=" << workers << " topology " << t << " worker " << w;
        EXPECT_EQ(bcast[t][w], reduced[0])
            << "P=" << workers << " topology " << t << " worker " << w;
      }
    }
  }
}

TYPED_TEST(CollectivesTest, SingleWorkerCollectivesAreNoOps) {
  const linalg::ActivationMap rows = MakeRows({3}, 1.0f);
  this->RunWorkers(1, [&](WorkerEnv* env, CommChannel* channel) {
    EXPECT_TRUE(Barrier(channel, env, kThroughRoot, PhaseBlock{0, 1},
                        PhaseBlock{1, 1}, 1)
                    .ok());
    auto reduced =
        Reduce(channel, env, kThroughRoot, PhaseBlock{2, 1}, 1, rows);
    ASSERT_TRUE(reduced.ok());
    EXPECT_EQ(reduced->size(), 1u);
    auto bcast =
        Broadcast(channel, env, kThroughRoot, PhaseBlock{4, 1}, 1, rows);
    ASSERT_TRUE(bcast.ok());
    EXPECT_EQ(bcast->size(), 1u);
  });
}

}  // namespace
}  // namespace fsd::core
