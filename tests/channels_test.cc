// Direct unit tests of the two communication channels, below the worker
// layer: chunking, publish packing, empty-send markers, cross-phase
// stashing, the object channel's .nul/redundant-read optimizations, and its
// per-run teardown.
#include <gtest/gtest.h>

#include "cloud/cloud.h"
#include "core/object_channel.h"
#include "core/queue_channel.h"
#include "core/runtime.h"
#include "common/strings.h"
#include "model/input_gen.h"
#include "model/sparse_dnn.h"
#include "part/model_partition.h"

namespace fsd::core {
namespace {

linalg::ActivationMap MakeRows(std::vector<int32_t> ids, int32_t dim,
                               int32_t nnz) {
  linalg::ActivationMap out;
  for (int32_t id : ids) {
    linalg::SparseVector vec;
    vec.dim = dim;
    for (int32_t j = 0; j < nnz; ++j) {
      vec.idx.push_back(j);
      vec.val.push_back(static_cast<float>(id) + 0.25f * j);
    }
    out.emplace(id, std::move(vec));
  }
  return out;
}

/// Harness: runs `body` inside FaaS handlers (one per worker id), giving
/// each a WorkerEnv bound to a fresh channel instance.
class ChannelTest : public ::testing::Test {
 protected:
  ChannelTest() : cloud_(&sim_) {
    options_.num_workers = 4;
    options_.poll_wait_s = 2.0;
    options_.object_scan_interval_s = 0.01;
  }

  template <typename Channel>
  void RunWorkers(
      std::vector<std::function<void(WorkerEnv*, Channel*)>> bodies) {
    FSD_CHECK_OK(Channel::Provision(&cloud_, options_));
    for (size_t id = 0; id < bodies.size(); ++id) {
      metrics_.emplace_back(std::make_unique<WorkerMetrics>());
    }
    for (size_t id = 0; id < bodies.size(); ++id) {
      cloud::FaasFunctionConfig fn;
      fn.name = fsd::StrFormat("w%zu", id);
      fn.memory_mb = 2048;
      fn.timeout_s = 600.0;
      auto body = bodies[id];
      WorkerMetrics* metrics = metrics_[id].get();
      const int32_t worker_id = static_cast<int32_t>(id);
      fn.handler = [this, body, metrics, worker_id](cloud::FaasContext* ctx) {
        Channel channel;
        WorkerEnv env;
        env.faas = ctx;
        env.cloud = &cloud_;
        env.options = &options_;
        env.metrics = metrics;
        env.worker_id = worker_id;
        body(&env, &channel);
        ctx->set_result(Status::OK());
      };
      FSD_CHECK_OK(cloud_.faas().RegisterFunction(fn));
    }
    sim_.AddProcess("kickoff", [this, n = bodies.size()]() {
      for (size_t id = 0; id < n; ++id) {
        cloud_.faas().InvokeAsync(fsd::StrFormat("w%zu", id), {});
      }
    });
    sim_.Run();
  }

  sim::Simulation sim_;
  cloud::CloudEnv cloud_;
  FsdOptions options_;
  std::vector<std::unique_ptr<WorkerMetrics>> metrics_;
};

TEST_F(ChannelTest, QueueRoundtripBetweenWorkers) {
  const linalg::ActivationMap rows = MakeRows({3, 7, 11}, 16, 4);
  const std::vector<int32_t> ids = {3, 7, 11};
  linalg::ActivationMap received;
  RunWorkers<QueueChannel>({
      [&](WorkerEnv* env, QueueChannel* channel) {
        std::vector<SendSpec> sends{{1, &ids}};
        ASSERT_TRUE(channel->SendPhase(env, 0, rows, sends).ok());
      },
      [&](WorkerEnv* env, QueueChannel* channel) {
        auto got = channel->ReceivePhase(env, 0, {0});
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        received = std::move(*got);
      },
  });
  ASSERT_EQ(received.size(), 3u);
  for (int32_t id : ids) EXPECT_EQ(received.at(id), rows.at(id));
}

TEST_F(ChannelTest, QueueChunksLargePayloads) {
  options_.max_message_bytes = 512;  // force many chunks
  std::vector<int32_t> ids;
  for (int32_t i = 0; i < 40; ++i) ids.push_back(i);
  const linalg::ActivationMap rows = MakeRows(ids, 64, 48);
  linalg::ActivationMap received;
  RunWorkers<QueueChannel>({
      [&](WorkerEnv* env, QueueChannel* channel) {
        std::vector<SendSpec> sends{{1, &ids}};
        ASSERT_TRUE(channel->SendPhase(env, 0, rows, sends).ok());
        EXPECT_GT(env->metrics->Layer(0).send_chunks, 5);
      },
      [&](WorkerEnv* env, QueueChannel* channel) {
        auto got = channel->ReceivePhase(env, 0, {0});
        ASSERT_TRUE(got.ok());
        received = std::move(*got);
      },
  });
  ASSERT_EQ(received.size(), ids.size());
  for (int32_t id : ids) EXPECT_EQ(received.at(id), rows.at(id));
}

TEST_F(ChannelTest, QueueEmptySendDeliversMarker) {
  const linalg::ActivationMap empty;
  static const std::vector<int32_t> ids = {5, 6};
  bool receiver_done = false;
  RunWorkers<QueueChannel>({
      [&](WorkerEnv* env, QueueChannel* channel) {
        std::vector<SendSpec> sends{{1, &ids}};
        ASSERT_TRUE(channel->SendPhase(env, 0, empty, sends).ok());
      },
      [&](WorkerEnv* env, QueueChannel* channel) {
        // Must terminate (marker received) rather than poll forever.
        auto got = channel->ReceivePhase(env, 0, {0});
        ASSERT_TRUE(got.ok());
        EXPECT_TRUE(got->empty());
        receiver_done = true;
      },
  });
  EXPECT_TRUE(receiver_done);
}

TEST_F(ChannelTest, QueueStashesOutOfPhaseMessages) {
  const linalg::ActivationMap rows0 = MakeRows({1}, 8, 3);
  const linalg::ActivationMap rows1 = MakeRows({2}, 8, 3);
  static const std::vector<int32_t> ids0 = {1};
  static const std::vector<int32_t> ids1 = {2};
  linalg::ActivationMap got0, got1;
  RunWorkers<QueueChannel>({
      [&](WorkerEnv* env, QueueChannel* channel) {
        // Send BOTH phases before the receiver starts phase 0: the phase-1
        // message lands mid-poll and must be stashed, not lost.
        std::vector<SendSpec> s0{{1, &ids0}};
        std::vector<SendSpec> s1{{1, &ids1}};
        ASSERT_TRUE(channel->SendPhase(env, 0, rows0, s0).ok());
        ASSERT_TRUE(channel->SendPhase(env, 1, rows1, s1).ok());
      },
      [&](WorkerEnv* env, QueueChannel* channel) {
        env->faas->SleepFor(1.0).ok();  // let both phases arrive
        auto r0 = channel->ReceivePhase(env, 0, {0});
        ASSERT_TRUE(r0.ok());
        got0 = std::move(*r0);
        auto r1 = channel->ReceivePhase(env, 1, {0});
        ASSERT_TRUE(r1.ok());
        got1 = std::move(*r1);
      },
  });
  EXPECT_TRUE(got0.contains(1));
  EXPECT_TRUE(got1.contains(2));
}

TEST_F(ChannelTest, QueueGreedyPackingReducesPublishes) {
  // 4 targets x small payloads: greedy packing folds them into one publish
  // batch; disabled packing issues one publish per message.
  auto run = [&](bool packing) {
    int64_t publishes = 0;
    options_.greedy_packing = packing;
    sim::Simulation sim;
    cloud::CloudEnv cloud(&sim);
    FSD_CHECK_OK(QueueChannel::Provision(&cloud, options_));
    WorkerMetrics metrics;
    cloud::FaasFunctionConfig fn;
    fn.name = "sender";
    fn.memory_mb = 2048;
    fn.timeout_s = 60.0;
    const linalg::ActivationMap rows = MakeRows({0}, 8, 2);
    static const std::vector<int32_t> ids = {0};
    fn.handler = [&](cloud::FaasContext* ctx) {
      QueueChannel channel;
      WorkerEnv env;
      env.faas = ctx;
      env.cloud = &cloud;
      env.options = &options_;
      env.metrics = &metrics;
      env.worker_id = 0;
      std::vector<SendSpec> sends{{1, &ids}, {2, &ids}, {3, &ids}};
      FSD_CHECK_OK(channel.SendPhase(&env, 0, rows, sends));
      publishes = metrics.Layer(0).publishes;
      ctx->set_result(Status::OK());
    };
    FSD_CHECK_OK(cloud.faas().RegisterFunction(fn));
    sim.AddProcess("kick", [&]() { cloud.faas().InvokeAsync("sender", {}); });
    sim.Run();
    return publishes;
  };
  EXPECT_EQ(run(true), 1);
  EXPECT_EQ(run(false), 3);
}

TEST_F(ChannelTest, ObjectRoundtripAndNulMarkers) {
  const linalg::ActivationMap rows = MakeRows({4, 9}, 16, 4);
  static const std::vector<int32_t> ids = {4, 9};
  static const std::vector<int32_t> empty_ids = {77};
  linalg::ActivationMap received_data;
  linalg::ActivationMap received_empty;
  RunWorkers<ObjectChannel>({
      [&](WorkerEnv* env, ObjectChannel* channel) {
        std::vector<SendSpec> sends{{2, &ids}};
        ASSERT_TRUE(channel->SendPhase(env, 0, rows, sends).ok());
        EXPECT_EQ(env->metrics->Layer(0).puts_dat, 1);
      },
      [&](WorkerEnv* env, ObjectChannel* channel) {
        // Nothing to send: a 0-byte .nul marker goes out instead.
        std::vector<SendSpec> sends{{2, &empty_ids}};
        linalg::ActivationMap nothing;
        ASSERT_TRUE(channel->SendPhase(env, 0, nothing, sends).ok());
        EXPECT_EQ(env->metrics->Layer(0).puts_nul, 1);
        EXPECT_EQ(env->metrics->Layer(0).puts_dat, 0);
      },
      [&](WorkerEnv* env, ObjectChannel* channel) {
        auto got = channel->ReceivePhase(env, 0, {0, 1});
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        received_data = std::move(*got);
        // Source 1's .nul completed it without a GET.
        EXPECT_EQ(env->metrics->Layer(0).nul_skipped, 1);
        EXPECT_EQ(env->metrics->Layer(0).gets, 1);
      },
  });
  ASSERT_EQ(received_data.size(), 2u);
  EXPECT_EQ(received_data.at(4), rows.at(4));
  (void)received_empty;
}

TEST_F(ChannelTest, ObjectNulDisabledFallsBackToEmptyDat) {
  options_.nul_markers = false;
  static const std::vector<int32_t> empty_ids = {5};
  RunWorkers<ObjectChannel>({
      [&](WorkerEnv* env, ObjectChannel* channel) {
        linalg::ActivationMap nothing;
        std::vector<SendSpec> sends{{1, &empty_ids}};
        ASSERT_TRUE(channel->SendPhase(env, 0, nothing, sends).ok());
        EXPECT_EQ(env->metrics->Layer(0).puts_nul, 0);
        EXPECT_EQ(env->metrics->Layer(0).puts_dat, 1);  // empty .dat
      },
      [&](WorkerEnv* env, ObjectChannel* channel) {
        auto got = channel->ReceivePhase(env, 0, {0});
        ASSERT_TRUE(got.ok());
        EXPECT_TRUE(got->empty());
        // The ablation's cost: an extra GET for an empty file.
        EXPECT_EQ(env->metrics->Layer(0).gets, 1);
        EXPECT_EQ(env->metrics->Layer(0).nul_skipped, 0);
      },
  });
}

TEST_F(ChannelTest, ObjectKeyNamingMatchesPaperScheme) {
  FsdOptions options;
  options.num_buckets = 10;
  EXPECT_EQ(ObjectChannel::BucketName(13, options), "bucket-3");
  EXPECT_EQ(ObjectChannel::ObjectKey(5, 2, 13, false), "5/13/2_13.dat");
  EXPECT_EQ(ObjectChannel::ObjectKey(5, 2, 13, true), "5/13/2_13.nul");
  EXPECT_EQ(QueueChannel::TopicName(13, options), "topic-3");
  EXPECT_EQ(QueueChannel::QueueName(7, options), "queue-7");

  // A channel scope namespaces every resource (per-query isolation in the
  // serving runtime) without changing the paper's shard layout.
  options.channel_scope = "q7-";
  EXPECT_EQ(ObjectChannel::BucketName(13, options), "q7-bucket-3");
  EXPECT_EQ(QueueChannel::TopicName(13, options), "q7-topic-3");
  EXPECT_EQ(QueueChannel::QueueName(7, options), "q7-queue-7");
}

TEST_F(ChannelTest, ObjectScanBackoffBoundsListCalls) {
  // The receiver starts before the sender writes: it must re-scan a few
  // times (bounded by the back-off), not hammer LIST.
  static const std::vector<int32_t> ids = {1};
  const linalg::ActivationMap rows = MakeRows({1}, 8, 2);
  int64_t lists = 0;
  RunWorkers<ObjectChannel>({
      [&](WorkerEnv* env, ObjectChannel* channel) {
        env->faas->SleepFor(0.5).ok();  // write late
        std::vector<SendSpec> sends{{1, &ids}};
        ASSERT_TRUE(channel->SendPhase(env, 0, rows, sends).ok());
      },
      [&](WorkerEnv* env, ObjectChannel* channel) {
        auto got = channel->ReceivePhase(env, 0, {0});
        ASSERT_TRUE(got.ok());
        lists = env->metrics->Layer(0).lists;
      },
  });
  EXPECT_GT(lists, 1);
  // 0.5 s of waiting at a 10 ms scan interval plus LIST latency: well under
  // a hundred scans.
  EXPECT_LT(lists, 100);
}

TEST(ObjectChannelTeardown, RunInferenceLeavesNoShardsBehind) {
  model::SparseDnnConfig config;
  config.neurons = 128;
  config.layers = 3;
  auto dnn = model::GenerateSparseDnn(config);
  ASSERT_TRUE(dnn.ok());
  auto partition = part::PartitionModel(*dnn, 4, part::ModelPartitionOptions{});
  ASSERT_TRUE(partition.ok());
  model::InputConfig input_config;
  input_config.neurons = 128;
  input_config.batch = 8;
  auto input = model::GenerateInputBatch(input_config);
  ASSERT_TRUE(input.ok());

  sim::Simulation sim;
  cloud::CloudEnv cloud(&sim);
  InferenceRequest request;
  request.dnn = &*dnn;
  request.partition = &*partition;
  request.batches = {&*input};
  request.options.variant = Variant::kObject;
  request.options.num_workers = 4;
  request.options.channel_scope = "teardown-";
  auto report = RunInference(&cloud, request);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->status.ok()) << report->status.ToString();
  int64_t puts = 0;
  for (const WorkerMetrics& worker : report->metrics.workers) {
    for (const LayerMetrics& layer : worker.layers) puts += layer.puts_dat;
  }
  EXPECT_GT(puts, 0);  // the run did write payloads to its shards
  for (int32_t b = 0; b < request.options.num_buckets; ++b) {
    EXPECT_FALSE(cloud.objects().BucketExists(
        ObjectChannel::BucketName(b, request.options)))
        << "shard " << b;
  }
  EXPECT_EQ(cloud.objects().TotalBytes(), 0u);
}

}  // namespace
}  // namespace fsd::core
