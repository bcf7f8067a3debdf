#include <gtest/gtest.h>

#include "cloud/cloud.h"

namespace fsd::cloud {
namespace {

class CloudTest : public ::testing::Test {
 protected:
  sim::Simulation sim_;
  CloudEnv cloud_{&sim_};

  /// Runs `body` inside a simulation process and drives the sim to empty.
  void InProcess(std::function<void()> body) {
    sim_.AddProcess("test", std::move(body));
    sim_.Run();
  }
};

// ---------------------------------------------------------------------------
// Queue service
// ---------------------------------------------------------------------------

TEST_F(CloudTest, QueueDeliverAndLongPollReceive) {
  ASSERT_TRUE(cloud_.queues().CreateQueue("q").ok());
  InProcess([&] {
    QueueMessage msg;
    msg.body = {1, 2, 3};
    msg.attributes["k"] = "v";
    ASSERT_TRUE(cloud_.queues().Deliver("q", msg).ok());
    auto got = cloud_.queues().Receive("q", 10, /*wait_s=*/5.0);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->size(), 1u);
    EXPECT_EQ((*got)[0].body, (Bytes{1, 2, 3}));
    EXPECT_EQ((*got)[0].attributes.at("k"), "v");
  });
}

TEST_F(CloudTest, QueueLongPollBlocksUntilArrival) {
  ASSERT_TRUE(cloud_.queues().CreateQueue("q").ok());
  double received_at = -1.0;
  sim_.AddProcess("consumer", [&] {
    auto got = cloud_.queues().Receive("q", 10, /*wait_s=*/20.0);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->size(), 1u);
    received_at = sim_.Now();
  });
  sim_.AddProcess("producer", [&] {
    sim_.Hold(3.0);
    QueueMessage msg;
    msg.body = {9};
    ASSERT_TRUE(cloud_.queues().Deliver("q", msg).ok());
  });
  sim_.Run();
  EXPECT_GE(received_at, 3.0);
  EXPECT_LT(received_at, 4.0);  // well before the 20 s window closes
}

TEST_F(CloudTest, QueueLongPollTimesOutEmptyHanded) {
  ASSERT_TRUE(cloud_.queues().CreateQueue("q").ok());
  InProcess([&] {
    const double t0 = sim_.Now();
    auto got = cloud_.queues().Receive("q", 10, /*wait_s=*/2.0);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(got->empty());
    EXPECT_GE(sim_.Now() - t0, 2.0);
  });
}

TEST_F(CloudTest, QueueShortPollCanMissMessages) {
  QueueOptions options;
  options.num_shards = 8;
  options.short_poll_shard_prob = 0.5;
  ASSERT_TRUE(cloud_.queues().CreateQueue("q", options).ok());
  InProcess([&] {
    // One message per backend shard.
    for (int i = 0; i < 8; ++i) {
      QueueMessage msg;
      msg.body = {static_cast<uint8_t>(i)};
      ASSERT_TRUE(cloud_.queues().Deliver("q", msg).ok());
    }
    // A short poll (wait 0) samples a subset of shards: across several
    // polls, at least one must come back with fewer than the visible
    // messages (long polling, by contrast, always visits every shard).
    bool missed_some = false;
    for (int attempt = 0; attempt < 8; ++attempt) {
      auto got = cloud_.queues().Receive("q", 10, /*wait_s=*/0.0);
      ASSERT_TRUE(got.ok());
      if (got->size() < 8) missed_some = true;
      sim_.Hold(60.0);  // let visibility timeouts lapse between polls
    }
    EXPECT_TRUE(missed_some);
    // Nothing was deleted: all 8 messages are still stored.
    EXPECT_EQ(*cloud_.queues().ApproximateDepth("q"), 8u);
    // And a long poll sees every shard.
    auto all = cloud_.queues().Receive("q", 10, /*wait_s=*/1.0);
    ASSERT_TRUE(all.ok());
    EXPECT_EQ(all->size(), 8u);
  });
}

TEST_F(CloudTest, QueueVisibilityTimeoutRedelivers) {
  QueueOptions options;
  options.visibility_timeout_s = 5.0;
  ASSERT_TRUE(cloud_.queues().CreateQueue("q", options).ok());
  InProcess([&] {
    QueueMessage msg;
    msg.body = {42};
    ASSERT_TRUE(cloud_.queues().Deliver("q", msg).ok());
    auto first = cloud_.queues().Receive("q", 10, 1.0);
    ASSERT_EQ(first->size(), 1u);
    // Not deleted: invisible now, redelivered after the timeout.
    auto hidden = cloud_.queues().Receive("q", 10, 1.0);
    EXPECT_TRUE(hidden->empty());
    sim_.Hold(6.0);
    auto again = cloud_.queues().Receive("q", 10, 1.0);
    ASSERT_EQ(again->size(), 1u);
    EXPECT_EQ((*again)[0].id, (*first)[0].id);
  });
}

TEST_F(CloudTest, QueueDeleteRemovesMessages) {
  ASSERT_TRUE(cloud_.queues().CreateQueue("q").ok());
  InProcess([&] {
    QueueMessage msg;
    msg.body = {1};
    ASSERT_TRUE(cloud_.queues().Deliver("q", msg).ok());
    auto got = cloud_.queues().Receive("q", 10, 1.0);
    ASSERT_EQ(got->size(), 1u);
    ASSERT_TRUE(cloud_.queues().DeleteMessages("q", {(*got)[0].id}).ok());
    sim_.Hold(60.0);
    auto after = cloud_.queues().Receive("q", 10, 0.5);
    EXPECT_TRUE(after->empty());
    EXPECT_EQ(*cloud_.queues().ApproximateDepth("q"), 0u);
  });
}

TEST_F(CloudTest, QueueBillsPerApiCall) {
  ASSERT_TRUE(cloud_.queues().CreateQueue("q").ok());
  InProcess([&] {
    const auto& line = cloud_.billing().line(BillingDimension::kQueueApiCall);
    const double before = line.quantity;
    cloud_.queues().Receive("q", 10, 0.0).ok();
    cloud_.queues().Receive("q", 10, 0.0).ok();
    QueueMessage m;
    m.body = {1};
    cloud_.queues().SendMessage("q", m).ok();
    EXPECT_EQ(line.quantity - before, 3.0);
  });
}

TEST_F(CloudTest, QueueValidatesArguments) {
  ASSERT_TRUE(cloud_.queues().CreateQueue("q").ok());
  EXPECT_TRUE(cloud_.queues().CreateQueue("q").code() ==
              StatusCode::kAlreadyExists);
  InProcess([&] {
    EXPECT_FALSE(cloud_.queues().Receive("nope", 10, 0.0).ok());
    EXPECT_FALSE(cloud_.queues().Receive("q", 11, 0.0).ok());
    EXPECT_FALSE(cloud_.queues().Receive("q", 0, 0.0).ok());
    std::vector<uint64_t> too_many(11, 1);
    EXPECT_FALSE(cloud_.queues().DeleteMessages("q", too_many).ok());
  });
}

// ---------------------------------------------------------------------------
// Pub-sub service
// ---------------------------------------------------------------------------

TEST_F(CloudTest, PubSubFilterPolicyRoutes) {
  ASSERT_TRUE(cloud_.pubsub().CreateTopic("t").ok());
  ASSERT_TRUE(cloud_.queues().CreateQueue("qa").ok());
  ASSERT_TRUE(cloud_.queues().CreateQueue("qb").ok());
  FilterPolicy pa, pb;
  pa.equals["target"] = {"a"};
  pb.equals["target"] = {"b"};
  ASSERT_TRUE(cloud_.pubsub().Subscribe("t", "qa", pa).ok());
  ASSERT_TRUE(cloud_.pubsub().Subscribe("t", "qb", pb).ok());
  InProcess([&] {
    QueueMessage to_a, to_b;
    to_a.body = {1};
    to_a.attributes["target"] = "a";
    to_b.body = {2};
    to_b.attributes["target"] = "b";
    auto outcome = cloud_.pubsub().PublishBatch("t", {to_a, to_b});
    ASSERT_TRUE(outcome.status.ok());
    sim_.Hold(2.0);  // let fan-out deliveries land
    auto got_a = cloud_.queues().Receive("qa", 10, 0.5);
    auto got_b = cloud_.queues().Receive("qb", 10, 0.5);
    ASSERT_EQ(got_a->size(), 1u);
    ASSERT_EQ(got_b->size(), 1u);
    EXPECT_EQ((*got_a)[0].body, (Bytes{1}));
    EXPECT_EQ((*got_b)[0].body, (Bytes{2}));
  });
}

TEST_F(CloudTest, PubSubNoMatchDropsMessage) {
  ASSERT_TRUE(cloud_.pubsub().CreateTopic("t").ok());
  ASSERT_TRUE(cloud_.queues().CreateQueue("q").ok());
  FilterPolicy policy;
  policy.equals["target"] = {"x"};
  ASSERT_TRUE(cloud_.pubsub().Subscribe("t", "q", policy).ok());
  InProcess([&] {
    QueueMessage msg;
    msg.body = {1};
    msg.attributes["target"] = "y";  // no subscriber wants this
    ASSERT_TRUE(cloud_.pubsub().PublishBatch("t", {msg}).status.ok());
    sim_.Hold(2.0);
    EXPECT_TRUE(cloud_.queues().Receive("q", 10, 0.2)->empty());
  });
}

TEST_F(CloudTest, PubSubEnforcesBatchLimits) {
  ASSERT_TRUE(cloud_.pubsub().CreateTopic("t").ok());
  InProcess([&] {
    std::vector<QueueMessage> eleven(11);
    for (auto& m : eleven) m.body = {1};
    EXPECT_FALSE(cloud_.pubsub().PublishBatch("t", eleven).status.ok());

    QueueMessage huge;
    huge.body.assign(kMaxPublishBytes + 1, 0);
    EXPECT_TRUE(cloud_.pubsub()
                    .PublishBatch("t", {huge})
                    .status.IsResourceExhausted());
    EXPECT_FALSE(cloud_.pubsub().PublishBatch("t", {}).status.ok());
  });
}

TEST_F(CloudTest, PubSubBillsIn64KiBIncrements) {
  ASSERT_TRUE(cloud_.pubsub().CreateTopic("t").ok());
  InProcess([&] {
    QueueMessage m1, m2;
    m1.body.assign(100 * 1024, 0);  // 100 KiB
    m2.body.assign(120 * 1024, 0);  // 120 KiB; batch ~220 KiB -> 4 chunks
    auto outcome = cloud_.pubsub().PublishBatch("t", {m1, m2});
    ASSERT_TRUE(outcome.status.ok());
    EXPECT_EQ(outcome.billed_chunks, 4u);

    QueueMessage tiny;
    tiny.body = {1};
    EXPECT_EQ(cloud_.pubsub().PublishBatch("t", {tiny}).billed_chunks, 1u);
  });
}

TEST_F(CloudTest, PubSubDeliveryBytesBilled) {
  ASSERT_TRUE(cloud_.pubsub().CreateTopic("t").ok());
  ASSERT_TRUE(cloud_.queues().CreateQueue("q").ok());
  ASSERT_TRUE(cloud_.pubsub().Subscribe("t", "q", FilterPolicy{}).ok());
  InProcess([&] {
    const auto& line =
        cloud_.billing().line(BillingDimension::kPubSubDeliveryByte);
    const double before = line.quantity;
    QueueMessage m;
    m.body.assign(1000, 7);
    ASSERT_TRUE(cloud_.pubsub().PublishBatch("t", {m}).status.ok());
    EXPECT_GE(line.quantity - before, 1000.0);
  });
}

// ---------------------------------------------------------------------------
// Object store
// ---------------------------------------------------------------------------

TEST_F(CloudTest, ObjectPutBecomesVisibleAfterLatency) {
  ASSERT_TRUE(cloud_.objects().CreateBucket("b").ok());
  InProcess([&] {
    auto put = cloud_.objects().Put("b", "k/x.dat", Bytes{1, 2});
    ASSERT_TRUE(put.status.ok());
    // Immediately after the call the upload is still in flight.
    auto listing = cloud_.objects().List("b", "k/");
    // (List holds its own latency, which may or may not pass the PUT's; be
    // generous and only assert eventual visibility.)
    sim_.Hold(5.0);
    listing = cloud_.objects().List("b", "k/");
    ASSERT_TRUE(listing.ok());
    ASSERT_EQ(listing->size(), 1u);
    EXPECT_EQ((*listing)[0].key, "k/x.dat");
    EXPECT_EQ((*listing)[0].size, 2u);
    auto body = cloud_.objects().GetBlocking("b", "k/x.dat");
    ASSERT_TRUE(body.ok());
    EXPECT_EQ(*body, (Bytes{1, 2}));
  });
}

TEST_F(CloudTest, ObjectListRespectsPrefix) {
  ASSERT_TRUE(cloud_.objects().CreateBucket("b").ok());
  InProcess([&] {
    cloud_.objects().Put("b", "12/1/a.dat", Bytes{1});
    cloud_.objects().Put("b", "12/1/b.dat", Bytes{1});
    cloud_.objects().Put("b", "120/1/c.dat", Bytes{1});
    cloud_.objects().Put("b", "2/1/d.dat", Bytes{1});
    sim_.Hold(5.0);
    auto listing = cloud_.objects().List("b", "12/1/");
    ASSERT_TRUE(listing.ok());
    ASSERT_EQ(listing->size(), 2u);  // "120/..." must NOT match "12/"
    EXPECT_EQ((*listing)[0].key, "12/1/a.dat");
    EXPECT_EQ((*listing)[1].key, "12/1/b.dat");
  });
}

TEST_F(CloudTest, ObjectGetMissingFailsButBills) {
  ASSERT_TRUE(cloud_.objects().CreateBucket("b").ok());
  InProcess([&] {
    const auto& line = cloud_.billing().line(BillingDimension::kObjectGet);
    const double before = line.quantity;
    EXPECT_FALSE(cloud_.objects().GetBlocking("b", "nope").ok());
    EXPECT_EQ(line.quantity - before, 1.0);
  });
}

TEST_F(CloudTest, ObjectRequestBilling) {
  ASSERT_TRUE(cloud_.objects().CreateBucket("b").ok());
  InProcess([&] {
    const auto& puts = cloud_.billing().line(BillingDimension::kObjectPut);
    const auto& lists = cloud_.billing().line(BillingDimension::kObjectList);
    const double p0 = puts.quantity, l0 = lists.quantity;
    cloud_.objects().Put("b", "x", Bytes{});
    cloud_.objects().Put("b", "y", Bytes(1024 * 1024, 1));
    sim_.Hold(5.0);
    cloud_.objects().List("b", "").ok();
    EXPECT_EQ(puts.quantity - p0, 2.0);  // size-independent
    EXPECT_EQ(lists.quantity - l0, 1.0);
  });
}

TEST_F(CloudTest, ObjectDeleteRemoves) {
  ASSERT_TRUE(cloud_.objects().CreateBucket("b").ok());
  InProcess([&] {
    cloud_.objects().Put("b", "x", Bytes{1});
    sim_.Hold(5.0);
    ASSERT_TRUE(cloud_.objects().Delete("b", "x").ok());
    EXPECT_TRUE(cloud_.objects().List("b", "")->empty());
  });
}

TEST_F(CloudTest, ObjectDeleteBucketDropsItsObjectsFreeAndUntimed) {
  ASSERT_TRUE(cloud_.objects().CreateBucket("gone").ok());
  ASSERT_TRUE(cloud_.objects().CreateBucket("kept").ok());
  std::string ledger_before;
  double deleted_at = -1.0;
  InProcess([&] {
    cloud_.objects().Put("gone", "a", Bytes(100, 1));
    cloud_.objects().Put("gone", "b", Bytes(20, 2));
    cloud_.objects().Put("kept", "c", Bytes(3, 3));
    sim_.Hold(5.0);
    ledger_before = cloud_.billing().ToString();
    ASSERT_TRUE(cloud_.objects().DeleteBucket("gone").ok());
    deleted_at = sim_.Now();
  });
  EXPECT_EQ(deleted_at, 5.0);
  EXPECT_EQ(sim_.Now(), 5.0);
  EXPECT_FALSE(cloud_.objects().BucketExists("gone"));
  EXPECT_TRUE(cloud_.objects().BucketExists("kept"));
  EXPECT_EQ(cloud_.objects().TotalBytes(), 3u);
  EXPECT_EQ(cloud_.billing().ToString(), ledger_before);
  EXPECT_EQ(cloud_.objects().DeleteBucket("gone").code(),
            StatusCode::kNotFound);
  // The name is free again, and the recreated bucket starts empty.
  ASSERT_TRUE(cloud_.objects().CreateBucket("gone").ok());
  InProcess([&] { EXPECT_TRUE(cloud_.objects().List("gone", "")->empty()); });
}

TEST(ObjectStoreDeleteBucket, DrawsNoRandomness) {
  // Two clouds on one seed; only the first creates and deletes a bucket.
  // The next PUT latency sample must still match.
  double latency[2] = {0.0, 0.0};
  for (int with_delete = 0; with_delete < 2; ++with_delete) {
    sim::Simulation sim;
    CloudEnv cloud(&sim);
    ASSERT_TRUE(cloud.objects().CreateBucket("b").ok());
    if (with_delete == 1) {
      ASSERT_TRUE(cloud.objects().CreateBucket("tmp").ok());
      ASSERT_TRUE(cloud.objects().DeleteBucket("tmp").ok());
    }
    sim.AddProcess("put", [&] {
      latency[with_delete] =
          cloud.objects().Put("b", "k", Bytes(4096, 7)).latency;
    });
    sim.Run();
  }
  EXPECT_GT(latency[0], 0.0);
  EXPECT_EQ(latency[0], latency[1]);
}

TEST_F(CloudTest, ObjectRateLimiterAddsQueueingDelay) {
  LatencyConfig latency;
  RateLimiter limiter(10.0);  // 10 rps -> 0.1 s service time
  EXPECT_EQ(limiter.AdmissionDelay(0.0), 0.0);
  // Second arrival at t=0 queues behind the first.
  EXPECT_NEAR(limiter.AdmissionDelay(0.0), 0.1, 1e-9);
  EXPECT_NEAR(limiter.AdmissionDelay(0.0), 0.2, 1e-9);
  // A late arrival sees an idle server.
  EXPECT_EQ(limiter.AdmissionDelay(10.0), 0.0);
}

// ---------------------------------------------------------------------------
// FaaS
// ---------------------------------------------------------------------------

TEST_F(CloudTest, FaasInvokeRunsHandlerAndBills) {
  FaasFunctionConfig fn;
  fn.name = "f";
  fn.memory_mb = 1024;
  fn.timeout_s = 10.0;
  double ran_at = -1.0;
  Bytes seen_payload;
  fn.handler = [&](FaasContext* ctx) {
    ran_at = ctx->sim()->Now();
    seen_payload = ctx->payload();
    ctx->set_result(Status::OK());
  };
  ASSERT_TRUE(cloud_.faas().RegisterFunction(fn).ok());
  InProcess([&] {
    auto outcome = cloud_.faas().InvokeAsync("f", Bytes{5, 6});
    ASSERT_TRUE(outcome.status.ok());
    sim_.WaitSignal(outcome.completion.get());
    auto record = cloud_.faas().completion(outcome.request_id);
    ASSERT_TRUE(record.ok());
    EXPECT_TRUE(record->status.ok());
    EXPECT_TRUE(record->cold_start);  // first invocation is cold
  });
  EXPECT_GT(ran_at, 0.0);  // cold start delay happened
  EXPECT_EQ(seen_payload, (Bytes{5, 6}));
  EXPECT_EQ(
      cloud_.billing().line(BillingDimension::kFaasInvocation).quantity, 1.0);
}

TEST_F(CloudTest, FaasWarmStartReusesInstance) {
  FaasFunctionConfig fn;
  fn.name = "f";
  fn.memory_mb = 512;
  fn.timeout_s = 10.0;
  fn.handler = [](FaasContext* ctx) { ctx->set_result(Status::OK()); };
  ASSERT_TRUE(cloud_.faas().RegisterFunction(fn).ok());
  InProcess([&] {
    auto first = cloud_.faas().InvokeAsync("f", {});
    sim_.WaitSignal(first.completion.get());
    EXPECT_EQ(cloud_.faas().WarmCount("f"), 1);
    auto second = cloud_.faas().InvokeAsync("f", {});
    sim_.WaitSignal(second.completion.get());
    EXPECT_FALSE(cloud_.faas().completion(second.request_id)->cold_start);
  });
}

TEST_F(CloudTest, FaasInstanceStateSurvivesWarmReuse) {
  // Instance-local state is the warm residue real handlers exploit: set by
  // one invocation, visible to the next one reusing the instance warm,
  // gone once the keep-alive reclaims the instance.
  FaasFunctionConfig fn;
  fn.name = "f";
  fn.memory_mb = 512;
  fn.timeout_s = 10.0;
  std::vector<uint64_t> instance_ids;
  std::vector<int> seen_values;
  fn.handler = [&](FaasContext* ctx) {
    instance_ids.push_back(ctx->instance_id());
    auto state = std::static_pointer_cast<int>(ctx->instance_state());
    seen_values.push_back(state == nullptr ? -1 : *state);
    ctx->set_instance_state(std::make_shared<int>(
        static_cast<int>(seen_values.size())));
    ctx->set_result(Status::OK());
  };
  ASSERT_TRUE(cloud_.faas().RegisterFunction(fn).ok());
  InProcess([&] {
    auto first = cloud_.faas().InvokeAsync("f", {});
    sim_.WaitSignal(first.completion.get());
    auto second = cloud_.faas().InvokeAsync("f", {});
    sim_.WaitSignal(second.completion.get());
    // Outlive the keep-alive: the third invocation is cold with no state.
    sim_.Hold(601.0);
    auto third = cloud_.faas().InvokeAsync("f", {});
    sim_.WaitSignal(third.completion.get());
    EXPECT_TRUE(cloud_.faas().completion(third.request_id)->cold_start);
  });
  ASSERT_EQ(seen_values.size(), 3u);
  EXPECT_EQ(seen_values[0], -1);  // cold: fresh environment
  EXPECT_EQ(seen_values[1], 1);   // warm: previous invocation's state
  EXPECT_EQ(seen_values[2], -1);  // reclaimed: state died with the instance
  EXPECT_EQ(instance_ids[0], instance_ids[1]);
  EXPECT_NE(instance_ids[0], instance_ids[2]);
}

TEST_F(CloudTest, FaasConcurrentInvocationsGetDistinctInstances) {
  // Concurrent invocations occupy distinct instances (each with its own
  // instance state); once both are released, a later invocation reuses
  // one of them warm instead of minting a third environment.
  FaasFunctionConfig fn;
  fn.name = "f";
  fn.memory_mb = 512;
  fn.timeout_s = 10.0;
  std::vector<uint64_t> instance_ids;
  fn.handler = [&](FaasContext* ctx) {
    instance_ids.push_back(ctx->instance_id());
    ctx->sim()->Hold(1.0);
    ctx->set_result(Status::OK());
  };
  ASSERT_TRUE(cloud_.faas().RegisterFunction(fn).ok());
  InProcess([&] {
    auto a = cloud_.faas().InvokeAsync("f", {});
    auto b = cloud_.faas().InvokeAsync("f", {});
    sim_.WaitSignal(a.completion.get());
    sim_.WaitSignal(b.completion.get());
    EXPECT_EQ(cloud_.faas().WarmCount("f"), 2);
    auto c = cloud_.faas().InvokeAsync("f", {});
    sim_.WaitSignal(c.completion.get());
    EXPECT_FALSE(cloud_.faas().completion(c.request_id)->cold_start);
  });
  ASSERT_EQ(instance_ids.size(), 3u);
  EXPECT_NE(instance_ids[0], instance_ids[1]);  // overlapped: two instances
  // The third run reused one of the released environments.
  EXPECT_TRUE(instance_ids[2] == instance_ids[0] ||
              instance_ids[2] == instance_ids[1]);
}

TEST_F(CloudTest, FaasDeadlineExceededSurfaces) {
  FaasFunctionConfig fn;
  fn.name = "slow";
  fn.memory_mb = 1769;  // exactly 1 vCPU
  fn.timeout_s = 1.0;
  fn.handler = [](FaasContext* ctx) {
    // Needs ~1.47 s of compute at 0.68 GFLOPS -> must hit the cap.
    Status s = ctx->Burn(1e9);
    ctx->set_result(s);
  };
  ASSERT_TRUE(cloud_.faas().RegisterFunction(fn).ok());
  InProcess([&] {
    auto outcome = cloud_.faas().InvokeAsync("slow", {});
    sim_.WaitSignal(outcome.completion.get());
    auto record = cloud_.faas().completion(outcome.request_id);
    EXPECT_TRUE(record->status.IsDeadlineExceeded());
    // Billed runtime is capped at the timeout.
    EXPECT_LE(record->duration_s, 1.0 + 1e-9);
  });
}

TEST_F(CloudTest, FaasRegistrationValidation) {
  FaasFunctionConfig fn;
  fn.name = "f";
  fn.handler = [](FaasContext*) {};
  fn.memory_mb = 64;  // below provider minimum
  EXPECT_FALSE(cloud_.faas().RegisterFunction(fn).ok());
  fn.memory_mb = 20000;  // above provider maximum
  EXPECT_FALSE(cloud_.faas().RegisterFunction(fn).ok());
  fn.memory_mb = 1024;
  fn.timeout_s = 1000.0;  // above the 15-minute cap
  EXPECT_FALSE(cloud_.faas().RegisterFunction(fn).ok());
  fn.timeout_s = 10.0;
  EXPECT_TRUE(cloud_.faas().RegisterFunction(fn).ok());
  EXPECT_EQ(cloud_.faas().RegisterFunction(fn).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(CloudTest, ComputeModelScalesWithMemory) {
  const ComputeModelConfig& compute = cloud_.compute();
  // vCPU share grows linearly with memory until the 6-vCPU cap.
  EXPECT_NEAR(compute.FaasVcpus(1769), 1.0, 1e-9);
  EXPECT_NEAR(compute.FaasVcpus(3538), 2.0, 1e-9);
  EXPECT_NEAR(compute.FaasVcpus(10240), 5.789, 0.01);
  EXPECT_EQ(compute.FaasVcpus(1000000), 6.0);
  // More memory -> faster compute.
  EXPECT_LT(compute.FaasComputeSeconds(1e9, 4000),
            compute.FaasComputeSeconds(1e9, 1000));
}

// ---------------------------------------------------------------------------
// VMs
// ---------------------------------------------------------------------------

TEST_F(CloudTest, VmLaunchBootsAndTerminateBills) {
  InProcess([&] {
    const double t0 = sim_.Now();
    auto vm = cloud_.vms().Launch("c5.2xlarge");
    ASSERT_TRUE(vm.ok());
    EXPECT_GT(sim_.Now() - t0, 10.0);  // boot delay is tens of seconds
    sim_.Hold(3600.0);
    ASSERT_TRUE(cloud_.vms().Terminate(*vm).ok());
    const auto& line = cloud_.billing().line(BillingDimension::kVmSecond);
    // One hour at $0.34/h.
    EXPECT_NEAR(line.cost, 0.34, 0.01);
  });
}

TEST_F(CloudTest, VmMinimumBillingWindow) {
  InProcess([&] {
    auto vm = cloud_.vms().Launch("c5.2xlarge");
    ASSERT_TRUE(vm.ok());
    ASSERT_TRUE(cloud_.vms().Terminate(*vm).ok());  // immediate
    const auto& line = cloud_.billing().line(BillingDimension::kVmSecond);
    EXPECT_NEAR(line.quantity, 60.0, 1e-9);  // 60 s minimum
  });
}

TEST_F(CloudTest, VmAlwaysOnBilling) {
  ASSERT_TRUE(cloud_.vms().BillAlwaysOn("c5.12xlarge", 86400.0, 2).ok());
  const auto& line = cloud_.billing().line(BillingDimension::kVmSecond);
  EXPECT_NEAR(line.cost, 2 * 24 * 2.04, 0.01);  // 2 instances x 24 h
  EXPECT_FALSE(cloud_.vms().BillAlwaysOn("nope", 1.0, 1).ok());
}

TEST_F(CloudTest, VmUnknownTypeRejected) {
  InProcess([&] { EXPECT_FALSE(cloud_.vms().Launch("m7g.huge").ok()); });
}

// ---------------------------------------------------------------------------
// KV store (ElastiCache/Redis-style)
// ---------------------------------------------------------------------------

TEST_F(CloudTest, KvPushPopRoundtripPreservesFifoOrder) {
  ASSERT_TRUE(cloud_.kv().CreateNamespace("ns").ok());
  InProcess([&] {
    cloud_.kv().Push("ns", "list", Bytes{1});
    cloud_.kv().Push("ns", "list", Bytes{2});
    cloud_.kv().Push("ns", "list", Bytes{3});
    sim_.Hold(0.1);  // all three pushes become visible
    auto got = cloud_.kv().BlockingPopAll("ns", "list", 10, /*wait_s=*/1.0);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->size(), 3u);
    EXPECT_EQ((*got)[0], Bytes{1});
    EXPECT_EQ((*got)[1], Bytes{2});
    EXPECT_EQ((*got)[2], Bytes{3});
    // Pops are destructive: nothing remains.
    auto empty = cloud_.kv().BlockingPopAll("ns", "list", 10, 0.0);
    ASSERT_TRUE(empty.ok());
    EXPECT_TRUE(empty->empty());
  });
}

TEST_F(CloudTest, KvBlockingPopWakesOnArrival) {
  ASSERT_TRUE(cloud_.kv().CreateNamespace("ns").ok());
  double received_at = -1.0;
  sim_.AddProcess("consumer", [&] {
    auto got = cloud_.kv().BlockingPopAll("ns", "list", 10, /*wait_s=*/20.0);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->size(), 1u);
    received_at = sim_.Now();
  });
  sim_.AddProcess("producer", [&] {
    sim_.Hold(3.0);
    cloud_.kv().Push("ns", "list", Bytes{9});
  });
  sim_.Run();
  EXPECT_GE(received_at, 3.0);
  // Sub-millisecond ops: the wake + pop tail is far tighter than a queue
  // receive round trip.
  EXPECT_LT(received_at, 3.1);
}

TEST_F(CloudTest, KvBillsRequestsAndProcessedBytes) {
  ASSERT_TRUE(cloud_.kv().CreateNamespace("ns").ok());
  InProcess([&] {
    cloud_.kv().Push("ns", "list", Bytes(1000, 7));
    auto got = cloud_.kv().BlockingPopAll("ns", "list", 10, /*wait_s=*/1.0);
    ASSERT_TRUE(got.ok());
    const auto& requests =
        cloud_.billing().line(BillingDimension::kKvRequest);
    const auto& bytes =
        cloud_.billing().line(BillingDimension::kKvProcessedByte);
    EXPECT_EQ(requests.quantity, 2.0);  // one push + one pop
    EXPECT_EQ(bytes.quantity, 2000.0);  // 1000 in + 1000 out
    EXPECT_GT(requests.cost + bytes.cost, 0.0);
  });
}

TEST_F(CloudTest, KvDeleteNamespaceBillsNodeLifetime) {
  ASSERT_TRUE(cloud_.kv().CreateNamespace("ns").ok());
  InProcess([&] {
    // Pre-provisioned idle time is free; billing spans first use -> delete.
    sim_.Hold(40.0);
    cloud_.kv().Push("ns", "list", Bytes{1});
    sim_.Hold(120.0);
    ASSERT_TRUE(cloud_.kv().DeleteNamespace("ns").ok());
    const auto& line =
        cloud_.billing().line(BillingDimension::kKvNodeSecond);
    EXPECT_NEAR(line.quantity, 120.0, 1e-9);
    EXPECT_NEAR(line.cost,
                120.0 * cloud_.billing().pricing().kv_node_hourly / 3600.0,
                1e-12);
    // Gone: subsequent data-plane calls observe NotFound.
    EXPECT_FALSE(cloud_.kv().NamespaceExists("ns"));
    EXPECT_FALSE(cloud_.kv().Push("ns", "list", Bytes{1}).status.ok());
    EXPECT_FALSE(cloud_.kv().DeleteNamespace("ns").ok());
  });
}

TEST_F(CloudTest, KvDeleteNamespaceUnblocksWaiters) {
  ASSERT_TRUE(cloud_.kv().CreateNamespace("ns").ok());
  Status pop_status = Status::OK();
  sim_.AddProcess("consumer", [&] {
    auto got = cloud_.kv().BlockingPopAll("ns", "list", 10, /*wait_s=*/60.0);
    pop_status = got.status();
  });
  sim_.AddProcess("deleter", [&] {
    sim_.Hold(1.0);
    ASSERT_TRUE(cloud_.kv().DeleteNamespace("ns").ok());
  });
  sim_.Run();
  EXPECT_EQ(pop_status.code(), StatusCode::kNotFound)
      << pop_status.ToString();
  EXPECT_EQ(sim_.live_processes(), 0);
}

TEST_F(CloudTest, KvSetGetRoundtripAndValidation) {
  ASSERT_TRUE(cloud_.kv().CreateNamespace("ns").ok());
  EXPECT_FALSE(cloud_.kv().CreateNamespace("ns").ok());  // AlreadyExists
  InProcess([&] {
    ASSERT_TRUE(cloud_.kv().Set("ns", "k", Bytes{4, 2}).ok());
    auto got = cloud_.kv().Get("ns", "k");
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, (Bytes{4, 2}));
    EXPECT_FALSE(cloud_.kv().Get("ns", "missing").ok());
    EXPECT_FALSE(
        cloud_.kv().BlockingPopAll("ns", "list", 0, 0.0).ok());  // bad count
    EXPECT_FALSE(cloud_.kv().BlockingPopAll("nope", "list", 1, 0.0).ok());
  });
}

// ---------------------------------------------------------------------------
// P2P fabric (NAT-punched direct links)
// ---------------------------------------------------------------------------

TEST_F(CloudTest, P2pPunchOutcomeIsDeterministicPerPair) {
  ASSERT_TRUE(cloud_.p2p().CreateSession("s").ok());
  InProcess([&] {
    // Same ordered pair, repeated: identical outcome, fresh only once.
    const auto first = cloud_.p2p().Connect("s", 0, 1);
    ASSERT_TRUE(first.status.ok());
    EXPECT_TRUE(first.fresh);
    const auto again = cloud_.p2p().Connect("s", 0, 1);
    ASSERT_TRUE(again.status.ok());
    EXPECT_FALSE(again.fresh);
    EXPECT_EQ(again.punched, first.punched);
    // setup_s reports the REMAINING handshake time: positive while the
    // fresh punch is still in flight, zero once it completed.
    EXPECT_LE(again.setup_s, first.setup_s);
    sim_.Hold(first.setup_s + 1e-9);
    EXPECT_DOUBLE_EQ(cloud_.p2p().Connect("s", 0, 1).setup_s, 0.0);
    // At the default 8% failure rate, a 20-worker all-pairs sweep must see
    // both outcomes, and the punched/failed split must replay exactly.
    int punched = 0, failed = 0;
    for (int32_t src = 0; src < 20; ++src) {
      for (int32_t dst = 0; dst < 20; ++dst) {
        if (src == dst) continue;
        const auto out = cloud_.p2p().Connect("s", src, dst);
        ASSERT_TRUE(out.status.ok());
        const auto replay = cloud_.p2p().Connect("s", src, dst);
        EXPECT_EQ(replay.punched, out.punched);
        (out.punched ? punched : failed)++;
      }
    }
    EXPECT_GT(punched, 0);
    EXPECT_GT(failed, 0);
    EXPECT_GT(punched, failed);  // failures are the minority at 8%
  });
}

TEST_F(CloudTest, P2pBillsConnectionsOnFreshPunchOnly) {
  ASSERT_TRUE(cloud_.p2p().CreateSession("s").ok());
  InProcess([&] {
    // Find one punched and (if present in the first few) repeat it.
    const auto out = cloud_.p2p().Connect("s", 0, 1);
    ASSERT_TRUE(out.status.ok());
    cloud_.p2p().Connect("s", 0, 1);
    cloud_.p2p().Connect("s", 0, 1);
    const auto& line = cloud_.billing().line(BillingDimension::kP2pConnection);
    // Successful fresh punches bill exactly once; failed punches bill
    // nothing (their penalty is relaying through the managed service).
    EXPECT_EQ(line.quantity, out.punched ? 1.0 : 0.0);
  });
}

TEST_F(CloudTest, P2pPunchIsMutualAndBillsOncePerPhysicalPair) {
  ASSERT_TRUE(cloud_.p2p().CreateSession("s").ok());
  InProcess([&] {
    // Punching is mutual: the reverse direction of an established pair is
    // the SAME physical link — same verdict, not fresh, and never a second
    // connection charge (the historical bug billed once per asking side).
    const auto forward = cloud_.p2p().Connect("s", 3, 7);
    ASSERT_TRUE(forward.status.ok());
    EXPECT_TRUE(forward.fresh);
    const auto reverse = cloud_.p2p().Connect("s", 7, 3);
    ASSERT_TRUE(reverse.status.ok());
    EXPECT_FALSE(reverse.fresh);
    EXPECT_EQ(reverse.punched, forward.punched);
    const auto& line = cloud_.billing().line(BillingDimension::kP2pConnection);
    EXPECT_EQ(line.quantity, forward.punched ? 1.0 : 0.0);
    // Verdicts are symmetric across a whole sweep, and asking from both
    // sides books exactly one connection per punched physical pair.
    int64_t punched_pairs = forward.punched ? 1 : 0;
    for (int32_t a = 0; a < 16; ++a) {
      for (int32_t b = a + 1; b < 16; ++b) {
        if (a == 3 && b == 7) continue;  // already established above
        const auto ab = cloud_.p2p().Connect("s", a, b);
        const auto ba = cloud_.p2p().Connect("s", b, a);
        ASSERT_TRUE(ab.status.ok());
        ASSERT_TRUE(ba.status.ok());
        EXPECT_TRUE(ab.fresh);
        EXPECT_FALSE(ba.fresh);
        EXPECT_EQ(ba.punched, ab.punched);
        if (ab.punched) ++punched_pairs;
      }
    }
    EXPECT_EQ(cloud_.billing().line(BillingDimension::kP2pConnection).quantity,
              static_cast<double>(punched_pairs));
    // A punched pair's link carries traffic in BOTH directions.
    int32_t a = -1, b = -1;
    for (int32_t d = 1; d < 16 && a < 0; ++d) {
      if (cloud_.p2p().Connect("s", 0, d).punched) {
        a = 0;
        b = d;
      }
    }
    ASSERT_GE(a, 0);
    EXPECT_TRUE(cloud_.p2p().Send("s", a, b, "fwd", Bytes{1}).status.ok());
    EXPECT_TRUE(cloud_.p2p().Send("s", b, a, "rev", Bytes{2}).status.ok());
  });
}

TEST_F(CloudTest, P2pSendDeliversAndBillsBytesOnly) {
  ASSERT_TRUE(cloud_.p2p().CreateSession("s").ok());
  InProcess([&] {
    // Locate a punched pair deterministically.
    int32_t dst = -1;
    for (int32_t d = 1; d < 32; ++d) {
      if (cloud_.p2p().Connect("s", 0, d).punched) {
        dst = d;
        break;
      }
    }
    ASSERT_GE(dst, 0) << "no punched pair in 31 tries at 8% failure";
    const auto sent = cloud_.p2p().Send("s", 0, dst, "inbox", Bytes(1000, 5));
    ASSERT_TRUE(sent.status.ok());
    EXPECT_GT(sent.latency, 0.0);
    sim_.Hold(sent.latency + 0.01);
    auto got = cloud_.p2p().BlockingPopAll("s", "inbox", 10, /*wait_s=*/1.0);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->size(), 1u);
    EXPECT_EQ((*got)[0], Bytes(1000, 5));
    EXPECT_EQ(cloud_.billing().line(BillingDimension::kP2pByte).quantity,
              1000.0);
    // Sends and pops carry NO per-request service charge: the kv/queue
    // request dimensions never moved.
    EXPECT_EQ(cloud_.billing().line(BillingDimension::kKvRequest).quantity,
              0.0);
    // A pair that never punched cannot use the fabric.
    int32_t unpunched = -1;
    for (int32_t d = 1; d < 256 && unpunched < 0; ++d) {
      if (!cloud_.p2p().Connect("s", 1, d).punched) unpunched = d;
    }
    ASSERT_GE(unpunched, 0);
    EXPECT_EQ(cloud_.p2p().Send("s", 1, unpunched, "x", Bytes{1}).status.code(),
              StatusCode::kFailedPrecondition);
  });
}

TEST_F(CloudTest, P2pDeleteSessionUnblocksWaiters) {
  ASSERT_TRUE(cloud_.p2p().CreateSession("s").ok());
  EXPECT_FALSE(cloud_.p2p().CreateSession("s").ok());  // AlreadyExists
  Status pop_status = Status::OK();
  sim_.AddProcess("consumer", [&] {
    auto got = cloud_.p2p().BlockingPopAll("s", "inbox", 10, /*wait_s=*/60.0);
    pop_status = got.status();
  });
  sim_.AddProcess("deleter", [&] {
    sim_.Hold(1.0);
    ASSERT_TRUE(cloud_.p2p().DeleteSession("s").ok());
  });
  sim_.Run();
  EXPECT_EQ(pop_status.code(), StatusCode::kNotFound) << pop_status.ToString();
  EXPECT_FALSE(cloud_.p2p().SessionExists("s"));
  EXPECT_EQ(sim_.live_processes(), 0);
}

}  // namespace
}  // namespace fsd::cloud
