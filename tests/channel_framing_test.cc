// Unit tests of the framing layer shared by the channel backends: frame
// header validation (ParseFrameHeader), the KV/direct inbox value codec,
// per-source completion tracking, and malformed headers arriving through
// a real receive loop, which must fail with a Status instead of stalling
// until the deadline or crediting the wrong worker.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cloud/cloud.h"
#include "codec/varint.h"
#include "common/strings.h"
#include "core/channel.h"
#include "core/kv_channel.h"
#include "core/queue_channel.h"

namespace fsd::core {
namespace {

constexpr uint64_t kInt32Max = std::numeric_limits<int32_t>::max();

Bytes Header(uint64_t source, uint64_t seq, uint64_t total) {
  Bytes out;
  codec::PutVarint64(&out, source);
  codec::PutVarint64(&out, seq);
  codec::PutVarint64(&out, total);
  return out;
}

TEST(ChannelFraming, ParseFrameHeaderAcceptsBoundaries) {
  auto frame = ParseFrameHeader(3, 4, 5, /*num_workers=*/4);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->source, 3);
  EXPECT_EQ(frame->seq, 4);
  EXPECT_EQ(frame->total, 5);
  EXPECT_TRUE(ParseFrameHeader(0, 0, 1, 1).ok());
  EXPECT_TRUE(ParseFrameHeader(0, kInt32Max - 1, kInt32Max, 1).ok());
}

TEST(ChannelFraming, ParseFrameHeaderRejectsOutOfRangeFields) {
  const struct {
    uint64_t source, seq, total;
    const char* why;
  } cases[] = {
      {0, 0, 0, "total 0"},
      {0, 1, 1, "seq == total"},
      {0, 7, 2, "seq past total"},
      {4, 0, 1, "source == num_workers"},
      {kInt32Max + 1, 0, 1, "source overflows int32"},
      {0, kInt32Max + 1, kInt32Max + 2, "seq overflows int32"},
      {0, 0, kInt32Max + 1, "total overflows int32"},
      {0, 0, std::numeric_limits<uint64_t>::max(), "total overflows int64"},
  };
  for (const auto& c : cases) {
    auto frame = ParseFrameHeader(c.source, c.seq, c.total, 4);
    ASSERT_FALSE(frame.ok()) << c.why;
    EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument) << c.why;
  }
  EXPECT_FALSE(ParseFrameHeader(0, 0, 1, /*num_workers=*/0).ok());
}

TEST(ChannelFraming, InboxValueRoundTrips) {
  Frame frame;
  frame.source = 300;  // multi-byte varint
  frame.seq = 2;
  frame.total = 3;
  frame.body = {9, 8, 7};
  const Bytes value = EncodeInboxValue(frame);
  EXPECT_EQ(value.size(), 2 + 1 + 1 + frame.body.size());
  auto decoded = DecodeInboxValue(value, /*num_workers=*/301);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->source, 300);
  EXPECT_EQ(decoded->seq, 2);
  EXPECT_EQ(decoded->total, 3);
  EXPECT_EQ(decoded->body, frame.body);
}

TEST(ChannelFraming, InboxValueRejectsTruncatedHeaders) {
  const Bytes full = Header(300, 1, 2);  // 2 + 1 + 1 bytes
  for (size_t len = 0; len < full.size(); ++len) {
    const Bytes prefix(full.begin(), full.begin() + len);
    EXPECT_FALSE(DecodeInboxValue(prefix, 400).ok()) << "prefix " << len;
  }
  EXPECT_TRUE(DecodeInboxValue(full, 400).ok());  // empty body is fine
  EXPECT_FALSE(DecodeInboxValue(Bytes{0x80}, 4).ok());  // dangling varint
}

TEST(ChannelFraming, InboxValueRejectsOutOfRangeHeaders) {
  EXPECT_FALSE(DecodeInboxValue(Header(kInt32Max + 1, 0, 1), 4).ok());
  EXPECT_FALSE(DecodeInboxValue(Header(0, 0, 0), 4).ok());
  EXPECT_FALSE(DecodeInboxValue(Header(0, 5, 2), 4).ok());
  EXPECT_FALSE(DecodeInboxValue(Header(4, 0, 1), 4).ok());
  EXPECT_TRUE(DecodeInboxValue(Header(3, 1, 2), 4).ok());
}

TEST(ChannelFraming, TrackerCompletesSourcesAndCountsRedundantFrames) {
  LayerMetrics metrics;
  FrameTracker tracker({0, 2}, &metrics);
  EXPECT_FALSE(tracker.done());
  EXPECT_TRUE(tracker.Accept(Frame{0, 1, 0, 2, Bytes(5)}));
  EXPECT_TRUE(tracker.pending(0));
  EXPECT_FALSE(tracker.Accept(Frame{1, 1, 0, 1, Bytes(7)}));  // not expected
  EXPECT_TRUE(tracker.Accept(Frame{0, 1, 1, 2, Bytes(3)}));
  EXPECT_FALSE(tracker.pending(0));
  EXPECT_FALSE(tracker.Accept(Frame{0, 1, 1, 2, Bytes(3)}));  // already done
  EXPECT_TRUE(tracker.Accept(Frame{2, 1, 0, 1, {}}));
  EXPECT_TRUE(tracker.done());
  EXPECT_EQ(metrics.redundant_skipped, 2);
  EXPECT_EQ(metrics.recv_wire_bytes, 8);
}

/// Runs one receive on worker 1 of a two-worker run after `inject` placed
/// raw bytes on its transport, and returns the receive's status.
Status ReceiveAfterInjecting(
    Variant variant,
    std::function<void(cloud::CloudEnv*, const FsdOptions&)> inject) {
  sim::Simulation sim;
  cloud::CloudEnv cloud(&sim);
  FsdOptions options;
  options.variant = variant;
  options.num_workers = 2;
  options.poll_wait_s = 0.5;
  options.kv_poll_wait_s = 0.5;
  FSD_CHECK_OK(ProvisionChannelResources(&cloud, options));
  WorkerMetrics metrics;
  Status status = Status::Internal("receiver never ran");
  cloud::FaasFunctionConfig fn;
  fn.name = "receiver";
  fn.memory_mb = 2048;
  fn.timeout_s = 60.0;
  fn.handler = [&](cloud::FaasContext* ctx) {
    inject(&cloud, options);
    std::unique_ptr<CommChannel> channel = MakeCommChannel(variant);
    WorkerEnv env;
    env.faas = ctx;
    env.cloud = &cloud;
    env.options = &options;
    env.metrics = &metrics;
    env.worker_id = 1;
    status = channel->ReceivePhase(&env, 0, {0}).status();
    ctx->set_result(Status::OK());
  };
  FSD_CHECK_OK(cloud.faas().RegisterFunction(fn));
  sim.AddProcess("kickoff",
                 [&cloud]() { cloud.faas().InvokeAsync("receiver", {}); });
  sim.Run();
  // A malformed header fails on arrival, long before the 60 s deadline.
  EXPECT_LT(sim.Now(), 10.0);
  return status;
}

/// A well-formed empty chunk (uncompressed tag, zero rows), so only the
/// header can make a receive fail.
const Bytes kEmptyChunk = {0, 0};

cloud::QueueMessage QueueFrame(int32_t source, int32_t seq, int32_t total) {
  cloud::QueueMessage msg;
  msg.body = kEmptyChunk;
  msg.attributes["target"] = "1";
  msg.attributes["src"] = StrFormat("%d", source);
  msg.attributes["phase"] = "0";
  msg.attributes["seq"] = StrFormat("%d", seq);
  msg.attributes["total"] = StrFormat("%d", total);
  return msg;
}

TEST(ChannelFraming, QueueReceiveRejectsMalformedAttributes) {
  std::vector<std::pair<std::string, cloud::QueueMessage>> cases;
  cases.emplace_back("total 0", QueueFrame(0, 0, 0));
  cases.emplace_back("source out of range", QueueFrame(5, 0, 1));
  cloud::QueueMessage missing = QueueFrame(0, 0, 1);
  missing.attributes.erase("src");
  cases.emplace_back("missing source", missing);
  cloud::QueueMessage garbled = QueueFrame(0, 0, 1);
  garbled.attributes["seq"] = "0x";
  cases.emplace_back("garbled seq", garbled);
  cloud::QueueMessage negative = QueueFrame(0, 0, 1);
  negative.attributes["phase"] = "-1";
  cases.emplace_back("negative phase", negative);
  for (const auto& [why, message] : cases) {
    const Status status = ReceiveAfterInjecting(
        Variant::kQueue, [&](cloud::CloudEnv* cloud, const FsdOptions& o) {
          FSD_CHECK_OK(cloud->queues().SendMessage(
              QueueChannel::QueueName(1, o), message));
        });
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << why;
  }
}

TEST(ChannelFraming, KvReceiveRejectsMalformedInboxValues) {
  const Bytes cases[] = {Header(0, 0, 0), Header(3, 0, 1), Header(0, 1, 1),
                         Bytes{0x80}};
  for (Bytes value : cases) {
    value.insert(value.end(), kEmptyChunk.begin(), kEmptyChunk.end());
    const Status status = ReceiveAfterInjecting(
        Variant::kKv, [&](cloud::CloudEnv* cloud, const FsdOptions& o) {
          cloud->kv().Push(KvChannel::NamespaceName(o),
                           KvChannel::InboxKey(0, 1), value);
        });
    EXPECT_FALSE(status.ok());
  }
}

TEST(ChannelFraming, QueueReceiveAcceptsWellFormedFrame) {
  const Status status = ReceiveAfterInjecting(
      Variant::kQueue, [](cloud::CloudEnv* cloud, const FsdOptions& o) {
        FSD_CHECK_OK(cloud->queues().SendMessage(
            QueueChannel::QueueName(1, o), QueueFrame(0, 0, 1)));
      });
  EXPECT_TRUE(status.ok()) << status.ToString();
}

}  // namespace
}  // namespace fsd::core
