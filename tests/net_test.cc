// Tests for the simulated network: cost model, accounting, fan-out
// parallelism, failure injection.

#include <gtest/gtest.h>

#include "net/network.h"

namespace ssdb {
namespace {

/// Endpoint that echoes the request with a fixed-size padding.
class EchoEndpoint : public ProviderEndpoint {
 public:
  explicit EchoEndpoint(size_t pad, std::string name = "echo")
      : pad_(pad), name_(std::move(name)) {}
  Result<Buffer> Handle(Slice request) override {
    Buffer out;
    out.Append(request);
    for (size_t i = 0; i < pad_; ++i) out.PutU8(0);
    return out;
  }
  std::string name() const override { return name_; }

 private:
  size_t pad_;
  std::string name_;
};

/// Endpoint that always fails internally.
class FailingEndpoint : public ProviderEndpoint {
 public:
  Result<Buffer> Handle(Slice) override {
    return Status::Internal("endpoint exploded");
  }
  std::string name() const override { return "boom"; }
};

TEST(Network, CallRoundTripAndAccounting) {
  NetworkCostModel model;
  model.latency_us = 1000;
  model.bandwidth_bytes_per_us = 10.0;
  Network net(model);
  const size_t p = net.AddProvider(std::make_shared<EchoEndpoint>(90));

  Buffer req;
  for (int i = 0; i < 10; ++i) req.PutU8(1);
  auto resp = net.Call(p, req.AsSlice());
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->size(), 100u);

  const ChannelStats& stats = net.stats(p);
  EXPECT_EQ(stats.calls, 1u);
  EXPECT_EQ(stats.bytes_sent, 10u);
  EXPECT_EQ(stats.bytes_received, 100u);
  // 2 * 1000us latency + 110 bytes / 10 B/us = 2011 us.
  EXPECT_EQ(net.clock().now_us(), 2011u);
}

TEST(Network, FanOutChargesSlowestLegOnly) {
  NetworkCostModel model;
  model.latency_us = 500;
  model.bandwidth_bytes_per_us = 1.0;
  Network net(model);
  const size_t small = net.AddProvider(std::make_shared<EchoEndpoint>(0));
  const size_t big = net.AddProvider(std::make_shared<EchoEndpoint>(5000));

  Buffer req;
  req.PutU8(7);
  auto fan = net.CallManyDistinct({small, big}, {req, req});
  ASSERT_EQ(fan.responses.size(), 2u);
  EXPECT_TRUE(fan.responses[0].ok());
  EXPECT_TRUE(fan.responses[1].ok());
  // Slowest leg: 2*500 + (1 + 5001)/1.0 = 6002 us; the fast leg (1002us)
  // is absorbed.
  EXPECT_EQ(net.clock().now_us(), 6002u);
}

TEST(Network, DownProviderUnavailable) {
  Network net;
  const size_t p = net.AddProvider(std::make_shared<EchoEndpoint>(0));
  net.SetFailure(p, FailureMode::kDown);
  auto resp = net.Call(p, Slice("x"));
  EXPECT_TRUE(resp.status().IsUnavailable());
  EXPECT_EQ(net.stats(p).failures, 1u);
  net.SetFailure(p, FailureMode::kHealthy);
  EXPECT_TRUE(net.Call(p, Slice("x")).ok());
}

TEST(Network, CorruptResponseFlipsOneByte) {
  Network net;
  const size_t p = net.AddProvider(std::make_shared<EchoEndpoint>(0));
  net.SetFailure(p, FailureMode::kCorruptResponse);
  Buffer req;
  for (int i = 0; i < 32; ++i) req.PutU8(0xAA);
  auto resp = net.Call(p, req.AsSlice());
  ASSERT_TRUE(resp.ok());
  size_t diffs = 0;
  for (uint8_t b : *resp) {
    if (b != 0xAA) ++diffs;
  }
  EXPECT_EQ(diffs, 1u);
}

TEST(Network, DropSomeIsProbabilistic) {
  Network net;
  const size_t p = net.AddProvider(std::make_shared<EchoEndpoint>(0));
  net.SetFailure(p, FailureMode::kDropSome, 0.5);
  size_t ok = 0;
  for (int i = 0; i < 400; ++i) {
    if (net.Call(p, Slice("y")).ok()) ++ok;
  }
  EXPECT_GT(ok, 100u);
  EXPECT_LT(ok, 300u);
}

TEST(Network, EndpointErrorCountsAsFailure) {
  Network net;
  const size_t p = net.AddProvider(std::make_shared<FailingEndpoint>());
  auto resp = net.Call(p, Slice("z"));
  EXPECT_TRUE(resp.status().IsInternal());
  EXPECT_EQ(net.stats(p).failures, 1u);
}

TEST(Network, TotalStatsAggregate) {
  Network net;
  const size_t a = net.AddProvider(std::make_shared<EchoEndpoint>(10));
  const size_t b = net.AddProvider(std::make_shared<EchoEndpoint>(20));
  (void)net.Call(a, Slice("aa"));
  (void)net.Call(b, Slice("bb"));
  const ChannelStats total = net.TotalStats();
  EXPECT_EQ(total.calls, 2u);
  EXPECT_EQ(total.bytes_sent, 4u);
  EXPECT_EQ(total.bytes_received, 2u + 10u + 2u + 20u);
  net.ResetStats();
  EXPECT_EQ(net.TotalStats().calls, 0u);
}

TEST(Network, UnknownProviderRejected) {
  Network net;
  EXPECT_TRUE(net.Call(3, Slice("x")).status().IsInvalidArgument());
}

TEST(NetworkCostModel, TransferMath) {
  NetworkCostModel model;
  model.latency_us = 100;
  model.bandwidth_bytes_per_us = 2.0;
  EXPECT_EQ(model.TransferTimeUs(1000), 500u);
  EXPECT_EQ(model.RoundTripUs(100, 300), 2 * 100 + 200u);
}

}  // namespace
}  // namespace ssdb
