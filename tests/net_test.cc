// Unit tests for the network link model and RPC transport.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>

#include "net/link.h"
#include "rpc/rpc.h"

namespace netstore {
namespace {

using net::Direction;
using net::Link;
using net::LinkConfig;

TEST(LinkTest, CountsMessagesAndBytes) {
  sim::Env env;
  Link link(env, LinkConfig{});
  link.send(Direction::kClientToServer, 1000);
  link.send(Direction::kClientToServer, 2000);
  link.send(Direction::kServerToClient, 500);
  EXPECT_EQ(link.stats(Direction::kClientToServer).messages.value(), 2u);
  EXPECT_EQ(link.stats(Direction::kClientToServer).bytes.value(), 3000u);
  EXPECT_EQ(link.stats(Direction::kServerToClient).messages.value(), 1u);
  EXPECT_EQ(link.total_messages(), 3u);
  EXPECT_EQ(link.total_bytes(), 3500u);
}

TEST(LinkTest, ArrivalIncludesPropagationAndWireTime) {
  sim::Env env;
  LinkConfig cfg;
  cfg.base_rtt = sim::milliseconds(2);
  cfg.bandwidth_bytes_per_sec = 1e6;  // 1 MB/s: 1000 bytes = 1 ms
  cfg.per_message_overhead = 0;
  Link link(env, cfg);
  const sim::Time arrival = link.send(Direction::kClientToServer, 1000);
  // 1 ms wire + 1 ms one-way propagation.
  EXPECT_EQ(arrival, sim::milliseconds(2));
}

TEST(LinkTest, SenderSerializesOnBandwidth) {
  sim::Env env;
  LinkConfig cfg;
  cfg.base_rtt = 0;
  cfg.bandwidth_bytes_per_sec = 1e6;
  cfg.per_message_overhead = 0;
  Link link(env, cfg);
  const sim::Time a1 = link.send(Direction::kClientToServer, 1000);
  const sim::Time a2 = link.send(Direction::kClientToServer, 1000);
  EXPECT_EQ(a1, sim::milliseconds(1));
  EXPECT_EQ(a2, sim::milliseconds(2));  // queued behind the first
}

TEST(LinkTest, DirectionsAreIndependent) {
  sim::Env env;
  LinkConfig cfg;
  cfg.base_rtt = 0;
  cfg.bandwidth_bytes_per_sec = 1e6;
  cfg.per_message_overhead = 0;
  Link link(env, cfg);
  (void)link.send(Direction::kClientToServer, 1000);
  const sim::Time other = link.send(Direction::kServerToClient, 1000);
  EXPECT_EQ(other, sim::milliseconds(1));  // no queueing across directions
}

TEST(LinkTest, InjectedRttStretchesDelay) {
  sim::Env env;
  LinkConfig cfg;
  cfg.base_rtt = sim::milliseconds(1);
  cfg.per_message_overhead = 0;
  Link link(env, cfg);
  const sim::Time base = link.send(Direction::kClientToServer, 10);
  link.set_injected_rtt(sim::milliseconds(50));
  const sim::Time wan = link.send(Direction::kClientToServer, 10);
  EXPECT_GE(wan - base, sim::milliseconds(25));
  EXPECT_EQ(link.rtt(), sim::milliseconds(51));
}

TEST(LinkTest, LossDropsButStillCounts) {
  sim::Env env;
  Link link(env, LinkConfig{});
  link.set_loss_probability(1.0);
  sim::Rng rng(1);
  EXPECT_EQ(link.send_lossy(Direction::kClientToServer, 100, rng), -1);
  EXPECT_EQ(link.total_messages(), 1u);
}

TEST(RpcTest, SyncCallAdvancesToReply) {
  sim::Env env;
  Link link(env, LinkConfig{});
  rpc::RpcTransport rpc(env, link, rpc::RpcConfig{});
  bool served = false;
  rpc.call(100, 200, [&](sim::Time arrival) {
    served = true;
    return arrival + sim::microseconds(50);
  });
  EXPECT_TRUE(served);
  EXPECT_GT(env.now(), 0);
  EXPECT_EQ(rpc.stats().calls.value(), 1u);
  EXPECT_EQ(link.total_messages(), 2u);  // request + reply
}

TEST(RpcTest, AsyncCallDoesNotAdvance) {
  sim::Env env;
  Link link(env, LinkConfig{});
  rpc::RpcTransport rpc(env, link, rpc::RpcConfig{});
  const sim::Time reply =
      rpc.call_async(100, 200, [&](sim::Time arrival) { return arrival; });
  EXPECT_EQ(env.now(), 0);
  EXPECT_GT(reply, 0);
}

TEST(RpcTest, NoRetransmissionsOnLan) {
  sim::Env env;
  Link link(env, LinkConfig{});
  rpc::RpcTransport rpc(env, link, rpc::RpcConfig{});
  for (int i = 0; i < 50; ++i) {
    rpc.call(100, 100, [](sim::Time t) { return t; });
  }
  EXPECT_EQ(rpc.stats().retransmissions.value(), 0u);
}

// The Linux idiosyncrasy behind Figure 6: RTT near/above the
// retransmission timer triggers duplicate requests although the reply is
// in flight.  Pins the closed form against the 70 ms timer: one duplicate
// per elapsed timeout, capped at two by backoff; each duplicate costs one
// request message and delays completion by retrans_penalty; and none of
// it schedules an event.
struct RetransCase {
  std::int64_t rtt_ms;
  std::uint64_t duplicates;
};

// Names each case by its RTT in the test list ("/90ms").
void PrintTo(const RetransCase& c, std::ostream* os) {
  *os << c.rtt_ms << "ms";
}

class RpcRetransTest : public ::testing::TestWithParam<RetransCase> {};

TEST_P(RpcRetransTest, SpuriousRetransmissionsAtHighRtt) {
  const RetransCase c = GetParam();
  LinkConfig lcfg;
  lcfg.injected_rtt = sim::milliseconds(c.rtt_ms);
  rpc::RpcConfig rcfg;
  rcfg.retrans_timeout = sim::milliseconds(70);
  const auto serve = [](sim::Time t) { return t; };

  // Reference: the same call with the retransmission timer off.
  sim::Env ref_env;
  Link ref_link(ref_env, lcfg);
  rpc::RpcConfig no_timer = rcfg;
  no_timer.retrans_timeout = 0;
  rpc::RpcTransport(ref_env, ref_link, no_timer).call(100, 100, serve);

  sim::Env env;
  Link link(env, lcfg);
  rpc::RpcTransport rpc(env, link, rcfg);
  rpc.call(100, 100, serve);

  EXPECT_EQ(rpc.stats().retransmissions.value(), c.duplicates);
  // request + duplicates + reply
  EXPECT_EQ(link.total_messages(), 2 + c.duplicates);
  EXPECT_EQ(env.now(),
            ref_env.now() + static_cast<sim::Duration>(c.duplicates) *
                                rcfg.retrans_penalty);
  EXPECT_EQ(env.pending_events(), 0u);
  EXPECT_EQ(env.timer_stats().scheduled.value(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    InjectedRtt, RpcRetransTest,
    ::testing::Values(RetransCase{90, 1}, RetransCase{150, 2},
                      RetransCase{300, 2}));

}  // namespace
}  // namespace netstore
