// Tests for the receiver-host membership agent: join emission cadence,
// first-join flagging, leave semantics, and delivery recording.
#include <gtest/gtest.h>

#include <memory>

#include "mcast/common/membership.hpp"
#include "net/network.hpp"
#include "routing/unicast.hpp"
#include "sim/simulator.hpp"
#include "topo/builders.hpp"

namespace hbh::mcast {
namespace {

/// Records every packet crossing the fabric.
struct JoinSpy : net::PacketTap {
  std::vector<net::Packet> joins;
  std::vector<net::Packet> pim_joins;
  void on_transmit(const net::Topology::Edge& e, const net::Packet& p,
                   Time) override {
    // Count each join once: on its first hop (from the host).
    if (e.from.index() != 2) return;  // host node is index 2 (see fixture)
    if (p.type == net::PacketType::kJoin) joins.push_back(p);
    if (p.type == net::PacketType::kPimJoin) pim_joins.push_back(p);
  }
};

struct Fixture {
  // 0 (source-ish) - 1 - host 2. Receiver host is node 2.
  net::Topology topo = topo::make_line(2);
  NodeId host;
  sim::Simulator sim;
  std::unique_ptr<routing::UnicastRouting> routes;
  std::unique_ptr<net::Network> net;
  ReceiverHost* receiver = nullptr;
  JoinSpy spy;
  net::Channel channel;

  explicit Fixture(JoinStyle style = JoinStyle::kSourceJoin) {
    host = topo.add_node(net::NodeKind::kHost);
    topo.add_duplex(NodeId{1}, host, net::LinkSpec{});
    routes = std::make_unique<routing::UnicastRouting>(topo);
    net = std::make_unique<net::Network>(sim, topo, *routes);
    receiver = static_cast<ReceiverHost*>(&net->attach(
        host, std::make_unique<ReceiverHost>(style, McastConfig{})));
    net->add_tap(&spy);
    channel = net::Channel{net->address_of(NodeId{0}), GroupAddr::ssm(7)};
    net->start();
  }
};

TEST(ReceiverHostTest, FirstJoinIsImmediateAndFlagged) {
  Fixture f;
  f.receiver->subscribe(f.channel);
  f.sim.run_for(1);
  ASSERT_EQ(f.spy.joins.size(), 1u);
  EXPECT_TRUE(f.spy.joins[0].join().first);
  EXPECT_EQ(f.spy.joins[0].join().receiver, f.net->address_of(f.host));
  EXPECT_EQ(f.spy.joins[0].dst, f.channel.source);
}

TEST(ReceiverHostTest, RefreshesEveryPeriodUnflagged) {
  Fixture f;
  f.receiver->subscribe(f.channel);
  f.sim.run_for(35);  // t=0 first join, refreshes at 10, 20, 30
  ASSERT_EQ(f.spy.joins.size(), 4u);
  for (std::size_t i = 1; i < f.spy.joins.size(); ++i) {
    EXPECT_FALSE(f.spy.joins[i].join().first);
  }
}

TEST(ReceiverHostTest, UnsubscribeStopsRefreshes) {
  Fixture f;
  f.receiver->subscribe(f.channel);
  f.sim.run_for(15);
  const std::size_t sent = f.spy.joins.size();
  f.receiver->unsubscribe(f.channel);
  f.sim.run_for(100);
  EXPECT_EQ(f.spy.joins.size(), sent);
  EXPECT_FALSE(f.receiver->subscribed(f.channel));
}

TEST(ReceiverHostTest, DoubleSubscribeIsIdempotent) {
  Fixture f;
  f.receiver->subscribe(f.channel);
  f.receiver->subscribe(f.channel);
  f.sim.run_for(1);
  EXPECT_EQ(f.spy.joins.size(), 1u);
}

TEST(ReceiverHostTest, PimStyleSendsPimJoinTowardRoot) {
  Fixture f{JoinStyle::kPimJoin};
  const Ipv4Addr rp = f.net->address_of(NodeId{1});
  f.receiver->subscribe(f.channel, rp);
  f.sim.run_for(1);
  ASSERT_EQ(f.spy.pim_joins.size(), 1u);
  EXPECT_EQ(f.spy.pim_joins[0].dst, rp);
  EXPECT_EQ(f.spy.pim_joins[0].pim_join().root, rp);
}

TEST(ReceiverHostTest, PimStyleDefaultsRootToSource) {
  Fixture f{JoinStyle::kPimJoin};
  f.receiver->subscribe(f.channel);  // no explicit root
  f.sim.run_for(1);
  ASSERT_EQ(f.spy.pim_joins.size(), 1u);
  EXPECT_EQ(f.spy.pim_joins[0].dst, f.channel.source);
}

TEST(ReceiverHostTest, RecordsSubscribedDataDeliveries) {
  Fixture f;
  f.receiver->subscribe(f.channel);
  net::Packet data;
  data.src = f.channel.source;
  data.dst = f.net->address_of(f.host);
  data.channel = f.channel;
  data.type = net::PacketType::kData;
  data.payload = net::DataPayload{42, 7, 0.0, false};
  f.net->send(NodeId{0}, std::move(data));
  f.sim.run_for(10);
  ASSERT_EQ(f.receiver->deliveries().size(), 1u);
  EXPECT_EQ(f.receiver->deliveries()[0].probe, 42u);
  EXPECT_EQ(f.receiver->deliveries()[0].seq, 7u);
  // Two hops from node 0: router link (delay 1) + access link (delay 1).
  EXPECT_DOUBLE_EQ(f.receiver->deliveries()[0].received_at, 2.0);
}

TEST(ReceiverHostTest, IgnoresDataWhenNotSubscribed) {
  Fixture f;
  net::Packet data;
  data.src = f.channel.source;
  data.dst = f.net->address_of(f.host);
  data.channel = f.channel;
  data.type = net::PacketType::kData;
  data.payload = net::DataPayload{};
  f.net->send(NodeId{0}, std::move(data));
  f.sim.run_for(10);
  EXPECT_TRUE(f.receiver->deliveries().empty());
}

TEST(ReceiverHostTest, SinkObserverIsNotified) {
  struct CountingSink : DeliverySink {
    int count = 0;
    void on_data(NodeId, const net::Packet&, Time) override { ++count; }
  };
  Fixture f;
  CountingSink sink;
  f.receiver->subscribe(f.channel);
  f.receiver->set_sink(&sink);
  net::Packet data;
  data.src = f.channel.source;
  data.dst = f.net->address_of(f.host);
  data.channel = f.channel;
  data.type = net::PacketType::kData;
  data.payload = net::DataPayload{};
  f.net->send(NodeId{0}, std::move(data));
  f.sim.run_for(10);
  EXPECT_EQ(sink.count, 1);
}

TEST(ReceiverHostTest, ControlPacketsAddressedToHostAreConsumed) {
  Fixture f;
  net::Packet tree;
  tree.src = f.channel.source;
  tree.dst = f.net->address_of(f.host);
  tree.channel = f.channel;
  tree.type = net::PacketType::kTree;
  tree.payload = net::TreePayload{f.net->address_of(f.host), false, {}};
  f.net->send(NodeId{0}, std::move(tree));
  f.sim.run_for(10);
  // Nothing recorded, nothing forwarded back out (no bounce).
  EXPECT_TRUE(f.receiver->deliveries().empty());
  EXPECT_EQ(f.net->counters().drops_no_route, 0u);
}

TEST(ReceiverHostTest, FreshBitTracksTreeConnectivity) {
  Fixture f;
  f.receiver->subscribe(f.channel);
  f.sim.run_for(1);
  // No tree(S, r) seen yet: the receiver is disconnected -> joins fresh.
  ASSERT_FALSE(f.spy.joins.empty());
  EXPECT_TRUE(f.spy.joins.back().join().fresh);
  EXPECT_FALSE(f.receiver->connected(f.channel));

  // A tree message addressed to the receiver marks it connected.
  net::Packet tree;
  tree.src = f.channel.source;
  tree.dst = f.net->address_of(f.host);
  tree.channel = f.channel;
  tree.type = net::PacketType::kTree;
  tree.payload = net::TreePayload{f.net->address_of(f.host), false, {}, 1};
  f.net->send(NodeId{0}, std::move(tree));
  f.sim.run_for(10);
  EXPECT_TRUE(f.receiver->connected(f.channel));
  EXPECT_FALSE(f.spy.joins.back().join().fresh);

  // Connectivity decays if tree messages stop (~2.5 periods).
  f.sim.run_for(40);
  EXPECT_FALSE(f.receiver->connected(f.channel));
  EXPECT_TRUE(f.spy.joins.back().join().fresh);
}

TEST(ReceiverHostTest, ForeignChannelTreeDoesNotConnect) {
  Fixture f;
  f.receiver->subscribe(f.channel);
  net::Packet tree;
  tree.src = f.channel.source;
  tree.dst = f.net->address_of(f.host);
  tree.channel = net::Channel{f.channel.source, GroupAddr::ssm(99)};
  tree.type = net::PacketType::kTree;
  tree.payload = net::TreePayload{f.net->address_of(f.host), false, {}, 1};
  f.net->send(NodeId{0}, std::move(tree));
  f.sim.run_for(10);
  EXPECT_FALSE(f.receiver->connected(f.channel));
}

TEST(ReceiverHostTest, ClearDeliveriesResetsLog) {
  Fixture f;
  f.receiver->subscribe(f.channel);
  net::Packet data;
  data.src = f.channel.source;
  data.dst = f.net->address_of(f.host);
  data.channel = f.channel;
  data.type = net::PacketType::kData;
  data.payload = net::DataPayload{};
  f.net->send(NodeId{0}, std::move(data));
  f.sim.run_for(10);
  ASSERT_FALSE(f.receiver->deliveries().empty());
  f.receiver->clear_deliveries();
  EXPECT_TRUE(f.receiver->deliveries().empty());
}

}  // namespace
}  // namespace hbh::mcast
