// Rule-level tests for the PIM baseline router: oif installation and
// refresh, join propagation and root termination, RPF data replication,
// and register-tunnel decapsulation at the RP.
#include <gtest/gtest.h>

#include <memory>

#include "mcast/pim/router.hpp"
#include "net/network.hpp"
#include "routing/unicast.hpp"
#include "sim/simulator.hpp"
#include "topo/builders.hpp"

namespace hbh::mcast::pim {
namespace {

struct Tap : net::PacketTap {
  struct Seen {
    NodeId from;
    NodeId to;
    net::Packet packet;
  };
  std::vector<Seen> sent;
  void on_transmit(const net::Topology::Edge& e, const net::Packet& p,
                   Time) override {
    sent.push_back(Seen{e.from, e.to, p});
  }
  [[nodiscard]] std::size_t count_from(NodeId node,
                                       net::PacketType type) const {
    std::size_t n = 0;
    for (const auto& s : sent) {
      if (s.from == node && s.packet.type == type) ++n;
    }
    return n;
  }
  void clear() { sent.clear(); }
};

// Star: B(n0) center; neighbors n1..n3; hosts sh on n1, rh on n2, r2h on n3.
class PimRules : public ::testing::Test {
 protected:
  void SetUp() override {
    topo = topo::make_star(4);
    sh = topo.add_node(net::NodeKind::kHost);
    rh = topo.add_node(net::NodeKind::kHost);
    r2h = topo.add_node(net::NodeKind::kHost);
    topo.add_duplex(NodeId{1}, sh, net::LinkSpec{});
    topo.add_duplex(NodeId{2}, rh, net::LinkSpec{});
    topo.add_duplex(NodeId{3}, r2h, net::LinkSpec{});
    routes = std::make_unique<routing::UnicastRouting>(topo);
    net = std::make_unique<net::Network>(sim, topo, *routes);
    for (std::uint32_t i = 0; i < 4; ++i) {
      routers[i] = static_cast<PimRouter*>(
          &net->attach(NodeId{i}, std::make_unique<PimRouter>(cfg)));
    }
    net->add_tap(&tap);
    ch = net::Channel{net->address_of(sh), GroupAddr::ssm(1)};
  }

  net::Packet pim_join(Ipv4Addr root, NodeId from_host) {
    net::Packet p;
    p.src = net->address_of(from_host);
    p.dst = root;
    p.channel = ch;
    p.type = net::PacketType::kPimJoin;
    p.payload = net::PimJoinPayload{root, net->address_of(from_host)};
    return p;
  }

  mcast::McastConfig cfg{};
  net::Topology topo;
  NodeId sh, rh, r2h;
  sim::Simulator sim;
  std::unique_ptr<routing::UnicastRouting> routes;
  std::unique_ptr<net::Network> net;
  PimRouter* routers[4] = {};
  Tap tap;
  net::Channel ch;
};

TEST_F(PimRules, JoinInstallsOifTowardSender) {
  net->send(rh, pim_join(net->address_of(sh), rh));
  sim.run_for(10);
  // n2's oif points at the receiver host; n0 and n1 point back down the path.
  EXPECT_EQ(routers[2]->oifs(ch), std::vector<NodeId>{rh});
  EXPECT_EQ(routers[0]->oifs(ch), std::vector<NodeId>{NodeId{2}});
  EXPECT_EQ(routers[1]->oifs(ch), std::vector<NodeId>{NodeId{0}});
}

TEST_F(PimRules, JoinAddressedToRouterStopsThere) {
  // Shared-tree style: RP is router n0; the join must not travel past it.
  net->send(rh, pim_join(net->address_of(NodeId{0}), rh));
  sim.run_for(10);
  EXPECT_EQ(routers[0]->oifs(ch).size(), 1u);
  EXPECT_TRUE(routers[1]->oifs(ch).empty());
}

TEST_F(PimRules, OifExpiresWithoutRefresh) {
  net->send(rh, pim_join(net->address_of(sh), rh));
  sim.run_for(10);
  ASSERT_FALSE(routers[2]->oifs(ch).empty());
  sim.run_for(100);  // > t2 without refresh
  EXPECT_TRUE(routers[2]->oifs(ch).empty());
}

TEST_F(PimRules, RefreshKeepsOifAlive) {
  for (int i = 0; i < 12; ++i) {
    net->send(rh, pim_join(net->address_of(sh), rh));
    sim.run_for(10);
  }
  EXPECT_FALSE(routers[2]->oifs(ch).empty());
}

TEST_F(PimRules, GroupDataReplicatesToAllOifsExceptIncoming) {
  net->send(rh, pim_join(net->address_of(sh), rh));
  net->send(r2h, pim_join(net->address_of(sh), r2h));
  sim.run_for(10);
  tap.clear();

  net::Packet data;
  data.src = net->address_of(sh);
  data.dst = ch.group.addr();
  data.channel = ch;
  data.type = net::PacketType::kData;
  data.payload = net::DataPayload{1, 0, sim.now(), false};
  net->send_direct(NodeId{1}, NodeId{0}, std::move(data));
  sim.run_for(10);

  // n0 replicated to n2 and n3 (not back to n1).
  EXPECT_EQ(tap.count_from(NodeId{0}, net::PacketType::kData), 2u);
  for (const auto& s : tap.sent) {
    if (s.from == NodeId{0}) {
      EXPECT_NE(s.to, NodeId{1});
    }
  }
}

TEST_F(PimRules, RpDecapsulatesRegisterTunnel) {
  // n0 acts as RP: receivers joined toward it; encapsulated unicast data
  // addressed to n0 must be decapsulated and pushed down the tree.
  net->send(rh, pim_join(net->address_of(NodeId{0}), rh));
  sim.run_for(10);
  tap.clear();

  net::Packet reg;
  reg.src = net->address_of(sh);
  reg.dst = net->address_of(NodeId{0});
  reg.channel = ch;
  reg.type = net::PacketType::kData;
  reg.payload = net::DataPayload{2, 0, sim.now(), /*encapsulated=*/true};
  net->send(sh, std::move(reg));
  sim.run_for(10);

  bool group_addressed_seen = false;
  for (const auto& s : tap.sent) {
    if (s.from == NodeId{0} && s.packet.type == net::PacketType::kData) {
      EXPECT_EQ(s.packet.dst, ch.group.addr());
      EXPECT_FALSE(s.packet.data().encapsulated);
      group_addressed_seen = true;
    }
  }
  EXPECT_TRUE(group_addressed_seen);
}

TEST_F(PimRules, EncapsulatedTransitStaysUnicast) {
  // A register packet passing a non-RP router is plain unicast transit.
  net::Packet reg;
  reg.src = net->address_of(sh);
  reg.dst = net->address_of(NodeId{3});
  reg.channel = ch;
  reg.type = net::PacketType::kData;
  reg.payload = net::DataPayload{3, 0, sim.now(), true};
  net->send(sh, std::move(reg));
  sim.run_for(10);
  // It crossed n1 and n0 still encapsulated.
  for (const auto& s : tap.sent) {
    if (s.packet.type == net::PacketType::kData && s.from == NodeId{0}) {
      EXPECT_TRUE(s.packet.data().encapsulated);
    }
  }
}

TEST_F(PimRules, PruneRemovesOifImmediately) {
  net->send(rh, pim_join(net->address_of(sh), rh));
  sim.run_for(10);
  ASSERT_FALSE(routers[2]->oifs(ch).empty());

  net::Packet prune = pim_join(net->address_of(sh), rh);
  prune.type = net::PacketType::kPimPrune;
  net->send(rh, std::move(prune));
  sim.run_for(10);
  // The whole branch toward the root tore down, long before t2.
  EXPECT_TRUE(routers[2]->oifs(ch).empty());
  EXPECT_TRUE(routers[0]->oifs(ch).empty());
  EXPECT_TRUE(routers[1]->oifs(ch).empty());
}

TEST_F(PimRules, PruneStopsAtSharedBranchPoint) {
  // Two receivers; r1's prune must only remove its own branch: n0 keeps
  // the oif toward n3 (r2's side) and the prune never reaches n1.
  net->send(rh, pim_join(net->address_of(sh), rh));
  net->send(r2h, pim_join(net->address_of(sh), r2h));
  sim.run_for(10);
  ASSERT_EQ(routers[0]->oifs(ch).size(), 2u);

  net::Packet prune = pim_join(net->address_of(sh), rh);
  prune.type = net::PacketType::kPimPrune;
  net->send(rh, std::move(prune));
  sim.run_for(10);
  EXPECT_TRUE(routers[2]->oifs(ch).empty());
  EXPECT_EQ(routers[0]->oifs(ch), std::vector<NodeId>{NodeId{3}});
  EXPECT_FALSE(routers[1]->oifs(ch).empty());  // root side untouched
}

TEST_F(PimRules, PruneOverrideRejoinsWithinAPeriod) {
  // If a shared oif is pruned while another receiver still depends on it,
  // that receiver's next periodic join restores the branch.
  net->send(rh, pim_join(net->address_of(sh), rh));
  sim.run_for(10);
  net::Packet prune = pim_join(net->address_of(sh), rh);
  prune.type = net::PacketType::kPimPrune;
  net->send(rh, std::move(prune));
  sim.run_for(10);
  ASSERT_TRUE(routers[2]->oifs(ch).empty());
  net->send(rh, pim_join(net->address_of(sh), rh));  // rejoin
  sim.run_for(10);
  EXPECT_FALSE(routers[2]->oifs(ch).empty());
}

TEST_F(PimRules, GroupDataWithoutStateIsDropped) {
  net::Packet data;
  data.src = net->address_of(sh);
  data.dst = ch.group.addr();
  data.channel = ch;
  data.type = net::PacketType::kData;
  data.payload = net::DataPayload{4, 0, sim.now(), false};
  net->send_direct(NodeId{1}, NodeId{0}, std::move(data));
  sim.run_for(10);
  EXPECT_EQ(tap.count_from(NodeId{0}, net::PacketType::kData), 0u);
}

}  // namespace
}  // namespace hbh::mcast::pim
