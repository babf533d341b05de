// Tests for the HBH <-> IP-Multicast leaf boundary: an IgmpLeafRouter
// proxies any number of local IGMP members into a single upstream HBH
// membership, keeping the backbone tree independent of local fan-out.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mcast/common/membership.hpp"
#include "mcast/hbh/igmp_leaf.hpp"
#include "mcast/hbh/source.hpp"
#include "net/network.hpp"
#include "routing/unicast.hpp"
#include "sim/simulator.hpp"
#include "topo/builders.hpp"

namespace hbh::mcast::hbh {
namespace {

std::vector<Ipv4Addr> data_targets(const Mft& mft, Time now) {
  std::vector<Ipv4Addr> out;
  mft.for_each_data_target(now, [&](Ipv4Addr t) { out.push_back(t); });
  return out;
}

struct Tap : net::PacketTap {
  std::map<std::pair<NodeId, NodeId>, std::size_t> data_per_link;
  std::size_t joins_from_leaf = 0;
  NodeId leaf;
  void on_transmit(const net::Topology::Edge& e, const net::Packet& p,
                   Time) override {
    if (p.type == net::PacketType::kData) {
      ++data_per_link[{e.from, e.to}];
    }
    if (p.type == net::PacketType::kJoin && e.from == leaf) {
      ++joins_from_leaf;
    }
  }
};

// sh - n0 - n1(leaf) with k member hosts on n1.
class IgmpLeaf : public ::testing::Test {
 protected:
  void SetUp() override {
    topo = topo::make_line(2);
    sh = topo.add_node(net::NodeKind::kHost);
    topo.add_duplex(NodeId{0}, sh, net::LinkSpec{});
    for (int i = 0; i < 3; ++i) {
      const NodeId h = topo.add_node(net::NodeKind::kHost);
      topo.add_duplex(NodeId{1}, h, net::LinkSpec{});
      hosts.push_back(h);
    }
    routes = std::make_unique<routing::UnicastRouting>(topo);
    net = std::make_unique<net::Network>(sim, topo, *routes);
    tap.leaf = NodeId{1};
    net->add_tap(&tap);
    ch = net::Channel{net->address_of(sh), GroupAddr::ssm(1)};
    source = static_cast<HbhSource*>(
        &net->attach(sh, std::make_unique<HbhSource>(ch, cfg)));
    leaf = static_cast<IgmpLeafRouter*>(
        &net->attach(NodeId{1}, std::make_unique<IgmpLeafRouter>(cfg)));
    net->attach(NodeId{0}, std::make_unique<HbhRouter>(cfg));
    for (const NodeId h : hosts) {
      members.push_back(static_cast<ReceiverHost*>(&net->attach(
          h, std::make_unique<ReceiverHost>(JoinStyle::kPimJoin, cfg))));
    }
    net->start();
  }

  /// Subscribes host i via an IGMP-style report to the leaf router.
  void igmp_join(std::size_t i) {
    members[i]->subscribe(ch, net->address_of(NodeId{1}));
  }
  void igmp_leave(std::size_t i) { members[i]->unsubscribe(ch); }

  McastConfig cfg{};
  net::Topology topo;
  NodeId sh;
  std::vector<NodeId> hosts;
  sim::Simulator sim;
  std::unique_ptr<routing::UnicastRouting> routes;
  std::unique_ptr<net::Network> net;
  Tap tap;
  net::Channel ch;
  HbhSource* source = nullptr;
  IgmpLeafRouter* leaf = nullptr;
  std::vector<ReceiverHost*> members;
};

TEST_F(IgmpLeaf, SingleUpstreamMembershipForManyLocalMembers) {
  igmp_join(0);
  igmp_join(1);
  igmp_join(2);
  sim.run_for(30);
  EXPECT_TRUE(leaf->upstream_member(ch));
  EXPECT_EQ(leaf->local_members(ch).size(), 3u);
  // The source sees exactly one receiver: the leaf router itself.
  const auto targets = data_targets(source->mft(), sim.now());
  ASSERT_EQ(targets.size(), 1u);
  EXPECT_EQ(targets[0], net->address_of(NodeId{1}));
}

TEST_F(IgmpLeaf, DataFansOutLocallyExactlyOnce) {
  igmp_join(0);
  igmp_join(1);
  igmp_join(2);
  sim.run_for(30);
  source->send_data(1, 0);
  sim.run_for(20);
  for (const auto* m : members) {
    EXPECT_EQ(m->deliveries().size(), 1u);
  }
  // Backbone links carry exactly ONE copy regardless of local fan-out.
  EXPECT_EQ((tap.data_per_link[{NodeId{0}, NodeId{1}}]), 1u);
  // Each member link carries exactly one copy.
  for (const NodeId h : hosts) {
    EXPECT_EQ((tap.data_per_link[{NodeId{1}, h}]), 1u);
  }
}

TEST_F(IgmpLeaf, BackboneCostIndependentOfMemberCount) {
  igmp_join(0);
  sim.run_for(30);
  source->send_data(1, 0);
  sim.run_for(20);
  const std::size_t backbone_one = tap.data_per_link[{NodeId{0}, NodeId{1}}];

  igmp_join(1);
  igmp_join(2);
  sim.run_for(30);
  source->send_data(2, 1);
  sim.run_for(20);
  const std::size_t backbone_three =
      tap.data_per_link[{NodeId{0}, NodeId{1}}] - backbone_one;
  EXPECT_EQ(backbone_one, 1u);
  EXPECT_EQ(backbone_three, 1u);  // §4.1's claim, by construction
}

TEST_F(IgmpLeaf, LastLeaveTearsDownUpstreamMembership) {
  igmp_join(0);
  igmp_join(1);
  sim.run_for(30);
  ASSERT_TRUE(leaf->upstream_member(ch));
  igmp_leave(0);
  sim.run_for(5);
  EXPECT_TRUE(leaf->upstream_member(ch));  // member 1 still there
  igmp_leave(1);
  sim.run_for(5);
  EXPECT_FALSE(leaf->upstream_member(ch));
  // Upstream soft state ages out; the source eventually has no members.
  sim.run_for(150);
  EXPECT_FALSE(source->has_members());
}

TEST_F(IgmpLeaf, MemberExpiresWithoutIgmpRefresh) {
  // Reports refresh membership like any soft state: silence past t2 ages
  // a member out even without an explicit leave.
  igmp_join(0);
  sim.run_for(15);
  members[0]->unsubscribe(ch);  // stops reports; prune handled as leave
  sim.run_for(5);
  EXPECT_TRUE(leaf->local_members(ch).empty());
}

TEST_F(IgmpLeaf, DataWithNoMembersIsNotForwardedLocally) {
  igmp_join(0);
  sim.run_for(30);
  igmp_leave(0);
  sim.run_for(120);  // upstream membership ages out at the source
  tap.data_per_link.clear();
  source->send_data(9, 0);
  sim.run_for(20);
  for (const NodeId h : hosts) {
    EXPECT_EQ((tap.data_per_link[{NodeId{1}, h}]), 0u);
  }
}

}  // namespace
}  // namespace hbh::mcast::hbh
