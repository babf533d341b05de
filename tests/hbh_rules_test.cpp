// Rule-by-rule conformance tests for HbhRouter against Appendix A.
//
// A single router under test (B) sits on a line between the source side
// and the receiver side; we inject individual join/tree/fusion/data
// packets and assert B's exact table transitions and emissions, isolating
// each Appendix-A rule from full-protocol dynamics.
#include <gtest/gtest.h>

#include <memory>

#include "mcast/hbh/router.hpp"
#include "net/network.hpp"
#include "routing/unicast.hpp"
#include "sim/simulator.hpp"
#include "topo/builders.hpp"

namespace hbh::mcast::hbh {
namespace {

/// Records every transmission, queryable by type/target.
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
  [[nodiscard]] std::size_t count(net::PacketType type) const {
    std::size_t n = 0;
    for (const auto& s : sent) {
      if (s.packet.type == type) ++n;
    }
    return n;
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

// Topology: sh - n0 - B(n1) - n2 - {rh, r2h, r3h}.
//           All costs 1 and symmetric; every control path crosses B.
class HbhRules : public ::testing::Test {
 protected:
  void SetUp() override {
    topo = topo::make_line(3);
    sh = topo.add_node(net::NodeKind::kHost);
    rh = topo.add_node(net::NodeKind::kHost);
    r2h = topo.add_node(net::NodeKind::kHost);
    r3h = topo.add_node(net::NodeKind::kHost);
    topo.add_duplex(NodeId{0}, sh, net::LinkSpec{});
    topo.add_duplex(NodeId{2}, rh, net::LinkSpec{});
    topo.add_duplex(NodeId{2}, r2h, net::LinkSpec{});
    topo.add_duplex(NodeId{2}, r3h, net::LinkSpec{});
    routes = std::make_unique<routing::UnicastRouting>(topo);
    net = std::make_unique<net::Network>(sim, topo, *routes);
    b = static_cast<HbhRouter*>(
        &net->attach(NodeId{1}, std::make_unique<HbhRouter>(cfg)));
    net->add_tap(&tap);
    ch = net::Channel{net->address_of(sh), GroupAddr::ssm(1)};
    s_addr = net->address_of(sh);
    r_addr = net->address_of(rh);
    r2_addr = net->address_of(r2h);
    r3_addr = net->address_of(r3h);
    b_addr = net->address_of(NodeId{1});
  }

  void deliver_to_b(net::Packet p) {
    // Inject at n0 or n2 so the packet arrives at B over a real link.
    const NodeId origin = net->node_of(p.dst) == net->node_of(s_addr) ||
                                  p.dst == s_addr
                              ? NodeId{2}
                              : NodeId{0};
    net->send(origin, std::move(p));
    sim.run_for(5);
  }

  net::Packet join(Ipv4Addr r, bool first = false) {
    net::Packet p;
    p.src = r;
    p.dst = s_addr;
    p.channel = ch;
    p.type = net::PacketType::kJoin;
    p.payload = net::JoinPayload{r, first};
    return p;
  }

  net::Packet tree(Ipv4Addr target, std::uint32_t wave,
                   Ipv4Addr last_branch = kNoAddr) {
    net::Packet p;
    p.src = s_addr;
    p.dst = target;
    p.channel = ch;
    p.type = net::PacketType::kTree;
    p.payload = net::TreePayload{
        target, false, last_branch.unspecified() ? s_addr : last_branch, wave};
    return p;
  }

  net::Packet fusion(std::vector<Ipv4Addr> receivers, Ipv4Addr origin,
                     Ipv4Addr to) {
    net::Packet p;
    p.src = origin;
    p.dst = to;
    p.channel = ch;
    p.type = net::PacketType::kFusion;
    p.payload = net::FusionPayload{std::move(receivers), origin};
    return p;
  }

  /// Drives B into branching state with entries {r, r2} (rule T8).
  void make_branching() {
    deliver_to_b(tree(r_addr, 1));
    deliver_to_b(tree(r2_addr, 1));
    ASSERT_NE(b->state(ch), nullptr);
    ASSERT_TRUE(b->state(ch)->branching());
    tap.clear();
  }

  mcast::McastConfig cfg{};
  net::Topology topo;
  NodeId sh, rh, r2h, r3h;
  sim::Simulator sim;
  std::unique_ptr<routing::UnicastRouting> routes;
  std::unique_ptr<net::Network> net;
  HbhRouter* b = nullptr;
  Tap tap;
  net::Channel ch;
  Ipv4Addr s_addr, r_addr, r2_addr, r3_addr, b_addr;
};

TEST_F(HbhRules, J1_NoMftForwardsJoinUnchanged) {
  deliver_to_b(join(r_addr));
  // The join crossed B (n1 -> n0) unmodified, toward the source.
  EXPECT_EQ(tap.count_from(NodeId{1}, net::PacketType::kJoin), 1u);
  EXPECT_EQ(b->state(ch), nullptr);  // joins alone never create state
}

TEST_F(HbhRules, J2_UnknownReceiverForwardsJoin) {
  make_branching();
  const Ipv4Addr stranger{10, 9, 9, 1};
  deliver_to_b(join(stranger));
  ASSERT_EQ(tap.count_from(NodeId{1}, net::PacketType::kJoin), 1u);
  EXPECT_EQ(tap.sent.back().packet.join().receiver, stranger);
}

TEST_F(HbhRules, J3_KnownReceiverInterceptedSelfJoinEmitted) {
  make_branching();
  deliver_to_b(join(r_addr));
  // Exactly one join leaves B — join(S, B), not join(S, r).
  ASSERT_EQ(tap.count_from(NodeId{1}, net::PacketType::kJoin), 1u);
  for (const auto& s : tap.sent) {
    if (s.packet.type == net::PacketType::kJoin && s.from == NodeId{1}) {
      EXPECT_EQ(s.packet.join().receiver, b_addr);
    }
  }
}

TEST_F(HbhRules, J3_InterceptRefreshesEntry) {
  make_branching();
  sim.run_for(30);  // near t1: entry nearly stale
  deliver_to_b(join(r_addr));
  const auto* entry = b->state(ch)->mft->find(r_addr);
  ASSERT_NE(entry, nullptr);
  EXPECT_FALSE(entry->stale(sim.now()));
}

TEST_F(HbhRules, JFirst_FirstJoinNeverIntercepted) {
  make_branching();
  deliver_to_b(join(r_addr, /*first=*/true));
  ASSERT_EQ(tap.count_from(NodeId{1}, net::PacketType::kJoin), 1u);
  EXPECT_EQ(tap.sent.back().packet.join().receiver, r_addr);  // unchanged
}

TEST_F(HbhRules, T4_TreeCreatesMctAndForwards) {
  deliver_to_b(tree(r_addr, 1));
  const auto* st = b->state(ch);
  ASSERT_NE(st, nullptr);
  ASSERT_TRUE(st->mct.has_value());
  EXPECT_EQ(st->mct->target, r_addr);
  EXPECT_FALSE(st->branching());
  EXPECT_EQ(tap.count_from(NodeId{1}, net::PacketType::kTree), 1u);
}

TEST_F(HbhRules, T6_SameTargetRefreshesMct) {
  deliver_to_b(tree(r_addr, 1));
  sim.run_for(30);
  deliver_to_b(tree(r_addr, 2));
  const auto* st = b->state(ch);
  ASSERT_TRUE(st->mct.has_value());
  EXPECT_FALSE(st->mct->state.stale(sim.now()));
}

TEST_F(HbhRules, T7_StaleMctReplacedWithoutBranching) {
  deliver_to_b(tree(r_addr, 1));
  sim.run_for(40);  // > t1: MCT stale
  deliver_to_b(tree(r2_addr, 5));
  const auto* st = b->state(ch);
  ASSERT_TRUE(st->mct.has_value());
  EXPECT_EQ(st->mct->target, r2_addr);
  EXPECT_FALSE(st->branching());
}

TEST_F(HbhRules, T8_SecondLiveTargetBranchesAndFuses) {
  deliver_to_b(tree(r_addr, 1));
  deliver_to_b(tree(r2_addr, 1));
  const auto* st = b->state(ch);
  ASSERT_TRUE(st->branching());
  EXPECT_TRUE(st->mft->contains(r_addr));
  EXPECT_TRUE(st->mft->contains(r2_addr));
  EXPECT_FALSE(st->mct.has_value());
  // Fusion went upstream, addressed to the tree's last_branch (= S).
  ASSERT_EQ(tap.count_from(NodeId{1}, net::PacketType::kFusion), 1u);
  for (const auto& s : tap.sent) {
    if (s.packet.type == net::PacketType::kFusion) {
      EXPECT_EQ(s.packet.dst, s_addr);
      EXPECT_EQ(s.packet.fusion().origin, b_addr);
      EXPECT_EQ(s.packet.fusion().receivers.size(), 2u);
    }
  }
}

TEST_F(HbhRules, T2_PassingTreeForNewReceiverInsertsAndFuses) {
  make_branching();
  deliver_to_b(tree(r3_addr, 2));  // a receiver B has never heard of
  EXPECT_TRUE(b->state(ch)->mft->contains(r3_addr));
  EXPECT_EQ(tap.count_from(NodeId{1}, net::PacketType::kFusion), 1u);
}

TEST_F(HbhRules, T3_PassingTreeForKnownReceiverRefreshesAndFuses) {
  make_branching();
  sim.run_for(30);
  deliver_to_b(tree(r_addr, 4));
  EXPECT_FALSE(b->state(ch)->mft->find(r_addr)->stale(sim.now()));
  EXPECT_EQ(tap.count_from(NodeId{1}, net::PacketType::kFusion), 1u);
  // The forwarded tree now names B as the last branching node.
  for (const auto& s : tap.sent) {
    if (s.packet.type == net::PacketType::kTree && s.from == NodeId{1}) {
      EXPECT_EQ(s.packet.tree().last_branch, b_addr);
    }
  }
}

TEST_F(HbhRules, T1_SelfAddressedTreeReExpandsPerEntry) {
  make_branching();
  net::Packet t = tree(b_addr, 7);
  deliver_to_b(std::move(t));
  // One tree per (non-stale) entry: r and r2.
  EXPECT_EQ(tap.count_from(NodeId{1}, net::PacketType::kTree), 2u);
}

TEST_F(HbhRules, T1_WaveGateSuppressesDuplicateExpansion) {
  make_branching();
  deliver_to_b(tree(b_addr, 7));
  tap.clear();
  deliver_to_b(tree(b_addr, 7));  // same wave again (looped-back token)
  EXPECT_EQ(tap.count_from(NodeId{1}, net::PacketType::kTree), 0u);
  deliver_to_b(tree(b_addr, 8));  // next wave flows normally
  EXPECT_EQ(tap.count_from(NodeId{1}, net::PacketType::kTree), 2u);
}

TEST_F(HbhRules, T1_StaleEntryGetsNoTree) {
  make_branching();
  // Age r's entry to stale via time, refresh r2 via a passing tree.
  sim.run_for(40);
  deliver_to_b(tree(r2_addr, 9));
  tap.clear();
  deliver_to_b(tree(b_addr, 10));
  // Only r2 is non-stale -> exactly one re-emission.
  ASSERT_EQ(tap.count_from(NodeId{1}, net::PacketType::kTree), 1u);
  EXPECT_EQ(tap.sent.back().packet.tree().target, r2_addr);
}

TEST_F(HbhRules, WaveMemorySurvivesTableExpiry) {
  make_branching();
  deliver_to_b(tree(b_addr, 7));  // wave 7 re-expanded under T1
  sim.run_for(2 * cfg.t2);
  deliver_to_b(join(r_addr));  // a passing join purges the dead MFT
  ASSERT_EQ(b->state(ch), nullptr);

  // A reordered tree from an older wave still travels but stays inert:
  // no MCT is installed for it.
  tap.clear();
  deliver_to_b(tree(r_addr, 5));
  EXPECT_EQ(tap.count_from(NodeId{1}, net::PacketType::kTree), 1u);
  EXPECT_EQ(b->state(ch), nullptr);

  // Rebuilt on wave 7, B still remembers having re-expanded wave 7's token.
  deliver_to_b(tree(r_addr, 7));
  deliver_to_b(tree(r2_addr, 7));
  ASSERT_NE(b->state(ch), nullptr);
  ASSERT_TRUE(b->state(ch)->branching());
  tap.clear();
  deliver_to_b(tree(b_addr, 7));
  EXPECT_EQ(tap.count_from(NodeId{1}, net::PacketType::kTree), 0u);
  deliver_to_b(tree(b_addr, 8));
  EXPECT_EQ(tap.count_from(NodeId{1}, net::PacketType::kTree), 2u);
}

TEST_F(HbhRules, F1_FusionNotAddressedToBForwards) {
  make_branching();
  deliver_to_b(fusion({r_addr}, r2_addr, s_addr));
  EXPECT_EQ(tap.count_from(NodeId{1}, net::PacketType::kFusion), 1u);
  // And B's entries were NOT marked.
  EXPECT_FALSE(b->state(ch)->mft->find(r_addr)->marked());
}

TEST_F(HbhRules, F2F3_FusionMarksListedAndInsertsOrigin) {
  make_branching();
  const Ipv4Addr origin{10, 0, 2, 1};  // node n2's address
  deliver_to_b(fusion({r_addr}, origin, b_addr));
  const auto* st = b->state(ch);
  EXPECT_TRUE(st->mft->find(r_addr)->marked());
  EXPECT_FALSE(st->mft->find(r2_addr)->marked());
  const auto* bp = st->mft->find(origin);
  ASSERT_NE(bp, nullptr);
  EXPECT_TRUE(bp->stale(sim.now()));  // born stale: data yes, trees no
}

TEST_F(HbhRules, DataAddressedToBranchingNodeReplicates) {
  make_branching();
  net::Packet data;
  data.src = s_addr;
  data.dst = b_addr;
  data.channel = ch;
  data.type = net::PacketType::kData;
  data.payload = net::DataPayload{1, 0, sim.now(), false};
  deliver_to_b(std::move(data));
  EXPECT_EQ(tap.count_from(NodeId{1}, net::PacketType::kData), 2u);
}

TEST_F(HbhRules, DataSkipsMarkedEntries) {
  make_branching();
  const Ipv4Addr origin{10, 0, 2, 1};
  deliver_to_b(fusion({r_addr}, origin, b_addr));  // marks r, adds origin
  tap.clear();
  net::Packet data;
  data.src = s_addr;
  data.dst = b_addr;
  data.channel = ch;
  data.type = net::PacketType::kData;
  data.payload = net::DataPayload{2, 0, sim.now(), false};
  deliver_to_b(std::move(data));
  // Copies go to r2 (fresh) and origin (stale) but NOT to marked r.
  std::size_t copies = 0;
  for (const auto& s : tap.sent) {
    if (s.packet.type != net::PacketType::kData || s.from != NodeId{1}) {
      continue;
    }
    ++copies;
    EXPECT_NE(s.packet.dst, r_addr);
  }
  EXPECT_EQ(copies, 2u);
}

TEST_F(HbhRules, TransitDataIsPlainForwarded) {
  make_branching();
  net::Packet data;
  data.src = s_addr;
  data.dst = r_addr;  // addressed past B
  data.channel = ch;
  data.type = net::PacketType::kData;
  data.payload = net::DataPayload{3, 0, sim.now(), false};
  deliver_to_b(std::move(data));
  EXPECT_EQ(tap.count_from(NodeId{1}, net::PacketType::kData), 1u);
  EXPECT_EQ(tap.sent.back().packet.dst, r_addr);
}

}  // namespace
}  // namespace hbh::mcast::hbh
