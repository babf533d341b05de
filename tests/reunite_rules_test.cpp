// Rule-by-rule conformance tests for ReuniteRouter (§2.1–2.3 and the
// fresh-bit anchoring semantics documented in DESIGN.md §5.0).
#include <gtest/gtest.h>

#include <memory>

#include "mcast/reunite/router.hpp"
#include "net/network.hpp"
#include "routing/unicast.hpp"
#include "sim/simulator.hpp"
#include "topo/builders.hpp"

namespace hbh::mcast::reunite {
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

// Topology: sh - n0 - B(n1) - n2 - {rh, r2h}.
class ReuniteRules : public ::testing::Test {
 protected:
  void SetUp() override {
    topo = topo::make_line(3);
    sh = topo.add_node(net::NodeKind::kHost);
    rh = topo.add_node(net::NodeKind::kHost);
    r2h = topo.add_node(net::NodeKind::kHost);
    topo.add_duplex(NodeId{0}, sh, net::LinkSpec{});
    topo.add_duplex(NodeId{2}, rh, net::LinkSpec{});
    topo.add_duplex(NodeId{2}, r2h, net::LinkSpec{});
    routes = std::make_unique<routing::UnicastRouting>(topo);
    net = std::make_unique<net::Network>(sim, topo, *routes);
    b = static_cast<ReuniteRouter*>(
        &net->attach(NodeId{1}, std::make_unique<ReuniteRouter>(cfg)));
    net->add_tap(&tap);
    ch = net::Channel{net->address_of(sh), GroupAddr::ssm(1)};
    s_addr = net->address_of(sh);
    r_addr = net->address_of(rh);
    r2_addr = net->address_of(r2h);
  }

  void inject(net::Packet p) {
    const NodeId origin = p.dst == s_addr ? NodeId{2} : NodeId{0};
    net->send(origin, std::move(p));
    sim.run_for(5);
  }

  net::Packet join(Ipv4Addr r, bool fresh) {
    net::Packet p;
    p.src = r;
    p.dst = s_addr;
    p.channel = ch;
    p.type = net::PacketType::kJoin;
    p.payload = net::JoinPayload{r, false, fresh};
    return p;
  }

  net::Packet tree(Ipv4Addr target, std::uint32_t wave, bool marked = false) {
    net::Packet p;
    p.src = s_addr;
    p.dst = target;
    p.channel = ch;
    p.type = net::PacketType::kTree;
    p.payload = net::TreePayload{target, marked, s_addr, wave};
    return p;
  }

  /// tree(S, r) installs MCT{r}; a fresh join(S, r2) then branches B.
  void make_branching() {
    inject(tree(r_addr, 1));
    inject(join(r2_addr, /*fresh=*/true));
    ASSERT_NE(b->state(ch), nullptr);
    ASSERT_TRUE(b->state(ch)->branching());
    tap.clear();
  }

  mcast::McastConfig cfg{};
  net::Topology topo;
  NodeId sh, rh, r2h;
  sim::Simulator sim;
  std::unique_ptr<routing::UnicastRouting> routes;
  std::unique_ptr<net::Network> net;
  ReuniteRouter* b = nullptr;
  Tap tap;
  net::Channel ch;
  Ipv4Addr s_addr, r_addr, r2_addr;
};

TEST_F(ReuniteRules, TreeInstallsMct) {
  inject(tree(r_addr, 1));
  const auto* st = b->state(ch);
  ASSERT_NE(st, nullptr);
  ASSERT_TRUE(st->mct.has_value());
  EXPECT_EQ(st->mct->target, r_addr);
}

TEST_F(ReuniteRules, FreshJoinAtLiveMctBranches) {
  inject(tree(r_addr, 1));
  inject(join(r2_addr, /*fresh=*/true));
  const auto* st = b->state(ch);
  ASSERT_TRUE(st->branching());
  EXPECT_EQ(st->mft->dst, r_addr);              // passing flow's receiver
  EXPECT_TRUE(st->mft->entries.contains(r2_addr));
  EXPECT_FALSE(st->mct.has_value());
  // The join was dropped, not forwarded.
  EXPECT_EQ(tap.count_from(NodeId{1}, net::PacketType::kJoin), 0u);
}

TEST_F(ReuniteRules, RefreshJoinAtMctForwards) {
  inject(tree(r_addr, 1));
  inject(join(r2_addr, /*fresh=*/false));
  EXPECT_FALSE(b->state(ch)->branching());
  EXPECT_EQ(tap.count_from(NodeId{1}, net::PacketType::kJoin), 1u);
}

TEST_F(ReuniteRules, OwnTargetJoinAtMctForwards) {
  // The MCT target's own joins must travel to its anchor (the source).
  inject(tree(r_addr, 1));
  inject(join(r_addr, /*fresh=*/false));
  EXPECT_FALSE(b->state(ch)->branching());
  EXPECT_EQ(tap.count_from(NodeId{1}, net::PacketType::kJoin), 1u);
}

TEST_F(ReuniteRules, DstJoinForwardsThroughBranchingNode) {
  make_branching();
  inject(join(r_addr, /*fresh=*/false));
  EXPECT_EQ(tap.count_from(NodeId{1}, net::PacketType::kJoin), 1u);
}

TEST_F(ReuniteRules, EntryJoinInterceptedAndRefreshed) {
  make_branching();
  sim.run_for(20);  // age, but keep the dst entry below its t1 horizon
  inject(tree(r_addr, 2));  // refresh dst so the MFT still intercepts
  inject(join(r2_addr, /*fresh=*/false));
  EXPECT_EQ(tap.count_from(NodeId{1}, net::PacketType::kJoin), 0u);
  EXPECT_FALSE(
      b->state(ch)->mft->entries.at(r2_addr).stale(sim.now()));
}

TEST_F(ReuniteRules, FreshJoinAtLiveMftAddsEntry) {
  make_branching();
  const Ipv4Addr r3{10, 0, 9, 1};
  inject(join(r3, /*fresh=*/true));
  EXPECT_TRUE(b->state(ch)->mft->entries.contains(r3));
  EXPECT_EQ(tap.count_from(NodeId{1}, net::PacketType::kJoin), 0u);
}

TEST_F(ReuniteRules, RefreshJoinForUnknownReceiverForwards) {
  make_branching();
  const Ipv4Addr r3{10, 0, 9, 1};
  inject(join(r3, /*fresh=*/false));
  EXPECT_FALSE(b->state(ch)->mft->entries.contains(r3));
  EXPECT_EQ(tap.count_from(NodeId{1}, net::PacketType::kJoin), 1u);
}

TEST_F(ReuniteRules, StaleMftStopsIntercepting) {
  make_branching();
  sim.run_for(40);  // dst entry past t1 (no refreshing trees injected)
  inject(join(r2_addr, /*fresh=*/false));
  // Fig. 2c: the join passes through and will re-anchor upstream.
  EXPECT_EQ(tap.count_from(NodeId{1}, net::PacketType::kJoin), 1u);
}

TEST_F(ReuniteRules, DstTreeRefreshesAndReplicatesPerEntry) {
  make_branching();
  inject(tree(r_addr, 2));
  // One replica toward r2 plus the forwarded original toward r.
  EXPECT_EQ(tap.count_from(NodeId{1}, net::PacketType::kTree), 2u);
  EXPECT_FALSE(b->state(ch)->mft->dst_state.stale(sim.now()));
}

TEST_F(ReuniteRules, WaveGateSuppressesDuplicateReplication) {
  make_branching();
  inject(tree(r_addr, 2));
  tap.clear();
  inject(tree(r_addr, 2));  // same wave: forwarded but not re-replicated
  EXPECT_EQ(tap.count_from(NodeId{1}, net::PacketType::kTree), 1u);
}

TEST_F(ReuniteRules, MarkedTreeStalesDstWithoutT2Refresh) {
  make_branching();
  inject(tree(r_addr, 2, /*marked=*/true));
  const auto* st = b->state(ch);
  ASSERT_TRUE(st->branching());
  EXPECT_TRUE(st->mft->dst_state.stale(sim.now()));
}

TEST_F(ReuniteRules, MarkedTreeDestroysMatchingMct) {
  inject(tree(r_addr, 1));
  ASSERT_TRUE(b->state(ch)->mct.has_value());
  inject(tree(r_addr, 2, /*marked=*/true));
  EXPECT_EQ(b->state(ch), nullptr);
}

TEST_F(ReuniteRules, ForeignBranchTreeForwardedUntouched) {
  make_branching();
  inject(tree(r2_addr, 3));  // r2 != dst: transit only
  EXPECT_EQ(tap.count_from(NodeId{1}, net::PacketType::kTree), 1u);
  EXPECT_EQ(tap.sent.back().packet.tree().target, r2_addr);
}

TEST_F(ReuniteRules, DstDataReplicatedToEntries) {
  make_branching();
  net::Packet data;
  data.src = s_addr;
  data.dst = r_addr;  // == MFT.dst
  data.channel = ch;
  data.type = net::PacketType::kData;
  data.payload = net::DataPayload{1, 0, sim.now(), false};
  inject(std::move(data));
  // Original toward r plus one copy toward r2.
  EXPECT_EQ(tap.count_from(NodeId{1}, net::PacketType::kData), 2u);
}

TEST_F(ReuniteRules, NonDstDataPlainForwarded) {
  make_branching();
  net::Packet data;
  data.src = s_addr;
  data.dst = r2_addr;  // a copy addressed to an entry, passing through
  data.channel = ch;
  data.type = net::PacketType::kData;
  data.payload = net::DataPayload{2, 0, sim.now(), false};
  inject(std::move(data));
  EXPECT_EQ(tap.count_from(NodeId{1}, net::PacketType::kData), 1u);
}

TEST_F(ReuniteRules, ReplicationGuardStopsLoopedBackData) {
  make_branching();
  for (int i = 0; i < 2; ++i) {
    net::Packet data;
    data.src = s_addr;
    data.dst = r_addr;
    data.channel = ch;
    data.type = net::PacketType::kData;
    data.payload = net::DataPayload{7, 3, sim.now(), false};  // same probe/seq
    inject(std::move(data));
  }
  // First pass: original + copy. Second pass: original forwarded only.
  EXPECT_EQ(tap.count_from(NodeId{1}, net::PacketType::kData), 3u);
}

}  // namespace
}  // namespace hbh::mcast::reunite
