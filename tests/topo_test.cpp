// Tests for topology builders, the ISP / random evaluation topologies, and
// — critically — the figure scenarios: the engineered costs must reproduce
// exactly the unicast routes the paper states for Figures 2, 3, and 5.
#include <gtest/gtest.h>

#include <cmath>

#include "routing/unicast.hpp"
#include "topo/builders.hpp"
#include "topo/isp.hpp"
#include "topo/random.hpp"
#include "topo/scenarios.hpp"

namespace hbh::topo {
namespace {

using net::NodeKind;
using routing::UnicastRouting;

TEST(BuildersTest, LineHasExpectedShape) {
  const auto t = make_line(5);
  EXPECT_EQ(t.node_count(), 5u);
  EXPECT_EQ(t.link_count(), 8u);  // 4 duplex
  EXPECT_EQ(t.degree(NodeId{0}), 1u);
  EXPECT_EQ(t.degree(NodeId{2}), 2u);
  EXPECT_TRUE(t.strongly_connected());
}

TEST(BuildersTest, RingClosesTheLoop) {
  const auto t = make_ring(6);
  EXPECT_EQ(t.link_count(), 12u);
  for (std::uint32_t i = 0; i < 6; ++i) EXPECT_EQ(t.degree(NodeId{i}), 2u);
}

TEST(BuildersTest, StarHubDegree) {
  const auto t = make_star(7);
  EXPECT_EQ(t.degree(NodeId{0}), 6u);
  EXPECT_EQ(t.degree(NodeId{3}), 1u);
}

TEST(BuildersTest, GridNeighborhoods) {
  const auto t = make_grid(3, 3);
  EXPECT_EQ(t.node_count(), 9u);
  EXPECT_EQ(t.link_count(), 24u);       // 12 duplex
  EXPECT_EQ(t.degree(NodeId{4}), 4u);   // center
  EXPECT_EQ(t.degree(NodeId{0}), 2u);   // corner
}

TEST(BuildersTest, FullMeshEveryPairLinked) {
  const auto t = make_full_mesh(5);
  EXPECT_EQ(t.link_count(), 20u);
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(t.degree(NodeId{i}), 4u);
}

TEST(BuildersTest, AttachHostsRecordsMapping) {
  auto t = make_line(3);
  const auto s = attach_hosts(std::move(t), {NodeId{0}, NodeId{1}, NodeId{2}},
                              /*source_index=*/1);
  EXPECT_EQ(s.topo.node_count(), 6u);
  EXPECT_EQ(s.hosts.size(), 3u);
  EXPECT_EQ(s.source_host, s.hosts[1]);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(s.topo.kind(s.hosts[i]), NodeKind::kHost);
    EXPECT_TRUE(s.topo.find_link(s.routers[i], s.hosts[i]).has_value());
    EXPECT_TRUE(s.topo.find_link(s.hosts[i], s.routers[i]).has_value());
  }
  const auto receivers = s.candidate_receivers();
  EXPECT_EQ(receivers.size(), 2u);
  for (const NodeId r : receivers) EXPECT_NE(r, s.source_host);
}

TEST(BuildersTest, RandomizeCostsStaysInRangeWithDelayEqualCost) {
  auto t = make_grid(4, 4);
  Rng rng{17};
  randomize_costs(t, rng);
  for (std::uint32_t i = 0; i < t.link_count(); ++i) {
    const auto& a = t.edge(LinkId{i}).link;
    EXPECT_GE(a.cost, 1.0);
    EXPECT_LE(a.cost, 10.0);
    EXPECT_DOUBLE_EQ(a.cost, a.delay);
    EXPECT_DOUBLE_EQ(a.cost, std::floor(a.cost));  // integer costs
  }
}

TEST(BuildersTest, RandomizeCostsIsSeedDeterministic) {
  auto t1 = make_grid(4, 4);
  auto t2 = make_grid(4, 4);
  Rng r1{99};
  Rng r2{99};
  randomize_costs(t1, r1);
  randomize_costs(t2, r2);
  for (std::uint32_t i = 0; i < t1.link_count(); ++i) {
    EXPECT_DOUBLE_EQ(t1.edge(LinkId{i}).link.cost,
                     t2.edge(LinkId{i}).link.cost);
  }
}

TEST(BuildersTest, RandomCostsProduceAsymmetry) {
  auto t = make_grid(4, 4);
  Rng rng{3};
  randomize_costs(t, rng);
  bool any_skew = false;
  for (std::uint32_t i = 0; i < t.link_count(); ++i) {
    const auto& e = t.edge(LinkId{i});
    const auto rev = t.find_link(e.to, e.from);
    ASSERT_TRUE(rev.has_value());
    if (t.edge(*rev).link.cost != e.link.cost) any_skew = true;
  }
  EXPECT_TRUE(any_skew);
}

TEST(BuildersTest, SymmetrizeCostsRemovesSkew) {
  auto t = make_grid(4, 4);
  Rng rng{3};
  randomize_costs(t, rng);
  symmetrize_costs(t);
  for (std::uint32_t i = 0; i < t.link_count(); ++i) {
    const auto& e = t.edge(LinkId{i});
    const auto rev = t.find_link(e.to, e.from);
    ASSERT_TRUE(rev.has_value());
    EXPECT_DOUBLE_EQ(t.edge(*rev).link.cost, e.link.cost);
  }
}

TEST(IspTest, MatchesPaperStatistics) {
  const Scenario isp = make_isp();
  EXPECT_EQ(isp.routers.size(), 18u);
  EXPECT_EQ(isp.hosts.size(), 18u);
  EXPECT_EQ(isp.topo.node_count(), 36u);
  // Paper: average router connectivity 3.3 (router-to-router links only).
  EXPECT_NEAR(isp.topo.average_router_degree(), 3.33, 0.05);
  EXPECT_TRUE(isp.topo.strongly_connected());
}

TEST(IspTest, NodeNumberingMatchesFigure6) {
  const Scenario isp = make_isp();
  // Nodes 0..17 routers, 18..35 hosts, source = node 18 on router 0.
  for (std::uint32_t i = 0; i < 18; ++i) {
    EXPECT_EQ(isp.topo.kind(NodeId{i}), NodeKind::kRouter);
    EXPECT_EQ(isp.topo.kind(NodeId{18 + i}), NodeKind::kHost);
  }
  EXPECT_EQ(isp.source_host, NodeId{18});
  EXPECT_TRUE(isp.topo.find_link(NodeId{0}, NodeId{18}).has_value());
  EXPECT_EQ(isp.candidate_receivers().size(), 17u);
}

TEST(RandomTopoTest, MeetsSizeAndDegreeTarget) {
  Rng rng{42};
  const Scenario s = make_random50(rng);
  EXPECT_EQ(s.routers.size(), 50u);
  EXPECT_EQ(s.hosts.size(), 50u);
  EXPECT_NEAR(s.topo.average_router_degree(), 8.6, 0.05);
  EXPECT_TRUE(s.topo.strongly_connected());
}

TEST(RandomTopoTest, SeedDeterminism) {
  Rng r1{7};
  Rng r2{7};
  const Scenario a = make_random50(r1);
  const Scenario b = make_random50(r2);
  ASSERT_EQ(a.topo.link_count(), b.topo.link_count());
  for (std::uint32_t i = 0; i < a.topo.link_count(); ++i) {
    EXPECT_EQ(a.topo.edge(LinkId{i}).from, b.topo.edge(LinkId{i}).from);
    EXPECT_EQ(a.topo.edge(LinkId{i}).to, b.topo.edge(LinkId{i}).to);
  }
}

TEST(RandomTopoTest, DifferentSeedsDiffer) {
  Rng r1{7};
  Rng r2{8};
  const Scenario a = make_random50(r1);
  const Scenario b = make_random50(r2);
  bool differs = false;
  for (std::uint32_t i = 0; i < a.topo.link_count() && !differs; ++i) {
    differs = a.topo.edge(LinkId{i}).from != b.topo.edge(LinkId{i}).from ||
              a.topo.edge(LinkId{i}).to != b.topo.edge(LinkId{i}).to;
  }
  EXPECT_TRUE(differs);
}

TEST(WaxmanTest, ConnectedAndSized) {
  Rng rng{9};
  const Scenario s = make_waxman(WaxmanParams{40, 0.3, 0.4}, rng);
  EXPECT_EQ(s.routers.size(), 40u);
  EXPECT_EQ(s.hosts.size(), 40u);
  EXPECT_TRUE(s.topo.strongly_connected());
}

TEST(WaxmanTest, DensityGrowsWithAlpha) {
  Rng r1{5};
  Rng r2{5};
  const Scenario sparse = make_waxman(WaxmanParams{40, 0.1, 0.4}, r1);
  const Scenario dense = make_waxman(WaxmanParams{40, 0.6, 0.4}, r2);
  EXPECT_LT(sparse.topo.average_router_degree(),
            dense.topo.average_router_degree());
}

TEST(WaxmanTest, SeedDeterministic) {
  Rng r1{77};
  Rng r2{77};
  const Scenario a = make_waxman(WaxmanParams{30, 0.3, 0.3}, r1);
  const Scenario b = make_waxman(WaxmanParams{30, 0.3, 0.3}, r2);
  EXPECT_EQ(a.topo.link_count(), b.topo.link_count());
}

TEST(WaxmanTest, PatchingHandlesUltraSparseDraws) {
  // alpha so small that the probabilistic phase yields almost no edges:
  // the connectivity patch must still produce a connected graph.
  Rng rng{4};
  const Scenario s = make_waxman(WaxmanParams{20, 0.01, 0.1}, rng);
  EXPECT_TRUE(s.topo.strongly_connected());
}

TEST(RandomTopoTest, SmallConfigurations) {
  Rng rng{1};
  const Scenario tiny = make_random(RandomTopoParams{4, 2.0}, rng);
  EXPECT_EQ(tiny.routers.size(), 4u);
  EXPECT_TRUE(tiny.topo.strongly_connected());
}

// --- Figure scenarios: the routes the paper states must hold exactly. ---

TEST(Fig2ScenarioTest, RoutesMatchPaper) {
  const Fig2Scenario f = make_fig2();
  const UnicastRouting routes{f.topo};
  // r1 -> H2 -> H1 -> S
  EXPECT_EQ(routes.path(f.r1, f.s),
            (std::vector<NodeId>{f.r1, f.h2, f.h1, f.s}));
  // S -> H1 -> H3 -> r1  (asymmetric with the above)
  EXPECT_EQ(routes.path(f.s, f.r1),
            (std::vector<NodeId>{f.s, f.h1, f.h3, f.r1}));
  // r2 -> H3 -> H1 -> S
  EXPECT_EQ(routes.path(f.r2, f.s),
            (std::vector<NodeId>{f.r2, f.h3, f.h1, f.s}));
  // S -> H4 -> r2
  EXPECT_EQ(routes.path(f.s, f.r2), (std::vector<NodeId>{f.s, f.h4, f.r2}));
}

TEST(Fig2ScenarioTest, R3RoutesAreSymmetricThroughH3) {
  const Fig2Scenario f = make_fig2();
  const UnicastRouting routes{f.topo};
  EXPECT_EQ(routes.path(f.s, f.r3),
            (std::vector<NodeId>{f.s, f.h1, f.h3, f.r3}));
  EXPECT_EQ(routes.path(f.r3, f.s),
            (std::vector<NodeId>{f.r3, f.h3, f.h1, f.s}));
}

TEST(Fig2ScenarioTest, TopologyIsConnected) {
  const Fig2Scenario f = make_fig2();
  EXPECT_TRUE(f.topo.strongly_connected());
}

TEST(Fig3ScenarioTest, RoutesMatchPaper) {
  const Fig3Scenario f = make_fig3();
  const UnicastRouting routes{f.topo};
  // r1 -> R4 -> R2 -> R1 -> S
  EXPECT_EQ(routes.path(f.r1, f.s),
            (std::vector<NodeId>{f.r1, f.w4, f.w2, f.w1, f.s}));
  // S -> R1 -> R6 -> R4 -> r1
  EXPECT_EQ(routes.path(f.s, f.r1),
            (std::vector<NodeId>{f.s, f.w1, f.w6, f.w4, f.r1}));
  // r2 -> R5 -> R3 -> R1 -> S
  EXPECT_EQ(routes.path(f.r2, f.s),
            (std::vector<NodeId>{f.r2, f.w5, f.w3, f.w1, f.s}));
  // S -> R1 -> R6 -> R5 -> r2 : both downstream paths share link R1-R6.
  EXPECT_EQ(routes.path(f.s, f.r2),
            (std::vector<NodeId>{f.s, f.w1, f.w6, f.w5, f.r2}));
}

TEST(Fig1ScenarioTest, SymmetricRoutesAndShape) {
  const Fig1Scenario f = make_fig1();
  const UnicastRouting routes{f.topo};
  EXPECT_TRUE(f.topo.strongly_connected());
  EXPECT_EQ(f.receivers().size(), 8u);
  // Symmetric costs: forward route is the reverse of the return route.
  for (const NodeId r : f.receivers()) {
    auto down = routes.path(f.s, r);
    auto up = routes.path(r, f.s);
    std::reverse(up.begin(), up.end());
    EXPECT_EQ(down, up);
  }
  // r1 hangs off the H1-H2-H4-H6 chain.
  EXPECT_EQ(routes.path(f.s, f.r1),
            (std::vector<NodeId>{f.s, f.h1, f.h2, f.h4, f.h6, f.r1}));
  // r8 hangs off H5.
  EXPECT_EQ(routes.path(f.s, f.r8),
            (std::vector<NodeId>{f.s, f.h1, f.h3, f.h5, f.r8}));
}

TEST(HotPotatoTest, RoutesHandOffAtNearestPeeringPoint) {
  const HotPotatoScenario h = make_hot_potato();
  const UnicastRouting routes{h.topo};
  // East-coast source to west-coast receiver: hand off EAST, cross on B.
  EXPECT_EQ(routes.path(h.src, h.rx_west),
            (std::vector<NodeId>{h.src, h.a1, h.b1, h.b2, h.b3, h.rx_west}));
  // Reverse direction: hand off WEST, cross on A — asymmetric routes.
  EXPECT_EQ(routes.path(h.rx_west, h.src),
            (std::vector<NodeId>{h.rx_west, h.b3, h.a3, h.a2, h.a1, h.src}));
}

TEST(HotPotatoTest, EastCoastPairIsSymmetric) {
  const HotPotatoScenario h = make_hot_potato();
  const UnicastRouting routes{h.topo};
  auto fwd = routes.path(h.src, h.rx_east);
  auto back = routes.path(h.rx_east, h.src);
  std::reverse(back.begin(), back.end());
  EXPECT_EQ(fwd, back);  // both cross at the east peering point
}

TEST(HotPotatoTest, AsymmetryReportSeesIt) {
  const HotPotatoScenario h = make_hot_potato();
  const UnicastRouting routes{h.topo};
  EXPECT_GT(routing::measure_asymmetry(routes).asymmetric_fraction(), 0.1);
}

TEST(ScenariosTest, AsymmetryReportFlagsFig2ButNotFig1) {
  const Fig2Scenario f2 = make_fig2();
  const UnicastRouting routes2{f2.topo};
  EXPECT_GT(routing::measure_asymmetry(routes2).asymmetric_pairs, 0u);

  const Fig1Scenario f1 = make_fig1();
  const UnicastRouting routes1{f1.topo};
  EXPECT_EQ(routing::measure_asymmetry(routes1).asymmetric_pairs, 0u);
}

}  // namespace
}  // namespace hbh::topo
