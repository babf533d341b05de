// Unit tests for Dijkstra SPF, all-pairs unicast routing, and the
// asymmetry analysis used throughout the paper reproduction.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>

#include "net/topology.hpp"
#include "routing/dijkstra.hpp"
#include "routing/unicast.hpp"

namespace hbh::routing {
namespace {

using net::LinkSpec;
using net::Topology;

// A 4-node diamond:   0 --1-- 1 --1-- 3
//                      \--5-- 2 --1--/
Topology diamond() {
  Topology t;
  for (int i = 0; i < 4; ++i) t.add_node();
  t.add_duplex(NodeId{0}, NodeId{1}, LinkSpec{});
  t.add_duplex(NodeId{1}, NodeId{3}, LinkSpec{});
  t.add_duplex(NodeId{0}, NodeId{2}, LinkSpec{.cost = 5, .delay = 5});
  t.add_duplex(NodeId{2}, NodeId{3}, LinkSpec{});
  return t;
}

// The link a->b of `t`, which the test expects to exist.
LinkId link(const Topology& t, std::uint32_t a, std::uint32_t b) {
  const auto l = t.find_link(NodeId{a}, NodeId{b});
  EXPECT_TRUE(l.has_value());
  return l.value_or(kNoLink);
}

TEST(DijkstraTest, PicksCheapestPath) {
  const Topology t = diamond();
  const SpfResult spf = dijkstra(t, NodeId{0});
  EXPECT_DOUBLE_EQ(spf.dist[3], 2.0);           // via node 1
  EXPECT_EQ(spf.parent_link[3], link(t, 1, 3));
  EXPECT_EQ(spf.first_link[3], link(t, 0, 1));
  EXPECT_DOUBLE_EQ(spf.dist[2], 3.0);           // 0->1->3->2 beats direct 5
  EXPECT_EQ(spf.first_link[2], link(t, 0, 1));
  EXPECT_EQ(spf.parent_link[2], link(t, 3, 2));
}

TEST(DijkstraTest, RootHasZeroDistanceAndNoParent) {
  const Topology t = diamond();
  const SpfResult spf = dijkstra(t, NodeId{0});
  EXPECT_DOUBLE_EQ(spf.dist[0], 0.0);
  EXPECT_EQ(spf.parent_link[0], kNoLink);
  EXPECT_EQ(spf.first_link[0], kNoLink);
}

TEST(DijkstraTest, UnreachableNodesAreInfinite) {
  Topology t;
  t.add_node();
  t.add_node();
  const SpfResult spf = dijkstra(t, NodeId{0});
  EXPECT_FALSE(spf.reachable(NodeId{1}));
  EXPECT_EQ(spf.dist[1], kUnreachable);
}

TEST(DijkstraTest, RespectsEdgeDirection) {
  Topology t;
  const NodeId a = t.add_node();
  const NodeId b = t.add_node();
  t.add_link(a, b, LinkSpec{});
  EXPECT_TRUE(dijkstra(t, a).reachable(b));
  EXPECT_FALSE(dijkstra(t, b).reachable(a));
}

TEST(DijkstraTest, DelayAccumulatesAlongChosenPath) {
  Topology t;
  for (int i = 0; i < 3; ++i) t.add_node();
  // cost favors 0->1->2; delays differ from costs.
  t.add_link(NodeId{0}, NodeId{1}, LinkSpec{.cost = 1, .delay = 10});
  t.add_link(NodeId{1}, NodeId{2}, LinkSpec{.cost = 1, .delay = 20});
  t.add_link(NodeId{0}, NodeId{2}, LinkSpec{.cost = 5, .delay = 1});
  const SpfResult spf = dijkstra(t, NodeId{0});
  EXPECT_DOUBLE_EQ(spf.dist[2], 2.0);
  EXPECT_DOUBLE_EQ(spf.delay[2], 30.0);  // delay of the *cost-chosen* path
}

TEST(DijkstraTest, CustomMetricChangesRoutes) {
  Topology t;
  for (int i = 0; i < 3; ++i) t.add_node();
  t.add_link(NodeId{0}, NodeId{1}, LinkSpec{.cost = 1, .delay = 10});
  t.add_link(NodeId{1}, NodeId{2}, LinkSpec{.cost = 1, .delay = 20});
  t.add_link(NodeId{0}, NodeId{2}, LinkSpec{.cost = 5, .delay = 1});
  const SpfResult by_delay = dijkstra(t, NodeId{0}, delay_metric());
  EXPECT_EQ(by_delay.first_link[2], link(t, 0, 2));  // direct link wins on delay
  EXPECT_DOUBLE_EQ(by_delay.delay[2], 1.0);
}

TEST(DijkstraTest, DeterministicOnEqualCostPaths) {
  Topology t;
  for (int i = 0; i < 4; ++i) t.add_node();
  t.add_duplex(NodeId{0}, NodeId{1}, LinkSpec{});
  t.add_duplex(NodeId{0}, NodeId{2}, LinkSpec{});
  t.add_duplex(NodeId{1}, NodeId{3}, LinkSpec{});
  t.add_duplex(NodeId{2}, NodeId{3}, LinkSpec{});
  const SpfResult a = dijkstra(t, NodeId{0});
  const SpfResult b = dijkstra(t, NodeId{0});
  EXPECT_EQ(a.first_link[3], b.first_link[3]);
  EXPECT_EQ(a.parent_link[3], b.parent_link[3]);
}

TEST(UnicastRoutingTest, NextHopChainsReachDestination) {
  const Topology t = diamond();
  const UnicastRouting routes{t};
  NodeId at{0};
  int hops = 0;
  while (at != NodeId{3}) {
    at = routes.next_hop(at, NodeId{3});
    ASSERT_TRUE(at.valid());
    ASSERT_LE(++hops, 4);
  }
  EXPECT_EQ(hops, 2);
}

TEST(UnicastRoutingTest, PathEndpointsInclusive) {
  const Topology t = diamond();
  const UnicastRouting routes{t};
  const auto p = routes.path(NodeId{0}, NodeId{3});
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p.front(), NodeId{0});
  EXPECT_EQ(p[1], NodeId{1});
  EXPECT_EQ(p.back(), NodeId{3});
}

TEST(UnicastRoutingTest, PathToSelfIsSingleton) {
  const Topology t = diamond();
  const UnicastRouting routes{t};
  const auto p = routes.path(NodeId{2}, NodeId{2});
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p[0], NodeId{2});
  EXPECT_EQ(routes.next_hop(NodeId{2}, NodeId{2}), kNoNode);
}

TEST(UnicastRoutingTest, PathToUnreachableIsEmpty) {
  Topology t;
  t.add_node();
  t.add_node();
  const UnicastRouting routes{t};
  EXPECT_TRUE(routes.path(NodeId{0}, NodeId{1}).empty());
  EXPECT_FALSE(routes.reachable(NodeId{0}, NodeId{1}));
}

TEST(UnicastRoutingTest, AsymmetricCostsYieldAsymmetricRoutes) {
  // 0->1 direct is cheap, 1->0 direct is expensive so 1 routes via 2.
  Topology t;
  for (int i = 0; i < 3; ++i) t.add_node();
  t.add_duplex(NodeId{0}, NodeId{1}, LinkSpec{},
               LinkSpec{.cost = 10, .delay = 10});
  t.add_duplex(NodeId{1}, NodeId{2}, LinkSpec{.cost = 2, .delay = 2});
  t.add_duplex(NodeId{2}, NodeId{0}, LinkSpec{.cost = 2, .delay = 2});
  const UnicastRouting routes{t};
  const auto fwd = routes.path(NodeId{0}, NodeId{1});
  const auto back = routes.path(NodeId{1}, NodeId{0});
  ASSERT_EQ(fwd.size(), 2u);   // 0 -> 1 direct
  ASSERT_EQ(back.size(), 3u);  // 1 -> 2 -> 0
  EXPECT_DOUBLE_EQ(routes.distance(NodeId{0}, NodeId{1}), 1.0);
  EXPECT_DOUBLE_EQ(routes.distance(NodeId{1}, NodeId{0}), 4.0);
}

TEST(UnicastRoutingTest, PathDelayMatchesManualSum) {
  const Topology t = diamond();
  const UnicastRouting routes{t};
  EXPECT_DOUBLE_EQ(routes.path_delay(NodeId{0}, NodeId{3}), 2.0);
  EXPECT_DOUBLE_EQ(routes.path_delay(NodeId{0}, NodeId{2}), 3.0);
}

TEST(UnicastRoutingTest, HopByHopConsistency) {
  // Property: for every pair, next_hop at each node along the path agrees
  // with the path itself (destination-based forwarding is loop-free).
  const Topology t = diamond();
  const UnicastRouting routes{t};
  for (std::uint32_t a = 0; a < t.node_count(); ++a) {
    for (std::uint32_t b = 0; b < t.node_count(); ++b) {
      if (a == b) continue;
      const auto p = routes.path(NodeId{a}, NodeId{b});
      for (std::size_t i = 0; i + 1 < p.size(); ++i) {
        EXPECT_EQ(routes.next_hop(p[i], NodeId{b}), p[i + 1]);
      }
    }
  }
}

TEST(UnicastRoutingTest, SpfComputationIsLazyPerRoot) {
  const Topology t = diamond();
  const UnicastRouting routes{t};
  EXPECT_EQ(routes.spf_computations(), 0u);  // construction runs no SPF
  (void)routes.distance(NodeId{0}, NodeId{3});
  EXPECT_EQ(routes.spf_computations(), 1u);  // first query builds root 0
  (void)routes.path(NodeId{0}, NodeId{2});
  EXPECT_EQ(routes.spf_computations(), 1u);  // same root: cached
  (void)routes.next_hop(NodeId{1}, NodeId{3});
  EXPECT_EQ(routes.spf_computations(), 2u);  // new root
}

TEST(UnicastRoutingTest, InvalidateRecomputesOnlyQueriedRoots) {
  Topology t = diamond();
  UnicastRouting routes{t};
  EXPECT_DOUBLE_EQ(routes.distance(NodeId{0}, NodeId{3}), 2.0);  // via 1
  const std::uint64_t before = routes.topology_epoch();

  // Take the cheap 0->1 edge down; stale routes persist until invalidate.
  const auto link = t.find_link(NodeId{0}, NodeId{1});
  ASSERT_TRUE(link.has_value());
  t.set_link_up(*link, false);
  EXPECT_DOUBLE_EQ(routes.distance(NodeId{0}, NodeId{3}), 2.0);  // stale

  routes.invalidate();
  EXPECT_GT(routes.topology_epoch(), before);
  EXPECT_DOUBLE_EQ(routes.distance(NodeId{0}, NodeId{3}), 6.0);  // via 2
  // Only root 0 was re-queried, so only root 0 recomputed: 1 (initial)
  // + 1 (post-invalidate) SPFs for root 0, none for any other root.
  EXPECT_EQ(routes.spf_computations(), 2u);
}

TEST(UnicastRoutingTest, SharedTableBuildsEachRootOnce) {
  // Two identical copies of a topology attached to one table: a root one
  // instance built is a cache hit for the other.
  const Topology t1 = diamond();
  const Topology t2 = diamond();
  auto table = std::make_shared<SpfTable>(t1, cost_metric());
  const UnicastRouting a{t1, table};
  const UnicastRouting b{t2, table};
  EXPECT_EQ(a.next_hop(NodeId{0}, NodeId{3}), NodeId{1});
  EXPECT_EQ(a.spf_computations(), 1u);
  EXPECT_EQ(b.next_hop(NodeId{0}, NodeId{3}), NodeId{1});
  EXPECT_DOUBLE_EQ(b.distance(NodeId{0}, NodeId{2}), 3.0);
  EXPECT_EQ(b.spf_computations(), 0u);  // root 0 came from a
  EXPECT_EQ(b.first_link(NodeId{0}, NodeId{3}),
            t2.find_link(NodeId{0}, NodeId{1}));
}

TEST(UnicastRoutingTest, InvalidateOnSharedTableLeavesSiblingUntouched) {
  // Copy-on-invalidate: a cost change plus invalidate() on one instance
  // detaches it onto a private table; the sibling keeps its answers and
  // triggers no recompute.
  Topology t1 = diamond();
  const Topology t2 = diamond();
  auto table = std::make_shared<SpfTable>(t1, cost_metric());
  UnicastRouting changed{t1, table};
  const UnicastRouting sibling{t2, table};
  for (std::uint32_t r = 0; r < 4; ++r) (void)sibling.spf(NodeId{r});
  const std::uint64_t sibling_runs = sibling.spf_computations();
  EXPECT_EQ(sibling_runs, 4u);

  // Make 0->1 expensive in t1 only: 0 now reaches 3 through 2.
  for (const auto& [a, b] : {std::pair{0u, 1u}, std::pair{1u, 0u}}) {
    const auto l = t1.find_link(NodeId{a}, NodeId{b});
    ASSERT_TRUE(l.has_value());
    t1.set_cost_delay(*l, 10, 10);
  }
  changed.invalidate();
  EXPECT_EQ(changed.next_hop(NodeId{0}, NodeId{3}), NodeId{2});
  EXPECT_DOUBLE_EQ(changed.distance(NodeId{0}, NodeId{3}), 6.0);
  EXPECT_EQ(changed.spf_computations(), 1u);

  EXPECT_EQ(sibling.next_hop(NodeId{0}, NodeId{3}), NodeId{1});
  EXPECT_DOUBLE_EQ(sibling.distance(NodeId{0}, NodeId{3}), 2.0);
  EXPECT_DOUBLE_EQ(sibling.distance(NodeId{1}, NodeId{0}), 1.0);
  EXPECT_EQ(sibling.spf_computations(), sibling_runs);
  // The table left behind is still the sibling's: its trees stay cached.
  EXPECT_EQ(table.use_count(), 2);  // `table` + sibling
}

TEST(UnicastRoutingTest, InvalidateOnPrivateTableReusesIt) {
  Topology t = diamond();
  UnicastRouting routes{t};
  EXPECT_EQ(routes.next_hop(NodeId{0}, NodeId{3}), NodeId{1});
  const auto l = t.find_link(NodeId{0}, NodeId{1});
  ASSERT_TRUE(l.has_value());
  t.set_cost_delay(*l, 10, 10);
  routes.invalidate();
  EXPECT_EQ(routes.next_hop(NodeId{0}, NodeId{3}), NodeId{2});
  EXPECT_EQ(routes.spf_computations(), 2u);
}

TEST(AsymmetryTest, SymmetricTopologyHasNoAsymmetry) {
  const Topology t = diamond();
  const UnicastRouting routes{t};
  const auto report = measure_asymmetry(routes);
  EXPECT_EQ(report.asymmetric_pairs, 0u);
  EXPECT_DOUBLE_EQ(report.asymmetric_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(report.max_cost_skew, 0.0);
}

TEST(AsymmetryTest, DetectsAsymmetricPairs) {
  Topology t;
  for (int i = 0; i < 3; ++i) t.add_node();
  t.add_duplex(NodeId{0}, NodeId{1}, LinkSpec{},
               LinkSpec{.cost = 10, .delay = 10});
  t.add_duplex(NodeId{1}, NodeId{2}, LinkSpec{.cost = 2, .delay = 2});
  t.add_duplex(NodeId{2}, NodeId{0}, LinkSpec{.cost = 2, .delay = 2});
  const UnicastRouting routes{t};
  const auto report = measure_asymmetry(routes);
  EXPECT_GT(report.asymmetric_pairs, 0u);
  EXPECT_EQ(report.ordered_pairs, 6u);
  EXPECT_GT(report.max_cost_skew, 0.0);
}

TEST(AsymmetryTest, ParentChainCheckMatchesPathOracle) {
  // measure_asymmetry compares parent chains in place; its verdict per
  // ordered pair must equal the definitional path-vector comparison.
  Topology t;
  for (int i = 0; i < 5; ++i) t.add_node();
  t.add_duplex(NodeId{0}, NodeId{1}, LinkSpec{},
               LinkSpec{.cost = 10, .delay = 10});
  t.add_duplex(NodeId{1}, NodeId{2}, LinkSpec{.cost = 2, .delay = 2});
  t.add_duplex(NodeId{2}, NodeId{0}, LinkSpec{.cost = 2, .delay = 2});
  t.add_duplex(NodeId{2}, NodeId{3}, LinkSpec{},
               LinkSpec{.cost = 7, .delay = 7});
  t.add_duplex(NodeId{3}, NodeId{4}, LinkSpec{});
  t.add_duplex(NodeId{4}, NodeId{0}, LinkSpec{.cost = 3, .delay = 3},
               LinkSpec{});
  const UnicastRouting routes{t};

  std::size_t oracle_asymmetric = 0;
  std::size_t oracle_pairs = 0;
  for (std::uint32_t a = 0; a < t.node_count(); ++a) {
    for (std::uint32_t b = a + 1; b < t.node_count(); ++b) {
      auto fwd = routes.path(NodeId{a}, NodeId{b});
      auto back = routes.path(NodeId{b}, NodeId{a});
      if (fwd.empty() || back.empty()) continue;
      oracle_pairs += 2;
      std::reverse(back.begin(), back.end());
      if (fwd != back) oracle_asymmetric += 2;
    }
  }

  const auto report = measure_asymmetry(routes);
  EXPECT_EQ(report.ordered_pairs, oracle_pairs);
  EXPECT_EQ(report.asymmetric_pairs, oracle_asymmetric);
  EXPECT_GT(report.asymmetric_pairs, 0u);
}

}  // namespace
}  // namespace hbh::routing
