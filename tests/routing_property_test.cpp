// Property tests for the routing layer over randomized topologies:
// invariants that must hold for any graph the generators produce, since
// every protocol's correctness sits on top of them.
#include <gtest/gtest.h>

#include <limits>
#include <queue>
#include <vector>

#include "routing/dijkstra.hpp"
#include "routing/unicast.hpp"
#include "topo/builders.hpp"
#include "topo/isp.hpp"
#include "topo/random.hpp"
#include "util/rng.hpp"

namespace hbh::routing {
namespace {

struct Case {
  std::uint64_t seed;
  enum Kind { kIsp, kRandom, kWaxman, kGrid } kind;
};

class RoutingProperties : public ::testing::TestWithParam<Case> {
 protected:
  net::Topology build() {
    Rng rng{GetParam().seed};
    net::Topology t;
    switch (GetParam().kind) {
      case Case::kIsp:
        t = topo::make_isp().topo;
        break;
      case Case::kRandom:
        t = topo::make_random(topo::RandomTopoParams{30, 4.0}, rng).topo;
        break;
      case Case::kWaxman:
        t = topo::make_waxman(topo::WaxmanParams{30, 0.3, 0.4}, rng).topo;
        break;
      case Case::kGrid:
        t = topo::make_grid(5, 5);
        break;
    }
    topo::randomize_costs(t, rng);
    return t;
  }
};

TEST_P(RoutingProperties, EveryPairReachableOnConnectedGraph) {
  const net::Topology t = build();
  ASSERT_TRUE(t.strongly_connected());
  const UnicastRouting routes{t};
  for (std::uint32_t a = 0; a < t.node_count(); ++a) {
    for (std::uint32_t b = 0; b < t.node_count(); ++b) {
      if (a == b) continue;
      ASSERT_TRUE(routes.reachable(NodeId{a}, NodeId{b}))
          << "n" << a << " -> n" << b;
    }
  }
}

TEST_P(RoutingProperties, TriangleInequalityOnDistances) {
  const net::Topology t = build();
  const UnicastRouting routes{t};
  Rng rng{GetParam().seed ^ 0x7A7A};
  const auto n = static_cast<std::int64_t>(t.node_count());
  for (int i = 0; i < 200; ++i) {
    const NodeId a{static_cast<std::uint32_t>(rng.uniform_int(0, n - 1))};
    const NodeId b{static_cast<std::uint32_t>(rng.uniform_int(0, n - 1))};
    const NodeId c{static_cast<std::uint32_t>(rng.uniform_int(0, n - 1))};
    if (a == b || b == c || a == c) continue;
    EXPECT_LE(routes.distance(a, c),
              routes.distance(a, b) + routes.distance(b, c) + 1e-9);
  }
}

TEST_P(RoutingProperties, NextHopChainsTerminateAtDestination) {
  const net::Topology t = build();
  const UnicastRouting routes{t};
  Rng rng{GetParam().seed ^ 0x1234};
  const auto n = static_cast<std::int64_t>(t.node_count());
  for (int i = 0; i < 100; ++i) {
    const NodeId from{static_cast<std::uint32_t>(rng.uniform_int(0, n - 1))};
    const NodeId to{static_cast<std::uint32_t>(rng.uniform_int(0, n - 1))};
    if (from == to) continue;
    NodeId at = from;
    std::size_t hops = 0;
    while (at != to) {
      at = routes.next_hop(at, to);
      ASSERT_TRUE(at.valid());
      ASSERT_LE(++hops, t.node_count());  // loop-free: < n hops always
    }
    EXPECT_EQ(hops + 1, routes.path(from, to).size());
  }
}

TEST_P(RoutingProperties, PathDelayEqualsEdgeDelaySum) {
  const net::Topology t = build();
  const UnicastRouting routes{t};
  Rng rng{GetParam().seed ^ 0x9999};
  const auto n = static_cast<std::int64_t>(t.node_count());
  for (int i = 0; i < 100; ++i) {
    const NodeId from{static_cast<std::uint32_t>(rng.uniform_int(0, n - 1))};
    const NodeId to{static_cast<std::uint32_t>(rng.uniform_int(0, n - 1))};
    if (from == to) continue;
    const auto path = routes.path(from, to);
    Time sum = 0;
    for (std::size_t k = 0; k + 1 < path.size(); ++k) {
      const auto link = t.find_link(path[k], path[k + 1]);
      ASSERT_TRUE(link.has_value());
      sum += t.edge(*link).attrs.delay;
    }
    EXPECT_DOUBLE_EQ(sum, routes.path_delay(from, to));
  }
}

TEST_P(RoutingProperties, DistanceIsMinimalOverSampledDetours) {
  // No single-intermediate detour may beat the shortest path.
  const net::Topology t = build();
  const UnicastRouting routes{t};
  Rng rng{GetParam().seed ^ 0x4444};
  const auto n = static_cast<std::int64_t>(t.node_count());
  for (int i = 0; i < 200; ++i) {
    const NodeId a{static_cast<std::uint32_t>(rng.uniform_int(0, n - 1))};
    const NodeId b{static_cast<std::uint32_t>(rng.uniform_int(0, n - 1))};
    const NodeId via{static_cast<std::uint32_t>(rng.uniform_int(0, n - 1))};
    if (a == b || via == a || via == b) continue;
    EXPECT_LE(routes.distance(a, b),
              routes.distance(a, via) + routes.distance(via, b) + 1e-9);
  }
}

TEST_P(RoutingProperties, SymmetrizedCostsSymmetrizeDistances) {
  net::Topology t = build();
  topo::symmetrize_costs(t);
  const UnicastRouting routes{t};
  Rng rng{GetParam().seed ^ 0xBEEF};
  const auto n = static_cast<std::int64_t>(t.node_count());
  for (int i = 0; i < 200; ++i) {
    const NodeId a{static_cast<std::uint32_t>(rng.uniform_int(0, n - 1))};
    const NodeId b{static_cast<std::uint32_t>(rng.uniform_int(0, n - 1))};
    if (a == b) continue;
    EXPECT_DOUBLE_EQ(routes.distance(a, b), routes.distance(b, a));
  }
}

TEST_P(RoutingProperties, AsymmetryVanishesWhenSymmetrized) {
  net::Topology t = build();
  {
    const UnicastRouting routes{t};
    // Randomized integer costs make some asymmetry overwhelmingly likely
    // on every non-trivial topology (sanity of the experiment setup).
    EXPECT_GT(measure_asymmetry(routes).asymmetric_fraction(), 0.0);
  }
  topo::symmetrize_costs(t);
  const UnicastRouting routes{t};
  // Path sets may still differ on equal-cost ties, but cost skew must be 0.
  EXPECT_DOUBLE_EQ(measure_asymmetry(routes).max_cost_skew, 0.0);
}

/// The reference's tree, with the node views the link ids stand for.
struct ReferenceSpf {
  std::vector<double> dist;
  std::vector<NodeId> parent;       ///< predecessor of v
  std::vector<NodeId> first_hop;    ///< first node after the root
  std::vector<LinkId> parent_link;  ///< edge parent(v) -> v
  std::vector<LinkId> first_link;   ///< edge root -> first_hop(v)
  std::vector<Time> delay;
};

/// Dijkstra on std::priority_queue, ordered by (distance, push order)
/// compared field by field: the reference that dijkstra_into must match.
ReferenceSpf reference_dijkstra(const net::Topology& t, NodeId root) {
  struct Item {
    double dist;
    std::uint64_t order;
    std::uint32_t node;
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      if (a.dist != b.dist) return a.dist > b.dist;
      return a.order > b.order;
    }
  };
  const std::size_t n = t.node_count();
  ReferenceSpf out{std::vector<double>(n, kUnreachable),
                   std::vector<NodeId>(n, kNoNode),
                   std::vector<NodeId>(n, kNoNode),
                   std::vector<LinkId>(n, kNoLink),
                   std::vector<LinkId>(n, kNoLink),
                   std::vector<Time>(n, std::numeric_limits<Time>::infinity())};
  std::vector<bool> settled(n, false);
  std::priority_queue<Item, std::vector<Item>, Later> frontier;
  std::uint64_t order = 0;
  out.dist[root.index()] = 0;
  out.delay[root.index()] = 0;
  frontier.push(Item{0.0, order++, root.index()});
  while (!frontier.empty()) {
    const Item top = frontier.top();
    frontier.pop();
    if (settled[top.node]) continue;
    settled[top.node] = true;
    const NodeId u{top.node};
    for (const LinkId l : t.out_links(u)) {
      const auto& e = t.edge(l);
      if (!e.up) continue;
      const std::size_t v = e.to.index();
      const double candidate = out.dist[top.node] + e.attrs.cost;
      if (candidate < out.dist[v]) {
        out.dist[v] = candidate;
        out.parent[v] = u;
        out.parent_link[v] = l;
        out.delay[v] = out.delay[top.node] + e.attrs.delay;
        out.first_hop[v] = (u == root) ? e.to : out.first_hop[top.node];
        out.first_link[v] = (u == root) ? l : out.first_link[top.node];
        frontier.push(Item{candidate, order++, static_cast<std::uint32_t>(v)});
      }
    }
  }
  return out;
}

/// The node a link id stands for (kNoNode for kNoLink).
NodeId head(const net::Topology& t, LinkId l) {
  return l.valid() ? t.edge(l).to : kNoNode;
}
NodeId tail(const net::Topology& t, LinkId l) {
  return l.valid() ? t.edge(l).from : kNoNode;
}

TEST_P(RoutingProperties, DijkstraMatchesPriorityQueueReferenceUnderTies) {
  // All-equal and small-integer costs make most frontier entries tie on
  // distance, so the push-order half of the key picks among equal-cost
  // parents; independent delays make a different pick visible in delay.
  for (const int max_cost : {1, 3}) {
    SCOPED_TRACE(max_cost);
    net::Topology t = build();
    Rng rng{GetParam().seed ^ 0x5151};
    for (std::uint32_t l = 0; l < t.link_count(); ++l) {
      t.set_cost_delay(LinkId{l},
                       static_cast<double>(rng.uniform_int(1, max_cost)),
                       static_cast<double>(rng.uniform_int(1, 9)));
    }
    std::vector<double> weights;
    link_weights(t, cost_metric(), weights);
    SpfResult got;
    DijkstraScratch scratch;  // shared across roots, as UnicastRouting does
    for (std::uint32_t r = 0; r < t.node_count(); ++r) {
      const NodeId root{r};
      dijkstra_into(t, root, weights, got, scratch);
      const ReferenceSpf want = reference_dijkstra(t, root);
      ASSERT_EQ(got.dist, want.dist) << "root n" << r;
      ASSERT_EQ(got.parent_link, want.parent_link) << "root n" << r;
      ASSERT_EQ(got.first_link, want.first_link) << "root n" << r;
      ASSERT_EQ(got.delay, want.delay) << "root n" << r;
      for (std::uint32_t v = 0; v < t.node_count(); ++v) {
        ASSERT_EQ(tail(t, got.parent_link[v]), want.parent[v]) << "n" << v;
        ASSERT_EQ(head(t, got.first_link[v]), want.first_hop[v]) << "n" << v;
      }
    }
  }
}

TEST_P(RoutingProperties, LinkViewsMatchNodeViewsWithLinksDown) {
  // The link ids UnicastRouting forwards on must name exactly the edges
  // its node views describe, also once failures reroute around down links.
  net::Topology t = build();
  Rng rng{GetParam().seed ^ 0xD0D0};
  for (std::uint32_t l = 0; l < t.link_count(); ++l) {
    if (rng.uniform_int(0, 9) == 0) t.set_link_up(LinkId{l}, false);
  }
  const UnicastRouting routes{t};
  for (std::uint32_t r = 0; r < t.node_count(); ++r) {
    const NodeId root{r};
    const SpfResult& tree = routes.spf(root);
    const ReferenceSpf want = reference_dijkstra(t, root);
    ASSERT_EQ(tree.parent_link, want.parent_link) << "root n" << r;
    ASSERT_EQ(tree.first_link, want.first_link) << "root n" << r;
    for (std::uint32_t v = 0; v < t.node_count(); ++v) {
      const NodeId to{v};
      const LinkId first = routes.first_link(root, to);
      if (to == root || !routes.reachable(root, to)) {
        EXPECT_FALSE(first.valid()) << "n" << r << " -> n" << v;
        EXPECT_EQ(routes.next_hop(root, to), kNoNode);
        continue;
      }
      ASSERT_TRUE(first.valid()) << "n" << r << " -> n" << v;
      EXPECT_TRUE(t.link_up(first));
      EXPECT_EQ(t.edge(first).from, root);
      EXPECT_EQ(t.edge(first).to, routes.next_hop(root, to));
      const std::vector<NodeId> path = routes.path(root, to);
      ASSERT_GE(path.size(), 2u);
      EXPECT_EQ(t.find_link(path[path.size() - 2], to), tree.parent_link[v]);
      EXPECT_EQ(t.find_link(path[0], path[1]), first);
    }
  }
}

constexpr Case kCases[] = {
    {1, Case::kIsp},    {2, Case::kIsp},    {3, Case::kRandom},
    {4, Case::kRandom}, {5, Case::kWaxman}, {6, Case::kWaxman},
    {7, Case::kGrid},
};

std::string case_name(const ::testing::TestParamInfo<Case>& param_info) {
  const char* names[] = {"isp", "random", "waxman", "grid"};
  return std::string(names[param_info.param.kind]) + "_seed" +
         std::to_string(param_info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(Graphs, RoutingProperties,
                         ::testing::ValuesIn(kCases), case_name);

}  // namespace
}  // namespace hbh::routing
