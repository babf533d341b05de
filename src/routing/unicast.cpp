#include "routing/unicast.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "util/profiler.hpp"

namespace hbh::routing {

namespace {

/// True when `table` was built on a topology whose per-link weights under
/// `metric` equal `topo`'s — the precondition for sharing its trees.
[[maybe_unused]] bool weights_match(const SpfTable& table,
                                    const net::Topology& topo,
                                    const MetricFn& metric) {
  std::vector<double> weights;
  link_weights(topo, metric, weights);
  return table.per_root.size() == topo.node_count() &&
         table.weights == weights;
}

}  // namespace

SpfTable::SpfTable(const net::Topology& topo, const MetricFn& metric)
    : per_root(topo.node_count()), computed(topo.node_count(), 0) {
  link_weights(topo, metric, weights);
}

UnicastRouting::UnicastRouting(const net::Topology& topo, MetricFn metric)
    : topo_(topo),
      metric_(std::move(metric)),
      table_(std::make_shared<SpfTable>(topo, metric_)) {}

UnicastRouting::UnicastRouting(const net::Topology& topo,
                               std::shared_ptr<SpfTable> table,
                               MetricFn metric)
    : topo_(topo), metric_(std::move(metric)), table_(std::move(table)) {
  assert(table_ != nullptr);
  assert(weights_match(*table_, topo_, metric_));
}

void UnicastRouting::invalidate() {
  ++epoch_;
  if (table_.use_count() > 1) {
    // Copy-on-invalidate: the siblings keep the trees of the old topology.
    table_ = std::make_shared<SpfTable>(topo_, metric_);
    return;
  }
  link_weights(topo_, metric_, table_->weights);
  std::fill(table_->computed.begin(), table_->computed.end(), 0);
}

const SpfResult& UnicastRouting::ensure(NodeId root) const {
  assert(topo_.contains(root));
  SpfTable& table = *table_;
  std::uint8_t& computed = table.computed[root.index()];
  SpfResult& tree = table.per_root[root.index()];
  if (computed == 0) {
    HBH_PHASE("spf");
    dijkstra_into(topo_, root, table.weights, tree, table.scratch);
    computed = 1;
    ++spf_runs_;
  }
  return tree;
}

LinkId UnicastRouting::first_link(NodeId from, NodeId to) const {
  assert(topo_.contains(from) && topo_.contains(to));
  return ensure(from).first_link[to.index()];
}

NodeId UnicastRouting::next_hop(NodeId from, NodeId to) const {
  const LinkId link = first_link(from, to);
  return link.valid() ? topo_.edge(link).to : kNoNode;
}

double UnicastRouting::distance(NodeId from, NodeId to) const {
  assert(topo_.contains(from) && topo_.contains(to));
  return ensure(from).dist[to.index()];
}

Time UnicastRouting::path_delay(NodeId from, NodeId to) const {
  assert(topo_.contains(from) && topo_.contains(to));
  return ensure(from).delay[to.index()];
}

std::vector<NodeId> UnicastRouting::path(NodeId from, NodeId to) const {
  assert(topo_.contains(from) && topo_.contains(to));
  std::vector<NodeId> nodes;
  if (from == to) {
    nodes.push_back(from);
    return nodes;
  }
  if (!reachable(from, to)) return nodes;  // empty: no route
  // Walk the parent links of the SPF rooted at `from` back from `to`.
  const SpfResult& tree = ensure(from);
  nodes.push_back(to);
  for (LinkId l = tree.parent_link[to.index()]; l.valid();) {
    const NodeId at = topo_.edge(l).from;
    nodes.push_back(at);
    l = tree.parent_link[at.index()];
  }
  std::reverse(nodes.begin(), nodes.end());
  assert(nodes.front() == from && nodes.back() == to);
  return nodes;
}

const SpfResult& UnicastRouting::spf(NodeId root) const {
  assert(topo_.contains(root));
  return ensure(root);
}

AsymmetryReport measure_asymmetry(const UnicastRouting& routes) {
  AsymmetryReport report;
  const net::Topology& topo = routes.topology();
  const std::size_t n = topo.node_count();
  for (std::uint32_t a = 0; a < n; ++a) {
    for (std::uint32_t b = 0; b < n; ++b) {
      if (a == b) continue;
      const NodeId na{a};
      const NodeId nb{b};
      if (!routes.reachable(na, nb) || !routes.reachable(nb, na)) continue;
      ++report.ordered_pairs;
      // path(a,b) equals reverse(path(b,a)) iff the two parent chains
      // mirror each other: walking b -> a through a's tree, every hop
      // u -> p (p = parent_a(u)) must satisfy parent_b(p) == u. The chain
      // of matches forces b's tree to thread the exact reversed sequence,
      // so no path vectors need materializing (the old implementation
      // allocated two per ordered pair — O(n²·pathlen) allocations).
      const SpfResult& tree_a = routes.spf(na);
      const SpfResult& tree_b = routes.spf(nb);
      bool symmetric = true;
      for (NodeId u = nb; u != na;) {
        const NodeId p = topo.edge(tree_a.parent_link[u.index()]).from;
        const LinkId back = tree_b.parent_link[p.index()];
        if (!back.valid() || topo.edge(back).from != u) {
          symmetric = false;
          break;
        }
        u = p;
      }
      if (!symmetric) ++report.asymmetric_pairs;
      report.max_cost_skew =
          std::max(report.max_cost_skew,
                   std::abs(routes.distance(na, nb) - routes.distance(nb, na)));
    }
  }
  return report;
}

}  // namespace hbh::routing
