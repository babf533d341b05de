#include "routing/dijkstra.hpp"

#include <cassert>

namespace hbh::routing {

MetricFn cost_metric() {
  return [](const net::Topology::Edge& e) { return e.attrs.cost; };
}

MetricFn delay_metric() {
  return [](const net::Topology::Edge& e) { return e.attrs.delay; };
}

void link_weights(const net::Topology& topo, const MetricFn& metric,
                  std::vector<double>& out) {
  out.resize(topo.link_count());
  for (std::uint32_t l = 0; l < out.size(); ++l) {
    out[l] = metric(topo.edge(LinkId{l}));
  }
}

void dijkstra_into(const net::Topology& topo, NodeId root,
                   std::span<const double> weights, SpfResult& out,
                   DijkstraScratch& scratch) {
  assert(topo.contains(root));
  assert(weights.size() == topo.link_count());
  const std::size_t n = topo.node_count();

  // assign() reuses existing capacity: after the first call on a given
  // SpfResult/scratch pair, a recompute performs no allocations.
  out.root = root;
  out.dist.assign(n, kUnreachable);
  out.parent_link.assign(n, kNoLink);
  out.first_link.assign(n, kNoLink);
  out.delay.assign(n, std::numeric_limits<Time>::infinity());
  scratch.settled.assign(n, 0);

  using QEntry = DijkstraScratch::QEntry;
  auto& frontier = scratch.frontier;
  frontier.clear();
  std::uint64_t order = 0;

  out.dist[root.index()] = 0;
  out.delay[root.index()] = 0;
  frontier.push(QEntry{key_bits(0.0), order++, root.index()});

  while (!frontier.empty()) {
    const QEntry top = frontier.top();
    frontier.pop();
    if (scratch.settled[top.node] != 0) continue;
    scratch.settled[top.node] = 1;
    const bool at_root = top.node == root.index();

    for (const LinkId l : topo.out_links(NodeId{top.node})) {
      const auto& e = topo.edge(l);
      if (!e.up) continue;  // down links carry no routes
      const double w = weights[l.index()];
      assert(w > 0);
      const std::size_t v = e.to.index();
      const double candidate = out.dist[top.node] + w;
      if (candidate < out.dist[v]) {
        out.dist[v] = candidate;
        out.parent_link[v] = l;
        out.delay[v] = out.delay[top.node] + e.attrs.delay;
        out.first_link[v] = at_root ? l : out.first_link[top.node];
        frontier.push(QEntry{key_bits(candidate), order++,
                             static_cast<std::uint32_t>(v)});
      }
    }
  }
}

SpfResult dijkstra(const net::Topology& topo, NodeId root,
                   const MetricFn& metric) {
  std::vector<double> weights;
  link_weights(topo, metric, weights);
  SpfResult out;
  DijkstraScratch scratch;
  dijkstra_into(topo, root, weights, out, scratch);
  return out;
}

}  // namespace hbh::routing
