#include "routing/dijkstra.hpp"

#include <cassert>

namespace hbh::routing {

MetricFn cost_metric() {
  return [](const net::Topology::Edge& e) { return e.attrs.cost; };
}

MetricFn delay_metric() {
  return [](const net::Topology::Edge& e) { return e.attrs.delay; };
}

void dijkstra_into(const net::Topology& topo, NodeId root,
                   const MetricFn& metric, SpfResult& out,
                   DijkstraScratch& scratch) {
  assert(topo.contains(root));
  const std::size_t n = topo.node_count();

  // assign() reuses existing capacity: after the first call on a given
  // SpfResult/scratch pair, a recompute performs no allocations.
  out.root = root;
  out.dist.assign(n, kUnreachable);
  out.parent.assign(n, kNoNode);
  out.first_hop.assign(n, kNoNode);
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
    const NodeId u{top.node};

    for (const LinkId l : topo.out_links(u)) {
      const auto& e = topo.edge(l);
      if (!e.up) continue;  // down links carry no routes
      const double w = metric(e);
      assert(w > 0);
      const std::size_t v = e.to.index();
      const double candidate = out.dist[top.node] + w;
      if (candidate < out.dist[v]) {
        out.dist[v] = candidate;
        out.parent[v] = u;
        out.delay[v] = out.delay[top.node] + e.attrs.delay;
        out.first_hop[v] = (u == root) ? e.to : out.first_hop[top.node];
        frontier.push(QEntry{key_bits(candidate), order++,
                             static_cast<std::uint32_t>(v)});
      }
    }
  }
}

SpfResult dijkstra(const net::Topology& topo, NodeId root,
                   const MetricFn& metric) {
  SpfResult out;
  DijkstraScratch scratch;
  dijkstra_into(topo, root, metric, out, scratch);
  return out;
}

}  // namespace hbh::routing
