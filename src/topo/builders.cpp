#include "topo/builders.hpp"

#include <cassert>

namespace hbh::topo {

using net::LinkSpec;
using net::NodeKind;
using net::Topology;

std::vector<NodeId> Scenario::candidate_receivers() const {
  std::vector<NodeId> result;
  result.reserve(hosts.size());
  for (const NodeId h : hosts) {
    if (h != source_host) result.push_back(h);
  }
  return result;
}

namespace {
std::vector<NodeId> add_nodes(Topology& t, std::size_t n) {
  std::vector<NodeId> ids;
  ids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) ids.push_back(t.add_node());
  return ids;
}
}  // namespace

Topology make_line(std::size_t n) {
  assert(n >= 1);
  Topology t;
  const auto ids = add_nodes(t, n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    t.add_duplex(ids[i], ids[i + 1], LinkSpec{.cost = 1, .delay = 1});
  }
  return t;
}

Topology make_ring(std::size_t n) {
  assert(n >= 3);
  Topology t = make_line(n);
  t.add_duplex(NodeId{static_cast<std::uint32_t>(n - 1)}, NodeId{0},
               LinkSpec{.cost = 1, .delay = 1});
  return t;
}

Topology make_star(std::size_t n) {
  assert(n >= 2);
  Topology t;
  const auto ids = add_nodes(t, n);
  for (std::size_t i = 1; i < n; ++i) {
    t.add_duplex(ids[0], ids[i], LinkSpec{.cost = 1, .delay = 1});
  }
  return t;
}

Topology make_grid(std::size_t w, std::size_t h) {
  assert(w >= 1 && h >= 1);
  Topology t;
  const auto ids = add_nodes(t, w * h);
  const auto at = [&](std::size_t x, std::size_t y) { return ids[y * w + x]; };
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      if (x + 1 < w) t.add_duplex(at(x, y), at(x + 1, y), LinkSpec{.cost = 1, .delay = 1});
      if (y + 1 < h) t.add_duplex(at(x, y), at(x, y + 1), LinkSpec{.cost = 1, .delay = 1});
    }
  }
  return t;
}

Topology make_full_mesh(std::size_t n) {
  assert(n >= 2);
  Topology t;
  const auto ids = add_nodes(t, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      t.add_duplex(ids[i], ids[j], LinkSpec{.cost = 1, .delay = 1});
    }
  }
  return t;
}

Scenario attach_hosts(Topology topo, std::vector<NodeId> routers,
                      std::size_t source_index) {
  assert(!routers.empty());
  assert(source_index < routers.size());
  Scenario s;
  s.routers = std::move(routers);
  s.hosts.reserve(s.routers.size());
  for (const NodeId r : s.routers) {
    const NodeId h = topo.add_node(NodeKind::kHost);
    topo.add_duplex(r, h, LinkSpec{.cost = 1, .delay = 1});
    s.hosts.push_back(h);
  }
  s.source_host = s.hosts[source_index];
  s.topo = std::move(topo);
  return s;
}

void randomize_costs(net::Topology& topo, Rng& rng, int lo, int hi) {
  assert(lo >= 1 && lo <= hi);
  for (std::uint32_t i = 0; i < topo.link_count(); ++i) {
    const auto c = static_cast<double>(rng.uniform_int(lo, hi));
    topo.set_cost_delay(LinkId{i}, c, c);
  }
}

void symmetrize_costs(net::Topology& topo) {
  for (std::uint32_t i = 0; i < topo.link_count(); ++i) {
    const auto& e = topo.edge(LinkId{i});
    const auto rev = topo.find_link(e.to, e.from);
    if (rev.has_value() && rev->index() > i) {
      topo.set_cost_delay(*rev, e.link.cost, e.link.delay);
    }
  }
}

namespace {

bool is_backbone(const net::Topology& topo, const net::Topology::Edge& e) {
  return topo.kind(e.from) == NodeKind::kRouter &&
         topo.kind(e.to) == NodeKind::kRouter;
}

}  // namespace

std::vector<std::pair<NodeId, NodeId>> backbone_links(
    const net::Topology& topo) {
  std::vector<std::pair<NodeId, NodeId>> out;
  for (std::uint32_t i = 0; i < topo.link_count(); ++i) {
    const auto& e = topo.edge(LinkId{i});
    if (e.from.index() < e.to.index() && is_backbone(topo, e)) {
      out.emplace_back(e.from, e.to);
    }
  }
  return out;
}

void apply_backbone_capacity(net::Topology& topo, double capacity,
                             std::size_t queue_limit, net::AqmPolicy aqm) {
  assert(capacity > 0);
  for (std::uint32_t i = 0; i < topo.link_count(); ++i) {
    const auto& e = topo.edge(LinkId{i});
    if (!is_backbone(topo, e)) continue;
    topo.set_spec(LinkId{i},
                  e.link.with_capacity(capacity).with_queue(queue_limit, aqm));
  }
}

}  // namespace hbh::topo
