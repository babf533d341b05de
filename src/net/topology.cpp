#include "net/topology.hpp"

#include <cassert>
#include <queue>

namespace hbh::net {

std::optional<AqmPolicy> aqm_from_string(std::string_view s) {
  if (s == "droptail") return AqmPolicy::kDropTail;
  if (s == "red") return AqmPolicy::kRed;
  return std::nullopt;
}

std::string_view to_string(AqmPolicy aqm) {
  return aqm == AqmPolicy::kRed ? "red" : "droptail";
}

namespace {

void check_spec(const LinkSpec& spec) {
  assert(spec.cost > 0 && spec.delay >= 0);
  assert(spec.capacity >= 0);
  assert(!spec.capacitated() || spec.queue_limit > 0);
  (void)spec;
}

}  // namespace

NodeId Topology::add_node(NodeKind kind) {
  const NodeId id{static_cast<std::uint32_t>(kinds_.size())};
  kinds_.push_back(kind);
  out_.emplace_back();
  return id;
}

LinkId Topology::add_link(NodeId from, NodeId to, LinkSpec spec) {
  assert(contains(from) && contains(to));
  assert(from != to);
  assert(!find_link(from, to).has_value());
  check_spec(spec);
  const LinkId id{static_cast<std::uint32_t>(edges_.size())};
  const std::optional<LinkId> back = find_link(to, from);
  edges_.push_back(Edge{from, to, spec, true, back.value_or(kNoLink)});
  if (back) edges_[back->index()].reverse = id;
  out_[from.index()].push_back(id);
  return id;
}

void Topology::add_duplex(NodeId a, NodeId b, LinkSpec ab, LinkSpec ba) {
  add_link(a, b, ab);
  add_link(b, a, ba);
}

void Topology::set_spec(LinkId link, LinkSpec spec) {
  assert(link.valid() && link.index() < edges_.size());
  check_spec(spec);
  edges_[link.index()].attrs = spec;
}

void Topology::set_cost_delay(LinkId link, double cost, Time delay) {
  assert(link.valid() && link.index() < edges_.size());
  assert(cost > 0 && delay >= 0);
  edges_[link.index()].attrs.cost = cost;
  edges_[link.index()].attrs.delay = delay;
}

void Topology::set_link_up(LinkId link, bool up) {
  assert(link.valid() && link.index() < edges_.size());
  edges_[link.index()].up = up;
}

NodeKind Topology::kind(NodeId n) const {
  assert(contains(n));
  return kinds_[n.index()];
}

const Topology::Edge& Topology::edge(LinkId l) const {
  assert(l.valid() && l.index() < edges_.size());
  return edges_[l.index()];
}

LinkId Topology::reverse(LinkId link) const { return edge(link).reverse; }

std::span<const LinkId> Topology::out_links(NodeId n) const {
  assert(contains(n));
  return out_[n.index()];
}

std::optional<LinkId> Topology::find_link(NodeId from, NodeId to) const {
  assert(contains(from) && contains(to));
  for (const LinkId l : out_[from.index()]) {
    if (edges_[l.index()].to == to) return l;
  }
  return std::nullopt;
}

std::vector<NodeId> Topology::nodes_of_kind(NodeKind target) const {
  std::vector<NodeId> result;
  for (std::size_t i = 0; i < kinds_.size(); ++i) {
    if (kinds_[i] == target) result.push_back(NodeId{static_cast<std::uint32_t>(i)});
  }
  return result;
}

double Topology::average_router_degree(bool count_host_links) const {
  std::size_t routers = 0;
  std::size_t degree_sum = 0;
  for (std::size_t i = 0; i < kinds_.size(); ++i) {
    if (kinds_[i] != NodeKind::kRouter) continue;
    ++routers;
    for (const LinkId l : out_[i]) {
      const Edge& e = edges_[l.index()];
      if (count_host_links || kinds_[e.to.index()] == NodeKind::kRouter) {
        ++degree_sum;
      }
    }
  }
  return routers == 0
             ? 0.0
             : static_cast<double>(degree_sum) / static_cast<double>(routers);
}

bool Topology::strongly_connected() const {
  const std::size_t n = node_count();
  if (n <= 1) return true;

  // BFS over out-edges from node 0, then BFS over in-edges (computed by
  // scanning all edges once into a reverse adjacency).
  const auto reach_count = [n](auto&& neighbors) {
    std::vector<bool> seen(n, false);
    std::queue<std::uint32_t> frontier;
    frontier.push(0);
    seen[0] = true;
    std::size_t count = 1;
    while (!frontier.empty()) {
      const std::uint32_t at = frontier.front();
      frontier.pop();
      for (const std::uint32_t next : neighbors(at)) {
        if (!seen[next]) {
          seen[next] = true;
          ++count;
          frontier.push(next);
        }
      }
    }
    return count;
  };

  std::vector<std::vector<std::uint32_t>> fwd(n);
  std::vector<std::vector<std::uint32_t>> rev(n);
  for (const Edge& e : edges_) {
    if (!e.up) continue;
    fwd[e.from.index()].push_back(e.to.index());
    rev[e.to.index()].push_back(e.from.index());
  }
  return reach_count([&](std::uint32_t a) -> const std::vector<std::uint32_t>& {
           return fwd[a];
         }) == n &&
         reach_count([&](std::uint32_t a) -> const std::vector<std::uint32_t>& {
           return rev[a];
         }) == n;
}

}  // namespace hbh::net
