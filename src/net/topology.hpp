// Directed network topology with independent per-direction link attributes.
//
// The paper's central observation is that unicast routing is *asymmetric*:
// c(n1,n2) and c(n2,n1) are drawn independently (integers in [1,10], §4.1).
// We therefore model every link as a pair of directed edges, each with its
// own cost (used by unicast routing) and propagation delay (used by the
// simulator; the reproduction sets delay = cost, see DESIGN.md §2).
//
// Links are described by LinkSpec — a named, extensible aggregate covering
// the routing metric, propagation delay, and the congestion model (capacity
// plus a bounded egress queue, DESIGN.md "Link and queue model").
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/ids.hpp"

namespace hbh::net {

enum class NodeKind : std::uint8_t {
  kRouter,  ///< forwards packets; may be multicast-capable
  kHost,    ///< end system: source or receiver, degree-1 in our topologies
};

/// Active queue management policy of a capacitated egress queue.
enum class AqmPolicy : std::uint8_t {
  kDropTail,  ///< drop arrivals once the queue is full (default)
  kRed,       ///< Random Early Detection on the averaged occupancy
};

/// Parses "droptail" / "red" (as accepted by HBH_AQM); nullopt otherwise.
[[nodiscard]] std::optional<AqmPolicy> aqm_from_string(std::string_view s);
[[nodiscard]] std::string_view to_string(AqmPolicy aqm);

/// Egress queue limit (packets) a capacitated link gets unless overridden.
inline constexpr std::size_t kDefaultQueueLimit = 64;

/// Full description of one directed edge. An aggregate: construct with
/// designated initializers (`LinkSpec{.cost = 3, .capacity = 1200}`) or via
/// the fluent with_* copies when starting from an existing spec.
struct LinkSpec {
  double cost = 1.0;   ///< unicast routing metric
  Time delay = 1.0;    ///< propagation delay in time units
  /// Transmission capacity in bytes per time unit. 0 (the default) means
  /// an infinite-bandwidth link: no serialization time, no queue, and the
  /// transmit path takes exactly one extra predicted-false branch — the
  /// byte-identity guarantee for every pre-congestion experiment.
  double capacity = 0.0;
  std::size_t queue_limit = kDefaultQueueLimit;  ///< egress queue, packets
  AqmPolicy aqm = AqmPolicy::kDropTail;

  [[nodiscard]] bool capacitated() const noexcept { return capacity > 0; }

  /// Serialization time of `bytes` on this link (requires capacitated()).
  [[nodiscard]] Time serialization_time(std::size_t bytes) const noexcept {
    return static_cast<Time>(static_cast<double>(bytes) / capacity);
  }

  // Fluent copies, for deriving a spec from an existing one.
  [[nodiscard]] LinkSpec with_cost(double c) const {
    LinkSpec s = *this;
    s.cost = c;
    return s;
  }
  [[nodiscard]] LinkSpec with_delay(Time d) const {
    LinkSpec s = *this;
    s.delay = d;
    return s;
  }
  [[nodiscard]] LinkSpec with_capacity(double bytes_per_tu) const {
    LinkSpec s = *this;
    s.capacity = bytes_per_tu;
    return s;
  }
  [[nodiscard]] LinkSpec with_queue(std::size_t limit, AqmPolicy policy) const {
    LinkSpec s = *this;
    s.queue_limit = limit;
    s.aqm = policy;
    return s;
  }
};

class Topology {
 public:
  struct Edge {
    NodeId from;
    NodeId to;
    LinkSpec link;   ///< this direction's cost, delay, capacity and queue
    bool up = true;  ///< a down edge forwards nothing and carries no routes
    LinkId reverse = kNoLink;  ///< see Topology::reverse()
  };

  /// Adds a node of the given kind; returns its id (dense, starting at 0).
  NodeId add_node(NodeKind kind = NodeKind::kRouter);

  /// Adds a directed edge. Requires both endpoints to exist, from != to,
  /// and no existing edge from->to.
  LinkId add_link(NodeId from, NodeId to, LinkSpec spec);

  /// Adds the two directed edges of a duplex link, with per-direction
  /// specs (the common case in this reproduction).
  void add_duplex(NodeId a, NodeId b, LinkSpec ab, LinkSpec ba);

  /// Symmetric convenience: same spec in both directions.
  void add_duplex(NodeId a, NodeId b, LinkSpec both) {
    add_duplex(a, b, both, both);
  }

  /// Replaces the full spec of an existing edge.
  void set_spec(LinkId link, LinkSpec spec);

  /// Updates only cost and delay, preserving the edge's congestion fields
  /// (capacity, queue limit, AQM). Cost randomization and link-cost churn
  /// use this so a capacitated scenario keeps its capacities.
  void set_cost_delay(LinkId link, double cost, Time delay);

  /// Administratively raises/lowers an existing edge. Down edges stay in
  /// the edge list (find_link still returns them) but are skipped by route
  /// computation and refuse transmission — a hard failure, unlike a cost
  /// inflation which Dijkstra can still traverse.
  void set_link_up(LinkId link, bool up);
  [[nodiscard]] bool link_up(LinkId link) const { return edge(link).up; }

  [[nodiscard]] std::size_t node_count() const noexcept {
    return kinds_.size();
  }
  [[nodiscard]] std::size_t link_count() const noexcept {
    return edges_.size();
  }
  [[nodiscard]] NodeKind kind(NodeId n) const;
  [[nodiscard]] const Edge& edge(LinkId l) const;

  /// Outgoing edges of `n`.
  [[nodiscard]] std::span<const LinkId> out_links(NodeId n) const;

  /// The edge from->to, if present.
  [[nodiscard]] std::optional<LinkId> find_link(NodeId from, NodeId to) const;

  /// The opposite direction of `link` (to->from); kNoLink if that edge
  /// does not exist. Constant time: recorded when the second direction is
  /// added.
  [[nodiscard]] LinkId reverse(LinkId link) const;

  /// All node ids of a given kind, ascending.
  [[nodiscard]] std::vector<NodeId> nodes_of_kind(NodeKind kind) const;

  /// Out-degree of `n`.
  [[nodiscard]] std::size_t degree(NodeId n) const {
    return out_links(n).size();
  }

  /// Mean out-degree over routers only (hosts excluded), the statistic the
  /// paper quotes (3.3 for the ISP topology, 8.6 for the random one).
  [[nodiscard]] double average_router_degree(bool count_host_links = false) const;

  /// True if every node can reach every other following directed edges.
  [[nodiscard]] bool strongly_connected() const;

  /// Validity check for ids coming from external input.
  [[nodiscard]] bool contains(NodeId n) const noexcept {
    return n.valid() && n.index() < kinds_.size();
  }

 private:
  std::vector<NodeKind> kinds_;
  std::vector<Edge> edges_;
  std::vector<std::vector<LinkId>> out_;
};

}  // namespace hbh::net
