// Generic topology builders and cost assignment helpers.
//
// These produce the small regular graphs the unit tests use and implement
// the paper's cost model: every *directed* edge gets an integer cost drawn
// uniformly from [1, 10], with propagation delay equal to the cost (§4.1;
// see DESIGN.md for the delay=cost substitution rationale).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "net/topology.hpp"
#include "util/rng.hpp"

namespace hbh::topo {

/// A topology plus the host bookkeeping the experiments need.
struct Scenario {
  net::Topology topo;
  std::vector<NodeId> routers;
  std::vector<NodeId> hosts;          ///< hosts[i] attaches to routers[i]
  NodeId source_host = kNoNode;       ///< the channel source (a host)

  /// All hosts except the source — the candidate receiver set.
  [[nodiscard]] std::vector<NodeId> candidate_receivers() const;
};

/// Line 0-1-...-(n-1), unit symmetric costs.
[[nodiscard]] net::Topology make_line(std::size_t n);

/// Ring of n nodes, unit symmetric costs.
[[nodiscard]] net::Topology make_ring(std::size_t n);

/// Star: node 0 is the hub, spokes 1..n-1, unit symmetric costs.
[[nodiscard]] net::Topology make_star(std::size_t n);

/// w×h grid with 4-neighborhood, unit symmetric costs.
[[nodiscard]] net::Topology make_grid(std::size_t w, std::size_t h);

/// Complete graph on n nodes, unit symmetric costs.
[[nodiscard]] net::Topology make_full_mesh(std::size_t n);

/// Attaches one host to each given router (duplex unit links) and records
/// the mapping in a Scenario.
[[nodiscard]] Scenario attach_hosts(net::Topology topo,
                                    std::vector<NodeId> routers,
                                    std::size_t source_index = 0);

/// Redraws every directed edge's cost uniformly from [lo, hi] (integers)
/// and sets delay = cost. Host access links are included — the paper
/// randomizes every link. Congestion fields (capacity, queue) survive.
void randomize_costs(net::Topology& topo, Rng& rng, int lo = 1, int hi = 10);

/// Copies each duplex link's forward cost onto its reverse direction,
/// producing a fully symmetric network (the ablation configuration).
void symmetrize_costs(net::Topology& topo);

/// Every backbone (router-router) duplex link once, as (a, b) with a < b —
/// the links fault injection impairs.
[[nodiscard]] std::vector<std::pair<NodeId, NodeId>> backbone_links(
    const net::Topology& topo);

/// Applies `capacity` (bytes/time-unit; see LinkSpec::capacity) with the
/// given queue configuration to every backbone (router-router) directed
/// edge. Host access links stay uncapacitated so end systems never bottleneck
/// themselves — contention happens where replication does, at the routers.
/// Costs and delays are untouched.
void apply_backbone_capacity(
    net::Topology& topo, double capacity,
    std::size_t queue_limit = net::kDefaultQueueLimit,
    net::AqmPolicy aqm = net::AqmPolicy::kDropTail);

}  // namespace hbh::topo
