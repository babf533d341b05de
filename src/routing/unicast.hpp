// All-pairs unicast routing: the forwarding substrate every protocol uses.
//
// In the real Internet each router's FIB comes from its IGP; here we compute
// the equivalent — for every node, the first link toward every destination —
// by running Dijkstra from each node over its outgoing edges. Routes are
// destination-based and hop-by-hop consistent (the next hop's route to the
// destination is the suffix of ours), so recursive-unicast forwarding
// behaves exactly as it would on real routers.
//
// SPFs are computed lazily per root into an SpfTable: construction runs
// no Dijkstra, and a root's tree is built on its first query (then
// cached). A topology change — link cost, link up/down — is
// signalled with invalidate(); each root recomputes, into reused buffers,
// on its first query afterwards. Fault-heavy runs thus pay one Dijkstra per
// *queried* root per change instead of N up-front, and trials that touch
// only part of the topology never compute the rest.
//
// A table can be shared. The four protocol sessions of one paired trial
// run on identical copies of one topology, so they attach to one table and
// each root's tree is built once for all four. invalidate() on an instance
// whose table is shared detaches it onto a fresh private table
// (copy-on-invalidate): a fault or cost change in one session never
// disturbs its siblings.
//
// Threading: the lazy cache mutates under const accessors and is not
// synchronized, so an instance — and the table behind it — is confined to
// one thread. A table is shared only within one worker's cell: the
// experiment engine runs a cell's four protocols back to back on the
// worker that built the cell.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/topology.hpp"
#include "routing/dijkstra.hpp"
#include "util/ids.hpp"

namespace hbh::routing {

/// The lazily filled per-root SPF cache of one topology under one metric:
/// the per-link weights, one SpfResult and computed flag per root, and the
/// Dijkstra scratch. Held by std::shared_ptr so every UnicastRouting
/// attached to an identical topology can reuse the trees it holds.
struct SpfTable {
  SpfTable(const net::Topology& topo, const MetricFn& metric);

  std::vector<double> weights;          ///< metric per LinkId
  std::vector<SpfResult> per_root;      ///< valid where computed[root] != 0
  std::vector<std::uint8_t> computed;
  DijkstraScratch scratch;
};

class UnicastRouting {
 public:
  /// Prepares routing for the whole topology under `metric`, on a private
  /// table. SPFs are computed on first use per root.
  explicit UnicastRouting(const net::Topology& topo,
                          MetricFn metric = cost_metric());

  /// Attaches to an existing table, built (and possibly partly filled) on
  /// a topology identical to `topo` under the same `metric`.
  UnicastRouting(const net::Topology& topo, std::shared_ptr<SpfTable> table,
                 MetricFn metric = cost_metric());

  /// First link of the shortest path from->to; kNoLink if to is
  /// unreachable or from == to. The data plane forwards on it directly.
  [[nodiscard]] LinkId first_link(NodeId from, NodeId to) const;

  /// Next hop on the shortest path from->to; kNoNode if to is unreachable
  /// or from == to.
  [[nodiscard]] NodeId next_hop(NodeId from, NodeId to) const;

  /// Metric distance of the route from->to (kUnreachable if none).
  [[nodiscard]] double distance(NodeId from, NodeId to) const;

  /// Propagation delay accumulated along the route from->to.
  [[nodiscard]] Time path_delay(NodeId from, NodeId to) const;

  [[nodiscard]] bool reachable(NodeId from, NodeId to) const {
    return distance(from, to) < kUnreachable;
  }

  /// Full node sequence of the route, inclusive of both endpoints.
  [[nodiscard]] std::vector<NodeId> path(NodeId from, NodeId to) const;

  [[nodiscard]] const net::Topology& topology() const noexcept {
    return topo_;
  }

  /// The shortest-path tree rooted at `root` (routes root -> *). The
  /// reference is invalidated by invalidate() followed by a query.
  [[nodiscard]] const SpfResult& spf(NodeId root) const;

  /// Marks every cached SPF stale after a topology change (cost edit,
  /// link up/down) — the instantaneous-IGP-reconvergence model of
  /// Session::recompute_routes without the O(N·Dijkstra) up-front cost
  /// per fault event. Roots recompute lazily on their next query. A shared
  /// table is left to its other users: this instance detaches onto a fresh
  /// private one.
  void invalidate();

  /// Bumped by every invalidate(); diagnostic for tests and telemetry.
  [[nodiscard]] std::uint64_t topology_epoch() const noexcept {
    return epoch_;
  }

  /// Dijkstra runs this instance's queries triggered — observability into
  /// the lazy cache. Trees a sibling already built are not counted.
  [[nodiscard]] std::uint64_t spf_computations() const noexcept {
    return spf_runs_;
  }

 private:
  /// Returns the up-to-date SPF for `root`, computing it if missing.
  const SpfResult& ensure(NodeId root) const;

  const net::Topology& topo_;
  MetricFn metric_;
  std::shared_ptr<SpfTable> table_;
  std::uint64_t epoch_ = 1;
  mutable std::uint64_t spf_runs_ = 0;
};

/// Summary of how asymmetric a topology's routing is.
struct AsymmetryReport {
  std::size_t ordered_pairs = 0;      ///< pairs (a,b), a != b, both reachable
  std::size_t asymmetric_pairs = 0;   ///< path(a,b) != reverse(path(b,a))
  double max_cost_skew = 0.0;         ///< max |dist(a,b) - dist(b,a)|

  [[nodiscard]] double asymmetric_fraction() const {
    return ordered_pairs == 0
               ? 0.0
               : static_cast<double>(asymmetric_pairs) /
                     static_cast<double>(ordered_pairs);
  }
};

/// Measures routing asymmetry over all ordered node pairs (the statistic
/// the paper cites from Paxson's measurements, §2.3).
[[nodiscard]] AsymmetryReport measure_asymmetry(const UnicastRouting& routes);

}  // namespace hbh::routing
