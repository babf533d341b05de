// Single-source shortest paths over the directed topology.
//
// Unicast routes in the simulation are shortest paths under the
// per-direction link costs; because the two directions of a link have
// independent costs, route(a,b) and route(b,a) generally differ — the
// asymmetry at the heart of the paper. The metric is pluggable (QoS hook,
// paper §5 future work); by default it is the link cost.
#pragma once

#include <functional>
#include <limits>
#include <vector>

#include "net/topology.hpp"
#include "util/ids.hpp"
#include "util/min_heap.hpp"

namespace hbh::routing {

/// Maps an edge to its routing metric. Must be positive for every edge.
using MetricFn = std::function<double(const net::Topology::Edge&)>;

/// The default metric: the link's configured cost.
[[nodiscard]] MetricFn cost_metric();

/// The delay metric, for delay-based (QoS) routing experiments.
[[nodiscard]] MetricFn delay_metric();

inline constexpr double kUnreachable = std::numeric_limits<double>::infinity();

/// Shortest-path tree rooted at `root`, following *outgoing* edges (so the
/// result describes routes root -> v, matching data-plane direction).
struct SpfResult {
  NodeId root;
  std::vector<double> dist;      ///< metric distance root->v; kUnreachable if none
  std::vector<NodeId> parent;    ///< predecessor of v on the root->v path
  std::vector<NodeId> first_hop; ///< first node after root on the root->v path
  std::vector<Time> delay;       ///< propagation delay root->v along the path

  [[nodiscard]] bool reachable(NodeId v) const {
    return dist[v.index()] < kUnreachable;
  }
};

/// Reusable working memory for dijkstra_into(): the frontier heap storage
/// and the settled flags. Keeping one scratch (and one SpfResult) alive
/// across calls makes a recompute allocation-free once the buffers are
/// warm — the fault path (Session::recompute_routes) re-runs SPFs on every
/// link-down/up/crash event.
struct DijkstraScratch {
  struct QEntry {
    std::uint64_t dist_bits;  ///< key_bits(distance)
    std::uint64_t order;      ///< push-order tie-break for determinism
    std::uint32_t node;
    [[nodiscard]] HeapKey key() const noexcept {
      return heap_key(dist_bits, order);
    }
  };
  static_assert(sizeof(QEntry) == 24);
  MinHeap<QEntry> frontier;
  std::vector<std::uint8_t> settled;
};

/// Runs Dijkstra from `root` into `out`, reusing the capacity of `out`'s
/// vectors and `scratch`'s buffers. Results are identical to dijkstra().
void dijkstra_into(const net::Topology& topo, NodeId root,
                   const MetricFn& metric, SpfResult& out,
                   DijkstraScratch& scratch);

/// Runs Dijkstra from `root`. Deterministic: ties are broken by preferring
/// the path found first under ascending (distance, settle-order) expansion,
/// with neighbor scan order fixed by edge insertion order.
[[nodiscard]] SpfResult dijkstra(const net::Topology& topo, NodeId root,
                                 const MetricFn& metric = cost_metric());

}  // namespace hbh::routing
