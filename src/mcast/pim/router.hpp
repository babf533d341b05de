// PIM-style baseline routers (the paper's §4.2 "PIM-SM" and "PIM-SS").
//
// Both protocols build *reverse* shortest-path trees by propagating joins
// hop-by-hop toward a root (the source for PIM-SS ≡ PIM-SSM's tree shape;
// the rendez-vous point for PIM-SM's shared tree). Every router on a join
// path records the neighbor the join arrived from as an outgoing
// interface (oif) for the group, then forwards the join toward the root.
// Data flows down the installed oifs via true multicast replication —
// RPF guarantees at most one copy of a packet per link.
//
// PIM-SM data path: the source unicast-encapsulates data to the RP
// (register tunnel); the RP router decapsulates and injects it into the
// shared tree. Receiver delay is therefore delay(S->RP shortest path) +
// delay down the reverse path RP->r — the two-part path of §4.2.2.
#pragma once

#include <map>
#include <unordered_map>

#include "mcast/common/soft_state.hpp"
#include "net/network.hpp"
#include "routing/unicast.hpp"

namespace hbh::mcast::pim {

class PimRouter : public net::ProtocolAgent {
 public:
  explicit PimRouter(McastConfig config) : config_(config) {}

  void handle(net::PacketHandle h, NodeId from) override;

  /// Outgoing interfaces currently installed for a channel (tests).
  [[nodiscard]] std::vector<NodeId> oifs(const net::Channel& ch) const;

  /// Raw oif map for a channel, with soft-state entries (nullptr when the
  /// router holds no group state); the auditor's table sweep reads it.
  [[nodiscard]] const std::map<NodeId, SoftEntry>* oif_entries(
      const net::Channel& ch) const {
    const auto it = groups_.find(ch);
    return it == groups_.end() ? nullptr : &it->second.oifs;
  }

  /// Mutable state exposition for the invariant auditor's fault-seeding
  /// tests; production code never mutates through this.
  [[nodiscard]] std::map<NodeId, SoftEntry>* mutable_oif_entries(
      const net::Channel& ch) {
    const auto it = groups_.find(ch);
    return it == groups_.end() ? nullptr : &it->second.oifs;
  }

 private:
  struct GroupState {
    Ipv4Addr root;
    std::map<NodeId, SoftEntry> oifs;  ///< downstream neighbor -> liveness
  };

  void on_join(net::PacketHandle h, NodeId from);
  void on_prune(net::PacketHandle h, NodeId from);
  void on_data(net::PacketHandle h, NodeId from);
  /// Lazily drops dead oifs; each one becomes an "evict" instant under
  /// `ctx` (the span of the packet whose arrival triggered the purge).
  void purge(const net::Channel& ch, const net::TraceContext& ctx = {});

  /// Sends packet `h` to every live oif except `skip` (consuming it when
  /// there is none).
  void replicate(const net::Channel& ch, net::PacketHandle h, NodeId skip);

  [[nodiscard]] Time now() const { return simulator().now(); }

  McastConfig config_;
  std::unordered_map<net::Channel, GroupState> groups_;
};

/// Picks the rendez-vous point for PIM-SM: the router minimizing the total
/// shortest-path cost toward all other routers (an outbound medoid — the
/// paper does not specify RP placement; see DESIGN.md §5).
[[nodiscard]] NodeId choose_rp(const routing::UnicastRouting& routes,
                               const std::vector<NodeId>& routers);

/// Delay-aware RP placement: minimizes the expected PIM-SM receiver delay
/// — the register leg dist(source -> rp) plus the mean data-direction
/// delay down the shared tree (the reverse of each router's rp-bound
/// shortest path). This is how an operator would place the RP for one
/// dominant source, and it is what makes the paper's Fig. 8(a)
/// "shared tree beats source tree" effect visible.
[[nodiscard]] NodeId choose_rp_delay_aware(
    const routing::UnicastRouting& routes, const std::vector<NodeId>& routers,
    NodeId source);

}  // namespace hbh::mcast::pim
