// The HBH <-> IP Multicast boundary (paper §3: "HBH can support IP
// Multicast clouds as leaves of the distribution tree"; formalizing this
// interface is the paper's §5 future work).
//
// An IgmpLeafRouter is a border router fronting a classic IP-Multicast
// leaf network. Locally attached hosts signal membership with IGMP-style
// reports (modelled as pim-join/prune messages addressed to the router);
// the router then joins the HBH channel *itself* — one membership, one
// tree leaf, regardless of how many local members exist — and replicates
// arriving channel data onto the member-facing links. This is what makes
// the paper's §4.1 note true by construction: local receivers do not
// influence the cost of the backbone tree.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <unordered_map>

#include "mcast/hbh/router.hpp"
#include "sim/simulator.hpp"

namespace hbh::mcast::hbh {

class IgmpLeafRouter : public HbhRouter {
 public:
  explicit IgmpLeafRouter(McastConfig config)
      : HbhRouter(config), config_(config) {}

  void handle(net::PacketHandle h, NodeId from) override;

  /// Local (IGMP) members currently subscribed to `ch`.
  [[nodiscard]] std::vector<NodeId> local_members(const net::Channel& ch) const;

  /// True while this router maintains an upstream HBH membership for `ch`.
  [[nodiscard]] bool upstream_member(const net::Channel& ch) const {
    return groups_.contains(ch);
  }

 private:
  struct LeafGroup {
    std::map<NodeId, SoftEntry> members;  ///< host neighbor -> liveness
    std::unique_ptr<sim::PeriodicTimer> join_timer;
    bool first_join_sent = false;
  };

  void on_igmp_report(const net::Channel& ch, NodeId host);
  void on_igmp_leave(const net::Channel& ch, NodeId host);
  void send_upstream_join(const net::Channel& ch);
  void purge_members(const net::Channel& ch);

  McastConfig config_;
  std::unordered_map<net::Channel, LeafGroup> groups_;
};

}  // namespace hbh::mcast::hbh
