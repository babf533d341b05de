// The data source for the PIM baselines.
//
// PIM-SS: data is handed group-addressed to the access router, which
// forwards it down the (S,G) reverse SPT rooted at the source.
// PIM-SM: data is unicast-encapsulated toward the RP (register tunnel);
// the RP injects it into the (*,G) shared tree.
#pragma once

#include "mcast/common/soft_state.hpp"
#include "net/network.hpp"

namespace hbh::mcast::pim {

enum class PimMode {
  kSourceTree,  ///< PIM-SS: reverse SPT rooted at the source
  kSharedTree,  ///< PIM-SM: shared tree rooted at the RP, register tunnel
};

class PimSource : public net::ProtocolAgent {
 public:
  /// For kSharedTree, `rp` must be the RP router's unicast address.
  PimSource(net::Channel channel, PimMode mode, Ipv4Addr rp = kNoAddr)
      : channel_(channel), mode_(mode), rp_(rp) {}

  void handle(net::PacketHandle h, NodeId from) override;

  /// Emits one data packet (`pad` extra payload bytes for capacity
  /// accounting). Returns the number of copies sent (always 1; replication
  /// happens inside the network).
  std::size_t send_data(std::uint64_t probe, std::uint32_t seq,
                        std::uint32_t pad = 0);

  [[nodiscard]] const net::Channel& channel() const noexcept {
    return channel_;
  }
  [[nodiscard]] PimMode mode() const noexcept { return mode_; }

 private:
  net::Channel channel_;
  PimMode mode_;
  Ipv4Addr rp_;
};

}  // namespace hbh::mcast::pim
