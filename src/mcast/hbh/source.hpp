// The HBH channel source.
//
// The source S owns the channel <S, G>: it accepts join messages (which
// always reach it at least once per receiver thanks to the "first join is
// never intercepted" rule), keeps the root MFT, periodically multicasts
// tree(S, R) messages for every non-stale entry, and addresses each data
// packet to its data-eligible entries (receivers or downstream branching
// nodes).
#pragma once

#include "mcast/hbh/tables.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

#include <memory>

namespace hbh::mcast::hbh {

class HbhSource : public net::ProtocolAgent {
 public:
  HbhSource(net::Channel channel, McastConfig config)
      : channel_(channel), config_(config) {}

  void start() override;

  void handle(net::PacketHandle h, NodeId from) override;

  /// Emits one data packet (stamped with the current time) toward every
  /// data-eligible MFT entry; `pad` extra payload bytes ride along for
  /// capacity accounting. Returns the number of copies sent.
  std::size_t send_data(std::uint64_t probe, std::uint32_t seq,
                        std::uint32_t pad = 0);

  [[nodiscard]] const net::Channel& channel() const noexcept {
    return channel_;
  }
  [[nodiscard]] const Mft& mft() const noexcept { return mft_; }

  /// True once at least one receiver/branch is attached.
  [[nodiscard]] bool has_members() const noexcept { return !mft_.empty(); }

 private:
  void emit_tree_round();

  net::Channel channel_;
  McastConfig config_;
  Mft mft_;
  std::uint32_t wave_ = 0;  ///< refresh round stamped into tree messages
  std::unique_ptr<sim::PeriodicTimer> tree_timer_;
};

}  // namespace hbh::mcast::hbh
