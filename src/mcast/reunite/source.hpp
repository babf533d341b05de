// The REUNITE channel source: root MFT with the dst = first receiver that
// joined the group; periodic tree emission (marked when an entry went
// stale); data addressed to dst plus one copy per entry.
#pragma once

#include <memory>

#include "mcast/reunite/tables.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace hbh::mcast::reunite {

class ReuniteSource : public net::ProtocolAgent {
 public:
  ReuniteSource(net::Channel channel, McastConfig config)
      : channel_(channel), config_(config) {}

  void start() override;

  void handle(net::PacketHandle h, NodeId from) override;

  /// Emits one data packet round (`pad` extra payload bytes for capacity
  /// accounting). Returns number of copies sent.
  std::size_t send_data(std::uint64_t probe, std::uint32_t seq,
                        std::uint32_t pad = 0);

  [[nodiscard]] const net::Channel& channel() const noexcept {
    return channel_;
  }
  [[nodiscard]] bool has_members() const noexcept { return mft_.has_value(); }
  [[nodiscard]] const Mft* mft() const noexcept {
    return mft_ ? &*mft_ : nullptr;
  }

 private:
  void emit_tree_round();

  /// Purges the root MFT; evicted receivers become "evict" instants under
  /// `ctx` (the tree-round/data/join span that triggered the purge).
  void purge(const net::TraceContext& ctx = {});

  net::Channel channel_;
  McastConfig config_;
  std::optional<Mft> mft_;
  std::uint32_t wave_ = 0;  ///< refresh round stamped into tree messages
  std::unique_ptr<sim::PeriodicTimer> tree_timer_;
};

}  // namespace hbh::mcast::reunite
