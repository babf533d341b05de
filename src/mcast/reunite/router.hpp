// The REUNITE router agent (baseline), following §2.1–2.3 and [21].
//
// Join processing, router B receiving join(S, r) travelling toward S
// (joins carry a `fresh` bit: set while the receiver is NOT connected to
// the tree; only fresh joins may anchor new state):
//   * B branching and dst-entry live:
//       r in entries             -> refresh, drop (r stays joined at B)
//       r == dst                 -> forward (dst joins refresh the root)
//       r unknown, join fresh    -> add r to entries, drop ("joins at B")
//       r unknown, refresh join  -> forward toward r's existing anchor
//   * B branching but dst stale  -> forward (no interception; Fig. 2c)
//   * B has fresh MCT{x}, x != r, join fresh -> become branching:
//                                   MFT.dst = x, entries = {r}, drop
//   * otherwise                  -> forward unchanged
//
// Tree processing, B receiving tree(S, r) (possibly marked):
//   * branching, r == dst:
//       marked  -> dst becomes stale (no t2 refresh); replicate + forward
//       fresh   -> refresh dst; replicate one tree(S, rj) per live entry
//                  (marked iff rj is stale) and forward the original
//   * branching, r != dst        -> forward unchanged (foreign branch)
//   * non-branching:
//       marked  -> destroy matching MCT entry; forward
//       no MCT  -> create MCT{r}; forward
//       r match -> refresh; forward
//       stale   -> replace entry with r; forward
//       else    -> forward (REUNITE never branches on tree messages —
//                  exactly why Fig. 3 duplicates packets on R1-R6)
//
// Data: a packet addressed to MFT.dst is forwarded onward *and* one copy
// is sent to every live entry. Everything else is plain unicast.
#pragma once

#include <unordered_map>

#include "mcast/common/pacing.hpp"
#include "mcast/common/soft_state.hpp"
#include "mcast/reunite/tables.hpp"
#include "net/network.hpp"

namespace hbh::mcast::reunite {

class ReuniteRouter : public net::ProtocolAgent {
 public:
  explicit ReuniteRouter(McastConfig config) : config_(config) {}

  void handle(net::PacketHandle h, NodeId from) override;

  [[nodiscard]] const ChannelState* state(const net::Channel& ch) const;

  /// Mutable state exposition for the invariant auditor's fault-seeding
  /// tests; production code never mutates through this.
  [[nodiscard]] ChannelState* mutable_state(const net::Channel& ch) {
    return const_cast<ChannelState*>(
        static_cast<const ReuniteRouter*>(this)->state(ch));
  }

  /// Structural table change counter (Figure 4 stability comparison).
  [[nodiscard]] std::uint64_t structural_changes() const noexcept {
    return structural_changes_;
  }

  /// The same counter restricted to one channel (multi-channel sessions
  /// report per-handle stability; the total stays the cross-channel sum).
  [[nodiscard]] std::uint64_t structural_changes(
      const net::Channel& ch) const {
    const auto it = structural_by_channel_.find(ch);
    return it == structural_by_channel_.end() ? 0 : it->second;
  }
  [[nodiscard]] const std::unordered_map<net::Channel, std::uint64_t>&
  structural_by_channel() const noexcept {
    return structural_by_channel_;
  }

 private:
  void on_join(net::PacketHandle h);
  void on_tree(net::PacketHandle h);
  void on_data(net::PacketHandle h);

  /// Lazily purges dead state for the channel; drops empty tables. Evicted
  /// receivers (including a promoted-over dst) are traced as "evict"
  /// instants under `ctx` (the span of the triggering packet).
  void purge(const net::Channel& ch, const net::TraceContext& ctx = {});

  /// Records `n` structural changes against `ch` (and the global total).
  void note_structural(const net::Channel& ch, std::uint64_t n) {
    if (n == 0) return;
    structural_changes_ += n;
    structural_by_channel_[ch] += n;
  }

  [[nodiscard]] Time now() const { return simulator().now(); }

  McastConfig config_;
  std::unordered_map<net::Channel, ChannelState> channels_;
  std::unordered_map<net::Channel, TreePacer> pacers_;
  std::unordered_map<net::Channel, ReplicationGuard> guards_;
  std::unordered_map<net::Channel, std::uint32_t> last_wave_;
  /// Highest refresh wave observed per channel; older trees are forwarded
  /// but never mutate state (stale-straggler rejection under reordering).
  std::unordered_map<net::Channel, std::uint32_t> seen_wave_;
  std::uint64_t structural_changes_ = 0;
  std::unordered_map<net::Channel, std::uint64_t> structural_by_channel_;
};

}  // namespace hbh::mcast::reunite
