// The HBH router agent: Appendix A's message processing rules.
//
// Join rules (Fig. 9a):
//   J1 router has no MFT<S>            -> forward join unchanged
//   J2 R not in MFT<S>                 -> forward join unchanged
//   J3 R in MFT<S>                     -> intercept: refresh R, emit join(S,B)
//   (plus §3.1: "the first join issued by a receiver is never intercepted")
//
// Tree rules (Fig. 9c), B receiving tree(S, R):
//   T1 branching, addressed to B       -> discard; re-emit tree(S,Ri) for
//                                         every non-stale MFT entry
//   T2 branching, R new                -> insert R; fusion upstream; forward
//   T3 branching, R in MFT             -> refresh R; fusion upstream; forward
//   T4 not on tree                     -> create MCT{R}; forward
//   T6 MCT contains R                  -> refresh MCT; forward
//   T7 MCT stale                       -> replace MCT entry with R; forward
//   T8 MCT fresh, R different          -> become branching: MFT{old, R},
//                                         destroy MCT, fusion upstream,
//                                         forward with last_branch = B
//
// Fusion rules (Fig. 9b), B receiving fusion(S, R1..Rn) from Bp:
//   F1 not addressed to B              -> forward upstream
//   F2 addressed to B                  -> mark listed entries present in MFT
//   F3 Bp absent from MFT              -> insert Bp with t1 expired (stale)
//   F4 Bp present                      -> refresh t2 only; t1 stays as-is
//
// Data plane: a data packet addressed to B (branching) is consumed and one
// modified copy is sent to every non-marked live MFT entry.
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>

#include "mcast/common/pacing.hpp"
#include "mcast/common/soft_state.hpp"
#include "mcast/hbh/tables.hpp"
#include "net/network.hpp"

namespace hbh::mcast::hbh {

/// Applies fusion rules F2–F4 to an MFT (shared by router and source).
void apply_fusion(Mft& mft, const net::FusionPayload& fusion,
                  const McastConfig& cfg, Time now);

class HbhRouter : public net::ProtocolAgent {
 public:
  explicit HbhRouter(McastConfig config) : config_(config) {}

  void handle(net::PacketHandle h, NodeId from) override;

  /// Introspection for tests and the tree-dump tooling. Null if this
  /// router has no table for the channel (none installed yet, or both
  /// expired).
  [[nodiscard]] const ChannelState* state(const net::Channel& ch) const;

  /// Mutable state exposition for the invariant auditor's fault-seeding
  /// tests (e.g. forcing a stale entry to prove leak detection fires).
  /// Production code never mutates through this.
  [[nodiscard]] ChannelState* mutable_state(const net::Channel& ch) {
    return const_cast<ChannelState*>(
        static_cast<const HbhRouter*>(this)->state(ch));
  }

  /// Number of structural table changes (entry create/destroy, MCT<->MFT
  /// conversions) — the "tree stability" metric of Figure 4.
  [[nodiscard]] std::uint64_t structural_changes() const noexcept {
    return structural_changes_;
  }

  /// The same counter restricted to one channel (multi-channel sessions
  /// report per-handle stability; the total above stays the cross-channel
  /// sum).
  [[nodiscard]] std::uint64_t structural_changes(
      const net::Channel& ch) const {
    const auto it = channels_.find(ch);
    return it == channels_.end() ? 0 : it->second.structural;
  }

  /// Joins intercepted under rule J3 (HBH's signature mechanism: refresh
  /// locally, join upstream as ourselves) — a telemetry gauge input.
  [[nodiscard]] std::uint64_t joins_intercepted() const noexcept {
    return joins_intercepted_;
  }

 private:
  /// Everything kept for one channel, found with one lookup. The tables
  /// come and go with soft state; the rest outlives them.
  struct ChannelRecord {
    ChannelState tables;
    TreePacer pacer;
    /// Made by the first data packet replicated here: most records are
    /// transit routers', which never need the 0.5 KB ring.
    std::unique_ptr<ReplicationGuard> guard;
    /// Highest wave whose T1 token was re-expanded here.
    std::optional<std::uint32_t> last_wave;
    /// Highest refresh wave observed; trees from older waves are forwarded
    /// but never mutate state (stale-straggler rejection under reordering
    /// — see docs/RESILIENCE.md).
    std::optional<std::uint32_t> seen_wave;
    std::uint64_t structural = 0;
  };

  void on_join(net::PacketHandle h);
  void on_tree(net::PacketHandle h);
  void on_fusion(net::PacketHandle h);
  void on_data(net::PacketHandle h);

  /// Sends join(S, B) toward the source (a branching router joining the
  /// channel itself at the next upstream branching router). `ctx` is the
  /// causal parent — the span of the join that triggered the interception.
  void send_self_join(const net::Channel& ch, const net::TraceContext& ctx);

  /// Sends fusion(S, <all live MFT targets>) addressed to `upstream`,
  /// causally parented on the tree message that triggered it.
  void send_fusion(const net::Channel& ch, Mft& mft, Ipv4Addr upstream,
                   const net::TraceContext& ctx);

  /// The channel's record, or null if this router never saw the channel.
  [[nodiscard]] ChannelRecord* find_record(const net::Channel& ch) {
    const auto it = channels_.find(ch);
    return it == channels_.end() ? nullptr : &it->second;
  }

  /// Lazily purges the record's dead state; drops empty tables. Evicted
  /// targets are traced as "evict" instants under `ctx` (the span of the
  /// packet whose arrival triggered the purge).
  void purge(const net::Channel& ch, ChannelRecord& rec,
             const net::TraceContext& ctx);

  /// Records `n` structural changes against the record (and the total).
  void note_structural(ChannelRecord& rec, std::uint64_t n) {
    structural_changes_ += n;
    rec.structural += n;
  }

  [[nodiscard]] Time now() const { return simulator().now(); }

  McastConfig config_;
  std::unordered_map<net::Channel, ChannelRecord> channels_;
  std::uint64_t structural_changes_ = 0;
  std::uint64_t joins_intercepted_ = 0;
};

}  // namespace hbh::mcast::hbh
