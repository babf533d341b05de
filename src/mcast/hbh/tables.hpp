// HBH's two routing tables (§3): the Multicast Control Table kept by
// non-branching on-tree routers and the Multicast Forwarding Table kept by
// branching routers (and by the source, which is the tree root).
//
// Key difference from REUNITE (§3): an HBH MFT entry stores the address of
// the *next branching node* (or of a receiver, for the branching router
// nearest that receiver) — never a remote receiver used as a forwarding
// destination — and there is no dst field. Data arriving at a branching
// router is addressed to the router itself.
#pragma once

#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mcast/common/soft_state.hpp"
#include "util/ipv4.hpp"

namespace hbh::mcast::hbh {

/// The single-entry control table of a non-branching on-tree router.
struct Mct {
  Ipv4Addr target;   ///< the receiver whose tree messages flow through here
  SoftEntry state;
};

/// Forwarding table of a branching router: target -> soft state.
///
/// Entry semantics (Appendix A):
///  * fresh           — receives data copies and downstream tree messages
///  * stale           — receives data copies only (no tree messages)
///  * marked (+fresh) — receives tree messages only (no data copies)
/// Dead entries (t2 expired) are purged lazily by purge(), which walks the
/// table only once `now` reaches a lower bound on the entries' t2. The
/// bound holds because upsert() lowers it for every entry it writes and
/// nothing else ever moves a t2 earlier (refreshes restart it from the
/// advancing clock).
class Mft {
 public:
  using Entry = std::pair<Ipv4Addr, SoftEntry>;
  using Entries = std::vector<Entry>;  // sorted by target => deterministic

  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  [[nodiscard]] bool contains(Ipv4Addr target) const {
    return find(target) != nullptr;
  }
  [[nodiscard]] SoftEntry* find(Ipv4Addr target);
  [[nodiscard]] const SoftEntry* find(Ipv4Addr target) const;

  /// Inserts a fresh entry (or fully refreshes an existing one).
  SoftEntry& upsert(Ipv4Addr target, const McastConfig& cfg, Time now);

  /// Removes entries whose t2 expired. Returns number removed; when
  /// `evicted` is non-null (tracing) the removed targets are appended.
  std::size_t purge(Time now, std::vector<Ipv4Addr>* evicted = nullptr);

  void erase(Ipv4Addr target);

  /// Calls `fn(target)`, ascending by address, for every target eligible
  /// for data copies: not marked, not dead (stale is OK).
  template <typename Fn>
  void for_each_data_target(Time now, Fn&& fn) const {
    for (const auto& [target, entry] : entries_) {
      if (!entry.dead(now) && !entry.marked(now)) fn(target);
    }
  }

  /// The same for downstream tree messages: not stale, not dead (marked
  /// entries *do* receive tree messages).
  template <typename Fn>
  void for_each_tree_target(Time now, Fn&& fn) const {
    for (const auto& [target, entry] : entries_) {
      if (!entry.dead(now) && !entry.stale(now)) fn(target);
    }
  }

  /// Number of live (non-dead) entries; allocates nothing.
  [[nodiscard]] std::size_t live_count(Time now) const;

  /// All live (non-dead) targets — the node list a fusion message carries.
  /// Reserved to its exact size: one allocation.
  [[nodiscard]] std::vector<Ipv4Addr> live_targets(Time now) const;

  [[nodiscard]] const Entries& raw() const noexcept { return entries_; }
  /// Fault-seeding access (auditor tests): entries may be refreshed but
  /// their t2 must never move earlier, or purge() would miss them.
  Entries& raw() noexcept { return entries_; }

  [[nodiscard]] std::string to_string(Time now) const;

 private:
  static constexpr Time kNoExpiry = std::numeric_limits<Time>::infinity();

  Entries entries_;
  Time min_t2_ = kNoExpiry;  ///< lower bound on every entry's t2 expiry
};

/// Per-channel HBH router state: exactly one of MCT / MFT is active for an
/// on-tree router (Appendix A: "Each HBH router in S's distribution tree
/// has either a MCT<S> or a MFT<S>").
struct ChannelState {
  std::optional<Mct> mct;
  std::optional<Mft> mft;

  [[nodiscard]] bool branching() const noexcept { return mft.has_value(); }
};

}  // namespace hbh::mcast::hbh
