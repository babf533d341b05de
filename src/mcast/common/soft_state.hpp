// Soft-state machinery shared by HBH and REUNITE table entries.
//
// Both protocols associate two timers with each control/forwarding entry
// (§3.1): when t1 expires the entry becomes *stale*, when t2 expires the
// entry is destroyed. HBH additionally distinguishes *marked* entries:
//
//   fresh   — used for data forwarding AND downstream tree messages
//   stale   — still used for data forwarding, produces no tree messages
//   marked  — used for tree-message forwarding but NOT data forwarding
//
// Timers are expressed as absolute expiry instants refreshed against the
// simulator clock; expiry is evaluated lazily (no per-entry events), which
// keeps soft-state churn off the event queue entirely.
#pragma once

#include <string>

#include "util/ids.hpp"

namespace hbh::mcast {

/// Protocol timing knobs. Defaults follow DESIGN.md §5: refresh period
/// T = 10 time units, t1 = 3.5 T, t2 = 7 T.
struct McastConfig {
  Time join_period = 10.0;  ///< receiver join refresh period
  Time tree_period = 10.0;  ///< source tree emission period
  Time t1 = 35.0;           ///< entry becomes stale after t1 without refresh
  Time t2 = 70.0;           ///< entry destroyed after t2 without refresh
};

/// One soft-state entry's timers and flags.
class SoftEntry {
 public:
  SoftEntry() = default;
  SoftEntry(const McastConfig& cfg, Time now) { refresh(cfg, now); }

  /// Full refresh: restarts both timers and clears staleness.
  void refresh(const McastConfig& cfg, Time now) {
    t1_expiry_ = now + cfg.t1;
    t2_expiry_ = now + cfg.t2;
  }

  /// Refreshes only t2 (keeps the entry alive); t1 is left untouched — a
  /// fusion keeps Bp's entry alive but neither freshens a stale entry nor
  /// re-expires one freshened by Bp's own joins (Appendix A, rule 4).
  void refresh_keepalive(const McastConfig& cfg, Time now) {
    t2_expiry_ = now + cfg.t2;
  }

  /// Forces t1 expiry immediately (Appendix A, rule 3: "Bp's t1 timer is
  /// expired — Bp becomes stale").
  void expire_t1(Time now) { t1_expiry_ = now; }

  [[nodiscard]] bool stale(Time now) const { return now >= t1_expiry_; }
  [[nodiscard]] bool dead(Time now) const { return now >= t2_expiry_; }

  /// Marks are soft state too: a mark set by mark() decays t1 units after
  /// its last refresh. The mark is asserted by the downstream branching
  /// node Bp's periodic fusions; if Bp crashes (wiping its MFT) the fusions
  /// stop, the mark decays, and data resumes flowing directly to the
  /// receiver — without decay a dead Bp would starve it forever.
  void mark(const McastConfig& cfg, Time now) {
    marked_ = true;
    mark_expiry_ = now + cfg.t1;
  }
  [[nodiscard]] bool marked(Time now) const noexcept {
    return marked_ && now < mark_expiry_;
  }

  /// Raw flag accessors (no decay), for tests and the non-decaying case.
  [[nodiscard]] bool marked() const noexcept { return marked_; }
  void set_marked(bool m) noexcept {
    marked_ = m;
    mark_expiry_ = kNeverExpires;
  }

  /// Absolute instant the entry dies (the auditor's soft-state-leak
  /// deadline check).
  [[nodiscard]] Time t2_expiry() const noexcept { return t2_expiry_; }

  /// Debug string: "fresh" / "stale" / "dead", with "+marked" suffix.
  [[nodiscard]] std::string state_string(Time now) const;

 private:
  static constexpr Time kNeverExpires = 1e300;

  Time t1_expiry_ = 0;
  Time t2_expiry_ = 0;
  Time mark_expiry_ = kNeverExpires;
  bool marked_ = false;
};

}  // namespace hbh::mcast
