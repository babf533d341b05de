// Forwarding-plane invariant auditor.
//
// The paper's headline claims are *invariants* — loop-free trees, exactly
// one delivery per subscribed receiver, forwarding state only where the
// tree branches, soft state that dies within t2 of the last refresh. The
// Auditor rides the fabric's existing observation seams (PacketTap for
// per-hop wire events, including the on_deliver choke point every arrival
// passes, plus harness-driven membership/emission/table-sweep
// notifications) and turns every violation
// into a structured AnomalyEvent: kind, virtual time, node, channel,
// offending sequence number, and the causal trace id when tracing is on.
//
// Anomalies are aggregated into per-kind counters (the run report's
// hbh.anomalies/v1 section), optionally retained as events (bounded by
// AuditorConfig::max_events) for the HBH_AUDIT_OUT NDJSON stream, and
// optionally fatal: strict mode throws on the first violation so CI turns
// every bench into a self-checking correctness probe. Everything here
// observes virtual time only, so output is byte-identical across HBH_JOBS.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/channel.hpp"
#include "net/network.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "util/ids.hpp"

namespace hbh::metrics {

enum class AnomalyKind : std::uint8_t {
  kLoop = 0,            ///< a data copy re-crossed a link / exhausted TTL
  kDuplicateDelivery,   ///< a subscribed receiver saw one (channel, seq) twice
  kBlackHole,           ///< subscribed + source active, yet no data arrives
  kStateMisplacement,   ///< MCT and MFT live simultaneously (HBH/REUNITE)
  kSoftStateLeak,       ///< an entry still live past t2 + slack after leave
  kTreeDrift,           ///< converged tree cost deviates from the oracle SPT
};
inline constexpr std::size_t kAnomalyKindCount = 6;

/// Stable kebab-case label ("loop", "duplicate-delivery", ...) used in the
/// report section, the NDJSON stream, and strict-mode error messages.
[[nodiscard]] std::string_view to_string(AnomalyKind kind);

struct AnomalyEvent {
  AnomalyKind kind{};
  Time at = 0;                ///< virtual detection time
  NodeId node = kNoNode;      ///< router/host the violation was observed at
  net::Channel channel{};
  std::uint32_t seq = 0;      ///< offending data sequence number (0 = n/a)
  std::uint64_t trace_id = 0; ///< causal root when tracing was active
  std::string detail;         ///< deterministic human-readable specifics
};

struct AuditorConfig {
  bool strict = false;  ///< throw std::runtime_error on the first violation

  /// Whether the audited protocol guarantees at-most-once delivery and
  /// no-link-recrossing for data copies. True for HBH and PIM (replication
  /// guard / RPF); false for REUNITE, whose unicast-driven forwarding
  /// legitimately duplicates packets and re-crosses links during tree
  /// transients — the paper's §2.3 criticism, not a forwarding bug. When
  /// false the heuristic detectors (duplicate-delivery, TTL-regression
  /// loop) are disabled; the definitive TTL-exhaustion loop detector stays
  /// active for every protocol.
  bool at_most_once = true;

  // Soft-state timers the detection thresholds derive from; the harness
  // passes its McastConfig values so audit windows track the protocol's.
  Time tree_period = 10;
  Time t1 = 35;
  Time t2 = 70;

  /// Leak horizon: after the last member leaves, refreshes stop reaching
  /// routers within one t1 (mark decay), and the last refreshed entry dies
  /// within a further t2 — any entry still *live* leak_slack after that is
  /// being refreshed by nobody legitimate.
  Time leak_slack = 20;

  /// Black-hole windows: emissions only count once the receiver has had
  /// `grace` to graft onto the tree; an uncountered emission older than
  /// `starvation` (with no delivery since) is evidence, and `min_emissions`
  /// pieces of evidence raise the anomaly (single-probe measurements can
  /// never trigger it, so pre-convergence delivery failures stay silent).
  Time blackhole_grace = 40;
  Time blackhole_starvation = 70;
  std::size_t blackhole_min_emissions = 3;

  /// Retained-event cap (counters keep counting past it).
  std::size_t max_events = 256;
};

class Auditor : public net::PacketTap {
 public:
  /// `network` (optional) resolves the trace ids that anomaly events
  /// cite for the packets its taps are handed; without it they read 0.
  explicit Auditor(AuditorConfig config = {},
                   const net::Network* network = nullptr);

  // --- wire observation (PacketTap; fed by Network) ----------------------
  void on_transmit(const net::Topology::Edge& edge, const net::Packet& packet,
                   Time now) override;
  void on_drop(NodeId at, const net::Packet& packet, std::string_view reason,
               Time now) override;
  void on_deliver(NodeId to, NodeId from, const net::Packet& packet,
                  Time now) override;

  // --- membership / workload notifications (fed by the harness at the
  // virtual times the actions actually execute) ---------------------------
  void note_subscribe(const net::Channel& channel, NodeId host, Time now);
  void note_unsubscribe(const net::Channel& channel, NodeId host, Time now);
  void note_emission(const net::Channel& channel, std::uint32_t seq, Time now);

  /// Post-measurement tree-cost drift check. `oracle` is the edge count of
  /// the oracle tree (0 = no oracle for this protocol — recorded only);
  /// the anomaly fires only when the measurement delivered exactly once to
  /// every member (i.e. the tree had converged) yet cost ≠ oracle.
  void note_tree_cost(const net::Channel& channel, std::uint64_t measured,
                      std::uint64_t oracle, bool exact_delivery, Time now);

  // --- table sweep (the harness enumerates protocol state into these) ----
  void begin_sweep(Time now);
  /// One soft-state entry (`table` ∈ {"mct","mft","oif"}) with its absolute
  /// t2 deadline; raises a leak when the entry is still live long after the
  /// channel's last member left.
  void sweep_entry(NodeId router, const net::Channel& channel,
                   std::string_view table, Time t2_expiry);
  /// Per-(router, channel) table shape; MCT and MFT live at once violates
  /// the HBH/REUNITE "exactly one table per channel" invariant.
  void sweep_tables(NodeId router, const net::Channel& channel, bool live_mct,
                    bool live_mft);
  void end_sweep();  ///< finalizes black-hole checks at the sweep time
  /// Wall time from begin_sweep to end_sweep, summed over every sweep.
  [[nodiscard]] double sweep_seconds() const noexcept { return sweep_seconds_; }

  // --- results -----------------------------------------------------------
  [[nodiscard]] std::uint64_t count(AnomalyKind kind) const noexcept {
    return counts_[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] std::uint64_t total() const noexcept;
  [[nodiscard]] const std::vector<AnomalyEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] const AuditorConfig& config() const noexcept {
    return config_;
  }

  /// Relaxes (or restores) the at-most-once heuristics mid-run. Workloads
  /// that deliberately break the promise — saturating queues until
  /// soft-state rebuilds duplicate transient deliveries — flip this off
  /// when congestion goes live, exactly like the standing REUNITE
  /// carve-out (AuditorConfig::at_most_once).
  void set_at_most_once(bool v) noexcept { config_.at_most_once = v; }

  /// Appends one NDJSON line per retained event (schema hbh.audit/v1;
  /// virtual-time fields only, so the stream is byte-identical across
  /// HBH_JOBS). `protocol` labels each line's origin run.
  void append_ndjson(std::string& out, std::string_view protocol) const;

 private:
  struct MemberState {
    Time subscribed_at = 0;
    Time last_delivery = -1;        ///< -1: nothing delivered yet
    bool blackhole_reported = false;
    std::set<std::uint32_t> seqs_seen;
  };
  struct ChannelAudit {
    std::map<NodeId, MemberState> members;
    Time last_left = -1;  ///< when the last member left (-1: never emptied)
    bool ever_member = false;
    std::deque<Time> emissions;
  };
  /// One data copy's identity on one directed link: the same copy crossing
  /// the same link again can only have a *lower* TTL — the loop signature.
  /// (`dst` disambiguates legitimate same-(channel, seq) copies addressed
  /// to different subtree targets; impairment duplicates share the
  /// original's TTL, so they compare equal, not lower.)
  struct CopyKey {
    net::Channel channel;
    std::uint32_t seq;
    Ipv4Addr dst;
    bool encapsulated;
    std::uint32_t link;  ///< packed (from << 16 | to) directed-edge id
    friend bool operator==(const CopyKey&, const CopyKey&) = default;
  };
  struct CopyKeyHash {
    std::size_t operator()(const CopyKey& k) const noexcept;
  };

  /// The trace id of a packet the fabric handed to a tap (0 untraced).
  [[nodiscard]] std::uint64_t trace_id_of(const net::Packet& packet) const;

  void raise(AnomalyKind kind, Time at, NodeId node,
             const net::Channel& channel, std::uint32_t seq,
             std::uint64_t trace_id, std::string detail);
  void check_blackholes(const net::Channel& channel, ChannelAudit& audit,
                        Time now);

  AuditorConfig config_;
  const net::Network* network_;
  std::array<std::uint64_t, kAnomalyKindCount> counts_{};
  std::vector<AnomalyEvent> events_;
  std::map<net::Channel, ChannelAudit> channels_;
  std::unordered_map<CopyKey, int, CopyKeyHash> copies_;  ///< first-seen TTLs
  std::set<std::pair<std::uint32_t, net::Channel>> leak_raised_;
  std::set<std::pair<std::uint32_t, net::Channel>> shape_raised_;
  Time sweep_now_ = 0;
  std::chrono::steady_clock::time_point sweep_start_{};
  double sweep_seconds_ = 0;
};

}  // namespace hbh::metrics
