// A Session wires one protocol onto one topology and drives a simulation.
//
// One Session = one network hosting N ⟨S,G⟩ channels (the EXPRESS channel
// model, §2.1). The constructor creates a default channel rooted at the
// scenario's source host; Session::create_channel() adds more, each
// returning a ChannelHandle that carries the per-channel surface:
// subscribe/unsubscribe receivers, run the control plane to convergence,
// then inject probe packets and measure tree cost and receiver delay.
// The original single-channel methods remain as thin forwards to the
// default channel, so single-channel code reads exactly as before
// (docs/CHANNELS.md).
//
// This is the public entry point a downstream user of the library touches
// first (see examples/quickstart.cpp).
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "harness/fault_plan.hpp"
#include "mcast/common/membership.hpp"
#include "metrics/auditor.hpp"
#include "metrics/net_stats.hpp"
#include "metrics/probe.hpp"
#include "metrics/registry.hpp"
#include "metrics/sampler.hpp"
#include "metrics/tracer.hpp"
#include "net/network.hpp"
#include "routing/unicast.hpp"
#include "sim/simulator.hpp"
#include "topo/builders.hpp"

namespace hbh::harness {

class ChurnPlan;
class MultiSourceHost;
class Session;

/// The four protocols the paper evaluates (§4.2).
enum class Protocol { kHbh, kReunite, kPimSm, kPimSs };

[[nodiscard]] std::string_view to_string(Protocol p);

/// All protocols, in the paper's plotting order.
[[nodiscard]] const std::vector<Protocol>& all_protocols();

/// The run-wide observers a Session installs at construction
/// (docs/OBSERVABILITY.md). All off by default, and free on the packet
/// path while off. HBH_AUDIT adds `audit` (and `strict` for
/// HBH_AUDIT=strict) to every session's spec.
struct ObserverSpec {
  /// Fabric stats tap and protocol-state gauges (registry()), sampled once
  /// per tree period (sampler()).
  bool telemetry = false;
  bool tracing = false;  ///< causal spans: a metrics::Tracer (tracer())
  /// The forwarding-plane invariant auditor (auditor()), its thresholds
  /// derived from the session's soft-state timers.
  bool audit = false;
  bool strict = false;  ///< with `audit`: the first violation throws
};

struct SessionConfig {
  mcast::McastConfig timers{};
  /// Multicast-incapable routers (unicast clouds): these get the default
  /// forwarding agent instead of a protocol agent.
  std::vector<NodeId> unicast_only{};
  /// Observers installed right after the network starts, before any
  /// caller-scheduled event.
  ObserverSpec observe{};
};

/// Result of one measurement round (one probe packet).
struct Measurement {
  std::size_t tree_cost = 0;        ///< data-packet copies over all links
  double mean_delay = 0;            ///< mean first-delivery delay
  std::size_t max_link_copies = 0;  ///< >1 reveals duplicate copies (Fig. 3)
  std::vector<NodeId> missing;      ///< subscribed receivers that got nothing
  std::vector<NodeId> duplicated;   ///< receivers that got multiple copies
  /// Copies of the probe packet per directed link (the measured tree).
  std::map<std::pair<NodeId, NodeId>, std::size_t> per_link;

  [[nodiscard]] bool delivered_exactly_once() const {
    return missing.empty() && duplicated.empty();
  }
};

/// Router-state census — the paper's §2.1 motivation: REUNITE/HBH keep
/// *forwarding* state (MFT entries / PIM oifs) only where packets are
/// replicated, and cheap *control* state (MCT) elsewhere.
struct StateCensus {
  std::size_t control_entries = 0;     ///< MCT entries
  std::size_t forwarding_entries = 0;  ///< MFT entries / PIM oifs
  std::size_t routers_with_state = 0;
};

/// State held by one router class (§3's state-placement argument).
/// `routers` counts (router, channel) incidences: a router that is a
/// branching node for three channels contributes three — the unit the
/// aggregate-state scaling claim is about.
struct ClassCensus {
  std::size_t routers = 0;
  std::size_t control_entries = 0;
  std::size_t forwarding_entries = 0;
};

/// Cross-channel census, split by router class. For HBH/REUNITE a router
/// is *branching* on a channel when it holds a live MFT there (it is an
/// addressed replication point) and *non-branching* when it holds only an
/// MCT — so non_branching.forwarding_entries is zero by construction, the
/// paper's claim. For PIM, ≥2 oifs is branching and exactly 1 oif is
/// non-branching — which still costs forwarding state, the contrast the
/// paper draws. The PIM-SM RP is its own class for every channel it
/// serves, whatever its fan-out.
struct AggregateCensus {
  StateCensus totals;  ///< routers_with_state counts distinct routers
  ClassCensus branching;
  ClassCensus non_branching;
  ClassCensus rp;
};

/// Identifies one channel within its Session (0 = the default channel).
using ChannelId = std::uint32_t;

/// Explicit description of a channel's data traffic (docs/CHANNELS.md).
/// The default spec (rate 0) emits nothing on its own — exactly the legacy
/// behavior where data flows only when measure()/inject_data() is called —
/// so existing callers are byte-identical. `payload_bytes` applies to
/// *every* data packet the channel emits (autonomous, injected, probes):
/// that many zero pad bytes ride on the wire for capacity accounting.
struct TrafficSpec {
  double rate = 0.0;  ///< autonomous emissions per time unit (0 = none)
  std::uint32_t payload_bytes = 0;  ///< extra payload bytes per data packet
  Time start = 0.0;   ///< absolute sim time the emission timer begins
  Time stop = -1.0;   ///< absolute sim time emission ceases (< 0 = never)

  [[nodiscard]] bool active() const noexcept { return rate > 0; }
  [[nodiscard]] Time interval() const noexcept { return 1.0 / rate; }
};

/// Classification of one router with respect to one channel — the unit the
/// per-class congestion-loss breakdown attributes drops to. Matches
/// aggregate_census's rules (see AggregateCensus).
enum class RouterClass : std::uint8_t {
  kNone,          ///< no live state for the channel
  kNonBranching,  ///< MCT only (HBH/REUNITE) or exactly 1 oif (PIM)
  kBranching,     ///< live MFT (HBH/REUNITE) or ≥2 oifs (PIM)
  kRp,            ///< the PIM-SM rendez-vous point for this channel
};

/// A lightweight per-channel view onto a Session. Copyable; valid for the
/// Session's lifetime. Obtained from Session::create_channel() /
/// default_channel() / channel_handle().
class ChannelHandle {
 public:
  ChannelHandle() = default;

  [[nodiscard]] bool valid() const noexcept { return session_ != nullptr; }
  [[nodiscard]] ChannelId id() const noexcept { return id_; }
  [[nodiscard]] const net::Channel& channel() const;
  [[nodiscard]] NodeId source_host() const;
  /// The RP router serving this channel (PIM-SM only; kNoNode otherwise).
  [[nodiscard]] NodeId rp() const;

  /// Subscribes the receiver host immediately (or at now+delay).
  void subscribe(NodeId host, Time delay = 0);
  void unsubscribe(NodeId host, Time delay = 0);

  /// Currently subscribed receiver hosts, in stable scenario order.
  [[nodiscard]] std::vector<NodeId> members() const;

  /// Sends one probe data packet from this channel's source and runs the
  /// simulation for `drain` time units, then reports what happened. Probes
  /// carry unique ids, so measuring one channel never pollutes another's
  /// measurement.
  Measurement measure(Time drain = 150);

  /// Emits one unmeasured data packet from this channel's source (a plain
  /// traffic round: no probe tap, no drain). Returns the number of copies
  /// the source sent. With tracing enabled the emission opens a "data"
  /// root span whose replication fan-out and deliveries are descendants.
  std::size_t inject_data();

  /// (Re)configures this channel's autonomous traffic: an emission timer
  /// on the source host fires every 1/rate from `spec.start` to
  /// `spec.stop`, each firing a plain inject_data carrying
  /// `spec.payload_bytes` of padding. A rate-0 spec stops emission.
  void set_traffic(const TrafficSpec& spec);
  [[nodiscard]] const TrafficSpec& traffic() const;

  /// Structural table changes attributed to this channel (HBH/REUNITE).
  [[nodiscard]] std::uint64_t total_structural_changes() const;

  /// Live router state for this channel alone.
  [[nodiscard]] StateCensus state_census() const;

  /// Schedules every membership event of `plan` on the simulator,
  /// relative to now (the churn workload of docs/CHANNELS.md).
  void schedule_churn(const ChurnPlan& plan);

 private:
  friend class Session;
  ChannelHandle(Session* session, ChannelId id) : session_(session), id_(id) {}

  Session* session_ = nullptr;
  ChannelId id_ = 0;
};

class Session {
 public:
  /// The scenario is copied (costs may be randomized per trial by the
  /// caller *before* constructing the session; routing is computed here).
  /// A default channel (id 0) is created at the scenario's source host.
  /// `routes`, when given, is an SPF table built on an identical copy of
  /// the scenario's topology under the cost metric: the session's routing
  /// attaches to it instead of starting a private one, so sibling sessions
  /// of a paired trial build each shortest-path tree once
  /// (routing::UnicastRouting's copy-on-invalidate keeps faults private).
  Session(topo::Scenario scenario, Protocol protocol,
          SessionConfig config = {},
          std::shared_ptr<routing::SpfTable> routes = nullptr);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  [[nodiscard]] Protocol protocol() const noexcept { return protocol_; }
  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] net::Network& network() noexcept { return *net_; }
  [[nodiscard]] const topo::Scenario& scenario() const noexcept {
    return scenario_;
  }
  [[nodiscard]] const routing::UnicastRouting& routes() const noexcept {
    return *routes_;
  }

  // --- Channels ----------------------------------------------------------

  /// Creates a new ⟨S,G⟩ channel sourced at `source_host` (any host; one
  /// host can source many channels). The host must not currently be a
  /// subscribed receiver; it stops being subscribable. `timers` overrides
  /// the session-wide soft-state timers for this channel's source agent.
  ChannelHandle create_channel(
      NodeId source_host,
      std::optional<mcast::McastConfig> timers = std::nullopt,
      const TrafficSpec& traffic = {});

  [[nodiscard]] std::size_t channel_count() const noexcept {
    return channels_.size();
  }
  [[nodiscard]] ChannelHandle channel_handle(ChannelId id);
  [[nodiscard]] ChannelHandle default_channel() { return channel_handle(0); }

  /// Cross-channel router-state census split by router class — the
  /// aggregate-state scaling measurement (docs/CHANNELS.md).
  [[nodiscard]] AggregateCensus aggregate_census() const;

  /// Classifies `router` for channel `id` right now (live soft state).
  [[nodiscard]] RouterClass router_class(NodeId router, ChannelId id) const;

  /// Applies `capacity` (bytes/time-unit) with the given queue
  /// configuration to every backbone (router-router) directed edge; host
  /// access links stay uncapacitated. Costs, delays, and routing are
  /// untouched, so an uncapacitated run with the same seed sees identical
  /// control-plane behavior.
  void apply_backbone_capacity(double capacity,
                               std::size_t queue_limit = net::kDefaultQueueLimit,
                               net::AqmPolicy aqm = net::AqmPolicy::kDropTail);

  // --- Default-channel forwards (the original single-channel API) --------

  [[nodiscard]] const net::Channel& channel() const noexcept {
    return channels_.front().channel;
  }
  /// The RP router chosen for PIM-SM's default channel (kNoNode otherwise).
  [[nodiscard]] NodeId rp() const noexcept { return channels_.front().rp; }

  /// Subscribes the receiver host to the default channel (at now+delay).
  void subscribe(NodeId host, Time delay = 0) { subscribe_on(0, host, delay); }
  void unsubscribe(NodeId host, Time delay = 0) {
    unsubscribe_on(0, host, delay);
  }

  /// Currently subscribed receiver hosts of the default channel.
  [[nodiscard]] std::vector<NodeId> members() const { return members_of(0); }

  /// Advances the simulation by `duration` time units.
  void run_for(Time duration) { sim_.run_for(duration); }

  /// Probes the default channel (see ChannelHandle::measure).
  Measurement measure(Time drain = 150) { return measure_on(0, drain); }

  /// Sum of structural table changes across all protocol routers and all
  /// channels (HBH / REUNITE only; 0 for PIM) — the Figure 4 stability
  /// metric.
  [[nodiscard]] std::uint64_t total_structural_changes() const;

  /// Sets both directions of the duplex link a-b to `cost` (delay = cost)
  /// and recomputes unicast routing — modelling an instantaneous IGP
  /// reconvergence after a metric change. Soft state then re-anchors the
  /// multicast tree onto the new routes over the following periods.
  void set_link_cost(NodeId a, NodeId b, double cost);

  /// Takes the duplex link a-b administratively down: both directed edges
  /// are excluded from route computation AND drop any in-flight
  /// transmission attempt ("link-down"), then routing reconverges
  /// instantly. The residual graph must stay connected between nodes that
  /// still exchange traffic. Contrast with Impairment::down_windows, which
  /// blackholes a link *without* the IGP noticing.
  void set_link_down(NodeId a, NodeId b);

  /// Repairs a link downed by set_link_down and reconverges routing.
  void set_link_up(NodeId a, NodeId b);

  /// Crashes the protocol process on `router`: its agent — MFT/MCT/PIM
  /// state, pacers, wave trackers, everything — is destroyed and replaced
  /// by the default unicast forwarder. The data plane keeps routing
  /// packets through the node (a control-plane crash, not a node
  /// partition; combine with set_link_down for the latter). Structural
  /// change and join-interception totals survive into the session-level
  /// counters (globally and per channel). No-op if already crashed.
  /// Routers only — not hosts.
  void crash_router(NodeId router);

  /// Reinstalls a fresh protocol agent on a crashed router and start()s
  /// it. The router rebuilds its tables from the periodic control traffic
  /// that flows through it — there is no state transfer. No-op unless
  /// crashed.
  void restart_router(NodeId router);

  [[nodiscard]] bool crashed(NodeId router) const;

  /// Applies a deterministic impairment (loss / duplication / reorder /
  /// blackhole windows) to both directions of link a-b. See
  /// net::ImpairmentPlane for the per-link RNG determinism contract.
  void impair_link(NodeId a, NodeId b, const net::Impairment& impairment);

  /// Lifts every impairment; the fabric is clean again.
  void clear_impairments() { net_->clear_impairments(); }

  /// Reseeds the impairment RNG streams (already-configured links get
  /// their stream re-derived from the start). Two sessions given the same
  /// seed, impairments, and workload replay identical fault sequences.
  void seed_impairments(std::uint64_t seed) {
    net_->impairments().reseed(seed);
  }

  /// Schedules every event of `plan` on the simulator, relative to now.
  /// The same plan + the same impairment seed reproduces a run exactly.
  void schedule_faults(const FaultPlan& plan);

  /// Live router state summed over every channel (equals the per-channel
  /// census for single-channel sessions).
  [[nodiscard]] StateCensus state_census() const;

  /// Live router state for one channel.
  [[nodiscard]] StateCensus state_census(ChannelId id) const;

  /// The receiver host agent (for tests needing raw deliveries).
  [[nodiscard]] mcast::ReceiverHost& receiver(NodeId host) const;

  /// The protocol source agent serving `id`'s channel (HbhSource /
  /// ReuniteSource / PimSource — cast by protocol). The node-level agent
  /// at the source host is the multi-channel composite; tests inspecting
  /// source tables must come through here.
  [[nodiscard]] net::ProtocolAgent& source_agent(ChannelId id = 0) const;

  /// Null unless SessionConfig::observe.tracing.
  [[nodiscard]] metrics::Tracer* tracer() noexcept { return tracer_.get(); }
  [[nodiscard]] const metrics::Tracer* tracer() const noexcept {
    return tracer_.get();
  }

  /// Null unless SessionConfig::observe.audit (or HBH_AUDIT is set).
  [[nodiscard]] metrics::Auditor* auditor() noexcept { return auditor_.get(); }
  [[nodiscard]] const metrics::Auditor* auditor() const noexcept {
    return auditor_.get();
  }

  /// Sweeps every protocol router's soft-state tables through the auditor:
  /// per-entry t2 deadlines (leak detection), per-channel table shape
  /// (MCT/MFT exclusivity), and black-hole finalization at the current
  /// virtual time. Pure observation — schedules no events and mutates
  /// nothing, so event streams are identical whether or not it runs.
  /// No-op without an auditor. Call after a run settles (the report
  /// writer does) or at any instant a test wants the invariants checked.
  void audit_sweep();

  /// Null unless SessionConfig::observe.telemetry.
  [[nodiscard]] metrics::Registry* registry() noexcept {
    return registry_.get();
  }
  [[nodiscard]] const metrics::StateSampler* sampler() const noexcept {
    return sampler_.get();
  }

  /// Sum of all agents' receive/timer counters (always available),
  /// including per-channel source sub-agents.
  [[nodiscard]] net::AgentStats aggregate_agent_stats() const;

 private:
  friend class ChannelHandle;

  /// Data injector bound to a channel's source agent: (probe, seq, pad).
  using SendDataFn =
      std::function<std::size_t(std::uint64_t, std::uint32_t, std::uint32_t)>;

  /// State the session keeps per channel.
  struct ChannelState {
    net::Channel channel;
    NodeId source_host = kNoNode;
    NodeId rp = kNoNode;  ///< PIM-SM: the RP serving this channel
    SendDataFn send_data;
    std::uint32_t next_seq = 0;
    TrafficSpec traffic{};
  };

  /// A protocol source agent plus its bound data injector.
  struct SourceAgent {
    std::unique_ptr<net::ProtocolAgent> agent;
    SendDataFn send_data;
  };

  void install_agents(const SessionConfig& config);
  /// Installs the observers `spec` names (constructor only).
  void install_observers(const ObserverSpec& spec);
  [[nodiscard]] bool is_unicast_only(NodeId n) const;
  /// A freshly constructed protocol router agent for this session's
  /// protocol (shared by install_agents and restart_router).
  [[nodiscard]] std::unique_ptr<net::ProtocolAgent> make_router_agent() const;
  /// A freshly constructed protocol source agent for `channel` (shared by
  /// the constructor's default channel and create_channel).
  [[nodiscard]] SourceAgent make_source_agent(
      const net::Channel& channel, NodeId rp,
      const mcast::McastConfig& timers) const;

  // Per-channel operations behind the ChannelHandle surface.
  void subscribe_on(ChannelId id, NodeId host, Time delay);
  void unsubscribe_on(ChannelId id, NodeId host, Time delay);
  [[nodiscard]] std::vector<NodeId> members_of(ChannelId id) const;
  Measurement measure_on(ChannelId id, Time drain);
  std::size_t inject_data_on(ChannelId id);
  void set_traffic_on(ChannelId id, const TrafficSpec& spec);
  [[nodiscard]] std::uint64_t structural_changes_of(ChannelId id) const;
  void schedule_churn(ChannelId id, const ChurnPlan& plan);

  /// Live (control, forwarding) entries `router` holds for `channel`.
  [[nodiscard]] std::pair<std::size_t, std::size_t> router_channel_state(
      NodeId router, const net::Channel& channel) const;

  void set_link_state(NodeId a, NodeId b, bool up);
  void recompute_routes();

  topo::Scenario scenario_;
  Protocol protocol_;
  mcast::McastConfig timers_;
  std::vector<NodeId> unicast_only_;
  std::vector<NodeId> crashed_;
  /// Counters carried over from crashed agents so session-level totals
  /// (Figure 4 stability, telemetry gauges) stay monotone across crashes.
  std::uint64_t retired_structural_changes_ = 0;
  std::uint64_t retired_joins_intercepted_ = 0;
  std::unordered_map<net::Channel, std::uint64_t> retired_structural_by_channel_;
  sim::Simulator sim_;
  std::unique_ptr<routing::UnicastRouting> routes_;
  std::unique_ptr<net::Network> net_;
  /// Channels in creation order; id 0 is the default channel. A deque so
  /// channel() references stay stable across create_channel().
  std::deque<ChannelState> channels_;
  std::uint16_t next_group_ = 1;
  bool started_ = false;  ///< net_->start() has run (constructor end)
  /// The composite source agent per source host (owned by net_).
  std::unordered_map<NodeId, MultiSourceHost*> source_hosts_;
  std::unordered_map<NodeId, mcast::ReceiverHost*> receivers_;
  std::uint64_t next_probe_ = 1;
  std::unique_ptr<metrics::DataProbe> active_probe_;
  // Telemetry (all null while disabled). Declared after net_ so the taps
  // are destroyed first; ~Session detaches them from the network anyway.
  std::unique_ptr<metrics::Registry> registry_;
  std::unique_ptr<metrics::NetworkStatsTap> stats_tap_;
  std::unique_ptr<metrics::StateSampler> sampler_;
  std::unique_ptr<metrics::Tracer> tracer_;
  std::unique_ptr<metrics::Auditor> auditor_;

  /// Oracle SPT edge count for the drift check: the union of forward
  /// unicast shortest paths from `id`'s source host to each member.
  /// 0 when some member is unreachable (drift check skipped).
  [[nodiscard]] std::uint64_t oracle_tree_edges(
      ChannelId id, const std::vector<NodeId>& members) const;
};

}  // namespace hbh::harness
