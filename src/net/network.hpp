// The network fabric: binds topology, unicast routing, and per-node
// protocol agents to the discrete-event simulator.
//
// Packet life cycle: an agent calls send() (routed hop-by-hop toward the
// packet's unicast destination) or send_direct() (across one named link —
// how true multicast forwarding like PIM's RPF trees is modelled). Each
// transmission is delayed by the directed link's propagation delay and
// observed by an optional PacketTap, which the metrics module uses to count
// per-link copies (tree cost) and per-receiver delays.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string_view>
#include <vector>

#include "net/impairment.hpp"
#include "net/packet.hpp"
#include "net/topology.hpp"
#include "routing/unicast.hpp"
#include "sim/simulator.hpp"
#include "util/ipv4.hpp"
#include "util/rng.hpp"

namespace hbh::net {

class Network;

/// Always-on per-agent telemetry counters: packets received by type plus
/// local timer firings. Receives are counted centrally by the Network at
/// delivery time; timer-driven agents (sources, receiver hosts) bump
/// `timer_fires` themselves. Cheap enough to never gate (one array
/// increment per delivered packet), these feed the harness telemetry's
/// per-protocol message-overhead gauges.
struct AgentStats {
  std::array<std::uint64_t, kPacketTypeCount> rx_by_type{};
  std::uint64_t timer_fires = 0;

  [[nodiscard]] std::uint64_t rx(PacketType t) const noexcept {
    return rx_by_type[static_cast<std::size_t>(t)];
  }
  [[nodiscard]] std::uint64_t rx_total() const noexcept {
    std::uint64_t total = 0;
    for (const std::uint64_t n : rx_by_type) total += n;
    return total;
  }
};

/// Per-node protocol logic. An agent sees *every* packet arriving at its
/// node — whether addressed to it or transiting — which is exactly what
/// hop-by-hop protocols like HBH require (join interception, tree
/// processing). The base implementation is a plain unicast router.
class ProtocolAgent {
 public:
  virtual ~ProtocolAgent() = default;

  /// Called once when the simulation starts (after all agents attach).
  virtual void start() {}

  /// Called for each packet arriving at this node from neighbor `from`
  /// (kNoNode when the packet was locally originated or self-addressed).
  /// Default: deliver if addressed to self, else forward by unicast.
  virtual void handle(Packet&& packet, NodeId from);

  [[nodiscard]] NodeId self() const noexcept { return node_; }
  [[nodiscard]] Ipv4Addr self_addr() const noexcept { return addr_; }

  [[nodiscard]] const AgentStats& stats() const noexcept { return stats_; }

 protected:
  [[nodiscard]] Network& net() const noexcept { return *net_; }
  [[nodiscard]] sim::Simulator& simulator() const noexcept;

  /// Routes `packet` toward its destination from this node.
  void forward(Packet&& packet);

  /// A packet addressed to this node reached it. Default: drop silently
  /// (counted); protocol agents override handle() instead.
  virtual void deliver_local(Packet&& packet, NodeId from);

  /// Records one firing of an agent-owned periodic timer (tree rounds,
  /// join refreshes) for the telemetry gauges.
  void count_timer_fire() noexcept { ++stats_.timer_fires; }

  /// Causal-tracing conveniences; all forward to the network's TraceHook
  /// and degrade to inactive contexts / no-ops when tracing is off.
  [[nodiscard]] TraceContext trace_root(std::string_view name,
                                        const Channel& channel,
                                        Ipv4Addr subject = kNoAddr) const;
  [[nodiscard]] TraceContext trace_child(const TraceContext& parent,
                                         std::string_view name,
                                         const Channel& channel,
                                         Ipv4Addr subject = kNoAddr) const;
  void trace_instant(const TraceContext& parent, std::string_view name,
                     const Channel& channel, Ipv4Addr subject = kNoAddr) const;

 private:
  friend class Network;
  Network* net_ = nullptr;
  NodeId node_{};
  Ipv4Addr addr_{};
  AgentStats stats_;
};

/// Causal-tracing seam. The fabric and the agents talk to this interface
/// only (metrics::Tracer implements it — metrics depends on net, not the
/// other way around, exactly like PacketTap). Roots anchor externally
/// triggered actions; on_transmit mints a child span for every wire copy so
/// the context a packet carries always names its causal parent at the next
/// hop. All methods are no-ops / return inactive contexts when tracing is
/// compiled out or no hook is installed.
class TraceHook {
 public:
  virtual ~TraceHook() = default;

  /// Opens a root span (subscribe, unsubscribe, tree round, data emission,
  /// fault). `subject` names the entity the action is about (e.g. the
  /// receiver address); pass kNoAddr when there is none.
  virtual TraceContext root(std::string_view name, NodeId node,
                            const Channel& channel, Ipv4Addr subject) = 0;

  /// Opens a child span under `parent` (e.g. one soft-state refresh round).
  virtual TraceContext child(const TraceContext& parent, std::string_view name,
                             NodeId node, const Channel& channel,
                             Ipv4Addr subject) = 0;

  /// Records a zero-duration event under `parent` (table mutation,
  /// delivery, state eviction).
  virtual void instant(const TraceContext& parent, std::string_view name,
                       NodeId node, const Channel& channel,
                       Ipv4Addr subject) = 0;

  /// Called per wire copy of a traced packet; returns the context the
  /// in-flight copy should carry (a transmit span parented on the context
  /// the packet had when it reached this hop).
  virtual TraceContext on_transmit(const Topology::Edge& edge,
                                   const Packet& packet, Time start,
                                   Time arrival) = 0;

  /// Called when a traced packet is dropped (TTL, loss, link-down, ...).
  virtual void on_drop(NodeId at, const Packet& packet,
                       std::string_view reason, Time now) = 0;
};

/// Observer of fabric activity; used by metrics probes and trace tooling.
class PacketTap {
 public:
  virtual ~PacketTap() = default;
  virtual void on_transmit(const Topology::Edge& edge, const Packet& packet,
                           Time now) {
    (void)edge, (void)packet, (void)now;
  }
  virtual void on_drop(NodeId at, const Packet& packet,
                       std::string_view reason, Time now) {
    (void)at, (void)packet, (void)reason, (void)now;
  }
  /// A data copy was admitted to a capacitated link's egress queue: it
  /// starts serializing after `wait` and arrives at `now + wait +
  /// serialization + propagation`. `depth` is the queue occupancy counting
  /// this copy (the post-admission instantaneous backlog). Never called
  /// for uncapacitated links or for control packets (those ride the
  /// priority lane — see Network::transmit).
  virtual void on_queue(const Topology::Edge& edge, const Packet& packet,
                        Time wait, Time serialization, std::size_t depth,
                        Time now) {
    (void)edge, (void)packet, (void)wait, (void)serialization, (void)depth,
        (void)now;
  }
  /// A wire copy arrived at node `to` and is about to be handed to the
  /// node's agent. `from` is kNoNode for self-addressed local deliveries.
  virtual void on_deliver(NodeId to, NodeId from, const Packet& packet,
                          Time now) {
    (void)to, (void)from, (void)packet, (void)now;
  }
};

/// Aggregate fabric counters (cheap always-on accounting).
struct NetworkCounters {
  std::uint64_t transmissions = 0;
  std::uint64_t data_transmissions = 0;
  std::uint64_t control_transmissions = 0;
  std::uint64_t drops_ttl = 0;
  std::uint64_t drops_no_route = 0;
  std::uint64_t drops_link_down = 0;   ///< down edge or blackhole window
  std::uint64_t drops_loss = 0;        ///< impairment loss
  std::uint64_t duplicates_injected = 0;  ///< impairment duplication
  std::uint64_t reordered = 0;            ///< copies given extra jitter
  std::uint64_t local_sink = 0;  ///< packets consumed by the default agent
  // Congestion accounting (data packets only — control packets bypass the
  // queues). All zero unless some link is capacitated.
  std::uint64_t drops_queue_full = 0;  ///< drop-tail egress overflow
  std::uint64_t drops_red = 0;         ///< RED early drops
  std::uint64_t queued_packets = 0;    ///< copies admitted to an egress queue
};

class Network {
 public:
  /// The topology and routing must outlive the network.
  Network(sim::Simulator& simulator, const Topology& topo,
          const routing::UnicastRouting& routes);

  /// The unicast address assigned to node `n` (10.x.y.1 by node index).
  [[nodiscard]] Ipv4Addr address_of(NodeId n) const;

  /// Reverse lookup by arithmetic on the 10.x.y.1 scheme; kNoNode for any
  /// other address or an index past the topology.
  [[nodiscard]] NodeId node_of(Ipv4Addr a) const;

  /// Installs the protocol agent for a node (replacing any previous one).
  /// Returns a reference to the installed agent.
  ProtocolAgent& attach(NodeId n, std::unique_ptr<ProtocolAgent> agent);

  /// Binds `agent` to node `n` (net/self/self_addr) *without* installing it
  /// as the node's agent. This is how composite agents (e.g. the harness's
  /// multi-channel source host) give identity to the sub-agents they own
  /// and dispatch to; the composite itself is attach()ed normally.
  void adopt(NodeId n, ProtocolAgent& agent);

  /// The agent at `n`; every node always has one (default unicast router).
  [[nodiscard]] ProtocolAgent& agent(NodeId n) const;

  /// Calls start() on every agent. Invoke once before running the sim.
  void start();

  /// Sends `packet` from node `from` toward packet.dst along unicast
  /// routing. Decrements TTL; drops on TTL expiry or missing route.
  /// If the destination is `from` itself the packet is delivered locally
  /// after zero delay.
  void send(NodeId from, Packet packet);

  /// Transmits `packet` across the specific link from->neighbor (which must
  /// exist). Used for multicast (RPF) forwarding along installed oifs.
  void send_direct(NodeId from, NodeId neighbor, Packet packet);

  /// Sets the exclusive *measurement* tap slot (one active probe at a
  /// time; pass nullptr to clear). Persistent observers — telemetry stats,
  /// message traces — use add_tap()/remove_tap() instead and coexist with
  /// whatever probe occupies this slot.
  void set_tap(PacketTap* tap) noexcept { tap_ = tap; }

  /// Registers a persistent observer (no ownership; at most once each).
  void add_tap(PacketTap* tap);
  void remove_tap(PacketTap* tap) noexcept;

  /// Installs the causal-tracing hook (one per network, no ownership; pass
  /// nullptr to detach). While installed, every wire copy of a traced
  /// packet gets a fresh child span stamped into its TraceContext.
  void set_trace_hook(TraceHook* hook) noexcept { trace_hook_ = hook; }
  [[nodiscard]] TraceHook* trace_hook() const noexcept { return trace_hook_; }

  [[nodiscard]] const NetworkCounters& counters() const noexcept {
    return counters_;
  }
  NetworkCounters& counters() noexcept { return counters_; }

  [[nodiscard]] sim::Simulator& simulator() const noexcept { return sim_; }
  [[nodiscard]] const Topology& topology() const noexcept { return topo_; }
  [[nodiscard]] const routing::UnicastRouting& routes() const noexcept {
    return routes_;
  }

  /// Per-link fault injection (docs/RESILIENCE.md). Impairments apply at
  /// transmission time; unimpaired links pay one branch. The duplex helper
  /// configures both directions (each keeps its own RNG stream).
  void set_impairment(NodeId from, NodeId to, const Impairment& impairment);
  void set_duplex_impairment(NodeId a, NodeId b, const Impairment& impairment);
  void clear_impairments() { impairments_.clear_all(); }

  /// Reseeds the per-link RED RNG streams (mirrors ImpairmentPlane's
  /// contract: each link's stream derives from (seed, link index), so the
  /// decision sequence is independent of which other links exist). Resets
  /// queue state; call before traffic, not mid-run.
  void seed_aqm(std::uint64_t seed);
  static constexpr std::uint64_t kDefaultAqmSeed = 0x0AE0'11FEull;

  /// Packets currently occupying `link`'s egress queue (still serializing
  /// or waiting) at the simulator's current time. 0 for uncapacitated
  /// links. Exposed for tests and the congestion bench.
  [[nodiscard]] std::size_t queue_depth(LinkId link) const;

  /// Highest instantaneous occupancy `link`'s egress queue ever reached
  /// (counting the copy being admitted) and the cumulative number of
  /// copies admitted to it. Both 0 for uncapacitated / never-used links;
  /// reset by seed_aqm(). Surfaced as per-link telemetry gauges.
  [[nodiscard]] std::size_t queue_high_water(LinkId link) const;
  [[nodiscard]] std::uint64_t queue_admitted(LinkId link) const;
  [[nodiscard]] ImpairmentPlane& impairments() noexcept {
    return impairments_;
  }
  [[nodiscard]] const ImpairmentPlane& impairments() const noexcept {
    return impairments_;
  }

 private:
  /// One wire copy between transmission and arrival. In-flight packets
  /// park in a recycled slot pool, so the arrival event captures only
  /// {this, slot}: it fits std::function's small buffer and a hop
  /// allocates nothing once the pool is warm.
  struct InFlight {
    NodeId to;
    NodeId from;  ///< kNoNode for a self-addressed local delivery
    Packet packet;
  };

  void transmit(LinkId link, Packet packet);
  /// Parks `packet` in a pool slot and schedules its arrival at `to` after
  /// `delay` — exactly one event, pushed at the call's causal point.
  void schedule_arrival(NodeId to, NodeId from, Packet&& packet, Time delay);
  /// Arrival event: frees the slot, then hands its packet to the node's
  /// agent (counting the receive).
  void arrive(std::uint32_t slot);
  void drop(NodeId at, const Packet& packet, std::string_view reason);

  /// Egress queue of one capacitated directed edge. Occupancy is tracked
  /// event-free: `departures` holds the serialization-completion time of
  /// every admitted copy, and expired entries are popped lazily at the
  /// next admission — no timer events, so uncapacitated runs see an
  /// unchanged event stream and capacitated ones add zero events too.
  struct EgressQueue {
    Time busy_until = 0;          ///< when the link finishes its backlog
    std::deque<Time> departures;  ///< per-copy completion times, FIFO
    double red_avg = 0;           ///< RED's EWMA of instantaneous occupancy
    Rng red_rng;
    bool red_seeded = false;
    std::size_t high_water = 0;   ///< max instantaneous occupancy seen
    std::uint64_t admitted = 0;   ///< cumulative copies admitted
  };

  /// Runs queue admission for one wire copy on a capacitated edge.
  /// Returns false (after counting/reporting the drop) when drop-tail or
  /// RED rejects it; otherwise sets `queue_delay` = wait + serialization.
  bool admit(LinkId link, const Topology::Edge& edge, const Packet& packet,
             Time& queue_delay);
  bool red_rejects(EgressQueue& q, LinkId link, const LinkSpec& spec,
                   std::size_t occupancy);
  [[nodiscard]] EgressQueue& egress(LinkId link);

  sim::Simulator& sim_;
  const Topology& topo_;
  const routing::UnicastRouting& routes_;
  std::vector<std::unique_ptr<ProtocolAgent>> agents_;
  PacketTap* tap_ = nullptr;
  std::vector<PacketTap*> taps_;  ///< persistent observers (telemetry)
  TraceHook* trace_hook_ = nullptr;
  NetworkCounters counters_;
  ImpairmentPlane impairments_;
  std::vector<EgressQueue> queues_;  ///< lazily sized; indexed by link
  std::uint64_t aqm_seed_ = kDefaultAqmSeed;
  std::vector<InFlight> in_flight_;        ///< in-flight pool, by slot
  std::vector<std::uint32_t> free_slots_;  ///< in_flight_ slots to reuse
};

/// Computes the 10.x.y.1 address for a node index (stable scheme used by
/// Network; exposed for tests and pretty-printing).
[[nodiscard]] Ipv4Addr node_address(NodeId n);

}  // namespace hbh::net
