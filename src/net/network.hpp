// The network fabric: binds topology, unicast routing, and per-node
// protocol agents to the discrete-event simulator.
//
// Packet life cycle. A packet is written into the fabric's in-flight pool
// (PacketPool) once, when it is first sent, and from then on the fabric and
// the agents pass its 4-byte PacketHandle:
//   * send() routes it one hop toward its unicast destination, send_direct()
//     across one named link (how true multicast forwarding like PIM's RPF
//     trees is modelled). Either parks the packet in its slot and schedules
//     one arrival event carrying the handle; a self-addressed send parks it
//     for a zero-delay local delivery through the same event queue.
//   * On arrival the node's agent gets the handle and reads and rewrites the
//     packet in place. Forwarding it again reuses the slot; a fan-out
//     clone()s one new slot per extra replica.
//   * The packet leaves the pool when it is consumed (the agent returns
//     without sending it on) or dropped (TTL, route, link, loss, queue). An
//     impairment duplicate is a clone with its own arrival.
// Each transmission is delayed by the directed link's queueing,
// serialization and propagation and observed by the PacketTaps, which the
// metrics module uses to count per-link copies (tree cost) and per-receiver
// delays; taps and the TraceHook read the packet in place, by const
// reference. A traced packet's TraceContext lives in a side array indexed by
// its handle, which exists only while a TraceHook is installed.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string_view>
#include <vector>

#include "net/impairment.hpp"
#include "net/packet.hpp"
#include "net/packet_pool.hpp"
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
  /// The packet stays in the fabric's pool: read and rewrite it in place
  /// through net().packet(h). Sending `h` on (forward, send_direct) passes
  /// it to the next hop; returning without doing so consumes it.
  /// Default: deliver if addressed to self, else forward by unicast.
  virtual void handle(PacketHandle h, NodeId from);

  [[nodiscard]] NodeId self() const noexcept { return node_; }
  [[nodiscard]] Ipv4Addr self_addr() const noexcept { return addr_; }

  [[nodiscard]] const AgentStats& stats() const noexcept { return stats_; }

 protected:
  [[nodiscard]] Network& net() const noexcept { return *net_; }
  [[nodiscard]] sim::Simulator& simulator() const noexcept;

  /// Routes packet `h` toward its destination from this node.
  void forward(PacketHandle h);

  /// Originates `packet` (with causal context `trace`) from this node:
  /// writes it into the pool and routes it toward its destination.
  void forward(Packet&& packet, const TraceContext& trace = {});

  /// The causal context packet `h` carries; inactive when untraced.
  [[nodiscard]] TraceContext trace_of(PacketHandle h) const noexcept;

  /// A packet addressed to this node reached it. Default: consume it
  /// (counted); protocol agents override handle() instead.
  virtual void deliver_local(PacketHandle h, NodeId from);

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
/// hop. With no hook installed (tracing is off in the session's
/// ObserverSpec) packets carry inactive contexts and no span is opened.
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

  /// Called per wire copy of a traced packet; `parent` is the context the
  /// packet had when it reached this hop. Returns the context the in-flight
  /// copy should carry (a transmit span parented on `parent`).
  virtual TraceContext on_transmit(const Topology::Edge& edge,
                                   const Packet& packet,
                                   const TraceContext& parent, Time start,
                                   Time arrival) = 0;

  /// Called when a traced packet (context `trace`) is dropped (TTL, loss,
  /// link-down, ...).
  virtual void on_drop(NodeId at, const Packet& packet,
                       const TraceContext& trace, std::string_view reason,
                       Time now) = 0;
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

  /// Copies held packet `h` (and its trace context) into a new held slot.
  /// References to packets already in the pool stay valid.
  [[nodiscard]] PacketHandle clone(PacketHandle h);

  /// The packet in slot `h`, read and rewritten in place.
  [[nodiscard]] Packet& packet(PacketHandle h) noexcept { return pool_[h]; }
  [[nodiscard]] const Packet& packet(PacketHandle h) const noexcept {
    return pool_[h];
  }

  /// The causal context of packet `h`; inactive when untraced or when no
  /// TraceHook is installed.
  [[nodiscard]] TraceContext trace_of(PacketHandle h) const noexcept {
    return h.index() < traces_.size() ? traces_[h.index()] : TraceContext{};
  }

  /// The causal context of a packet the fabric handed to a PacketTap (one
  /// that lives in the pool); inactive for any other packet.
  [[nodiscard]] TraceContext trace_of(const Packet& pooled) const noexcept;

  /// Packets in the pool: held by an agent or in flight. 0 once a run
  /// has drained.
  [[nodiscard]] std::size_t packets_live() const noexcept {
    return pool_.live();
  }

  /// Sends held packet `h` from node `from` toward its dst along unicast
  /// routing. Decrements TTL; drops on TTL expiry or missing route.
  /// If the destination is `from` itself the packet is delivered locally
  /// after zero delay.
  void send(NodeId from, PacketHandle h);

  /// Transmits held packet `h` across the specific link from->neighbor
  /// (which must exist). Used for multicast (RPF) forwarding along
  /// installed oifs.
  void send_direct(NodeId from, NodeId neighbor, PacketHandle h);

  /// Originating forms: write `packet` into the pool, then send it.
  void send(NodeId from, Packet&& packet, const TraceContext& trace = {}) {
    send(from, emplace(std::move(packet), trace));
  }
  void send_direct(NodeId from, NodeId neighbor, Packet&& packet,
                   const TraceContext& trace = {}) {
    send_direct(from, neighbor, emplace(std::move(packet), trace));
  }

  /// Registers an observer (no ownership; at most once each). Taps are
  /// notified in registration order.
  void add_tap(PacketTap* tap);
  void remove_tap(PacketTap* tap) noexcept;

  /// Installs the causal-tracing hook (one per network, no ownership; pass
  /// nullptr to detach). While installed, every wire copy of a traced
  /// packet gets a fresh child span stamped into its TraceContext. Either
  /// way the trace side array starts empty: packets already in flight are
  /// untraced.
  void set_trace_hook(TraceHook* hook);
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
  /// Writes `packet` into the in-flight pool, with causal context `trace`
  /// (kept only while a TraceHook is installed); the caller sends the
  /// returned handle.
  [[nodiscard]] PacketHandle emplace(Packet&& packet,
                                     const TraceContext& trace);
  /// Hands held packet `h` (`packet` is its slot) to `link`: queue
  /// admission, impairments, then one send_copy per wire copy.
  void transmit(LinkId link, PacketHandle h, const Packet& packet);
  /// One wire copy of `h` across `edge`: counts it, stamps its transmit
  /// span, shows it to the taps and parks it until `latency` has passed.
  void send_copy(const Topology::Edge& edge, PacketHandle h,
                 const Packet& packet, Time latency);
  /// Parks `h` in flight and schedules its arrival at `to` after `delay`
  /// — exactly one event {this, slot}, pushed at the call's causal point.
  void schedule_arrival(PacketHandle h, NodeId to, NodeId from, Time delay);
  /// Arrival event: hands the packet to the node's agent (counting the
  /// receive), then frees the slot unless the agent sent it on.
  void arrive(std::uint32_t slot);
  /// Stores `trace` as held packet `h`'s context (tracing only).
  void set_trace(PacketHandle h, const TraceContext& trace);
  /// Counts and reports the drop of held packet `h`, then frees its slot.
  void drop(NodeId at, PacketHandle h, std::string_view reason);

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
  bool admit(LinkId link, const Topology::Edge& edge, PacketHandle h,
             const Packet& packet, Time& queue_delay);
  bool red_rejects(EgressQueue& q, LinkId link, const LinkSpec& spec,
                   std::size_t occupancy);
  [[nodiscard]] EgressQueue& egress(LinkId link);

  sim::Simulator& sim_;
  const Topology& topo_;
  const routing::UnicastRouting& routes_;
  std::vector<std::unique_ptr<ProtocolAgent>> agents_;
  std::vector<PacketTap*> taps_;  ///< observers, in registration order
  TraceHook* trace_hook_ = nullptr;
  NetworkCounters counters_;
  ImpairmentPlane impairments_;
  std::vector<EgressQueue> queues_;  ///< lazily sized; indexed by link
  std::uint64_t aqm_seed_ = kDefaultAqmSeed;
  PacketPool pool_;                        ///< every live packet
  std::vector<TraceContext> traces_;  ///< by handle; empty while untraced
};

/// Computes the 10.x.y.1 address for a node index (stable scheme used by
/// Network; exposed for tests and pretty-printing).
[[nodiscard]] Ipv4Addr node_address(NodeId n);

}  // namespace hbh::net
