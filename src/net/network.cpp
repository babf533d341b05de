#include "net/network.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "net/wire.hpp"
#include "util/log.hpp"

namespace hbh::net {

Ipv4Addr node_address(NodeId n) {
  assert(n.valid());
  const std::uint32_t i = n.index();
  assert(i < (1u << 16));
  return Ipv4Addr{static_cast<std::uint8_t>(10),
                  static_cast<std::uint8_t>(i >> 8),
                  static_cast<std::uint8_t>(i & 0xFF),
                  static_cast<std::uint8_t>(1)};
}

void ProtocolAgent::handle(Packet&& packet, NodeId from) {
  if (packet.dst == addr_) {
    deliver_local(std::move(packet), from);
  } else {
    forward(std::move(packet));
  }
}

sim::Simulator& ProtocolAgent::simulator() const noexcept {
  return net_->simulator();
}

void ProtocolAgent::forward(Packet&& packet) {
  net_->send(node_, std::move(packet));
}

TraceContext ProtocolAgent::trace_root(std::string_view name,
                                       const Channel& channel,
                                       Ipv4Addr subject) const {
  TraceHook* hook = net_->trace_hook();
  if (hook == nullptr) return TraceContext{};
  return hook->root(name, node_, channel, subject);
}

TraceContext ProtocolAgent::trace_child(const TraceContext& parent,
                                        std::string_view name,
                                        const Channel& channel,
                                        Ipv4Addr subject) const {
  TraceHook* hook = net_->trace_hook();
  if (hook == nullptr || !parent.active()) return parent;
  return hook->child(parent, name, node_, channel, subject);
}

void ProtocolAgent::trace_instant(const TraceContext& parent,
                                  std::string_view name,
                                  const Channel& channel,
                                  Ipv4Addr subject) const {
  TraceHook* hook = net_->trace_hook();
  if (hook == nullptr || !parent.active()) return;
  hook->instant(parent, name, node_, channel, subject);
}

void ProtocolAgent::deliver_local(Packet&& packet, NodeId from) {
  (void)from;
  ++net_->counters().local_sink;
  HBH_LOG(LogLevel::kTrace, to_string(node_), " sink ", packet.describe());
}

Network::Network(sim::Simulator& simulator, const Topology& topo,
                 const routing::UnicastRouting& routes)
    : sim_(simulator), topo_(topo), routes_(routes) {
  agents_.resize(topo.node_count());
  for (std::uint32_t i = 0; i < topo.node_count(); ++i) {
    attach(NodeId{i}, std::make_unique<ProtocolAgent>());
  }
}

Ipv4Addr Network::address_of(NodeId n) const {
  assert(topo_.contains(n));
  return node_address(n);
}

NodeId Network::node_of(Ipv4Addr a) const {
  // Inverse of node_address(): 10.hi.lo.1 is node (hi << 8) | lo.
  if (a.octet(0) != 10 || a.octet(3) != 1) return kNoNode;
  const std::uint32_t i = (a.bits() >> 8) & 0xFFFFu;
  return i < topo_.node_count() ? NodeId{i} : kNoNode;
}

ProtocolAgent& Network::attach(NodeId n, std::unique_ptr<ProtocolAgent> agent) {
  assert(topo_.contains(n));
  assert(agent != nullptr);
  agent->net_ = this;
  agent->node_ = n;
  agent->addr_ = node_address(n);
  agents_[n.index()] = std::move(agent);
  return *agents_[n.index()];
}

void Network::adopt(NodeId n, ProtocolAgent& agent) {
  assert(topo_.contains(n));
  agent.net_ = this;
  agent.node_ = n;
  agent.addr_ = node_address(n);
}

ProtocolAgent& Network::agent(NodeId n) const {
  assert(topo_.contains(n));
  return *agents_[n.index()];
}

void Network::start() {
  for (const auto& agent : agents_) agent->start();
}

void Network::add_tap(PacketTap* tap) {
  assert(tap != nullptr);
  if (std::find(taps_.begin(), taps_.end(), tap) == taps_.end()) {
    taps_.push_back(tap);
  }
}

void Network::remove_tap(PacketTap* tap) noexcept {
  taps_.erase(std::remove(taps_.begin(), taps_.end(), tap), taps_.end());
}

void Network::send(NodeId from, Packet packet) {
  assert(topo_.contains(from));
  const NodeId dst = node_of(packet.dst);
  if (!dst.valid()) {
    drop(from, packet, "unknown-destination");
    return;
  }
  if (dst == from) {
    // Self-addressed: deliver locally after zero delay (still through the
    // event queue so handling order stays deterministic).
    schedule_arrival(from, kNoNode, std::move(packet), 0);
    return;
  }
  const LinkId link = routes_.first_link(from, dst);
  if (!link.valid()) {
    drop(from, packet, "no-route");
    return;
  }
  if (packet.ttl <= 0) {
    drop(from, packet, "ttl-expired");
    return;
  }
  --packet.ttl;
  transmit(link, std::move(packet));
}

void Network::send_direct(NodeId from, NodeId neighbor, Packet packet) {
  assert(topo_.contains(from) && topo_.contains(neighbor));
  const auto link = topo_.find_link(from, neighbor);
  assert(link.has_value());
  if (packet.ttl <= 0) {
    drop(from, packet, "ttl-expired");
    return;
  }
  --packet.ttl;
  transmit(*link, std::move(packet));
}

void Network::set_impairment(NodeId from, NodeId to,
                             const Impairment& impairment) {
  const auto link = topo_.find_link(from, to);
  assert(link.has_value());
  impairments_.set(*link, impairment);
}

void Network::set_duplex_impairment(NodeId a, NodeId b,
                                    const Impairment& impairment) {
  set_impairment(a, b, impairment);
  set_impairment(b, a, impairment);
}

Network::EgressQueue& Network::egress(LinkId link) {
  if (queues_.size() <= link.index()) {
    queues_.resize(link.index() + std::size_t{1});
  }
  return queues_[link.index()];
}

void Network::seed_aqm(std::uint64_t seed) {
  aqm_seed_ = seed;
  queues_.clear();
}

std::size_t Network::queue_high_water(LinkId link) const {
  return link.index() < queues_.size() ? queues_[link.index()].high_water : 0;
}

std::uint64_t Network::queue_admitted(LinkId link) const {
  return link.index() < queues_.size() ? queues_[link.index()].admitted : 0;
}

std::size_t Network::queue_depth(LinkId link) const {
  if (link.index() >= queues_.size()) return 0;
  const EgressQueue& q = queues_[link.index()];
  std::size_t depth = 0;
  for (const Time t : q.departures) {
    if (t > sim_.now()) ++depth;
  }
  return depth;
}

bool Network::red_rejects(EgressQueue& q, LinkId link, const LinkSpec& spec,
                          std::size_t occupancy) {
  // Classic RED (Floyd/Jacobson) on an EWMA of the instantaneous
  // occupancy, thresholds fixed at 1/4 and 3/4 of the queue limit.
  constexpr double kWeight = 0.25;
  constexpr double kMaxProb = 0.1;
  q.red_avg += kWeight * (static_cast<double>(occupancy) - q.red_avg);
  const double min_th = 0.25 * static_cast<double>(spec.queue_limit);
  const double max_th = 0.75 * static_cast<double>(spec.queue_limit);
  if (q.red_avg < min_th) return false;
  if (q.red_avg >= max_th) return true;
  if (!q.red_seeded) {
    // Same stream-derivation contract as ImpairmentPlane: the link's
    // decision sequence depends only on (seed, link index).
    std::uint64_t mix = aqm_seed_ ^ (0x9E3779B97F4A7C15ull * (link.index() + 1));
    q.red_rng.reseed(splitmix64(mix));
    q.red_seeded = true;
  }
  const double p = kMaxProb * (q.red_avg - min_th) / (max_th - min_th);
  return q.red_rng.chance(p);
}

bool Network::admit(LinkId link, const Topology::Edge& edge,
                    const Packet& packet, Time& queue_delay) {
  EgressQueue& q = egress(link);
  const Time now = sim_.now();
  while (!q.departures.empty() && q.departures.front() <= now) {
    q.departures.pop_front();
  }
  const std::size_t occupancy = q.departures.size();
  if (occupancy >= edge.attrs.queue_limit) {
    drop(edge.from, packet, "queue-full");
    return false;
  }
  if (edge.attrs.aqm == AqmPolicy::kRed &&
      red_rejects(q, link, edge.attrs, occupancy)) {
    drop(edge.from, packet, "red-early");
    return false;
  }
  const Time serialization = edge.attrs.serialization_time(encoded_size(packet));
  const Time start = q.busy_until > now ? q.busy_until : now;
  const Time wait = start - now;
  q.busy_until = start + serialization;
  q.departures.push_back(q.busy_until);
  const std::size_t depth = q.departures.size();
  if (depth > q.high_water) q.high_water = depth;
  ++q.admitted;
  ++counters_.queued_packets;
  if (tap_ != nullptr) {
    tap_->on_queue(edge, packet, wait, serialization, depth, now);
  }
  for (PacketTap* tap : taps_) {
    tap->on_queue(edge, packet, wait, serialization, depth, now);
  }
  queue_delay = wait + serialization;
  return true;
}

void Network::transmit(LinkId link, Packet packet) {
  const Topology::Edge& edge = topo_.edge(link);
  if (!edge.up) {
    drop(edge.from, packet, "link-down");
    return;
  }

  // Capacitated links model store-and-forward for *data*: the copy first
  // clears the bounded egress queue (or is dropped there), then spends
  // wait + serialization before propagation starts. Control packets ride
  // a priority lane — classic CS6 treatment: they are 20-40 bytes against
  // kilobyte-scale data, so the model charges them neither queue slots
  // nor serialization, and soft state survives data-plane congestion.
  // An injected duplicate shares the original's queue slot — duplication
  // happens on the wire, not in the buffer. capacity == 0 (every
  // pre-congestion experiment) takes exactly one predicted-false branch.
  Time queue_delay = 0;
  if (edge.attrs.capacitated() && packet.type == PacketType::kData &&
      !admit(link, edge, packet, queue_delay)) {
    return;
  }

  Time extra_delay = 0;
  bool duplicate = false;
  Time dup_extra_delay = 0;
  if (impairments_.any_active()) {
    const ImpairmentDecision d = impairments_.decide(link, sim_.now());
    if (d.link_down) {
      drop(edge.from, packet, "link-down");
      return;
    }
    if (d.drop) {
      drop(edge.from, packet, "loss");
      return;
    }
    extra_delay = d.extra_delay;
    duplicate = d.duplicate;
    dup_extra_delay = d.dup_extra_delay;
    if (extra_delay > 0 || (duplicate && dup_extra_delay > 0)) {
      ++counters_.reordered;
    }
    if (duplicate) ++counters_.duplicates_injected;
  }

  // Each wire copy — the original and an injected duplicate — counts as a
  // transmission and is observed by the taps, so tree-cost measurements
  // honestly include duplicated traffic.
  const NodeId to = edge.to;
  const NodeId from = edge.from;
  const auto send_copy = [&](Packet copy, Time added) {
    // Arrival = queue wait + serialization + propagation (+ impairment
    // jitter); queue_delay is 0 on uncapacitated links.
    const Time latency = queue_delay + edge.attrs.delay + added;
    ++counters_.transmissions;
    if (copy.type == PacketType::kData) {
      ++counters_.data_transmissions;
    } else {
      ++counters_.control_transmissions;
    }
    if (trace_hook_ != nullptr && copy.trace.active()) {
      // Each wire copy becomes its own transmit span; the in-flight packet
      // carries that span so the next hop's work parents onto this hop.
      copy.trace =
          trace_hook_->on_transmit(edge, copy, sim_.now(), sim_.now() + latency);
    }
    if (tap_ != nullptr) tap_->on_transmit(edge, copy, sim_.now());
    for (PacketTap* tap : taps_) tap->on_transmit(edge, copy, sim_.now());
    HBH_LOG(LogLevel::kTrace, to_string(from), "->", to_string(to), " ",
        copy.describe());
    schedule_arrival(to, from, std::move(copy), latency);
  };
  if (duplicate) send_copy(packet, dup_extra_delay);
  send_copy(std::move(packet), extra_delay);
}

void Network::schedule_arrival(NodeId to, NodeId from, Packet&& packet,
                               Time delay) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(in_flight_.size());
    in_flight_.push_back(InFlight{to, from, std::move(packet)});
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    in_flight_[slot] = InFlight{to, from, std::move(packet)};
  }
  sim_.schedule(delay, [this, slot] { arrive(slot); });
}

void Network::arrive(std::uint32_t slot) {
  // Take the packet and free the slot before the agent runs: it may send
  // again, which can reuse the slot or grow (and move) the pool.
  InFlight& parked = in_flight_[slot];
  const NodeId to = parked.to;
  const NodeId from = parked.from;
  Packet packet = std::move(parked.packet);
  free_slots_.push_back(slot);
  ProtocolAgent& agent = *agents_[to.index()];
  ++agent.stats_.rx_by_type[static_cast<std::size_t>(packet.type)];
  if (tap_ != nullptr) tap_->on_deliver(to, from, packet, sim_.now());
  for (PacketTap* tap : taps_) tap->on_deliver(to, from, packet, sim_.now());
  agent.handle(std::move(packet), from);
}

void Network::drop(NodeId at, const Packet& packet, std::string_view reason) {
  if (reason == "ttl-expired") {
    ++counters_.drops_ttl;
  } else if (reason == "link-down") {
    ++counters_.drops_link_down;
  } else if (reason == "loss") {
    ++counters_.drops_loss;
  } else if (reason == "queue-full") {
    ++counters_.drops_queue_full;
  } else if (reason == "red-early") {
    ++counters_.drops_red;
  } else {
    ++counters_.drops_no_route;
  }
  if (trace_hook_ != nullptr && packet.trace.active()) {
    trace_hook_->on_drop(at, packet, reason, sim_.now());
  }
  if (tap_ != nullptr) tap_->on_drop(at, packet, reason, sim_.now());
  for (PacketTap* tap : taps_) tap->on_drop(at, packet, reason, sim_.now());
  HBH_LOG(LogLevel::kDebug, to_string(at), " drop(", reason, ") ",
      packet.describe());
}

}  // namespace hbh::net
