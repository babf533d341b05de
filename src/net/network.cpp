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

void ProtocolAgent::handle(PacketHandle h, NodeId from) {
  if (net_->packet(h).dst == addr_) {
    deliver_local(h, from);
  } else {
    forward(h);
  }
}

sim::Simulator& ProtocolAgent::simulator() const noexcept {
  return net_->simulator();
}

void ProtocolAgent::forward(PacketHandle h) { net_->send(node_, h); }

void ProtocolAgent::forward(Packet&& packet, const TraceContext& trace) {
  net_->send(node_, std::move(packet), trace);
}

TraceContext ProtocolAgent::trace_of(PacketHandle h) const noexcept {
  return net_->trace_of(h);
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

void ProtocolAgent::deliver_local(PacketHandle h, NodeId from) {
  (void)from;
  ++net_->counters().local_sink;
  HBH_LOG(LogLevel::kTrace, to_string(node_), " sink ",
      net_->packet(h).describe());
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

PacketHandle Network::emplace(Packet&& packet, const TraceContext& trace) {
  const PacketHandle h = pool_.emplace(std::move(packet));
  if (trace_hook_ != nullptr) set_trace(h, trace);
  return h;
}

PacketHandle Network::clone(PacketHandle h) {
  const PacketHandle copy = pool_.clone(h);
  if (trace_hook_ != nullptr) set_trace(copy, trace_of(h));
  return copy;
}

void Network::set_trace(PacketHandle h, const TraceContext& trace) {
  if (traces_.size() <= h.index()) traces_.resize(pool_.capacity());
  traces_[h.index()] = trace;
}

void Network::set_trace_hook(TraceHook* hook) {
  trace_hook_ = hook;
  traces_.clear();
  traces_.shrink_to_fit();
}

TraceContext Network::trace_of(const Packet& pooled) const noexcept {
  if (traces_.empty()) return TraceContext{};
  const PacketHandle h = pool_.find(pooled);
  return h.valid() ? trace_of(h) : TraceContext{};
}

void Network::send(NodeId from, PacketHandle h) {
  assert(topo_.contains(from));
  Packet& packet = pool_[h];
  const NodeId dst = node_of(packet.dst);
  if (!dst.valid()) {
    drop(from, h, "unknown-destination");
    return;
  }
  if (dst == from) {
    // Self-addressed: deliver locally after zero delay (still through the
    // event queue so handling order stays deterministic).
    schedule_arrival(h, from, kNoNode, 0);
    return;
  }
  const LinkId link = routes_.first_link(from, dst);
  if (!link.valid()) {
    drop(from, h, "no-route");
    return;
  }
  if (packet.ttl <= 0) {
    drop(from, h, "ttl-expired");
    return;
  }
  --packet.ttl;
  transmit(link, h, packet);
}

void Network::send_direct(NodeId from, NodeId neighbor, PacketHandle h) {
  assert(topo_.contains(from) && topo_.contains(neighbor));
  const auto link = topo_.find_link(from, neighbor);
  assert(link.has_value());
  Packet& packet = pool_[h];
  if (packet.ttl <= 0) {
    drop(from, h, "ttl-expired");
    return;
  }
  --packet.ttl;
  transmit(*link, h, packet);
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

bool Network::admit(LinkId link, const Topology::Edge& edge, PacketHandle h,
                    const Packet& packet, Time& queue_delay) {
  EgressQueue& q = egress(link);
  const Time now = sim_.now();
  while (!q.departures.empty() && q.departures.front() <= now) {
    q.departures.pop_front();
  }
  const std::size_t occupancy = q.departures.size();
  if (occupancy >= edge.link.queue_limit) {
    drop(edge.from, h, "queue-full");
    return false;
  }
  if (edge.link.aqm == AqmPolicy::kRed &&
      red_rejects(q, link, edge.link, occupancy)) {
    drop(edge.from, h, "red-early");
    return false;
  }
  const Time serialization = edge.link.serialization_time(encoded_size(packet));
  const Time start = q.busy_until > now ? q.busy_until : now;
  const Time wait = start - now;
  q.busy_until = start + serialization;
  q.departures.push_back(q.busy_until);
  const std::size_t depth = q.departures.size();
  if (depth > q.high_water) q.high_water = depth;
  ++q.admitted;
  ++counters_.queued_packets;
  for (PacketTap* tap : taps_) {
    tap->on_queue(edge, packet, wait, serialization, depth, now);
  }
  queue_delay = wait + serialization;
  return true;
}

void Network::transmit(LinkId link, PacketHandle h, const Packet& packet) {
  const Topology::Edge& edge = topo_.edge(link);
  if (!edge.up) {
    drop(edge.from, h, "link-down");
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
  if (edge.link.capacitated() && packet.type == PacketType::kData &&
      !admit(link, edge, h, packet, queue_delay)) {
    return;
  }

  // Arrival = queue wait + serialization + propagation (+ impairment
  // jitter); queue_delay is 0 on uncapacitated links.
  const Time latency = queue_delay + edge.link.delay;
  if (!impairments_.any_active()) {
    send_copy(edge, h, packet, latency);
    return;
  }
  const ImpairmentDecision d = impairments_.decide(link, sim_.now());
  if (d.link_down) {
    drop(edge.from, h, "link-down");
    return;
  }
  if (d.drop) {
    drop(edge.from, h, "loss");
    return;
  }
  if (d.extra_delay > 0 || (d.duplicate && d.dup_extra_delay > 0)) {
    ++counters_.reordered;
  }
  // Each wire copy — the original and an injected duplicate, a clone in
  // its own slot — counts as a transmission and is observed by the taps,
  // so tree-cost measurements honestly include duplicated traffic.
  if (d.duplicate) {
    ++counters_.duplicates_injected;
    const PacketHandle dup = clone(h);
    send_copy(edge, dup, pool_[dup], latency + d.dup_extra_delay);
  }
  send_copy(edge, h, packet, latency + d.extra_delay);
}

void Network::send_copy(const Topology::Edge& edge, PacketHandle h,
                        const Packet& packet, Time latency) {
  ++counters_.transmissions;
  if (packet.type == PacketType::kData) {
    ++counters_.data_transmissions;
  } else {
    ++counters_.control_transmissions;
  }
  if (trace_hook_ != nullptr) {
    // Each wire copy becomes its own transmit span; the in-flight packet
    // carries that span so the next hop's work parents onto this hop.
    if (const TraceContext parent = trace_of(h); parent.active()) {
      traces_[h.index()] = trace_hook_->on_transmit(
          edge, packet, parent, sim_.now(), sim_.now() + latency);
    }
  }
  for (PacketTap* tap : taps_) tap->on_transmit(edge, packet, sim_.now());
  HBH_LOG(LogLevel::kTrace, to_string(edge.from), "->", to_string(edge.to),
      " ", packet.describe());
  schedule_arrival(h, edge.to, edge.from, latency);
}

void Network::schedule_arrival(PacketHandle h, NodeId to, NodeId from,
                               Time delay) {
  pool_.park(h, PacketPool::Hop{to, from});
  sim_.schedule(delay, sim::action<&Network::arrive>(this, h.index()));
}

void Network::arrive(std::uint32_t slot) {
  const PacketHandle h{slot};
  const PacketPool::Hop hop = pool_.unpark(h);
  ProtocolAgent& agent = *agents_[hop.to.index()];
  const Packet& packet = pool_[h];
  ++agent.stats_.rx_by_type[static_cast<std::size_t>(packet.type)];
  for (PacketTap* tap : taps_) {
    tap->on_deliver(hop.to, hop.from, packet, sim_.now());
  }
  agent.handle(h, hop.from);
  // Still held: the agent consumed it rather than sending it on (a slot it
  // sent on is parked again, or freed if the next hop dropped it).
  if (pool_.held(h)) pool_.release(h);
}

void Network::drop(NodeId at, PacketHandle h, std::string_view reason) {
  const Packet& packet = pool_[h];
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
  if (trace_hook_ != nullptr) {
    if (const TraceContext trace = trace_of(h); trace.active()) {
      trace_hook_->on_drop(at, packet, trace, reason, sim_.now());
    }
  }
  for (PacketTap* tap : taps_) tap->on_drop(at, packet, reason, sim_.now());
  HBH_LOG(LogLevel::kDebug, to_string(at), " drop(", reason, ") ",
      packet.describe());
  pool_.release(h);
}

}  // namespace hbh::net
