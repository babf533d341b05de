#include "harness/session.hpp"

#include <cassert>
#include <set>

#include "harness/churn_plan.hpp"
#include "harness/multi_source.hpp"
#include "mcast/hbh/router.hpp"
#include "mcast/hbh/source.hpp"
#include "mcast/pim/router.hpp"
#include "mcast/pim/source.hpp"
#include "mcast/reunite/router.hpp"
#include "mcast/reunite/source.hpp"
#include "util/env.hpp"
#include "util/profiler.hpp"

namespace hbh::harness {

std::string_view to_string(Protocol p) {
  switch (p) {
    case Protocol::kHbh:
      return "HBH";
    case Protocol::kReunite:
      return "REUNITE";
    case Protocol::kPimSm:
      return "PIM-SM";
    case Protocol::kPimSs:
      return "PIM-SS";
  }
  return "?";
}

const std::vector<Protocol>& all_protocols() {
  static const std::vector<Protocol> kAll{Protocol::kPimSm, Protocol::kPimSs,
                                          Protocol::kReunite, Protocol::kHbh};
  return kAll;
}

// --- ChannelHandle: thin forwards into its Session -------------------------

const net::Channel& ChannelHandle::channel() const {
  return session_->channels_.at(id_).channel;
}

NodeId ChannelHandle::source_host() const {
  return session_->channels_.at(id_).source_host;
}

NodeId ChannelHandle::rp() const { return session_->channels_.at(id_).rp; }

void ChannelHandle::subscribe(NodeId host, Time delay) {
  session_->subscribe_on(id_, host, delay);
}

void ChannelHandle::unsubscribe(NodeId host, Time delay) {
  session_->unsubscribe_on(id_, host, delay);
}

std::vector<NodeId> ChannelHandle::members() const {
  return session_->members_of(id_);
}

Measurement ChannelHandle::measure(Time drain) {
  return session_->measure_on(id_, drain);
}

std::size_t ChannelHandle::inject_data() {
  return session_->inject_data_on(id_);
}

void ChannelHandle::set_traffic(const TrafficSpec& spec) {
  session_->set_traffic_on(id_, spec);
}

const TrafficSpec& ChannelHandle::traffic() const {
  return session_->channels_.at(id_).traffic;
}

std::uint64_t ChannelHandle::total_structural_changes() const {
  return session_->structural_changes_of(id_);
}

StateCensus ChannelHandle::state_census() const {
  return session_->state_census(id_);
}

void ChannelHandle::schedule_churn(const ChurnPlan& plan) {
  session_->schedule_churn(id_, plan);
}

// --- Session ---------------------------------------------------------------

Session::Session(topo::Scenario scenario, Protocol protocol,
                 SessionConfig config,
                 std::shared_ptr<routing::SpfTable> routes)
    : scenario_(std::move(scenario)),
      protocol_(protocol),
      timers_(config.timers),
      unicast_only_(config.unicast_only) {
  assert(scenario_.source_host.valid());
  routes_ = routes ? std::make_unique<routing::UnicastRouting>(
                         scenario_.topo, std::move(routes))
                   : std::make_unique<routing::UnicastRouting>(scenario_.topo);
  net_ = std::make_unique<net::Network>(sim_, scenario_.topo, *routes_);
  install_agents(config);
  create_channel(scenario_.source_host);  // channel 0: the default channel
  net_->start();
  started_ = true;
  // HBH_AUDIT turns every session in the process into a self-checking
  // correctness probe (strict: the first violation throws).
  if (const std::string mode = env_audit(); !mode.empty()) {
    enable_audit(mode == "strict");
  }
}

Session::~Session() {
  net_->set_tap(nullptr);  // probe may outlive call frames, not the session
  net_->set_trace_hook(nullptr);
  if (sampler_) sampler_->stop();
  if (stats_tap_) net_->remove_tap(stats_tap_.get());
  if (trace_) net_->remove_tap(trace_.get());
  if (auditor_) net_->remove_tap(auditor_.get());
}

metrics::Auditor& Session::enable_audit(bool strict) {
  if (!auditor_) {
    metrics::AuditorConfig config;
    config.strict = strict;
    config.tree_period = timers_.tree_period;
    config.t1 = timers_.t1;
    config.t2 = timers_.t2;
    // Graft grace: staggered joins settle within a couple of periods; four
    // leaves margin for interception/fusion chains. Starvation threshold:
    // a copy older than t2 cannot still be in flight or queued anywhere.
    config.blackhole_grace = 4 * timers_.tree_period;
    config.blackhole_starvation = timers_.t2;
    config.leak_slack = 2 * timers_.tree_period;
    // REUNITE makes no at-most-once promise: its unicast-driven data plane
    // duplicates packets and re-crosses links during transients (§2.3).
    config.at_most_once = protocol_ != Protocol::kReunite;
    auditor_ = std::make_unique<metrics::Auditor>(config);
    net_->add_tap(auditor_.get());
  }
  return *auditor_;
}

net::AgentStats Session::aggregate_agent_stats() const {
  net::AgentStats total;
  const auto add = [&](const net::AgentStats& s) {
    for (std::size_t i = 0; i < net::kPacketTypeCount; ++i) {
      total.rx_by_type[i] += s.rx_by_type[i];
    }
    total.timer_fires += s.timer_fires;
  };
  for (const NodeId router : scenario_.routers) {
    add(net_->agent(router).stats());
  }
  for (const NodeId host : scenario_.hosts) {
    add(net_->agent(host).stats());
    // Source sub-agents are invisible to the Network's per-node counting;
    // their timer fires (tree rounds) accrue inside the composite.
    const auto it = source_hosts_.find(host);
    if (it != source_hosts_.end()) add(it->second->sub_stats());
  }
  return total;
}

metrics::Tracer& Session::enable_tracing(std::size_t capacity) {
  if (!tracer_) {
    tracer_ = std::make_unique<metrics::Tracer>(sim_, capacity);
    net_->set_trace_hook(tracer_.get());
  }
  return *tracer_;
}

metrics::Registry& Session::enable_telemetry(Time sample_period) {
  if (registry_) return *registry_;
  registry_ = std::make_unique<metrics::Registry>();
  metrics::Registry& reg = *registry_;

  // Fabric: per-type tx/byte counters + drop counts + size histogram, and
  // a bounded structured trace for the report's message summary. Both ride
  // the persistent multi-tap seam, so measure()'s exclusive probe slot
  // stays free.
  stats_tap_ = std::make_unique<metrics::NetworkStatsTap>(reg);
  trace_ = std::make_unique<metrics::MessageTrace>();
  net_->add_tap(stats_tap_.get());
  net_->add_tap(trace_.get());

  // Simulator health.
  reg.bind_gauge("sim.pending",
                 [this] { return static_cast<double>(sim_.pending()); });
  reg.bind_gauge("sim.peak_pending",
                 [this] { return static_cast<double>(sim_.peak_pending()); });
  reg.bind_gauge("sim.executed_events",
                 [this] { return static_cast<double>(sim_.executed()); });

  // Event-queue slot pool: allocated should plateau while pushes grow —
  // steady-state scheduling recycles slots instead of allocating.
  reg.bind_gauge("sim.queue_slots", [this] {
    return static_cast<double>(sim_.queue().slots_allocated());
  });
  reg.bind_gauge("sim.queue_slots_free", [this] {
    return static_cast<double>(sim_.queue().slots_free());
  });
  reg.bind_gauge("sim.queue_pushes", [this] {
    return static_cast<double>(sim_.queue().total_pushes());
  });

  // Unicast routing: how hard the lazy SPF cache is working (each
  // invalidate() bumps the epoch; each miss runs one Dijkstra).
  reg.bind_gauge("routing.spf_computations", [this] {
    return static_cast<double>(routes_->spf_computations());
  });
  reg.bind_gauge("routing.topology_epoch", [this] {
    return static_cast<double>(routes_->topology_epoch());
  });

  // Protocol state (the paper's §2.1 router-state story, over time).
  // Cross-channel sums: identical to the per-channel numbers for
  // single-channel sessions.
  reg.bind_gauge("state.control_entries", [this] {
    return static_cast<double>(state_census().control_entries);
  });
  reg.bind_gauge("state.forwarding_entries", [this] {
    return static_cast<double>(state_census().forwarding_entries);
  });
  reg.bind_gauge("state.stateful_routers", [this] {
    return static_cast<double>(state_census().routers_with_state);
  });
  reg.bind_gauge("state.structural_changes", [this] {
    return static_cast<double>(total_structural_changes());
  });
  reg.bind_gauge("session.members",
                 [this] { return static_cast<double>(members().size()); });
  reg.bind_gauge("session.channels",
                 [this] { return static_cast<double>(channels_.size()); });

  // Per-router-class aggregates (§3's state-placement claim, over time).
  struct ClassGauge {
    const char* name;
    ClassCensus AggregateCensus::* bucket;
  };
  static constexpr ClassGauge kClasses[] = {
      {"branching", &AggregateCensus::branching},
      {"non_branching", &AggregateCensus::non_branching},
      {"rp", &AggregateCensus::rp},
  };
  for (const auto& cls : kClasses) {
    const std::string prefix = std::string("state.") + cls.name;
    reg.bind_gauge(prefix + ".routers", [this, bucket = cls.bucket] {
      return static_cast<double>((aggregate_census().*bucket).routers);
    });
    reg.bind_gauge(prefix + ".control_entries", [this, bucket = cls.bucket] {
      return static_cast<double>((aggregate_census().*bucket).control_entries);
    });
    reg.bind_gauge(prefix + ".forwarding_entries", [this,
                                                    bucket = cls.bucket] {
      return static_cast<double>(
          (aggregate_census().*bucket).forwarding_entries);
    });
  }

  // Aggregated per-agent receive/timer counters.
  reg.bind_gauge("agents.timer_fires", [this] {
    return static_cast<double>(aggregate_agent_stats().timer_fires);
  });
  for (std::size_t i = 0; i < net::kPacketTypeCount; ++i) {
    const auto type = static_cast<net::PacketType>(i);
    reg.bind_gauge(std::string("agents.rx.") +
                       std::string(net::to_string(type)),
                   [this, i] {
                     return static_cast<double>(
                         aggregate_agent_stats().rx_by_type[i]);
                   });
  }

  if (protocol_ == Protocol::kHbh) {
    reg.bind_gauge("hbh.joins_intercepted", [this] {
      std::uint64_t total = retired_joins_intercepted_;
      for (const NodeId router : scenario_.routers) {
        if (is_unicast_only(router) || crashed(router)) continue;
        total += static_cast<const mcast::hbh::HbhRouter&>(net_->agent(router))
                     .joins_intercepted();
      }
      return static_cast<double>(total);
    });
  }

  sampler_ =
      std::make_unique<metrics::StateSampler>(sim_, reg, sample_period);
  sampler_->start();
  return reg;
}

bool Session::is_unicast_only(NodeId n) const {
  for (const NodeId u : unicast_only_) {
    if (u == n) return true;
  }
  return false;
}

std::unique_ptr<net::ProtocolAgent> Session::make_router_agent() const {
  switch (protocol_) {
    case Protocol::kHbh:
      return std::make_unique<mcast::hbh::HbhRouter>(timers_);
    case Protocol::kReunite:
      return std::make_unique<mcast::reunite::ReuniteRouter>(timers_);
    case Protocol::kPimSm:
    case Protocol::kPimSs:
      return std::make_unique<mcast::pim::PimRouter>(timers_);
  }
  return std::make_unique<net::ProtocolAgent>();
}

Session::SourceAgent Session::make_source_agent(
    const net::Channel& channel, NodeId rp,
    const mcast::McastConfig& timers) const {
  SourceAgent out;
  switch (protocol_) {
    case Protocol::kHbh: {
      auto source = std::make_unique<mcast::hbh::HbhSource>(channel, timers);
      auto* src = source.get();
      out.send_data = [src](std::uint64_t probe, std::uint32_t seq,
                            std::uint32_t pad) {
        return src->send_data(probe, seq, pad);
      };
      out.agent = std::move(source);
      break;
    }
    case Protocol::kReunite: {
      auto source =
          std::make_unique<mcast::reunite::ReuniteSource>(channel, timers);
      auto* src = source.get();
      out.send_data = [src](std::uint64_t probe, std::uint32_t seq,
                            std::uint32_t pad) {
        return src->send_data(probe, seq, pad);
      };
      out.agent = std::move(source);
      break;
    }
    case Protocol::kPimSs:
    case Protocol::kPimSm: {
      auto source = std::make_unique<mcast::pim::PimSource>(
          channel,
          protocol_ == Protocol::kPimSm ? mcast::pim::PimMode::kSharedTree
                                        : mcast::pim::PimMode::kSourceTree,
          rp.valid() ? net_->address_of(rp) : kNoAddr);
      auto* src = source.get();
      out.send_data = [src](std::uint64_t probe, std::uint32_t seq,
                            std::uint32_t pad) {
        return src->send_data(probe, seq, pad);
      };
      out.agent = std::move(source);
      break;
    }
  }
  return out;
}

void Session::install_agents(const SessionConfig& config) {
  const auto& timers = config.timers;

  // Receiver hosts (every host except the default channel's source).
  const mcast::JoinStyle style =
      (protocol_ == Protocol::kHbh || protocol_ == Protocol::kReunite)
          ? mcast::JoinStyle::kSourceJoin
          : mcast::JoinStyle::kPimJoin;
  for (const NodeId host : scenario_.hosts) {
    if (host == scenario_.source_host) continue;
    auto agent = std::make_unique<mcast::ReceiverHost>(style, timers);
    receivers_[host] =
        static_cast<mcast::ReceiverHost*>(&net_->attach(host, std::move(agent)));
  }

  // Routers. Unicast-only routers keep the default forwarding agent —
  // that is the paper's "unicast clouds" deployment story.
  for (const NodeId router : scenario_.routers) {
    if (is_unicast_only(router)) continue;
    net_->attach(router, make_router_agent());
  }
}

ChannelHandle Session::create_channel(NodeId source_host,
                                      std::optional<mcast::McastConfig> timers,
                                      const TrafficSpec& traffic) {
  assert(source_host.valid());
  ChannelState state;
  state.source_host = source_host;
  state.channel = net::Channel{net_->address_of(source_host),
                               GroupAddr::ssm(next_group_++)};
  if (protocol_ == Protocol::kPimSm) {
    state.rp = mcast::pim::choose_rp_delay_aware(*routes_, scenario_.routers,
                                                 source_host);
  }

  MultiSourceHost* composite = nullptr;
  const auto found = source_hosts_.find(source_host);
  if (found != source_hosts_.end()) {
    composite = found->second;
  } else {
    // The host stops being a receiver. It must not hold subscriptions —
    // a subscribed receiver cannot silently become a source.
    if (const auto it = receivers_.find(source_host); it != receivers_.end()) {
      assert(it->second->subscription_count() == 0);
      receivers_.erase(it);
    }
    auto owner = std::make_unique<MultiSourceHost>();
    composite = owner.get();
    net_->attach(source_host, std::move(owner));
    source_hosts_[source_host] = composite;
    if (started_) composite->start();
  }

  SourceAgent src =
      make_source_agent(state.channel, state.rp, timers.value_or(timers_));
  state.send_data = std::move(src.send_data);
  composite->add_source(state.channel, std::move(src.agent));
  channels_.push_back(std::move(state));
  const auto id = static_cast<ChannelId>(channels_.size() - 1);
  // Installed through set_traffic_on so the default (inactive) spec takes
  // the same zero-event path as legacy callers.
  if (traffic.active() || traffic.payload_bytes > 0) {
    set_traffic_on(id, traffic);
  }
  return ChannelHandle{this, id};
}

ChannelHandle Session::channel_handle(ChannelId id) {
  assert(id < channels_.size());
  return ChannelHandle{this, id};
}

void Session::subscribe_on(ChannelId id, NodeId host, Time delay) {
  const ChannelState& ch = channels_.at(id);
  auto* receiver = receivers_.at(host);
  const Ipv4Addr root = protocol_ == Protocol::kPimSm ? net_->address_of(ch.rp)
                                                      : ch.channel.source;
  if (delay <= 0) {
    receiver->subscribe(ch.channel, root);
    if (auditor_) auditor_->note_subscribe(ch.channel, host, sim_.now());
  } else {
    sim_.schedule(delay, [this, receiver, channel = ch.channel, root, host] {
      receiver->subscribe(channel, root);
      if (auditor_) auditor_->note_subscribe(channel, host, sim_.now());
    });
  }
}

void Session::unsubscribe_on(ChannelId id, NodeId host, Time delay) {
  const ChannelState& ch = channels_.at(id);
  auto* receiver = receivers_.at(host);
  if (delay <= 0) {
    receiver->unsubscribe(ch.channel);
    if (auditor_) auditor_->note_unsubscribe(ch.channel, host, sim_.now());
  } else {
    sim_.schedule(delay, [this, receiver, channel = ch.channel, host] {
      receiver->unsubscribe(channel);
      if (auditor_) auditor_->note_unsubscribe(channel, host, sim_.now());
    });
  }
}

std::vector<NodeId> Session::members_of(ChannelId id) const {
  const net::Channel& channel = channels_.at(id).channel;
  std::vector<NodeId> out;
  for (const NodeId host : scenario_.hosts) {  // stable order
    const auto it = receivers_.find(host);
    if (it != receivers_.end() && it->second->subscribed(channel)) {
      out.push_back(host);
    }
  }
  return out;
}

Measurement Session::measure_on(ChannelId id, Time drain) {
  ChannelState& ch = channels_.at(id);
  const std::vector<NodeId> expected = members_of(id);
  active_probe_ = std::make_unique<metrics::DataProbe>(next_probe_++);
  net_->set_tap(active_probe_.get());
  for (auto& [host, receiver] : receivers_) {
    receiver->set_sink(active_probe_.get());
  }

  const std::uint32_t seq = ch.next_seq++;
  if (auditor_) auditor_->note_emission(ch.channel, seq, sim_.now());
  const std::size_t sent = ch.send_data(active_probe_->probe_id(), seq,
                                        ch.traffic.payload_bytes);
  (void)sent;
  sim_.run_for(drain);

  Measurement m;
  m.tree_cost = active_probe_->link_copies();
  m.mean_delay = active_probe_->mean_delay(expected);
  m.max_link_copies = active_probe_->max_copies_on_a_link();
  m.missing = active_probe_->missing(expected);
  m.duplicated = active_probe_->duplicated();
  m.per_link = active_probe_->per_link();

  net_->set_tap(nullptr);
  for (auto& [host, receiver] : receivers_) receiver->set_sink(nullptr);

  // Tree-cost drift vs the oracle SPT (HBH's exact forward-SPT claim;
  // REUNITE/PIM legitimately deviate under asymmetric routing, so no
  // oracle is asserted for them). Only a clean, converged measurement is
  // comparable: every member reached exactly once, one copy per link, no
  // active faults steering copies off the unicast-optimal paths.
  if (auditor_ && protocol_ == Protocol::kHbh && !expected.empty() &&
      m.delivered_exactly_once() && m.max_link_copies == 1 &&
      crashed_.empty() && !net_->impairments().any_active()) {
    auditor_->note_tree_cost(ch.channel, m.tree_cost,
                             oracle_tree_edges(id, expected), true, sim_.now());
  }
  return m;
}

std::uint64_t Session::oracle_tree_edges(
    ChannelId id, const std::vector<NodeId>& members) const {
  const ChannelState& ch = channels_.at(id);
  std::set<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (const NodeId member : members) {
    NodeId cur = ch.source_host;
    while (cur != member) {
      const NodeId next = routes_->next_hop(cur, member);
      if (!next.valid()) return 0;  // unreachable: no oracle, skip the check
      edges.emplace(cur.index(), next.index());
      cur = next;
    }
  }
  return edges.size();
}

void Session::audit_sweep() {
  if (!auditor_) return;
  const Time now = sim_.now();
  auditor_->begin_sweep(now);
  for (const ChannelState& ch : channels_) {
    for (const NodeId router : scenario_.routers) {
      if (is_unicast_only(router) || crashed(router)) continue;
      const net::ProtocolAgent& agent = net_->agent(router);
      switch (protocol_) {
        case Protocol::kHbh: {
          const auto* st = static_cast<const mcast::hbh::HbhRouter&>(agent)
                               .state(ch.channel);
          if (st == nullptr) break;
          const bool live_mct = st->mct && !st->mct->state.dead(now);
          const bool live_mft = st->mft && !st->mft->live_targets(now).empty();
          auditor_->sweep_tables(router, ch.channel, live_mct, live_mft);
          if (st->mct) {
            auditor_->sweep_entry(router, ch.channel, "mct",
                                  st->mct->state.t2_expiry());
          }
          if (st->mft) {
            for (const auto& [target, entry] : st->mft->raw()) {
              auditor_->sweep_entry(router, ch.channel, "mft",
                                    entry.t2_expiry());
            }
          }
          break;
        }
        case Protocol::kReunite: {
          const auto* st =
              static_cast<const mcast::reunite::ReuniteRouter&>(agent)
                  .state(ch.channel);
          if (st == nullptr) break;
          const bool live_mct = st->mct && !st->mct->state.dead(now);
          bool live_mft = false;
          if (st->mft) {
            live_mft = !st->mft->dst_state.dead(now);
            for (const auto& [target, entry] : st->mft->entries) {
              live_mft = live_mft || !entry.dead(now);
            }
          }
          auditor_->sweep_tables(router, ch.channel, live_mct, live_mft);
          if (st->mct) {
            auditor_->sweep_entry(router, ch.channel, "mct",
                                  st->mct->state.t2_expiry());
          }
          if (st->mft) {
            auditor_->sweep_entry(router, ch.channel, "mft",
                                  st->mft->dst_state.t2_expiry());
            for (const auto& [target, entry] : st->mft->entries) {
              auditor_->sweep_entry(router, ch.channel, "mft",
                                    entry.t2_expiry());
            }
          }
          break;
        }
        case Protocol::kPimSm:
        case Protocol::kPimSs: {
          const auto* oifs = static_cast<const mcast::pim::PimRouter&>(agent)
                                 .oif_entries(ch.channel);
          if (oifs == nullptr) break;
          for (const auto& [neighbor, entry] : *oifs) {
            auditor_->sweep_entry(router, ch.channel, "oif",
                                  entry.t2_expiry());
          }
          break;
        }
      }
    }
  }
  auditor_->end_sweep();
}

std::size_t Session::inject_data_on(ChannelId id) {
  ChannelState& ch = channels_.at(id);
  // probe id 0 = untagged: the packet is ordinary traffic, invisible to
  // any DataProbe a concurrent measure() installs.
  const std::uint32_t seq = ch.next_seq++;
  if (auditor_) auditor_->note_emission(ch.channel, seq, sim_.now());
  return ch.send_data(0, seq, ch.traffic.payload_bytes);
}

void Session::set_traffic_on(ChannelId id, const TrafficSpec& spec) {
  ChannelState& ch = channels_.at(id);
  ch.traffic = spec;
  MultiSourceHost* host = source_hosts_.at(ch.source_host);
  // The emission callback re-reads the ChannelState each firing, so a
  // later set_traffic (payload change) or seq progression is honored.
  host->set_traffic(ch.channel, spec, [this, id] {
    ChannelState& c = channels_.at(id);
    const std::uint32_t seq = c.next_seq++;
    if (auditor_) auditor_->note_emission(c.channel, seq, sim_.now());
    (void)c.send_data(0, seq, c.traffic.payload_bytes);
  });
}

void Session::schedule_churn(ChannelId id, const ChurnPlan& plan) {
  for (const ChurnEvent& ev : plan.events()) {
    if (ev.join) {
      subscribe_on(id, ev.host, ev.at);
    } else {
      unsubscribe_on(id, ev.host, ev.at);
    }
  }
}

void Session::recompute_routes() {
  // Instantaneous IGP reconvergence: bump the routing epoch so every SPF
  // recomputes lazily on its next query. Fault-heavy runs (FaultPlan,
  // ablation_resilience) thus pay per queried root, not O(N·Dijkstra) per
  // link-down/up/crash event. A table shared with sibling sessions is left
  // to them (copy-on-invalidate); the Network keeps pointing at the same
  // UnicastRouting instance.
  routes_->invalidate();
}

void Session::set_link_cost(NodeId a, NodeId b, double cost) {
  const auto ab = scenario_.topo.find_link(a, b);
  const auto ba = scenario_.topo.find_link(b, a);
  assert(ab.has_value() && ba.has_value());
  // Cost/delay only: a capacitated link keeps its capacity across churn.
  scenario_.topo.set_cost_delay(*ab, cost, cost);
  scenario_.topo.set_cost_delay(*ba, cost, cost);
  recompute_routes();
}

void Session::set_link_state(NodeId a, NodeId b, bool up) {
  const auto ab = scenario_.topo.find_link(a, b);
  const auto ba = scenario_.topo.find_link(b, a);
  assert(ab.has_value() && ba.has_value());
  scenario_.topo.set_link_up(*ab, up);
  scenario_.topo.set_link_up(*ba, up);
  recompute_routes();
}

void Session::set_link_down(NodeId a, NodeId b) { set_link_state(a, b, false); }

void Session::set_link_up(NodeId a, NodeId b) { set_link_state(a, b, true); }

bool Session::crashed(NodeId router) const {
  for (const NodeId n : crashed_) {
    if (n == router) return true;
  }
  return false;
}

void Session::crash_router(NodeId router) {
  assert(!source_hosts_.contains(router));  // sources are not crashable
  assert(!is_unicast_only(router));         // nothing to crash
  if (crashed(router)) return;
  // Carry the dying agent's contribution into the session-level totals
  // before it is destroyed, so Figure-4-style counters stay monotone.
  const net::ProtocolAgent& agent = net_->agent(router);
  if (protocol_ == Protocol::kHbh) {
    const auto& hbh = static_cast<const mcast::hbh::HbhRouter&>(agent);
    retired_structural_changes_ += hbh.structural_changes();
    for (const auto& [ch, n] : hbh.structural_by_channel()) {
      retired_structural_by_channel_[ch] += n;
    }
    retired_joins_intercepted_ += hbh.joins_intercepted();
  } else if (protocol_ == Protocol::kReunite) {
    const auto& reunite =
        static_cast<const mcast::reunite::ReuniteRouter&>(agent);
    retired_structural_changes_ += reunite.structural_changes();
    for (const auto& [ch, n] : reunite.structural_by_channel()) {
      retired_structural_by_channel_[ch] += n;
    }
  }
  // The default agent keeps unicast forwarding alive: this models a
  // control-plane (protocol process) crash, not a powered-off node.
  net_->attach(router, std::make_unique<net::ProtocolAgent>());
  crashed_.push_back(router);
}

void Session::restart_router(NodeId router) {
  for (auto it = crashed_.begin(); it != crashed_.end(); ++it) {
    if (*it != router) continue;
    crashed_.erase(it);
    net::ProtocolAgent& agent = net_->attach(router, make_router_agent());
    agent.start();  // fresh tables; soft state repopulates them
    return;
  }
}

void Session::impair_link(NodeId a, NodeId b,
                          const net::Impairment& impairment) {
  net_->set_duplex_impairment(a, b, impairment);
}

namespace {

std::string_view fault_span_name(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::kLinkDown: return "fault:link-down";
    case FaultEvent::Kind::kLinkUp: return "fault:link-up";
    case FaultEvent::Kind::kImpair: return "fault:impair";
    case FaultEvent::Kind::kClearImpairments: return "fault:clear-impairments";
    case FaultEvent::Kind::kCrash: return "fault:crash";
    case FaultEvent::Kind::kRestart: return "fault:restart";
  }
  return "fault";
}

}  // namespace

void Session::schedule_faults(const FaultPlan& plan) {
  for (const FaultEvent& ev : plan.events()) {
    sim_.schedule(ev.after, [this, ev] {
      HBH_PHASE("fault");
      // Externally-injected faults are causal roots too: the span itself
      // has no packet to ride, but it anchors the event on the timeline
      // next to the protocol reactions it provokes.
      if (net::TraceHook* hook = net_->trace_hook(); hook != nullptr) {
        hook->root(fault_span_name(ev.kind), ev.a, net::Channel{}, kNoAddr);
      }
      switch (ev.kind) {
        case FaultEvent::Kind::kLinkDown:
          set_link_down(ev.a, ev.b);
          break;
        case FaultEvent::Kind::kLinkUp:
          set_link_up(ev.a, ev.b);
          break;
        case FaultEvent::Kind::kImpair:
          impair_link(ev.a, ev.b, ev.impairment);
          break;
        case FaultEvent::Kind::kClearImpairments:
          clear_impairments();
          break;
        case FaultEvent::Kind::kCrash:
          crash_router(ev.a);
          break;
        case FaultEvent::Kind::kRestart:
          restart_router(ev.a);
          break;
      }
    });
  }
}

std::uint64_t Session::total_structural_changes() const {
  std::uint64_t total = retired_structural_changes_;
  for (const NodeId router : scenario_.routers) {
    if (is_unicast_only(router) || crashed(router)) continue;
    const net::ProtocolAgent& agent = net_->agent(router);
    if (protocol_ == Protocol::kHbh) {
      total += static_cast<const mcast::hbh::HbhRouter&>(agent)
                   .structural_changes();
    } else if (protocol_ == Protocol::kReunite) {
      total += static_cast<const mcast::reunite::ReuniteRouter&>(agent)
                   .structural_changes();
    }
  }
  return total;
}

std::uint64_t Session::structural_changes_of(ChannelId id) const {
  const net::Channel& channel = channels_.at(id).channel;
  std::uint64_t total = 0;
  if (const auto it = retired_structural_by_channel_.find(channel);
      it != retired_structural_by_channel_.end()) {
    total = it->second;
  }
  for (const NodeId router : scenario_.routers) {
    if (is_unicast_only(router) || crashed(router)) continue;
    const net::ProtocolAgent& agent = net_->agent(router);
    if (protocol_ == Protocol::kHbh) {
      total += static_cast<const mcast::hbh::HbhRouter&>(agent)
                   .structural_changes(channel);
    } else if (protocol_ == Protocol::kReunite) {
      total += static_cast<const mcast::reunite::ReuniteRouter&>(agent)
                   .structural_changes(channel);
    }
  }
  return total;
}

mcast::ReceiverHost& Session::receiver(NodeId host) const {
  return *receivers_.at(host);
}

net::ProtocolAgent& Session::source_agent(ChannelId id) const {
  const ChannelState& ch = channels_.at(id);
  net::ProtocolAgent* agent =
      source_hosts_.at(ch.source_host)->agent_for(ch.channel);
  assert(agent != nullptr);
  return *agent;
}

std::pair<std::size_t, std::size_t> Session::router_channel_state(
    NodeId router, const net::Channel& channel) const {
  // Time-aware: routers purge lazily (on the next message for the
  // channel), so a census that counted raw table rows would report state
  // that is already dead by its own timestamps — forever, once traffic
  // stops. Count only entries that are still alive at `now`.
  const Time now = sim_.now();
  const net::ProtocolAgent& agent = net_->agent(router);
  std::size_t control = 0;
  std::size_t forwarding = 0;
  switch (protocol_) {
    case Protocol::kHbh: {
      const auto* st =
          static_cast<const mcast::hbh::HbhRouter&>(agent).state(channel);
      if (st != nullptr) {
        if (st->mct && !st->mct->state.dead(now)) control = 1;
        if (st->mft) forwarding = st->mft->live_targets(now).size();
      }
      break;
    }
    case Protocol::kReunite: {
      const auto* st = static_cast<const mcast::reunite::ReuniteRouter&>(agent)
                           .state(channel);
      if (st != nullptr) {
        if (st->mct && !st->mct->state.dead(now)) control = 1;
        if (st->mft) {
          if (!st->mft->dst_state.dead(now)) forwarding += 1;
          for (const auto& [target, entry] : st->mft->entries) {
            if (!entry.dead(now)) ++forwarding;
          }
        }
      }
      break;
    }
    case Protocol::kPimSm:
    case Protocol::kPimSs:
      forwarding =
          static_cast<const mcast::pim::PimRouter&>(agent).oifs(channel).size();
      break;
  }
  return {control, forwarding};
}

StateCensus Session::state_census(ChannelId id) const {
  const net::Channel& channel = channels_.at(id).channel;
  StateCensus census;
  for (const NodeId router : scenario_.routers) {
    if (is_unicast_only(router) || crashed(router)) continue;
    const auto [control, forwarding] = router_channel_state(router, channel);
    census.control_entries += control;
    census.forwarding_entries += forwarding;
    if (control + forwarding > 0) ++census.routers_with_state;
  }
  return census;
}

StateCensus Session::state_census() const {
  StateCensus census;
  for (const NodeId router : scenario_.routers) {
    if (is_unicast_only(router) || crashed(router)) continue;
    std::size_t control = 0;
    std::size_t forwarding = 0;
    for (const ChannelState& ch : channels_) {
      const auto [c, f] = router_channel_state(router, ch.channel);
      control += c;
      forwarding += f;
    }
    census.control_entries += control;
    census.forwarding_entries += forwarding;
    if (control + forwarding > 0) ++census.routers_with_state;
  }
  return census;
}

RouterClass Session::router_class(NodeId router, ChannelId id) const {
  if (is_unicast_only(router) || crashed(router)) return RouterClass::kNone;
  const ChannelState& ch = channels_.at(id);
  const auto [control, forwarding] = router_channel_state(router, ch.channel);
  if (control + forwarding == 0) return RouterClass::kNone;
  // Same classification rules as aggregate_census (kept in sync).
  if (protocol_ == Protocol::kPimSm && router == ch.rp) return RouterClass::kRp;
  if (protocol_ == Protocol::kPimSm || protocol_ == Protocol::kPimSs) {
    return forwarding >= 2 ? RouterClass::kBranching
                           : RouterClass::kNonBranching;
  }
  return forwarding > 0 ? RouterClass::kBranching : RouterClass::kNonBranching;
}

void Session::apply_backbone_capacity(double capacity, std::size_t queue_limit,
                                      net::AqmPolicy aqm) {
  topo::apply_backbone_capacity(scenario_.topo, capacity, queue_limit, aqm);
  // Transmit reads capacity from the edge live and costs are untouched,
  // so no route recompute is needed.
}

AggregateCensus Session::aggregate_census() const {
  AggregateCensus out;
  for (const NodeId router : scenario_.routers) {
    if (is_unicast_only(router) || crashed(router)) continue;
    std::size_t router_total = 0;
    for (const ChannelState& ch : channels_) {
      const auto [control, forwarding] =
          router_channel_state(router, ch.channel);
      if (control + forwarding == 0) continue;
      router_total += control + forwarding;
      out.totals.control_entries += control;
      out.totals.forwarding_entries += forwarding;

      // Classify this (router, channel) incidence. For HBH/REUNITE, any
      // live MFT makes the router an addressed replication point for the
      // channel — branching (see docs/CHANNELS.md on HBH's relay MFTs).
      // PIM needs >=2 oifs to replicate; one oif is a plain on-tree
      // transit router, which still pays forwarding state. The PIM-SM RP
      // is its own class regardless of fan-out.
      ClassCensus* bucket = nullptr;
      if (protocol_ == Protocol::kPimSm && router == ch.rp) {
        bucket = &out.rp;
      } else if (protocol_ == Protocol::kPimSm ||
                 protocol_ == Protocol::kPimSs) {
        bucket = forwarding >= 2 ? &out.branching : &out.non_branching;
      } else {
        bucket = forwarding > 0 ? &out.branching : &out.non_branching;
      }
      ++bucket->routers;
      bucket->control_entries += control;
      bucket->forwarding_entries += forwarding;
    }
    if (router_total > 0) ++out.totals.routers_with_state;
  }
  return out;
}

}  // namespace hbh::harness
