#include "harness/multi_source.hpp"

#include <cassert>
#include <utility>

namespace hbh::harness {

net::ProtocolAgent& MultiSourceHost::add_source(
    const net::Channel& channel, std::unique_ptr<net::ProtocolAgent> source) {
  assert(source != nullptr);
  assert(self().valid());  // attach the composite before adding sources
  net().adopt(self(), *source);
  subs_.push_back(Sub{channel, std::move(source)});
  net::ProtocolAgent& agent = *subs_.back().agent;
  if (started_) agent.start();
  return agent;
}

void MultiSourceHost::start() {
  started_ = true;
  for (Sub& sub : subs_) sub.agent->start();
  for (const auto& t : traffic_) arm_traffic(*t);
}

void MultiSourceHost::set_traffic(const net::Channel& channel,
                                  const TrafficSpec& spec,
                                  std::function<void()> emit) {
  Traffic* slot = nullptr;
  for (const auto& t : traffic_) {
    if (t->channel == channel) {
      slot = t.get();
      break;
    }
  }
  if (slot == nullptr) {
    traffic_.push_back(std::make_unique<Traffic>());
    slot = traffic_.back().get();
    slot->channel = channel;
  }
  slot->timer.reset();  // any previous cadence is gone
  slot->spec = spec;
  slot->emit = std::move(emit);
  if (started_) arm_traffic(*slot);
}

const TrafficSpec& MultiSourceHost::traffic(const net::Channel& channel) const {
  static const TrafficSpec kDefault{};
  for (const auto& t : traffic_) {
    if (t->channel == channel) return t->spec;
  }
  return kDefault;
}

void MultiSourceHost::arm_traffic(Traffic& t) {
  if (!t.spec.active()) return;
  const Time now = simulator().now();
  if (t.spec.stop >= 0 && now > t.spec.stop) return;
  t.timer = std::make_unique<sim::PeriodicTimer>(
      simulator(), t.spec.interval(), [this, &t] { fire_traffic(t); });
  // First emission lands exactly at spec.start (or immediately when that
  // is already past), then every interval.
  const Time first = t.spec.start > now ? t.spec.start - now : 0;
  t.timer->start(first);
}

void MultiSourceHost::fire_traffic(Traffic& t) {
  if (t.spec.stop >= 0 && simulator().now() > t.spec.stop) {
    t.timer->stop();
    return;
  }
  count_timer_fire();
  t.emit();
}

void MultiSourceHost::handle(net::PacketHandle h, NodeId from) {
  const net::Channel& channel = net().packet(h).channel;
  for (Sub& sub : subs_) {
    if (channel == sub.channel) {
      sub.agent->handle(h, from);
      return;
    }
  }
  // Not one of ours: transit traffic through the host node.
  net::ProtocolAgent::handle(h, from);
}

net::ProtocolAgent* MultiSourceHost::agent_for(const net::Channel& channel) {
  for (Sub& sub : subs_) {
    if (sub.channel == channel) return sub.agent.get();
  }
  return nullptr;
}

const net::ProtocolAgent* MultiSourceHost::agent_for(
    const net::Channel& channel) const {
  for (const Sub& sub : subs_) {
    if (sub.channel == channel) return sub.agent.get();
  }
  return nullptr;
}

net::AgentStats MultiSourceHost::sub_stats() const {
  net::AgentStats total;
  for (const Sub& sub : subs_) {
    const net::AgentStats& s = sub.agent->stats();
    for (std::size_t i = 0; i < net::kPacketTypeCount; ++i) {
      total.rx_by_type[i] += s.rx_by_type[i];
    }
    total.timer_fires += s.timer_fires;
  }
  return total;
}

}  // namespace hbh::harness
