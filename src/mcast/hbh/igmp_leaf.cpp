#include "mcast/hbh/igmp_leaf.hpp"

#include "util/log.hpp"

namespace hbh::mcast::hbh {

using net::Packet;
using net::PacketType;

void IgmpLeafRouter::handle(net::PacketHandle h, NodeId from) {
  const Packet& packet = net().packet(h);
  // IGMP-style membership signalling from directly attached hosts:
  // reports and leaves are addressed to this router.
  if (packet.dst == self_addr()) {
    if (packet.type == PacketType::kPimJoin) {
      on_igmp_report(packet.channel, from);
      return;
    }
    if (packet.type == PacketType::kPimPrune) {
      on_igmp_leave(packet.channel, from);
      return;
    }
    if (packet.type == PacketType::kData) {
      // Channel data delivered to our upstream membership: replicate onto
      // every live member-facing link, then let the HBH data plane fan
      // out downstream if we also happen to be a branching node.
      purge_members(packet.channel);
      const auto it = groups_.find(packet.channel);
      if (it != groups_.end()) {
        for (const auto& [host, entry] : it->second.members) {
          if (entry.dead(simulator().now())) continue;
          const net::PacketHandle copy = net().clone(h);
          net().packet(copy).dst = net().address_of(host);
          net().send_direct(self(), host, copy);
        }
      }
      HbhRouter::handle(h, from);
      return;
    }
  }
  HbhRouter::handle(h, from);
}

std::vector<NodeId> IgmpLeafRouter::local_members(
    const net::Channel& ch) const {
  std::vector<NodeId> out;
  const auto it = groups_.find(ch);
  if (it == groups_.end()) return out;
  for (const auto& [host, entry] : it->second.members) {
    if (!entry.dead(simulator().now())) out.push_back(host);
  }
  return out;
}

void IgmpLeafRouter::on_igmp_report(const net::Channel& ch, NodeId host) {
  if (!host.valid()) return;
  auto [it, created] = groups_.try_emplace(ch);
  LeafGroup& group = it->second;
  auto [entry, inserted] =
      group.members.try_emplace(host, config_, simulator().now());
  if (!inserted) entry->second.refresh(config_, simulator().now());

  if (created) {
    // First local member: become the channel's receiver upstream.
    group.join_timer = std::make_unique<sim::PeriodicTimer>(
        simulator(), config_.join_period,
        [this, ch] { send_upstream_join(ch); });
    group.join_timer->start();
    send_upstream_join(ch);
    HBH_LOG(LogLevel::kDebug, to_string(self()), " IGMP leaf joins ",
        ch.to_string(), " upstream for ", to_string(host));
  }
}

void IgmpLeafRouter::on_igmp_leave(const net::Channel& ch, NodeId host) {
  const auto it = groups_.find(ch);
  if (it == groups_.end() || !host.valid()) return;
  it->second.members.erase(host);
  if (it->second.members.empty()) {
    // Last local member gone: stop refreshing; upstream soft state ages
    // out exactly as for a departing plain receiver.
    groups_.erase(it);
    HBH_LOG(LogLevel::kDebug, to_string(self()), " IGMP leaf leaves ",
        ch.to_string());
  }
}

void IgmpLeafRouter::purge_members(const net::Channel& ch) {
  const auto it = groups_.find(ch);
  if (it == groups_.end()) return;
  auto& members = it->second.members;
  for (auto m = members.begin(); m != members.end();) {
    m = m->second.dead(simulator().now()) ? members.erase(m) : std::next(m);
  }
  if (members.empty()) groups_.erase(it);
}

void IgmpLeafRouter::send_upstream_join(const net::Channel& ch) {
  purge_members(ch);
  const auto it = groups_.find(ch);
  if (it == groups_.end()) return;
  Packet join;
  join.src = self_addr();
  join.dst = ch.source;
  join.channel = ch;
  join.type = PacketType::kJoin;
  join.payload =
      net::JoinPayload{self_addr(), /*first=*/!it->second.first_join_sent};
  it->second.first_join_sent = true;
  forward(std::move(join));
}

}  // namespace hbh::mcast::hbh
