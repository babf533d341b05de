#include "mcast/common/membership.hpp"

#include <cassert>

#include "util/log.hpp"
#include "util/profiler.hpp"

namespace hbh::mcast {

using net::Packet;
using net::PacketType;

void ReceiverHost::subscribe(const net::Channel& channel, Ipv4Addr root) {
  assert(channel.valid());
  if (subs_.contains(channel)) return;
  if (style_ == JoinStyle::kPimJoin && root.unspecified()) {
    root = channel.source;  // PIM-SS default: join toward the source
  }
  Subscription sub;
  sub.root = root;
  // Every membership episode — including each churn re-join — is one trace:
  // the first join, all periodic refreshes, and everything they trigger
  // downstream hang off this root span.
  sub.ctx = trace_root("subscribe", channel, self_addr());
  sub.timer = std::make_unique<sim::PeriodicTimer>(
      simulator(), config_.join_period, [this, channel] {
        count_timer_fire();
        send_refresh(channel);
      });
  sub.timer->start();  // periodic refreshes; the first join goes out now
  subs_.emplace(channel, std::move(sub));
  send_refresh(channel);
  HBH_LOG(LogLevel::kDebug, to_string(self()), " subscribe ",
      channel.to_string());
}

void ReceiverHost::unsubscribe(const net::Channel& channel) {
  const auto it = subs_.find(channel);
  if (it == subs_.end()) return;
  const net::TraceContext leave_ctx =
      trace_root("unsubscribe", channel, self_addr());
  if (style_ == JoinStyle::kPimJoin) {
    // Explicit fast leave: a prune toward the tree root tears down oifs
    // along the way immediately instead of waiting for t2 expiry.
    Packet prune;
    prune.src = self_addr();
    prune.dst = it->second.root;
    prune.channel = channel;
    prune.type = PacketType::kPimPrune;
    prune.payload = net::PimJoinPayload{it->second.root, self_addr()};
    forward(std::move(prune), leave_ctx);
  }
  // HBH/REUNITE leave is purely soft-state: simply stop sending joins
  // (§2.1 "The receiver simply stops sending join messages").
  subs_.erase(it);
  HBH_LOG(LogLevel::kDebug, to_string(self()), " unsubscribe ",
      channel.to_string());
}

void ReceiverHost::send_refresh(const net::Channel& channel) {
  HBH_PHASE("soft_state_refresh");
  auto it = subs_.find(channel);
  if (it == subs_.end()) return;
  Subscription& sub = it->second;

  Packet p;
  p.src = self_addr();
  p.channel = channel;
  // Each soft-state refresh round is a child span of the subscribe root, so
  // retransmissions triggered by timer rearming stay causally attached.
  const net::TraceContext ctx =
      sub.first_sent
          ? trace_child(sub.ctx, "join-refresh", channel, self_addr())
          : sub.ctx;
  if (style_ == JoinStyle::kSourceJoin) {
    p.type = PacketType::kJoin;
    p.dst = channel.source;
    p.payload = net::JoinPayload{self_addr(), /*first=*/!sub.first_sent,
                                 /*fresh=*/!connected(channel)};
  } else {
    p.type = PacketType::kPimJoin;
    p.dst = sub.root;
    p.payload = net::PimJoinPayload{sub.root, self_addr()};
  }
  sub.first_sent = true;
  forward(std::move(p), ctx);
}

bool ReceiverHost::connected(const net::Channel& channel) const {
  const auto it = subs_.find(channel);
  if (it == subs_.end() || it->second.last_tree_at < 0) return false;
  return simulator().now() - it->second.last_tree_at <
         2.5 * config_.tree_period;
}

bool ReceiverHost::accept_data(net::PacketHandle h) {
  const Packet& packet = net().packet(h);
  // Unicast-addressed data (HBH/REUNITE) arrives with dst == us; PIM
  // data arrives group-addressed over the access link. Either way it
  // terminates here. Only *subscribed* arrivals count as deliveries —
  // a stale REUNITE flow may keep addressing a departed receiver.
  if (packet.dst != self_addr() && !subscribed(packet.channel)) return false;
  if (subscribed(packet.channel)) {
    const auto& d = packet.data();
    trace_instant(trace_of(h), "deliver", packet.channel, self_addr());
    deliveries_.push_back(Delivery{packet.channel, d.probe, d.seq, d.sent_at,
                                   simulator().now()});
    if (sink_ != nullptr) {
      sink_->on_data(self(), packet, simulator().now());
    }
    HBH_LOG(LogLevel::kTrace, to_string(self()), " got data seq=", d.seq,
        " delay=", simulator().now() - d.sent_at);
  }
  return true;
}

void ReceiverHost::handle(net::PacketHandle h, NodeId from) {
  const Packet& packet = net().packet(h);
  (void)from;
  if (packet.type == PacketType::kData) {
    if (accept_data(h)) return;
  }
  if (packet.dst == self_addr()) {
    // Control addressed to this receiver ends here. An *unmarked*
    // tree(S, r) is the connectivity beacon: some node upstream keeps
    // forwarding state for us. A marked tree announces the flow is about
    // to stop (REUNITE reconfiguration), so it must not refresh
    // connectivity — going "fresh" promptly is what re-anchors us.
    if (packet.type == PacketType::kTree && !packet.tree().marked) {
      const auto it = subs_.find(packet.channel);
      // A reordered straggler from an older refresh wave is not evidence
      // that upstream state still exists *now*; accepting it would delay
      // the fresh-join re-anchor after a failure.
      if (it != subs_.end() && packet.tree().wave >= it->second.last_wave) {
        it->second.last_tree_at = simulator().now();
        it->second.last_wave = packet.tree().wave;
      }
    }
    return;
  }
  // Hosts are stub nodes; transit traffic should not appear here, but a
  // misdelivered packet is forwarded rather than black-holed.
  forward(h);
}

}  // namespace hbh::mcast
