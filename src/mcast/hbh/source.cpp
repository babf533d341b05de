#include "mcast/hbh/source.hpp"

#include "mcast/hbh/router.hpp"
#include "util/log.hpp"
#include "util/profiler.hpp"

namespace hbh::mcast::hbh {

using net::Packet;
using net::PacketType;

void HbhSource::start() {
  tree_timer_ = std::make_unique<sim::PeriodicTimer>(
      simulator(), config_.tree_period, [this] { emit_tree_round(); });
  tree_timer_->start();
}

void HbhSource::emit_tree_round() {
  HBH_PHASE("tree_round");
  count_timer_fire();
  const Time now = simulator().now();
  // Each refresh wave is one source-emission root: every tree message it
  // sends, every re-emission/fusion downstream, and every eviction the
  // round's purge performs are causal descendants of this span.
  const net::TraceContext ctx =
      trace_root("tree-round", channel_, self_addr());
  std::vector<Ipv4Addr> evicted;
  mft_.purge(now, ctx.active() ? &evicted : nullptr);
  for (const Ipv4Addr target : evicted) {
    trace_instant(ctx, "evict", channel_, target);
  }
  ++wave_;
  mft_.for_each_tree_target(now, [&](Ipv4Addr target) {
    Packet tree;
    tree.src = self_addr();
    tree.dst = target;
    tree.channel = channel_;
    tree.type = PacketType::kTree;
    tree.payload = net::TreePayload{target, false, self_addr(), wave_};
    forward(std::move(tree), ctx);
  });
}

void HbhSource::handle(net::PacketHandle h, NodeId from) {
  const Packet& packet = net().packet(h);
  (void)from;
  const Time now = simulator().now();
  if (packet.channel != channel_ || packet.dst != self_addr()) {
    net::ProtocolAgent::handle(h, from);
    return;
  }
  switch (packet.type) {
    case PacketType::kJoin: {
      // Full refresh; a new receiver gets a fresh entry and will receive
      // tree(S, R) from the next round onward.
      if (!mft_.contains(packet.join().receiver)) {
        trace_instant(trace_of(h), "mft-insert", channel_,
                      packet.join().receiver);
      }
      SoftEntry& entry = mft_.upsert(packet.join().receiver, config_, now);
      (void)entry;  // marked flag (if any) survives the refresh
      HBH_LOG(LogLevel::kTrace, "source accepts join(",
          packet.join().receiver.to_string(), ")");
      return;
    }
    case PacketType::kFusion: {
      std::vector<Ipv4Addr> evicted;
      mft_.purge(now, trace_of(h).active() ? &evicted : nullptr);
      for (const Ipv4Addr target : evicted) {
        trace_instant(trace_of(h), "evict", channel_, target);
      }
      apply_fusion(mft_, packet.fusion(), config_, now);
      HBH_LOG(LogLevel::kDebug, "source MFT after fusion: ",
          mft_.to_string(now));
      return;
    }
    case PacketType::kTree:
    case PacketType::kData:
    case PacketType::kPimJoin:
    case PacketType::kPimPrune:
      return;  // not meaningful at the source; drop
  }
}

std::size_t HbhSource::send_data(std::uint64_t probe, std::uint32_t seq,
                                 std::uint32_t pad) {
  HBH_PHASE("data_fanout");
  const Time now = simulator().now();
  // One emission = one root span; the replication fan-out downstream and
  // the final deliveries all trace back here.
  const net::TraceContext ctx = trace_root("data", channel_, self_addr());
  std::vector<Ipv4Addr> evicted;
  mft_.purge(now, ctx.active() ? &evicted : nullptr);
  for (const Ipv4Addr target : evicted) {
    trace_instant(ctx, "evict", channel_, target);
  }
  std::size_t copies = 0;
  mft_.for_each_data_target(now, [&](Ipv4Addr target) {
    Packet data;
    data.src = self_addr();
    data.dst = target;
    data.channel = channel_;
    data.type = PacketType::kData;
    data.payload = net::DataPayload{probe, seq, now, false, pad};
    forward(std::move(data), ctx);
    ++copies;
  });
  return copies;
}

}  // namespace hbh::mcast::hbh
