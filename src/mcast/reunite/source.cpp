#include "mcast/reunite/source.hpp"

#include "util/log.hpp"
#include "util/profiler.hpp"

namespace hbh::mcast::reunite {

using net::Packet;
using net::PacketType;

void ReuniteSource::start() {
  tree_timer_ = std::make_unique<sim::PeriodicTimer>(
      simulator(), config_.tree_period, [this] { emit_tree_round(); });
  tree_timer_->start();
}

void ReuniteSource::purge(const net::TraceContext& ctx) {
  if (!mft_) return;
  const bool tracing = ctx.active() && net().trace_hook() != nullptr;
  std::vector<Ipv4Addr> evicted;
  if (mft_->purge(simulator().now(), tracing ? &evicted : nullptr)) {
    mft_.reset();
  }
  for (const Ipv4Addr target : evicted) {
    trace_instant(ctx, "evict", channel_, target);
  }
}

void ReuniteSource::emit_tree_round() {
  HBH_PHASE("tree_round");
  count_timer_fire();
  const Time now = simulator().now();
  // One refresh wave = one source-emission root span; replicas downstream
  // and any evictions this round performs are its causal descendants.
  const net::TraceContext ctx =
      trace_root("tree-round", channel_, self_addr());
  purge(ctx);
  if (!mft_) return;
  ++wave_;
  // tree(S, dst), marked once dst went stale (announces the dying flow).
  const auto emit = [&](Ipv4Addr target, bool marked) {
    Packet tree;
    tree.src = self_addr();
    tree.dst = target;
    tree.channel = channel_;
    tree.type = PacketType::kTree;
    tree.payload = net::TreePayload{target, marked, self_addr(), wave_};
    forward(std::move(tree), ctx);
  };
  emit(mft_->dst, mft_->dst_state.stale(now));
  for (const auto& [target, entry] : mft_->entries) {
    if (!entry.dead(now)) emit(target, entry.stale(now));
  }
}

void ReuniteSource::handle(net::PacketHandle h, NodeId from) {
  const Packet& packet = net().packet(h);
  (void)from;
  const Time now = simulator().now();
  if (packet.channel != channel_ || packet.dst != self_addr()) {
    net::ProtocolAgent::handle(h, from);
    return;
  }
  if (packet.type != PacketType::kJoin) return;  // only joins reach S
  purge(trace_of(h));
  const Ipv4Addr r = packet.join().receiver;
  if (mft_) {
    if (r == mft_->dst) {
      mft_->dst_state.refresh(config_, now);
      return;
    }
    if (auto it = mft_->entries.find(r); it != mft_->entries.end()) {
      it->second.refresh(config_, now);
      return;
    }
  }
  if (!packet.join().fresh) {
    // A refresh join for a receiver we don't know: it is anchored at some
    // branching node whose state briefly let the join through. Anchoring
    // it here too would double-serve it; once truly disconnected it will
    // send fresh joins.
    return;
  }
  if (!mft_) {
    // The very first receiver becomes MFT<S>.dst: data will be addressed
    // to it and replicated downstream.
    mft_.emplace();
    mft_->dst = r;
    mft_->dst_state = SoftEntry{config_, now};
    trace_instant(trace_of(h), "mft-insert", channel_, r);
    HBH_LOG(LogLevel::kDebug, "REUNITE source dst=", r.to_string());
    return;
  }
  mft_->entries.emplace(r, SoftEntry{config_, now});
  trace_instant(trace_of(h), "mft-insert", channel_, r);
  HBH_LOG(LogLevel::kDebug, "REUNITE source adds ", r.to_string(), " ",
      mft_->to_string(now));
}

std::size_t ReuniteSource::send_data(std::uint64_t probe, std::uint32_t seq,
                                     std::uint32_t pad) {
  HBH_PHASE("data_fanout");
  const Time now = simulator().now();
  // One emission = one root span; replication fan-out and deliveries all
  // trace back here.
  const net::TraceContext ctx = trace_root("data", channel_, self_addr());
  purge(ctx);
  if (!mft_) return 0;
  std::size_t copies = 0;
  const auto emit = [&](Ipv4Addr target) {
    Packet data;
    data.src = self_addr();
    data.dst = target;
    data.channel = channel_;
    data.type = PacketType::kData;
    data.payload = net::DataPayload{probe, seq, now, false, pad};
    forward(std::move(data), ctx);
    ++copies;
  };
  emit(mft_->dst);  // stale dst keeps receiving data until t2 (§2.3)
  for (const Ipv4Addr target : mft_->data_copy_targets(now)) emit(target);
  return copies;
}

}  // namespace hbh::mcast::reunite
