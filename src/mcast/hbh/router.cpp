#include "mcast/hbh/router.hpp"

#include <cassert>

#include "util/log.hpp"

namespace hbh::mcast::hbh {

using net::Packet;
using net::PacketType;

void apply_fusion(Mft& mft, const net::FusionPayload& fusion,
                  const McastConfig& cfg, Time now) {
  // F2: mark every listed receiver we keep an entry for. Marked entries
  // keep receiving tree messages but no data — the fusion origin Bp takes
  // over data duplication for them. The mark decays (t1) unless the next
  // fusion re-asserts it, so a crashed Bp cannot starve its receivers.
  for (const Ipv4Addr r : fusion.receivers) {
    if (SoftEntry* entry = mft.find(r); entry != nullptr) {
      entry->mark(cfg, now);
    }
  }
  // F3/F4: ensure Bp is present. A fusion-created entry is born stale
  // (data flows to Bp, but no tree messages — those only start once Bp's
  // own joins arrive and fully refresh the entry).
  if (SoftEntry* bp = mft.find(fusion.origin); bp != nullptr) {
    bp->refresh_keepalive(cfg, now);  // F4: t2 only; t1 untouched
  } else {
    SoftEntry& fresh = mft.upsert(fusion.origin, cfg, now);
    fresh.expire_t1(now);  // F3: born stale
  }
}

const ChannelState* HbhRouter::state(const net::Channel& ch) const {
  const auto it = channels_.find(ch);
  if (it == channels_.end()) return nullptr;
  const ChannelState& st = it->second.tables;
  return st.mct || st.mft ? &st : nullptr;
}

void HbhRouter::handle(net::PacketHandle h, NodeId from) {
  switch (net().packet(h).type) {
    case PacketType::kJoin:
      on_join(h);
      return;
    case PacketType::kTree:
      on_tree(h);
      return;
    case PacketType::kFusion:
      on_fusion(h);
      return;
    case PacketType::kData:
      on_data(h);
      return;
    case PacketType::kPimJoin:
    case PacketType::kPimPrune:
      // Not HBH messages; behave as a plain unicast router.
      net::ProtocolAgent::handle(h, from);
      return;
  }
}

void HbhRouter::purge(const net::Channel& ch, ChannelRecord& rec,
                      const net::TraceContext& ctx) {
  ChannelState& st = rec.tables;
  const bool tracing = ctx.active() && net().trace_hook() != nullptr;
  if (st.mct && st.mct->state.dead(now())) {
    if (tracing) trace_instant(ctx, "evict", ch, st.mct->target);
    st.mct.reset();
    note_structural(rec, 1);
  }
  if (st.mft) {
    std::vector<Ipv4Addr> evicted;
    note_structural(rec, st.mft->purge(now(), tracing ? &evicted : nullptr));
    for (const Ipv4Addr target : evicted) {
      trace_instant(ctx, "evict", ch, target);
    }
    if (st.mft->empty()) {
      st.mft.reset();
      note_structural(rec, 1);
    }
  }
}

void HbhRouter::send_self_join(const net::Channel& ch,
                               const net::TraceContext& ctx) {
  Packet join;
  join.src = self_addr();
  join.dst = ch.source;
  join.channel = ch;
  join.type = PacketType::kJoin;
  join.payload = net::JoinPayload{self_addr(), /*first=*/false};
  forward(std::move(join), ctx);
}

void HbhRouter::send_fusion(const net::Channel& ch, Mft& mft,
                            Ipv4Addr upstream, const net::TraceContext& ctx) {
  if (upstream.unspecified()) upstream = ch.source;
  Packet fusion;
  fusion.src = self_addr();
  fusion.dst = upstream;
  fusion.channel = ch;
  fusion.type = PacketType::kFusion;
  fusion.payload = net::FusionPayload{mft.live_targets(now()), self_addr()};
  HBH_LOG(LogLevel::kDebug, to_string(self()), " fusion -> ",
      upstream.to_string(), " ", mft.to_string(now()));
  forward(std::move(fusion), ctx);
}

void HbhRouter::on_join(net::PacketHandle h) {
  const Packet& packet = net().packet(h);
  const net::Channel ch = packet.channel;
  const net::JoinPayload join = packet.join();
  if (packet.dst == self_addr()) return;  // joins are addressed to sources
  ChannelRecord* rec = find_record(ch);
  if (rec != nullptr) purge(ch, *rec, trace_of(h));

  // §3.1: the first join must reach the source so it can start emitting
  // tree(S, R) messages along the shortest path S -> R.
  if (!join.first && rec != nullptr && rec->tables.mft) {
    Mft& mft = *rec->tables.mft;
    if (SoftEntry* entry = mft.find(join.receiver); entry != nullptr) {
      // J3: intercept. Full refresh (marked entries stay marked: the
      // refresh keeps t1/t2 alive so tree messages keep flowing to R).
      entry->refresh(config_, now());
      ++joins_intercepted_;
      trace_instant(trace_of(h), "join-intercept", ch, join.receiver);
      HBH_LOG(LogLevel::kTrace, to_string(self()), " intercepts join(",
          join.receiver.to_string(), ")");
      send_self_join(ch, trace_of(h));
      return;
    }
  }
  // J1/J2: forward unchanged toward the source.
  forward(h);
}

void HbhRouter::on_tree(net::PacketHandle h) {
  Packet& packet = net().packet(h);
  const net::Channel ch = packet.channel;
  const net::TreePayload tree = packet.tree();
  const net::TraceContext ctx = trace_of(h);
  ChannelRecord& rec = channels_[ch];
  purge(ch, rec, ctx);

  // Stale-straggler rejection: a reordered tree from an earlier refresh
  // wave must not refresh, install, or re-anchor state that a newer wave
  // has since rewritten (e.g. rule T7 flipping the MCT back to a receiver
  // that already left). Stragglers still travel — dropping them would
  // starve downstream routers of an in-transit refresh they may not have
  // seen — but they are inert here.
  if (rec.seen_wave && tree.wave < *rec.seen_wave) {
    if (packet.dst != self_addr()) forward(h);
    return;
  }
  rec.seen_wave = tree.wave;
  ChannelState& st = rec.tables;

  // T1: a tree message addressed to this branching node is consumed and
  // re-expanded: one tree(S, Ri) per non-stale MFT entry, with ourselves
  // recorded as the last branching node.
  if (packet.dst == self_addr()) {
    if (st.mft) {
      // Re-emit at most once per source refresh wave: replicas inherit the
      // wave id, so a token circling back through a transient MFT cycle
      // cannot re-trigger emission — every refresh chain stays rooted at
      // the source.
      if (rec.last_wave && tree.wave <= *rec.last_wave) return;
      rec.last_wave = tree.wave;
      rec.pacer.expire(now(), 10 * config_.tree_period);
      st.mft->for_each_tree_target(now(), [&](Ipv4Addr target) {
        if (!rec.pacer.allow(target, now(), 0.5 * config_.tree_period)) {
          return;
        }
        Packet out;
        out.src = ch.source;
        out.dst = target;
        out.channel = ch;
        out.type = PacketType::kTree;
        out.payload = net::TreePayload{target, false, self_addr(), tree.wave};
        forward(std::move(out), ctx);  // re-emissions share the chain
      });
    }
    return;  // discard the original (rule T1), or drop if MFT vanished
  }

  const Ipv4Addr r = tree.target;
  if (st.mft) {
    Mft& mft = *st.mft;
    if (SoftEntry* entry = mft.find(r); entry != nullptr) {
      // T3: B no longer gets join(S,R) directly — keep the entry alive via
      // the passing tree message and remind upstream we duplicate for R.
      entry->refresh(config_, now());
      send_fusion(ch, mft, tree.last_branch, ctx);
    } else {
      // T2: a new receiver whose path crosses this branching node.
      mft.upsert(r, config_, now());
      note_structural(rec, 1);
      trace_instant(ctx, "mft-insert", ch, r);
      send_fusion(ch, mft, tree.last_branch, ctx);
    }
    packet.tree().last_branch = self_addr();
    forward(h);
    return;
  }

  // Non-branching cases.
  if (!st.mct) {
    // T4: joining the distribution tree as a transit router.
    st.mct = Mct{r, SoftEntry{config_, now()}};
    note_structural(rec, 1);
    trace_instant(ctx, "mct-install", ch, r);
    forward(h);
    return;
  }

  Mct& mct = *st.mct;
  if (mct.target == r) {
    // T6: steady state refresh.
    mct.state.refresh(config_, now());
    forward(h);
    return;
  }
  if (mct.state.stale(now())) {
    // T7: the previous branch through here expired; adopt the new one.
    mct.target = r;
    mct.state.refresh(config_, now());
    note_structural(rec, 1);
    trace_instant(ctx, "mct-adopt", ch, r);
    forward(h);
    return;
  }

  // T8: two live receivers downstream -> become a branching node.
  const Ipv4Addr previous = mct.target;
  st.mct.reset();
  st.mft.emplace();
  st.mft->upsert(previous, config_, now());
  st.mft->upsert(r, config_, now());
  note_structural(rec, 2);
  trace_instant(ctx, "branching", ch, r);
  HBH_LOG(LogLevel::kDebug, to_string(self()), " becomes branching for ",
      ch.to_string(), " ", st.mft->to_string(now()));
  send_fusion(ch, *st.mft, tree.last_branch, ctx);
  packet.tree().last_branch = self_addr();
  forward(h);
}

void HbhRouter::on_fusion(net::PacketHandle h) {
  const Packet& packet = net().packet(h);
  const net::Channel ch = packet.channel;
  if (packet.dst != self_addr()) {
    // F1: not for us; keep travelling upstream.
    forward(h);
    return;
  }
  ChannelRecord* rec = find_record(ch);
  if (rec != nullptr) purge(ch, *rec, trace_of(h));
  if (rec == nullptr || !rec->tables.mft) {
    // Fusion addressed to a node that lost its MFT (raced with expiry);
    // nothing to mark — drop. The emitter will retry on the next tree.
    return;
  }
  apply_fusion(*rec->tables.mft, packet.fusion(), config_, now());
}

void HbhRouter::on_data(net::PacketHandle h) {
  Packet& packet = net().packet(h);
  const net::Channel ch = packet.channel;
  if (packet.dst != self_addr()) {
    forward(h);  // transit data: plain unicast
    return;
  }
  ChannelRecord* rec = find_record(ch);
  if (rec != nullptr) purge(ch, *rec, trace_of(h));
  if (rec == nullptr || !rec->tables.mft) {
    HBH_LOG(LogLevel::kDebug, to_string(self()),
        " data addressed to non-branching node, dropped");
    return;
  }
  if (!rec->guard) rec->guard = std::make_unique<ReplicationGuard>();
  if (!rec->guard->first_time(packet.data().probe, packet.data().seq)) {
    // A copy of this packet already passed through (transient routing
    // cycle); replicating again would amplify it.
    return;
  }
  // Recursive unicast: emit one modified copy per data-eligible entry
  // (marked entries excluded — their data flows through the downstream
  // branching node that fused them). Each target but the last gets a clone;
  // the last reuses the incoming packet's slot.
  Ipv4Addr last;
  rec->tables.mft->for_each_data_target(now(), [&](Ipv4Addr target) {
    if (!last.unspecified()) {
      const net::PacketHandle copy = net().clone(h);
      net().packet(copy).dst = last;
      forward(copy);
    }
    last = target;
  });
  if (last.unspecified()) return;
  packet.dst = last;
  forward(h);
}

}  // namespace hbh::mcast::hbh
