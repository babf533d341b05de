#include "mcast/reunite/router.hpp"

#include "util/log.hpp"

namespace hbh::mcast::reunite {

using net::Packet;
using net::PacketType;

const ChannelState* ReuniteRouter::state(const net::Channel& ch) const {
  const auto it = channels_.find(ch);
  return it == channels_.end() ? nullptr : &it->second;
}

void ReuniteRouter::handle(net::PacketHandle h, NodeId from) {
  const Packet& packet = net().packet(h);
  (void)from;
  if (packet.dst == self_addr()) {
    // REUNITE never addresses packets to interior routers; a self-addressed
    // packet would loop through forward(), so sink it defensively.
    ++net().counters().local_sink;
    return;
  }
  switch (packet.type) {
    case PacketType::kJoin:
      on_join(h);
      return;
    case PacketType::kTree:
      on_tree(h);
      return;
    case PacketType::kData:
      on_data(h);
      return;
    case PacketType::kFusion:
    case PacketType::kPimJoin:
    case PacketType::kPimPrune:
      net::ProtocolAgent::handle(h, from);
      return;
  }
}

void ReuniteRouter::purge(const net::Channel& ch,
                          const net::TraceContext& ctx) {
  const auto it = channels_.find(ch);
  if (it == channels_.end()) return;
  ChannelState& st = it->second;
  const bool tracing = ctx.active() && net().trace_hook() != nullptr;
  if (st.mct && st.mct->state.dead(now())) {
    if (tracing) trace_instant(ctx, "evict", ch, st.mct->target);
    st.mct.reset();
    note_structural(ch, 1);
  }
  if (st.mft) {
    const std::size_t before = st.mft->entries.size();
    const Ipv4Addr dst_before = st.mft->dst;
    std::vector<Ipv4Addr> evicted;
    if (st.mft->purge(now(), tracing ? &evicted : nullptr)) {
      st.mft.reset();
      note_structural(ch, 1);
    } else {
      note_structural(ch, before - st.mft->entries.size());
      if (st.mft->dst != dst_before) note_structural(ch, 1);
    }
    for (const Ipv4Addr target : evicted) {
      trace_instant(ctx, "evict", ch, target);
    }
  }
  if (!st.mct && !st.mft) channels_.erase(it);
}

void ReuniteRouter::on_join(net::PacketHandle h) {
  const Packet& packet = net().packet(h);
  const net::Channel ch = packet.channel;
  const Ipv4Addr r = packet.join().receiver;
  // The anchoring signal: only a receiver that is NOT currently connected
  // to the tree (no recent tree(S, r) reaching it) may create new state.
  // A connected receiver's refresh joins travel unchanged to its existing
  // anchor (ultimately the source's dst/entry for it), which is what keeps
  // the root's soft state alive.
  const bool fresh = packet.join().fresh;
  purge(ch, trace_of(h));
  const auto it = channels_.find(ch);

  if (it != channels_.end() && it->second.mft) {
    Mft& mft = *it->second.mft;
    if (mft.dst_state.stale(now())) {
      // Fig. 2c: a stale MFT no longer intercepts joins; they reach S and
      // re-anchor the receiver higher in the tree.
      forward(h);
      return;
    }
    if (r == mft.dst) {
      // dst is refreshed by tree messages only: the dst receiver's joins
      // must keep travelling to wherever it originally joined (ultimately
      // the source), or the upstream entry would starve and flap.
      forward(h);
      return;
    }
    if (auto entry = mft.entries.find(r); entry != mft.entries.end()) {
      entry->second.refresh(config_, now());
      trace_instant(trace_of(h), "join-intercept", ch, r);
      return;  // intercepted: r joined here
    }
    if (!fresh) {
      forward(h);  // connected receiver: refresh in transit
      return;
    }
    mft.entries.emplace(r, SoftEntry{config_, now()});
    note_structural(ch, 1);
    trace_instant(trace_of(h), "mft-insert", ch, r);
    HBH_LOG(LogLevel::kDebug, to_string(self()), " REUNITE: ", r.to_string(),
        " joins here ", mft.to_string(now()));
    return;
  }

  if (fresh && it != channels_.end() && it->second.mct) {
    Mct& mct = *it->second.mct;
    if (!mct.state.stale(now()) && mct.target != r) {
      // Become a branching node: the passing flow's receiver becomes dst,
      // the joining receiver becomes the first replicated entry.
      ChannelState& st = it->second;
      Mft mft;
      mft.dst = mct.target;
      mft.dst_state = mct.state;
      mft.entries.emplace(r, SoftEntry{config_, now()});
      st.mct.reset();
      st.mft = std::move(mft);
      note_structural(ch, 2);
      trace_instant(trace_of(h), "branching", ch, r);
      HBH_LOG(LogLevel::kDebug, to_string(self()),
          " REUNITE becomes branching ", st.mft->to_string(now()));
      return;  // join is dropped
    }
  }
  forward(h);
}

void ReuniteRouter::on_tree(net::PacketHandle h) {
  const Packet& packet = net().packet(h);
  const net::Channel ch = packet.channel;
  const net::TreePayload tree = packet.tree();
  const Ipv4Addr r = tree.target;
  const net::TraceContext ctx = trace_of(h);
  purge(ch, ctx);

  // Stale-straggler rejection (mirrors HbhRouter::on_tree): a reordered
  // tree from an earlier wave must not refresh a dst another wave already
  // marked dying, re-create a torn-down MCT, or flip a stale MCT back to
  // a departed receiver. It still travels toward its target unchanged.
  auto [seen_it, first_seen] = seen_wave_.try_emplace(ch, tree.wave);
  if (!first_seen) {
    if (tree.wave < seen_it->second) {
      forward(h);
      return;
    }
    seen_it->second = tree.wave;
  }

  auto it = channels_.find(ch);

  if (it != channels_.end() && it->second.mft) {
    Mft& mft = *it->second.mft;
    if (r != mft.dst) {
      forward(h);  // another branch's tree in transit
      return;
    }
    if (tree.marked) {
      // The upstream dst flow is dying: our MFT becomes stale too and
      // stops intercepting joins; downstream learns via the same marking.
      mft.dst_state.expire_t1(now());
    } else {
      mft.dst_state.refresh(config_, now());
    }
    // Replicate at most once per source refresh wave (replicas inherit the
    // wave id): a token circling back through a transient dst/entry cycle
    // cannot re-trigger replication, so every refresh chain stays rooted
    // at the source.
    bool replicate = true;
    auto [wave_it, first] = last_wave_.try_emplace(ch, tree.wave);
    if (!first) {
      if (tree.wave <= wave_it->second) {
        replicate = false;
      } else {
        wave_it->second = tree.wave;
      }
    }
    if (replicate) {
      TreePacer& pacer = pacers_[ch];
      pacer.expire(now(), 10 * config_.tree_period);
      for (const auto& [target, entry] : mft.entries) {
        if (entry.dead(now())) continue;
        if (!pacer.allow(target, now(), 0.5 * config_.tree_period)) continue;
        Packet out;
        out.src = ch.source;
        out.dst = target;
        out.channel = ch;
        out.type = PacketType::kTree;
        out.payload =
            net::TreePayload{target, entry.stale(now()), self_addr(), tree.wave};
        forward(std::move(out), ctx);  // replicas fan out of the same chain
      }
    }
    forward(h);  // original continues toward dst
    return;
  }

  // Non-branching router.
  if (tree.marked) {
    if (it != channels_.end() && it->second.mct &&
        it->second.mct->target == r) {
      trace_instant(ctx, "evict", ch, r);
      it->second.mct.reset();
      note_structural(ch, 1);
      if (!it->second.mft) channels_.erase(it);
    }
    forward(h);
    return;
  }
  if (it == channels_.end() || !it->second.mct) {
    channels_[ch].mct = Mct{r, SoftEntry{config_, now()}};
    note_structural(ch, 1);
    trace_instant(ctx, "mct-install", ch, r);
  } else if (it->second.mct->target == r) {
    it->second.mct->state.refresh(config_, now());
  } else if (it->second.mct->state.stale(now())) {
    it->second.mct->target = r;
    it->second.mct->state.refresh(config_, now());
    note_structural(ch, 1);
    trace_instant(ctx, "mct-adopt", ch, r);
  }
  // else: a second flow through a non-branching router is NOT recorded —
  // REUNITE only branches on join interception (Fig. 3's pathology).
  forward(h);
}

void ReuniteRouter::on_data(net::PacketHandle h) {
  const Packet& packet = net().packet(h);
  const net::Channel ch = packet.channel;
  const auto it = channels_.find(ch);
  if (it != channels_.end() && it->second.mft &&
      packet.dst == it->second.mft->dst) {
    Mft& mft = *it->second.mft;
    // Replicate each distinct packet once; a looped-back copy (transient
    // asymmetric-routing cycle) is forwarded but not re-replicated.
    if (guards_[ch].first_time(packet.data().probe, packet.data().seq)) {
      for (const Ipv4Addr target : mft.data_copy_targets(now())) {
        const net::PacketHandle copy = net().clone(h);
        net().packet(copy).dst = target;
        forward(copy);
      }
    }
    forward(h);  // original keeps flowing toward dst
    return;
  }
  forward(h);
}

}  // namespace hbh::mcast::reunite
