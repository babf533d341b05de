#include "mcast/pim/router.hpp"

#include <cassert>

#include "util/log.hpp"

namespace hbh::mcast::pim {

using net::Packet;
using net::PacketType;

std::vector<NodeId> PimRouter::oifs(const net::Channel& ch) const {
  std::vector<NodeId> out;
  const auto it = groups_.find(ch);
  if (it == groups_.end()) return out;
  for (const auto& [neighbor, entry] : it->second.oifs) {
    if (!entry.dead(simulator().now())) out.push_back(neighbor);
  }
  return out;
}

void PimRouter::purge(const net::Channel& ch, const net::TraceContext& ctx) {
  const auto it = groups_.find(ch);
  if (it == groups_.end()) return;
  const bool tracing = ctx.active() && net().trace_hook() != nullptr;
  auto& oifs = it->second.oifs;
  for (auto e = oifs.begin(); e != oifs.end();) {
    if (e->second.dead(now())) {
      if (tracing) trace_instant(ctx, "evict", ch);
      e = oifs.erase(e);
    } else {
      e = std::next(e);
    }
  }
  if (oifs.empty()) groups_.erase(it);
}

void PimRouter::handle(net::PacketHandle h, NodeId from) {
  const Packet& packet = net().packet(h);
  switch (packet.type) {
    case PacketType::kPimJoin:
      on_join(h, from);
      return;
    case PacketType::kPimPrune:
      on_prune(h, from);
      return;
    case PacketType::kData:
      on_data(h, from);
      return;
    case PacketType::kJoin:
    case PacketType::kTree:
    case PacketType::kFusion:
      net::ProtocolAgent::handle(h, from);
      return;
  }
}

void PimRouter::on_prune(net::PacketHandle h, NodeId from) {
  const Packet& packet = net().packet(h);
  const net::Channel ch = packet.channel;
  purge(ch, trace_of(h));
  const auto it = groups_.find(ch);
  if (it == groups_.end()) {
    // No local state (already expired): let the prune keep travelling so
    // upstream state still tears down.
    if (packet.dst != self_addr()) forward(h);
    return;
  }
  if (!from.valid()) return;
  // Explicit fast leave: tear down the oif the prune arrived on. If other
  // receivers share that oif, their next periodic join (<= one period)
  // re-installs it — the standard PIM prune-override compromise.
  if (it->second.oifs.erase(from) != 0) {
    trace_instant(trace_of(h), "oif-prune", ch, packet.pim_join().receiver);
  }
  if (it->second.oifs.empty()) {
    groups_.erase(it);
    // The branch below us is gone entirely: keep pruning upstream unless
    // we are the tree root (the prune's addressee).
    if (packet.dst != self_addr()) forward(h);
  }
  HBH_LOG(LogLevel::kTrace, to_string(self()), " PIM pruned oif ",
      to_string(from), " for ", ch.to_string());
}

void PimRouter::on_join(net::PacketHandle h, NodeId from) {
  const Packet& packet = net().packet(h);
  const net::Channel ch = packet.channel;
  purge(ch, trace_of(h));
  if (!from.valid()) {
    // Self-originated (shouldn't happen for routers); just forward.
    forward(h);
    return;
  }
  GroupState& st = groups_[ch];
  st.root = packet.pim_join().root;
  auto [it, inserted] = st.oifs.try_emplace(from, config_, now());
  if (!inserted) it->second.refresh(config_, now());
  if (inserted) {
    trace_instant(trace_of(h), "oif-install", ch, packet.pim_join().receiver);
    HBH_LOG(LogLevel::kTrace, to_string(self()), " PIM oif += ",
        to_string(from), " for ", ch.to_string());
  }
  if (packet.dst == self_addr()) return;  // we are the root (RP) — stop
  forward(h);             // keep travelling toward the root
}

void PimRouter::replicate(const net::Channel& ch, net::PacketHandle h,
                          NodeId skip) {
  const auto it = groups_.find(ch);
  if (it == groups_.end()) return;
  // One copy per live oif: a clone for each but the last, which reuses
  // the incoming packet's slot.
  NodeId last;
  for (const auto& [neighbor, entry] : it->second.oifs) {
    if (neighbor == skip || entry.dead(now())) continue;
    if (last.valid()) net().send_direct(self(), last, net().clone(h));
    last = neighbor;
  }
  if (last.valid()) net().send_direct(self(), last, h);
}

void PimRouter::on_data(net::PacketHandle h, NodeId from) {
  Packet& packet = net().packet(h);
  const net::Channel ch = packet.channel;
  purge(ch, trace_of(h));
  if (packet.data().encapsulated && packet.dst == self_addr()) {
    // We are the RP: decapsulate the register-tunnelled packet and inject
    // it into the shared tree (group-addressed from here on).
    packet.data().encapsulated = false;
    packet.dst = ch.group.addr();
    replicate(ch, h, kNoNode);
    return;
  }
  if (packet.dst == ch.group.addr()) {
    // Group-addressed data travelling down the tree: RPF replication to
    // all oifs except the one it arrived on.
    replicate(ch, h, from);
    return;
  }
  // Unicast transit (e.g. register tunnel S->RP passing through).
  net::ProtocolAgent::handle(h, from);
}

NodeId choose_rp_delay_aware(const routing::UnicastRouting& routes,
                             const std::vector<NodeId>& routers,
                             NodeId source) {
  assert(!routers.empty());
  const auto& topo = routes.topology();
  std::vector<LinkId> up;  // other->candidate links, candidate end first
  NodeId best = kNoNode;
  double best_score = routing::kUnreachable;
  for (const NodeId candidate : routers) {
    double score = routes.path_delay(source, candidate);  // register leg
    double down = 0;
    std::size_t n = 0;
    for (const NodeId other : routers) {
      if (other == candidate) continue;
      // Shared-tree data path to `other`: the reverse of other->rp,
      // traversed in the data direction. The parent links of other's tree
      // yield other->rp from the rp end; the sum runs from other's end so
      // the floating-point accumulation order is the path order.
      const routing::SpfResult& tree = routes.spf(other);
      up.clear();
      for (LinkId l = tree.parent_link[candidate.index()]; l.valid();
           l = tree.parent_link[topo.edge(l).from.index()]) {
        up.push_back(l);
      }
      Time delay = 0;
      for (auto it = up.rbegin(); it != up.rend(); ++it) {
        const LinkId back = topo.reverse(*it);
        assert(back.valid());
        delay += topo.edge(back).link.delay;
      }
      down += delay;
      ++n;
    }
    if (n != 0) score += down / static_cast<double>(n);
    if (score < best_score) {
      best_score = score;
      best = candidate;
    }
  }
  return best;
}

NodeId choose_rp(const routing::UnicastRouting& routes,
                 const std::vector<NodeId>& routers) {
  assert(!routers.empty());
  NodeId best = kNoNode;
  double best_total = routing::kUnreachable;
  for (const NodeId candidate : routers) {
    double total = 0;
    for (const NodeId other : routers) {
      if (other == candidate) continue;
      total += routes.distance(candidate, other);
    }
    if (total < best_total) {
      best_total = total;
      best = candidate;
    }
  }
  return best;
}

}  // namespace hbh::mcast::pim
