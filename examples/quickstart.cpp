// Quickstart: build a topology, run the HBH protocol, watch a channel
// deliver data.
//
// This is the 5-minute tour of the library's public API:
//   1. build a Topology (or use a generator from hbh::topo),
//   2. wrap it in a harness::Session for the protocol you want,
//   3. grab a ChannelHandle, subscribe receivers, let the control plane
//      converge,
//   4. measure(): inject a data packet and inspect cost/delay/delivery.
// One Session is one network; it can host many ⟨S,G⟩ channels at once
// (docs/CHANNELS.md) — the second half adds a channel and takes the
// cross-channel state census.
#include <cstdio>

#include "harness/session.hpp"
#include "topo/builders.hpp"

using namespace hbh;

int main() {
  // A small ISP-ish ring-with-chords backbone: 6 routers, one host each.
  net::Topology backbone = topo::make_ring(6);
  backbone.add_duplex(NodeId{0}, NodeId{3},
                      net::LinkSpec{.cost = 2, .delay = 2});
  topo::Scenario scenario = topo::attach_hosts(
      std::move(backbone),
      {NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}, NodeId{4}, NodeId{5}},
      /*source_index=*/0);

  std::printf("HBH quickstart on a 6-router ring (source host n%u)\n",
              scenario.source_host.index());

  // The constructor creates a default channel rooted at the scenario's
  // source host; its handle carries the per-channel API.
  harness::Session session{scenario, harness::Protocol::kHbh};
  harness::ChannelHandle channel = session.default_channel();
  std::printf("channel: %s\n", channel.channel().to_string().c_str());

  // Three receivers join; the control plane (join/tree/fusion messages)
  // builds the recursive-unicast tree over the next few refresh periods.
  channel.subscribe(scenario.hosts[2]);
  channel.subscribe(scenario.hosts[3], /*delay=*/5);
  channel.subscribe(scenario.hosts[5], /*delay=*/9);
  session.run_for(120);

  const harness::Measurement m = channel.measure();
  std::printf("\nafter convergence, one data packet:\n");
  std::printf("  tree cost        : %zu link copies\n", m.tree_cost);
  std::printf("  mean delay       : %.1f time units\n", m.mean_delay);
  std::printf("  delivered 1x each: %s\n",
              m.delivered_exactly_once() ? "yes" : "NO");

  std::printf("\ndistribution tree (copies per directed link):\n");
  for (const auto& [link, copies] : m.per_link) {
    std::printf("  %s -> %-4s x%zu\n", to_string(link.first).c_str(),
                to_string(link.second).c_str(), copies);
  }

  // Group dynamics: one receiver leaves, soft state times out, the tree
  // shrinks — the remaining members keep receiving.
  channel.unsubscribe(scenario.hosts[3]);
  session.run_for(200);
  const harness::Measurement after = channel.measure();
  std::printf("\nafter host n%u left: cost %zu -> %zu, members %zu\n",
              scenario.hosts[3].index(), m.tree_cost, after.tree_cost,
              channel.members().size());

  // Multi-channel: the same network carries a second ⟨S,G⟩ channel,
  // sourced at a different host, with its own member set. Probes carry
  // unique ids, so measuring either channel never sees the other's
  // traffic.
  harness::ChannelHandle second = session.create_channel(scenario.hosts[4]);
  second.subscribe(scenario.hosts[1]);
  second.subscribe(scenario.hosts[3]);
  session.run_for(120);
  const harness::Measurement m2 = second.measure();
  std::printf("\nsecond channel %s: cost %zu, delivered 1x each: %s\n",
              second.channel().to_string().c_str(), m2.tree_cost,
              m2.delivered_exactly_once() ? "yes" : "NO");

  // The cross-channel census shows where the aggregate state lives: HBH
  // routers that do not branch hold control-only MCT state — no
  // forwarding entries (the paper's §2.1 scaling argument; measured at
  // scale by bench/ablation_state_scaling).
  const harness::AggregateCensus census = session.aggregate_census();
  std::printf(
      "state census over %zu channels: branching %zu routers "
      "(%zu MFT entries), non-branching %zu routers (%zu MFT entries)\n",
      session.channel_count(), census.branching.routers,
      census.branching.forwarding_entries, census.non_branching.routers,
      census.non_branching.forwarding_entries);

  const bool ok = after.delivered_exactly_once() &&
                  m2.delivered_exactly_once() &&
                  census.non_branching.forwarding_entries == 0;
  return ok ? 0 : 1;
}
