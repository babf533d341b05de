// Resilience tests: link failures with IGP reconvergence, deterministic
// fault injection (loss / reordering / duplication), router crash and
// restart, soft-state eviction, saturated queues, and multiple
// simultaneous channels.
//
// Soft state is the protocols' fault-tolerance story: after routing
// changes, join/tree refreshes re-anchor the tree on the new paths within
// a few periods, with no explicit teardown signalling. The fault-injection
// cases (docs/RESILIENCE.md) put numbers and determinism guarantees on
// that story.
#include <gtest/gtest.h>

#include <map>

#include "harness/fault_plan.hpp"
#include "harness/session.hpp"
#include "mcast/hbh/router.hpp"
#include "mcast/hbh/source.hpp"
#include "routing/unicast.hpp"
#include "topo/builders.hpp"
#include "topo/isp.hpp"
#include "util/rng.hpp"

namespace hbh::harness {
namespace {

/// 5% loss + reordering, the acceptance scenario of docs/RESILIENCE.md.
net::Impairment lossy_reordering() {
  net::Impairment imp;
  imp.loss = 0.05;
  imp.reorder = 0.25;
  imp.jitter = 2.0;
  return imp;
}

TEST(LinkFailureTest, HbhReanchorsAfterFailure) {
  // Ring topology: two disjoint paths between any pair, so a failed link
  // always has an alternative.
  auto scenario = topo::attach_hosts(
      topo::make_ring(6),
      {NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}, NodeId{4}, NodeId{5}}, 0);
  Session session{scenario, Protocol::kHbh};
  const NodeId receiver = scenario.hosts[3];
  session.subscribe(receiver);
  session.run_for(100);
  const Measurement before = session.measure();
  ASSERT_TRUE(before.delivered_exactly_once());
  ASSERT_DOUBLE_EQ(before.mean_delay, 5.0);  // 0-1-2-3 plus access links

  // Fail a link on the active path; routing reconverges instantly, the
  // multicast tree within a few soft-state periods.
  session.set_link_down(NodeId{1}, NodeId{2});
  session.run_for(200);
  const Measurement after = session.measure();
  EXPECT_TRUE(after.delivered_exactly_once());
  EXPECT_DOUBLE_EQ(after.mean_delay, 5.0);  // other way round: 0-5-4-3
}

TEST(LinkFailureTest, AllProtocolsSurviveFailureOnIsp) {
  Rng rng{404};
  auto base = topo::make_isp();
  topo::randomize_costs(base.topo, rng);
  const auto receivers = rng.sample(base.candidate_receivers(), 8);
  for (const Protocol p : all_protocols()) {
    Session session{base, p};
    Time delay = 0.1;
    for (const NodeId r : receivers) {
      session.subscribe(r, delay);
      delay += 1.0;
    }
    session.run_for(400);
    ASSERT_TRUE(session.measure().delivered_exactly_once()) << to_string(p);

    // Fail the most used backbone link of the measured tree.
    const Measurement m = session.measure();
    NodeId a = kNoNode;
    NodeId b = kNoNode;
    for (const auto& [link, copies] : m.per_link) {
      const auto kind_from = session.scenario().topo.kind(link.first);
      const auto kind_to = session.scenario().topo.kind(link.second);
      if (kind_from == net::NodeKind::kRouter &&
          kind_to == net::NodeKind::kRouter) {
        a = link.first;
        b = link.second;
        break;
      }
    }
    if (!a.valid()) continue;  // tree may be access-links only (small group)
    session.set_link_down(a, b);
    session.run_for(500);
    const Measurement after = session.measure();
    if (p == Protocol::kReunite && !after.delivered_exactly_once()) {
      continue;  // REUNITE may still be reconfiguring; others must be done
    }
    EXPECT_TRUE(after.delivered_exactly_once())
        << to_string(p) << " after failing " << to_string(a) << "-"
        << to_string(b);
  }
}

TEST(LinkFailureTest, CostChangeMovesHbhOntoCheaperPath) {
  auto scenario = topo::attach_hosts(
      topo::make_ring(4), {NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}}, 0);
  Session session{scenario, Protocol::kHbh};
  session.subscribe(scenario.hosts[2]);
  session.run_for(100);
  ASSERT_DOUBLE_EQ(session.measure().mean_delay, 4.0);  // two hops either way

  // Make the 0-1-2 side dramatically cheaper AND faster.
  session.set_link_cost(NodeId{0}, NodeId{1}, 0.25);
  session.set_link_cost(NodeId{1}, NodeId{2}, 0.25);
  session.run_for(200);
  const Measurement m = session.measure();
  EXPECT_TRUE(m.delivered_exactly_once());
  EXPECT_DOUBLE_EQ(m.mean_delay, 2.5);  // 1 + 0.25 + 0.25 + 1
}

TEST(LinkFailureTest, SetLinkDownRemovesEdgeAndSetLinkUpRestoresIt) {
  // Ring: the detour exists, so a *hard* down must move traffic the other
  // way round — and repair must move it back.
  auto scenario = topo::attach_hosts(
      topo::make_ring(6),
      {NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}, NodeId{4}, NodeId{5}}, 0);
  Session session{scenario, Protocol::kHbh};
  session.subscribe(scenario.hosts[3]);
  session.run_for(100);
  ASSERT_DOUBLE_EQ(session.measure().mean_delay, 5.0);  // 0-1-2-3 + access

  session.set_link_down(NodeId{1}, NodeId{2});
  const auto link = session.scenario().topo.find_link(NodeId{1}, NodeId{2});
  ASSERT_TRUE(link.has_value());
  EXPECT_FALSE(session.scenario().topo.link_up(*link));
  // Routing no longer crosses the down edge, in either direction.
  EXPECT_EQ(session.routes().next_hop(NodeId{1}, NodeId{2}), NodeId{0});
  session.run_for(200);
  const Measurement rerouted = session.measure();
  EXPECT_TRUE(rerouted.delivered_exactly_once());
  EXPECT_DOUBLE_EQ(rerouted.mean_delay, 5.0);  // 0-5-4-3 + access
  for (const auto& [l, copies] : rerouted.per_link) {
    EXPECT_FALSE(l.first == NodeId{1} && l.second == NodeId{2});
    EXPECT_FALSE(l.first == NodeId{2} && l.second == NodeId{1});
  }

  session.set_link_up(NodeId{1}, NodeId{2});
  EXPECT_TRUE(session.scenario().topo.link_up(*link));
  EXPECT_EQ(session.routes().next_hop(NodeId{1}, NodeId{2}), NodeId{2});
  session.run_for(200);
  EXPECT_TRUE(session.measure().delivered_exactly_once());
}

TEST(FaultInjectionTest, AllProtocolsDeliverAfterLossReorderDuplication) {
  Rng rng{2024};
  auto base = topo::make_isp();
  topo::randomize_costs(base.topo, rng);
  const auto receivers = rng.sample(base.candidate_receivers(), 8);
  const auto links = topo::backbone_links(base.topo);
  net::Impairment imp = lossy_reordering();
  imp.duplicate = 0.05;
  for (const Protocol p : all_protocols()) {
    Session session{base, p};
    Time delay = 0.1;
    for (const NodeId r : receivers) {
      session.subscribe(r, delay);
      delay += 1.0;
    }
    // REUNITE tears old branches down lazily; give it the same settling
    // time as the other ISP scenarios before judging the baseline.
    session.run_for(400);
    ASSERT_TRUE(session.measure().delivered_exactly_once()) << to_string(p);

    // Stress: the whole backbone lossy, reordering, and duplicating for
    // 300 time units while control traffic keeps flowing.
    session.seed_impairments(0xD15EA5E);
    for (const auto& [a, b] : links) session.impair_link(a, b, imp);
    session.run_for(300);

    // After the fabric heals, soft state must reconverge: no receiver
    // starved. HBH and PIM must also shed every duplicate path. REUNITE
    // may legitimately keep one: reordering can anchor a receiver at two
    // MFTs whose dst/entry states keep each other refreshed — the Fig. 3
    // duplicate-copies pathology of dst-based anchoring that HBH's
    // branch-addressed trees were designed to eliminate.
    session.clear_impairments();
    session.run_for(200);
    const Measurement healed = session.measure();
    EXPECT_TRUE(healed.missing.empty()) << to_string(p);
    if (p != Protocol::kReunite) {
      EXPECT_TRUE(healed.delivered_exactly_once()) << to_string(p);
    }
  }
}

TEST(FaultInjectionTest, SameSeedRunsAreIdentical) {
  // The acceptance scenario: 5% loss + reordering over the ISP backbone,
  // two runs with the same seed. Every probe outcome and every fabric
  // counter must match exactly.
  const auto run = [] {
    Rng rng{77};
    auto base = topo::make_isp();
    topo::randomize_costs(base.topo, rng);
    const auto receivers = rng.sample(base.candidate_receivers(), 6);
    auto session = std::make_unique<Session>(std::move(base), Protocol::kHbh);
    Time delay = 0.1;
    for (const NodeId r : receivers) {
      session->subscribe(r, delay);
      delay += 1.0;
    }
    session->run_for(150);
    session->seed_impairments(424242);
    for (const auto& [a, b] : topo::backbone_links(session->scenario().topo)) {
      session->impair_link(a, b, lossy_reordering());
    }
    return session;
  };

  auto s1 = run();
  auto s2 = run();
  for (int probe = 0; probe < 6; ++probe) {
    const Measurement m1 = s1->measure();
    const Measurement m2 = s2->measure();
    ASSERT_EQ(m1.tree_cost, m2.tree_cost) << probe;
    ASSERT_EQ(m1.missing, m2.missing) << probe;
    ASSERT_EQ(m1.duplicated, m2.duplicated) << probe;
    ASSERT_EQ(m1.per_link, m2.per_link) << probe;
  }
  const net::NetworkCounters& c1 = s1->network().counters();
  const net::NetworkCounters& c2 = s2->network().counters();
  EXPECT_EQ(c1.transmissions, c2.transmissions);
  EXPECT_EQ(c1.drops_loss, c2.drops_loss);
  EXPECT_EQ(c1.duplicates_injected, c2.duplicates_injected);
  EXPECT_EQ(c1.reordered, c2.reordered);
}

TEST(FaultInjectionTest, DuplicateDataIsNotAmplifiedByBranchingRouters) {
  // A duplicated *data* packet crossing a replicating router must not be
  // replicated a second time (ReplicationGuard idempotence): receivers
  // may see the duplicate copy, but fan-out stays linear.
  auto scenario = topo::attach_hosts(
      topo::make_line(3), {NodeId{0}, NodeId{1}, NodeId{2}}, 0);
  for (const Protocol p : {Protocol::kHbh, Protocol::kReunite}) {
    Session session{scenario, p};
    session.subscribe(scenario.hosts[1]);
    session.subscribe(scenario.hosts[2]);
    session.run_for(120);
    ASSERT_TRUE(session.measure().delivered_exactly_once()) << to_string(p);

    net::Impairment dup;
    dup.duplicate = 1.0;  // every source-side transmission duplicated
    session.seed_impairments(9);
    session.impair_link(NodeId{0}, NodeId{1}, dup);
    const Measurement m = session.measure();
    // Every receiver saw the probe; each at most twice (one injected
    // duplicate), never 4x/8x as re-replication would produce.
    EXPECT_TRUE(m.missing.empty()) << to_string(p);
    EXPECT_LE(m.max_link_copies, 2u) << to_string(p);
  }
}

TEST(CrashRestartTest, AllProtocolsRecoverFromMidTreeCrash) {
  Rng rng{31337};
  auto base = topo::make_isp();
  const auto receivers = rng.sample(base.candidate_receivers(), 8);
  for (const Protocol p : all_protocols()) {
    Session session{base, p};
    Time delay = 0.1;
    for (const NodeId r : receivers) {
      session.subscribe(r, delay);
      delay += 1.0;
    }
    session.run_for(200);
    ASSERT_TRUE(session.measure().delivered_exactly_once()) << to_string(p);

    // Crash the busiest on-tree backbone router (never the source's or
    // the RP's — those hold root state this harness can't rebuild).
    const Measurement before = session.measure();
    NodeId victim = kNoNode;
    NodeId src_router = kNoNode;  // the router the source host hangs off
    for (std::size_t i = 0; i < session.scenario().hosts.size(); ++i) {
      if (session.scenario().hosts[i] == session.scenario().source_host) {
        src_router = session.scenario().routers[i];
      }
    }
    for (const auto& [link, copies] : before.per_link) {
      const auto kind = session.scenario().topo.kind(link.second);
      if (kind == net::NodeKind::kRouter && link.second != src_router &&
          link.second != session.rp()) {
        victim = link.second;
        break;
      }
    }
    ASSERT_TRUE(victim.valid()) << to_string(p);
    session.crash_router(victim);
    EXPECT_TRUE(session.crashed(victim));

    // The crashed node forwards unicast but holds no protocol state. HBH
    // and REUNITE data travels in unicast packets, so it crosses the dead
    // router untouched and the periodic joins re-anchor every receiver.
    // PIM data is group-addressed: the unicast-only router blackholes the
    // subtree behind it — the incremental-deployment gap the paper draws.
    session.run_for(300);
    if (p == Protocol::kHbh || p == Protocol::kReunite) {
      EXPECT_TRUE(session.measure().delivered_exactly_once())
          << to_string(p) << " while " << to_string(victim) << " is down";
    } else {
      EXPECT_FALSE(session.measure().missing.empty())
          << to_string(p) << " should starve the subtree behind "
          << to_string(victim);
    }

    session.restart_router(victim);
    EXPECT_FALSE(session.crashed(victim));
    session.run_for(300);
    EXPECT_TRUE(session.measure().delivered_exactly_once())
        << to_string(p) << " after restarting " << to_string(victim);
  }
}

TEST(CrashRestartTest, CrashPreservesSessionLevelCounters) {
  auto scenario = topo::attach_hosts(
      topo::make_line(4), {NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}}, 0);
  Session session{scenario, Protocol::kHbh};
  session.subscribe(scenario.hosts[2]);
  session.subscribe(scenario.hosts[3]);
  session.run_for(150);
  const std::uint64_t changes_before = session.total_structural_changes();
  ASSERT_GT(changes_before, 0u);

  session.crash_router(NodeId{1});
  // The Figure-4 stability metric must stay monotone across the crash.
  EXPECT_GE(session.total_structural_changes(), changes_before);
  const std::uint64_t at_crash = session.total_structural_changes();
  session.restart_router(NodeId{1});
  session.run_for(200);
  EXPECT_GE(session.total_structural_changes(), at_crash);
  EXPECT_TRUE(session.measure().delivered_exactly_once());
}

TEST(CrashRestartTest, NoStaleStateOutlivesT2AfterLeaveUnderLoss) {
  // Receivers leave while the fabric is lossy: every MFT/MCT entry (and
  // the source's) must still be gone within t2 plus a couple of refresh
  // periods — losing refreshes can only *hasten* expiry.
  Rng rng{555};
  auto base = topo::make_isp();
  const auto receivers = rng.sample(base.candidate_receivers(), 6);
  for (const Protocol p : {Protocol::kHbh, Protocol::kReunite}) {
    Session session{base, p};
    for (const NodeId r : receivers) session.subscribe(r);
    session.run_for(150);
    ASSERT_GT(session.state_census().forwarding_entries, 0u) << to_string(p);

    session.seed_impairments(1234);
    for (const auto& [a, b] : topo::backbone_links(base.topo)) {
      session.impair_link(a, b, lossy_reordering());
    }
    for (const NodeId r : receivers) session.unsubscribe(r);
    // The source keeps refreshing downstream entries with trees until its
    // own entries go stale (t1 = 35), so the last downstream refresh can
    // land ~t1 after the leave; everything is dead t2 = 70 later. A few
    // periods of slack cover in-flight stragglers.
    session.run_for(35 + 70 + 3 * 10);
    const auto census = session.state_census();
    EXPECT_EQ(census.forwarding_entries, 0u) << to_string(p);
    EXPECT_EQ(census.control_entries, 0u) << to_string(p);
  }
}

TEST(SoftStateEvictionTest, DataStopsOnceLeftReceiversStateIsEvicted) {
  // After the last receivers leave and idle far past every t2, no table
  // entry survives and data injected afterwards reaches nobody.
  const auto scenario = topo::attach_hosts(
      topo::make_line(4), {NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}}, 0);
  for (const Protocol p : all_protocols()) {
    Session session{scenario, p};
    ChannelHandle ch = session.default_channel();
    const auto& hosts = session.scenario().hosts;
    ch.subscribe(hosts[2]);
    ch.subscribe(hosts[3]);
    session.run_for(120);
    for (int round = 0; round < 3; ++round) {
      (void)ch.inject_data();
      session.run_for(20);
    }
    EXPECT_TRUE(ch.measure().delivered_exactly_once()) << to_string(p);
    ASSERT_GT(session.receiver(hosts[2]).deliveries().size(), 0u)
        << to_string(p);

    ch.unsubscribe(hosts[2]);
    ch.unsubscribe(hosts[3]);
    session.run_for(400);
    EXPECT_EQ(session.state_census().forwarding_entries, 0u) << to_string(p);
    const std::size_t before2 = session.receiver(hosts[2]).deliveries().size();
    const std::size_t before3 = session.receiver(hosts[3]).deliveries().size();
    for (int round = 0; round < 3; ++round) {
      (void)ch.inject_data();
      session.run_for(20);
    }
    EXPECT_EQ(session.receiver(hosts[2]).deliveries().size(), before2)
        << to_string(p);
    EXPECT_EQ(session.receiver(hosts[3]).deliveries().size(), before3)
        << to_string(p);
  }
}

TEST(CongestionTest, SaturatedBackboneQueuesAndShedsOnEveryProtocol) {
  // A queue small enough that a 12-copy burst overflows it at the first
  // branching router; several bursts keep the backlog saturated, so every
  // protocol's data must both queue and hit drop-tail. Admissions and
  // drop-tail losses are pure simulation outputs, pinned exactly: this is
  // the one test that counts the drop-tail path.
  struct Pinned {
    std::uint64_t queued, dropped;
  };
  const std::map<Protocol, Pinned> pinned = {
      {Protocol::kPimSm, {360, 30}},
      {Protocol::kPimSs, {390, 60}},
      {Protocol::kReunite, {395, 185}},
      {Protocol::kHbh, {390, 60}},
  };
  Rng rng{2026};
  topo::Scenario scenario = topo::make_isp();
  topo::randomize_costs(scenario.topo, rng);
  Rng pick{7};
  const auto receivers = pick.sample(scenario.candidate_receivers(), 8);
  for (const Protocol p : all_protocols()) {
    Session session{scenario, p};
    ChannelHandle ch = session.default_channel();
    Time delay = 0.1;
    for (const NodeId r : receivers) {
      ch.subscribe(r, delay);
      delay += 2.0;
    }
    session.run_for(delay + 200);
    session.apply_backbone_capacity(400, 6);
    for (int round = 0; round < 5; ++round) {
      for (int b = 0; b < 12; ++b) (void)ch.inject_data();
      session.run_for(15);
    }
    session.run_for(60);
    const net::NetworkCounters& c = session.network().counters();
    EXPECT_EQ(c.queued_packets, pinned.at(p).queued) << to_string(p);
    EXPECT_EQ(c.drops_queue_full, pinned.at(p).dropped) << to_string(p);
    EXPECT_EQ(c.drops_red, 0u) << to_string(p);  // drop-tail only
    // Drained: every receiver leaves, soft state expires, and no packet
    // (queued, dropped or delivered) may be left in the pool.
    for (const NodeId r : receivers) ch.unsubscribe(r);
    session.run_for(4 * SessionConfig{}.timers.t2);
    EXPECT_EQ(session.network().packets_live(), 0u) << to_string(p);
  }
}

TEST(FaultPlanTest, ScheduledEventsFireInOrder) {
  auto scenario = topo::attach_hosts(
      topo::make_ring(6),
      {NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}, NodeId{4}, NodeId{5}}, 0);
  Session session{scenario, Protocol::kHbh};
  session.subscribe(scenario.hosts[3]);
  session.run_for(100);

  net::Impairment imp;
  imp.loss = 1.0;
  FaultPlan plan;
  plan.impair(10, NodeId{0}, NodeId{1}, imp)
      .crash(20, NodeId{2})
      .link_down(30, NodeId{4}, NodeId{5})
      .clear_impairments(40)
      .restart(50, NodeId{2})
      .link_up(60, NodeId{4}, NodeId{5});
  session.schedule_faults(plan);

  session.run_for(15);  // t=115: impairment active, nothing else yet
  EXPECT_TRUE(session.network().impairments().any_active());
  EXPECT_FALSE(session.crashed(NodeId{2}));

  session.run_for(10);  // t=125: router 2 crashed
  EXPECT_TRUE(session.crashed(NodeId{2}));

  session.run_for(10);  // t=135: link 4-5 down
  const auto link = session.scenario().topo.find_link(NodeId{4}, NodeId{5});
  ASSERT_TRUE(link.has_value());
  EXPECT_FALSE(session.scenario().topo.link_up(*link));

  session.run_for(10);  // t=145: impairments lifted
  EXPECT_FALSE(session.network().impairments().any_active());

  session.run_for(10);  // t=155: router 2 restarted
  EXPECT_FALSE(session.crashed(NodeId{2}));

  session.run_for(10);  // t=165: link repaired
  EXPECT_TRUE(session.scenario().topo.link_up(*link));

  // And after all that abuse the tree still heals.
  session.run_for(200);
  EXPECT_TRUE(session.measure().delivered_exactly_once());
}

TEST(MultiChannelTest, TwoHbhSourcesCoexist) {
  // Two independent channels with different sources on one network: the
  // per-channel tables must not interfere.
  net::Topology t = topo::make_line(4);
  auto scenario = topo::attach_hosts(
      std::move(t), {NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}}, 0);

  sim::Simulator sim;
  routing::UnicastRouting routes{scenario.topo};
  net::Network net{sim, scenario.topo, routes};
  const mcast::McastConfig cfg{};

  for (const NodeId r : scenario.routers) {
    net.attach(r, std::make_unique<mcast::hbh::HbhRouter>(cfg));
  }
  // Sources at both ends (hosts 4 and 7); receivers at hosts 5 and 6.
  const net::Channel ch_a{net.address_of(scenario.hosts[0]), GroupAddr::ssm(1)};
  const net::Channel ch_b{net.address_of(scenario.hosts[3]), GroupAddr::ssm(2)};
  auto* src_a = static_cast<mcast::hbh::HbhSource*>(&net.attach(
      scenario.hosts[0], std::make_unique<mcast::hbh::HbhSource>(ch_a, cfg)));
  auto* src_b = static_cast<mcast::hbh::HbhSource*>(&net.attach(
      scenario.hosts[3], std::make_unique<mcast::hbh::HbhSource>(ch_b, cfg)));
  auto* rx1 = static_cast<mcast::ReceiverHost*>(
      &net.attach(scenario.hosts[1], std::make_unique<mcast::ReceiverHost>(
                                         mcast::JoinStyle::kSourceJoin, cfg)));
  auto* rx2 = static_cast<mcast::ReceiverHost*>(
      &net.attach(scenario.hosts[2], std::make_unique<mcast::ReceiverHost>(
                                         mcast::JoinStyle::kSourceJoin, cfg)));
  net.start();

  rx1->subscribe(ch_a);
  rx1->subscribe(ch_b);
  rx2->subscribe(ch_b);
  sim.run_for(100);

  src_a->send_data(1, 0);
  src_b->send_data(2, 0);
  sim.run_for(60);

  // rx1 got one packet from each channel; rx2 only channel B.
  std::size_t rx1_a = 0;
  std::size_t rx1_b = 0;
  for (const auto& d : rx1->deliveries()) {
    (d.channel == ch_a ? rx1_a : rx1_b) += 1;
  }
  EXPECT_EQ(rx1_a, 1u);
  EXPECT_EQ(rx1_b, 1u);
  ASSERT_EQ(rx2->deliveries().size(), 1u);
  EXPECT_EQ(rx2->deliveries()[0].channel, ch_b);
}

TEST(MultiChannelTest, RouterKeepsIndependentStatePerChannel) {
  net::Topology t = topo::make_line(3);
  auto scenario =
      topo::attach_hosts(std::move(t), {NodeId{0}, NodeId{1}, NodeId{2}}, 1);

  sim::Simulator sim;
  routing::UnicastRouting routes{scenario.topo};
  net::Network net{sim, scenario.topo, routes};
  const mcast::McastConfig cfg{};
  for (const NodeId r : scenario.routers) {
    net.attach(r, std::make_unique<mcast::hbh::HbhRouter>(cfg));
  }
  const net::Channel ch_a{net.address_of(scenario.hosts[1]), GroupAddr::ssm(1)};
  const net::Channel ch_b{net.address_of(scenario.hosts[1]), GroupAddr::ssm(2)};
  net.attach(scenario.hosts[1],
             std::make_unique<mcast::hbh::HbhSource>(ch_a, cfg));
  // ch_b has no live source agent: joins for it just sink at the host.
  auto* rx = static_cast<mcast::ReceiverHost*>(
      &net.attach(scenario.hosts[0], std::make_unique<mcast::ReceiverHost>(
                                         mcast::JoinStyle::kSourceJoin, cfg)));
  net.start();
  rx->subscribe(ch_a);
  rx->subscribe(ch_b);
  sim.run_for(80);

  const auto& router = static_cast<const mcast::hbh::HbhRouter&>(
      net.agent(scenario.routers[0]));
  EXPECT_NE(router.state(ch_a), nullptr);   // tree state for the live channel
  EXPECT_EQ(router.state(ch_b), nullptr);   // none for the dead one
}

}  // namespace
}  // namespace hbh::harness
