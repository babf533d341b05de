// HBH protocol tests: Appendix A rules, the Figure 5 construction trace,
// SPT delay optimality, departure stability (Figure 4), and unicast-cloud
// traversal.
#include <gtest/gtest.h>

#include <vector>

#include "harness/session.hpp"
#include "mcast/hbh/router.hpp"
#include "mcast/hbh/source.hpp"
#include "routing/unicast.hpp"
#include "topo/builders.hpp"
#include "topo/scenarios.hpp"

namespace hbh::harness {
namespace {

using mcast::hbh::HbhRouter;

topo::Scenario from_fig2(const topo::Fig2Scenario& f) {
  topo::Scenario s;
  s.topo = f.topo;
  s.routers = {f.h1, f.h2, f.h3, f.h4};
  s.hosts = {f.s, f.r1, f.r2, f.r3};
  s.source_host = f.s;
  return s;
}

topo::Scenario from_fig1(const topo::Fig1Scenario& f) {
  topo::Scenario s;
  s.topo = f.topo;
  s.routers = {f.h1, f.h2, f.h3, f.h4, f.h5, f.h6, f.h7};
  s.hosts = {f.s, f.r1, f.r2, f.r3, f.r4, f.r5, f.r6, f.r7, f.r8};
  s.source_host = f.s;
  return s;
}

std::vector<Ipv4Addr> data_targets(const mcast::hbh::Mft& mft, Time now) {
  std::vector<Ipv4Addr> out;
  mft.for_each_data_target(now, [&](Ipv4Addr t) { out.push_back(t); });
  return out;
}

const mcast::hbh::ChannelState* hbh_state(Session& session, NodeId router) {
  return static_cast<const HbhRouter&>(session.network().agent(router))
      .state(session.channel());
}

TEST(HbhBasicTest, SingleReceiverLineDelivery) {
  // S(host2) - R0 - R1 - r(host3):  line of 2 routers with hosts attached.
  auto base = topo::make_line(2);
  auto scenario =
      topo::attach_hosts(std::move(base), {NodeId{0}, NodeId{1}}, 0);
  Session session{scenario, Protocol::kHbh};
  const NodeId receiver = scenario.hosts[1];
  session.subscribe(receiver);
  session.run_for(50);

  const Measurement m = session.measure();
  EXPECT_TRUE(m.delivered_exactly_once())
      << "missing=" << m.missing.size() << " dup=" << m.duplicated.size();
  EXPECT_EQ(m.tree_cost, 3u);  // host-router, router-router, router-host
  EXPECT_DOUBLE_EQ(m.mean_delay, 3.0);
}

TEST(HbhBasicTest, NoMembersMeansNoTraffic) {
  auto scenario = topo::attach_hosts(topo::make_line(2), {NodeId{0}, NodeId{1}}, 0);
  Session session{scenario, Protocol::kHbh};
  session.run_for(50);
  const Measurement m = session.measure();
  EXPECT_EQ(m.tree_cost, 0u);
  EXPECT_TRUE(m.missing.empty());
}

TEST(HbhBasicTest, AllEightReceiversFig1) {
  const auto fig = topo::make_fig1();
  Session session{from_fig1(fig), Protocol::kHbh};
  for (const NodeId r : fig.receivers()) session.subscribe(r);
  session.run_for(200);

  const Measurement m = session.measure();
  EXPECT_TRUE(m.delivered_exactly_once());
  // Symmetric tree: every link of the distribution tree carries exactly
  // one copy. Tree spans the source access link, 6 router-router links
  // (H1-H2, H2-H4, H4-H6, H1-H3, H3-H5, H5-H7) and 8 receiver access
  // links => 15 links, one copy each.
  EXPECT_EQ(m.tree_cost, 15u);
  EXPECT_EQ(m.max_link_copies, 1u);
}

TEST(HbhBasicTest, DelayEqualsShortestPathForEveryReceiver) {
  const auto fig = topo::make_fig1();
  auto scenario = from_fig1(fig);
  routing::UnicastRouting reference{scenario.topo};
  Session session{scenario, Protocol::kHbh};
  for (const NodeId r : fig.receivers()) session.subscribe(r);
  session.run_for(200);
  session.measure();  // warm probe
  for (const NodeId r : fig.receivers()) {
    session.receiver(r).clear_deliveries();
  }
  const Measurement m = session.measure();
  ASSERT_TRUE(m.delivered_exactly_once());
  for (const NodeId r : fig.receivers()) {
    const auto& deliveries = session.receiver(r).deliveries();
    ASSERT_EQ(deliveries.size(), 1u);
    const Time delay = deliveries[0].received_at - deliveries[0].sent_at;
    EXPECT_DOUBLE_EQ(delay, reference.path_delay(fig.s, r))
        << "receiver " << to_string(r);
  }
}

TEST(HbhBasicTest, BranchingNodesMatchFig1Structure) {
  const auto fig = topo::make_fig1();
  Session session{from_fig1(fig), Protocol::kHbh};
  for (const NodeId r : fig.receivers()) session.subscribe(r);
  session.run_for(300);

  // H1, H4, H5, H6, H7 duplicate data (>= 2 data targets). H2 and H3 are
  // pure relays: under strict Appendix-A semantics they hold an MFT (rule
  // T8 fires when two distinct tree flows pass), but its only data target
  // is the next branching node downstream — so, like the paper's Fig. 1
  // picture, they emit exactly one copy and never duplicate.
  const Time now = session.simulator().now();
  const auto data_fanout = [&](NodeId router) -> std::size_t {
    const auto* st = hbh_state(session, router);
    if (st == nullptr || !st->branching()) return 0;
    return data_targets(*st->mft, now).size();
  };
  EXPECT_EQ(data_fanout(fig.h1), 2u);  // left + right subtree
  EXPECT_EQ(data_fanout(fig.h4), 2u);  // H6 subtree + r7
  EXPECT_EQ(data_fanout(fig.h5), 2u);  // H7 subtree + r8
  EXPECT_EQ(data_fanout(fig.h6), 3u);  // r1, r2, r3
  EXPECT_EQ(data_fanout(fig.h7), 3u);  // r4, r5, r6
  EXPECT_LE(data_fanout(fig.h2), 1u);  // relay
  EXPECT_LE(data_fanout(fig.h3), 1u);  // relay
}

// --- The Figure 5 trace: HBH's answer to REUNITE's Figure 2 pathology ---

TEST(HbhFig5Test, TwoReceiversBothOnShortestPath) {
  const auto fig = topo::make_fig2();
  auto scenario = from_fig2(fig);
  routing::UnicastRouting reference{scenario.topo};
  Session session{scenario, Protocol::kHbh};
  session.subscribe(fig.r1);
  session.subscribe(fig.r2, 5);
  session.run_for(250);
  const Measurement m = session.measure();
  ASSERT_TRUE(m.delivered_exactly_once());
  // Unlike REUNITE (Figure 2), *both* receivers get source-rooted
  // shortest-path delay, r2 included.
  const auto& d1 = session.receiver(fig.r1).deliveries();
  const auto& d2 = session.receiver(fig.r2).deliveries();
  ASSERT_FALSE(d1.empty());
  ASSERT_FALSE(d2.empty());
  EXPECT_DOUBLE_EQ(d1.back().received_at - d1.back().sent_at,
                   reference.path_delay(fig.s, fig.r1));
  EXPECT_DOUBLE_EQ(d2.back().received_at - d2.back().sent_at,
                   reference.path_delay(fig.s, fig.r2));
}

TEST(HbhFig5Test, R3JoinTriggersFusionAndH3Branches) {
  const auto fig = topo::make_fig2();
  Session session{from_fig2(fig), Protocol::kHbh};
  session.subscribe(fig.r1);
  session.subscribe(fig.r2, 5);
  session.run_for(150);
  session.subscribe(fig.r3);
  session.run_for(300);  // converge past the t2 horizon

  // Final structure (Fig. 5d): H1 and H3 are branching nodes.
  const auto* h1 = hbh_state(session, fig.h1);
  const auto* h3 = hbh_state(session, fig.h3);
  ASSERT_NE(h1, nullptr);
  ASSERT_NE(h3, nullptr);
  EXPECT_TRUE(h1->branching());
  EXPECT_TRUE(h3->branching());

  // H3's MFT holds both r1 and r3 (it duplicates data for them).
  const Ipv4Addr r1_addr = session.network().address_of(fig.r1);
  const Ipv4Addr r3_addr = session.network().address_of(fig.r3);
  EXPECT_TRUE(h3->mft->contains(r1_addr));
  EXPECT_TRUE(h3->mft->contains(r3_addr));

  // H1's entry for r1 is marked: H3 took over data duplication for r1, so
  // H1 forwards tree messages to r1 but no data.
  const mcast::SoftEntry* r1_at_h1 = h1->mft->find(r1_addr);
  ASSERT_NE(r1_at_h1, nullptr);
  EXPECT_TRUE(r1_at_h1->marked());

  // H3 (the next branching node) is a data target of H1.
  const Ipv4Addr h3_addr = session.network().address_of(fig.h3);
  EXPECT_TRUE(h1->mft->contains(h3_addr));

  // Data: everyone exactly once, r1 via H3 (single copy).
  const Measurement m = session.measure();
  EXPECT_TRUE(m.delivered_exactly_once());
  EXPECT_EQ(m.max_link_copies, 1u);
}

TEST(HbhFig5Test, SourceMftConvergesToSingleBranchTarget) {
  const auto fig = topo::make_fig2();
  Session session{from_fig2(fig), Protocol::kHbh};
  session.subscribe(fig.r1);
  session.subscribe(fig.r3, 3);
  session.run_for(400);  // well past t2: marked source entries expire

  const auto& source =
      static_cast<const mcast::hbh::HbhSource&>(session.source_agent());
  const Time now = session.simulator().now();
  // After convergence the source sends data only toward H1.
  const auto targets = data_targets(source.mft(), now);
  ASSERT_EQ(targets.size(), 1u);
  EXPECT_EQ(targets[0], session.network().address_of(fig.h1));
}

TEST(HbhJoinRuleTest, FirstJoinReachesSourceEvenThroughBranchingNodes) {
  // Two receivers converged; a third whose first join crosses a branching
  // node must still reach the source (J-first rule).
  const auto fig = topo::make_fig1();
  Session session{from_fig1(fig), Protocol::kHbh};
  session.subscribe(fig.r1);
  session.subscribe(fig.r2);
  session.run_for(150);
  // r3's path crosses branching node H6 (which holds r1, r2). With the
  // first-join exemption the source learns r3 and serves it.
  session.subscribe(fig.r3);
  session.run_for(150);
  const Measurement m = session.measure();
  EXPECT_TRUE(m.delivered_exactly_once());
  EXPECT_EQ(session.members().size(), 3u);
}

TEST(HbhStabilityTest, DepartureOfLeafReceiversIsLocal) {
  // Figure 4b: r1's departure only touches the branching node nearest r1
  // (H6); the rest of the tree keeps serving unchanged.
  const auto fig = topo::make_fig1();
  Session session{from_fig1(fig), Protocol::kHbh};
  for (const NodeId r : fig.receivers()) session.subscribe(r);
  session.run_for(250);
  ASSERT_TRUE(session.measure().delivered_exactly_once());

  session.unsubscribe(fig.r1);
  session.run_for(200);  // past t2: r1 state everywhere expired

  const Measurement m = session.measure();
  EXPECT_TRUE(m.delivered_exactly_once());  // 7 remaining receivers
  EXPECT_EQ(session.members().size(), 7u);
  // r1 no longer receives data.
  const auto* h6 = hbh_state(session, fig.h6);
  ASSERT_NE(h6, nullptr);
  ASSERT_TRUE(h6->branching());
  EXPECT_FALSE(
      h6->mft->contains(session.network().address_of(fig.r1)));
}

TEST(HbhStabilityTest, BranchingNodeSurvivesWithOneEntryAfterDeparture) {
  // Figure 4's r8 case: H5 loses r8 and keeps only H7 downstream.
  const auto fig = topo::make_fig1();
  Session session{from_fig1(fig), Protocol::kHbh};
  for (const NodeId r : fig.receivers()) session.subscribe(r);
  session.run_for(250);
  session.unsubscribe(fig.r8);
  session.run_for(200);
  const Measurement m = session.measure();
  EXPECT_TRUE(m.delivered_exactly_once());
  const auto* h5 = hbh_state(session, fig.h5);
  ASSERT_NE(h5, nullptr);
  ASSERT_TRUE(h5->branching());
  EXPECT_FALSE(h5->mft->contains(session.network().address_of(fig.r8)));
}

TEST(HbhUnicastCloudTest, UnicastOnlyTransitRouterIsTraversed) {
  // Make H2 and H3 (pure transit in Fig. 1) unicast-only: data and control
  // must flow through them transparently and delivery still works.
  const auto fig = topo::make_fig1();
  SessionConfig config;
  config.unicast_only = {fig.h2, fig.h3};
  Session session{from_fig1(fig), Protocol::kHbh, config};
  for (const NodeId r : fig.receivers()) session.subscribe(r);
  session.run_for(250);
  const Measurement m = session.measure();
  EXPECT_TRUE(m.delivered_exactly_once());
  EXPECT_EQ(m.max_link_copies, 1u);
}

TEST(HbhUnicastCloudTest, UnicastOnlyBranchPointShiftsBranching) {
  // If the natural branching router H6 is unicast-only, the nearest
  // multicast-capable router upstream (H4) must take over duplication;
  // receivers below H6 still get the data (more copies on H4-H6).
  const auto fig = topo::make_fig1();
  SessionConfig config;
  config.unicast_only = {fig.h6};
  Session session{from_fig1(fig), Protocol::kHbh, config};
  for (const NodeId r : {fig.r1, fig.r2, fig.r3}) session.subscribe(r);
  session.run_for(250);
  const Measurement m = session.measure();
  EXPECT_TRUE(m.delivered_exactly_once());
  // Three copies traverse H4->H6 (one per receiver) since H6 cannot branch.
  EXPECT_EQ(m.max_link_copies, 3u);
}

TEST(HbhDynamicsTest, RejoinAfterLeaveRebuildsDelivery) {
  const auto fig = topo::make_fig1();
  Session session{from_fig1(fig), Protocol::kHbh};
  session.subscribe(fig.r1);
  session.subscribe(fig.r4);
  session.run_for(200);
  session.unsubscribe(fig.r1);
  session.run_for(250);
  session.subscribe(fig.r1);
  session.run_for(200);
  const Measurement m = session.measure();
  EXPECT_TRUE(m.delivered_exactly_once());
  EXPECT_EQ(session.members().size(), 2u);
}

TEST(HbhDynamicsTest, AllReceiversLeaveTreeDissolves) {
  const auto fig = topo::make_fig1();
  Session session{from_fig1(fig), Protocol::kHbh};
  for (const NodeId r : fig.receivers()) session.subscribe(r);
  session.run_for(200);
  for (const NodeId r : fig.receivers()) session.unsubscribe(r);
  session.run_for(300);  // everything times out
  const Measurement m = session.measure();
  EXPECT_EQ(m.tree_cost, 0u);  // no members -> no data transmitted
  const auto& source =
      static_cast<const mcast::hbh::HbhSource&>(session.source_agent());
  EXPECT_FALSE(source.has_members());
}

}  // namespace
}  // namespace hbh::harness
