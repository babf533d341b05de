// PIM baseline tests: PIM-SS reverse SPTs with RPF (one copy per link)
// and PIM-SM shared trees with register-tunnel encapsulation toward the
// RP, including the two-part delay structure of §4.2.2.
#include <gtest/gtest.h>

#include "harness/session.hpp"
#include "mcast/pim/router.hpp"
#include "routing/unicast.hpp"
#include "topo/builders.hpp"
#include "topo/isp.hpp"
#include "topo/random.hpp"
#include "topo/scenarios.hpp"
#include "util/rng.hpp"

namespace hbh::harness {
namespace {

using mcast::pim::PimRouter;

topo::Scenario from_fig1(const topo::Fig1Scenario& f) {
  topo::Scenario s;
  s.topo = f.topo;
  s.routers = {f.h1, f.h2, f.h3, f.h4, f.h5, f.h6, f.h7};
  s.hosts = {f.s, f.r1, f.r2, f.r3, f.r4, f.r5, f.r6, f.r7, f.r8};
  s.source_host = f.s;
  return s;
}

topo::Scenario from_fig2(const topo::Fig2Scenario& f) {
  topo::Scenario s;
  s.topo = f.topo;
  s.routers = {f.h1, f.h2, f.h3, f.h4};
  s.hosts = {f.s, f.r1, f.r2, f.r3};
  s.source_host = f.s;
  return s;
}

TEST(PimSsTest, SingleReceiverDelivery) {
  auto scenario =
      topo::attach_hosts(topo::make_line(3), {NodeId{0}, NodeId{1}, NodeId{2}}, 0);
  Session session{scenario, Protocol::kPimSs};
  session.subscribe(scenario.hosts[2]);
  session.run_for(40);
  const Measurement m = session.measure();
  EXPECT_TRUE(m.delivered_exactly_once());
  EXPECT_EQ(m.tree_cost, 4u);
  EXPECT_DOUBLE_EQ(m.mean_delay, 4.0);
}

TEST(PimSsTest, RpfGuaranteesOneCopyPerLink) {
  const auto fig = topo::make_fig1();
  Session session{from_fig1(fig), Protocol::kPimSs};
  for (const NodeId r : fig.receivers()) session.subscribe(r);
  session.run_for(120);
  const Measurement m = session.measure();
  EXPECT_TRUE(m.delivered_exactly_once());
  EXPECT_EQ(m.max_link_copies, 1u);
  EXPECT_EQ(m.tree_cost, 15u);  // same 15-link tree as HBH when symmetric
}

TEST(PimSsTest, OifStateInstalledAlongJoinPath) {
  const auto fig = topo::make_fig1();
  Session session{from_fig1(fig), Protocol::kPimSs};
  session.subscribe(fig.r1);
  session.run_for(40);
  // r1's join path r1 -> H6 -> H4 -> H2 -> H1 -> S installs oifs pointing
  // back toward r1 at every hop.
  const auto& h6 = static_cast<const PimRouter&>(session.network().agent(fig.h6));
  const auto& h1 = static_cast<const PimRouter&>(session.network().agent(fig.h1));
  const auto h6_oifs = h6.oifs(session.channel());
  ASSERT_EQ(h6_oifs.size(), 1u);
  EXPECT_EQ(h6_oifs[0], fig.r1);
  const auto h1_oifs = h1.oifs(session.channel());
  ASSERT_EQ(h1_oifs.size(), 1u);
  EXPECT_EQ(h1_oifs[0], fig.h2);
}

TEST(PimSsTest, DelayIsReversePathDelay) {
  // Asymmetric topology: PIM-SS delay follows the data direction along the
  // reversed join path — NOT the shortest S->r path.
  const auto fig = topo::make_fig2();
  auto scenario = from_fig2(fig);
  routing::UnicastRouting reference{scenario.topo};
  Session session{scenario, Protocol::kPimSs};
  session.subscribe(fig.r1);
  session.run_for(60);
  const Measurement m = session.measure();
  ASSERT_TRUE(m.delivered_exactly_once());
  // r1's join path is r1 -> H2 -> H1 -> S; data flows S -> H1 -> H2 -> r1:
  // delays c(S->H1)+c(H1->H2)+c(H2->r1) = 1 + 5 + 1 = 7, whereas the
  // shortest S->r1 path (via H3) has delay 3.
  EXPECT_DOUBLE_EQ(m.mean_delay, 7.0);
  EXPECT_GT(m.mean_delay, reference.path_delay(fig.s, fig.r1));
}

TEST(PimSsTest, LeaveTimesOutPrunesBranch) {
  const auto fig = topo::make_fig1();
  Session session{from_fig1(fig), Protocol::kPimSs};
  session.subscribe(fig.r1);
  session.subscribe(fig.r4);
  session.run_for(60);
  ASSERT_TRUE(session.measure().delivered_exactly_once());
  session.unsubscribe(fig.r1);
  session.run_for(200);  // oif soft state expires (t2)
  const Measurement m = session.measure();
  EXPECT_TRUE(m.delivered_exactly_once());  // only r4 subscribed now
  const auto& h6 = static_cast<const PimRouter&>(session.network().agent(fig.h6));
  EXPECT_TRUE(h6.oifs(session.channel()).empty());
}

TEST(PimSmTest, SingleReceiverThroughRp) {
  const auto fig = topo::make_fig1();
  Session session{from_fig1(fig), Protocol::kPimSm};
  ASSERT_TRUE(session.rp().valid());
  session.subscribe(fig.r4);
  session.run_for(60);
  const Measurement m = session.measure();
  EXPECT_TRUE(m.delivered_exactly_once());
  EXPECT_EQ(m.max_link_copies, 1u);
}

TEST(PimSmTest, DelayIsEncapPlusSharedTreePath) {
  const auto fig = topo::make_fig1();
  auto scenario = from_fig1(fig);
  routing::UnicastRouting reference{scenario.topo};
  Session session{scenario, Protocol::kPimSm};
  const NodeId rp = session.rp();
  ASSERT_TRUE(rp.valid());
  session.subscribe(fig.r1);
  session.run_for(60);
  const Measurement m = session.measure();
  ASSERT_TRUE(m.delivered_exactly_once());
  // Symmetric costs: join path r1->RP reversed == RP->r1 shortest path.
  const Time expected =
      reference.path_delay(fig.s, rp) + reference.path_delay(rp, fig.r1);
  EXPECT_DOUBLE_EQ(m.mean_delay, expected);
}

TEST(PimSmTest, SharedTreeCostExceedsSourceTreeOnFig1) {
  // With the source at one edge, detouring through the RP costs extra
  // links versus the direct source tree (the paper's Fig. 7a headline).
  const auto fig = topo::make_fig1();
  std::size_t cost_sm = 0;
  std::size_t cost_ss = 0;
  for (const Protocol p : {Protocol::kPimSm, Protocol::kPimSs}) {
    Session session{from_fig1(fig), p};
    for (const NodeId r : fig.receivers()) session.subscribe(r);
    session.run_for(120);
    const Measurement m = session.measure();
    ASSERT_TRUE(m.delivered_exactly_once()) << to_string(p);
    (p == Protocol::kPimSm ? cost_sm : cost_ss) = m.tree_cost;
  }
  EXPECT_GE(cost_sm, cost_ss);
}

TEST(PimSmTest, AllReceiversExactlyOnce) {
  const auto fig = topo::make_fig1();
  Session session{from_fig1(fig), Protocol::kPimSm};
  for (const NodeId r : fig.receivers()) session.subscribe(r);
  session.run_for(120);
  const Measurement m = session.measure();
  EXPECT_TRUE(m.delivered_exactly_once());
  EXPECT_EQ(m.max_link_copies, 1u);  // RPF on the shared tree + disjoint encap
}

TEST(PimSmTest, RegisterEncapsulationCrossesNetworkUnicast) {
  // Source and RP on the ISP topology: the S->RP leg is plain unicast and
  // the measured cost includes those encapsulated hops.
  const auto isp = topo::make_isp();
  Session session{isp, Protocol::kPimSm};
  const NodeId rp = session.rp();
  ASSERT_TRUE(rp.valid());
  session.subscribe(isp.hosts[9]);
  session.run_for(80);
  const Measurement m = session.measure();
  ASSERT_TRUE(m.delivered_exactly_once());
  const auto& routes = session.routes();
  const std::size_t encap_hops =
      routes.path(isp.source_host, rp).size() - 1;
  EXPECT_GE(m.tree_cost, encap_hops + 1);  // encap leg + at least one branch
}

TEST(ChooseRpTest, PicksCentralRouterDeterministically) {
  const auto fig = topo::make_fig1();
  const routing::UnicastRouting routes{fig.topo};
  topo::Scenario s = from_fig1(fig);
  const NodeId rp1 = mcast::pim::choose_rp(routes, s.routers);
  const NodeId rp2 = mcast::pim::choose_rp(routes, s.routers);
  EXPECT_EQ(rp1, rp2);
  // On the symmetric twin tree the medoid is the fan-out router H1.
  EXPECT_EQ(rp1, fig.h1);
}

/// choose_rp_delay_aware as a definition: materialize each other->rp path
/// and sum the opposite edges' delays from other's end.
NodeId reference_delay_aware_rp(const routing::UnicastRouting& routes,
                                const std::vector<NodeId>& routers,
                                NodeId source) {
  const auto& topo = routes.topology();
  NodeId best = kNoNode;
  double best_score = routing::kUnreachable;
  for (const NodeId candidate : routers) {
    double score = routes.path_delay(source, candidate);
    double down = 0;
    std::size_t n = 0;
    for (const NodeId other : routers) {
      if (other == candidate) continue;
      const std::vector<NodeId> up = routes.path(other, candidate);
      Time delay = 0;
      for (std::size_t i = 0; i + 1 < up.size(); ++i) {
        delay += topo.edge(*topo.find_link(up[i + 1], up[i])).attrs.delay;
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

TEST(ChooseRpTest, DelayAwareMatchesPathReference) {
  // Delays drawn apart from costs and per direction, so the reversed
  // (data-direction) edges carry other delays than the routed ones; the
  // walk must also add them in path order, as fractional sums differ in
  // the last bits when reordered.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng{seed};
    topo::Scenario s = topo::make_random(topo::RandomTopoParams{20, 4.0}, rng);
    for (std::uint32_t l = 0; l < s.topo.link_count(); ++l) {
      s.topo.set_cost_delay(LinkId{l},
                            static_cast<double>(rng.uniform_int(1, 3)),
                            0.1 + 9.7 * rng.uniform01());
    }
    const routing::UnicastRouting routes{s.topo};
    EXPECT_EQ(mcast::pim::choose_rp_delay_aware(routes, s.routers,
                                                s.source_host),
              reference_delay_aware_rp(routes, s.routers, s.source_host))
        << "seed " << seed;
  }
}

TEST(ChooseRpTest, SingleRouterDegenerate) {
  net::Topology t;
  const NodeId r = t.add_node();
  const routing::UnicastRouting routes{t};
  EXPECT_EQ(mcast::pim::choose_rp(routes, {r}), r);
}

}  // namespace
}  // namespace hbh::harness
