// Forwarding-plane invariant auditor tests.
//
// Two halves, mirroring the auditor's contract:
//   * zero false positives — clean converged runs of all four protocols
//     must report nothing, and the NDJSON stream must be byte-identical
//     across repeated runs.
//   * true positives — each seeded fault (impairment duplication, a
//     malicious bouncing agent, a crashed PIM router left down, a forcibly
//     refreshed orphan table entry) must raise exactly the kind of anomaly
//     it plants, and strict mode must turn the first one into an abort.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "harness/session.hpp"
#include "mcast/hbh/router.hpp"
#include "metrics/auditor.hpp"
#include "metrics/tracer.hpp"
#include "net/network.hpp"
#include "topo/builders.hpp"
#include "topo/isp.hpp"
#include "util/rng.hpp"

namespace hbh::harness {
namespace {

using metrics::AnomalyKind;
using metrics::Auditor;

/// Converged ISP session for `p`: audit enabled before any join executes,
/// 8 staggered receivers, warmed past the last join.
std::unique_ptr<Session> clean_isp_session(Protocol p) {
  Rng rng{2024};
  auto scenario = topo::make_isp();
  topo::randomize_costs(scenario.topo, rng);
  const auto receivers = rng.sample(scenario.candidate_receivers(), 8);
  const SessionConfig config{.observe = {.audit = true}};
  auto session = std::make_unique<Session>(std::move(scenario), p, config);
  Time delay = 0.1;
  for (const NodeId r : receivers) {
    session->subscribe(r, delay);
    delay += 1.2 * config.timers.tree_period;
  }
  session->run_for(delay + 120);
  return session;
}

TEST(AuditorCleanRunTest, AllProtocolsReportZeroAnomalies) {
  for (const Protocol p : all_protocols()) {
    auto session = clean_isp_session(p);
    const Measurement m = session->measure();
    session->audit_sweep();
    const Auditor& auditor = *session->auditor();
    EXPECT_EQ(auditor.total(), 0u)
        << to_string(p) << " first event: "
        << (auditor.events().empty() ? "-" : auditor.events()[0].detail);
    // The scenario itself must be a meaningful probe of the invariants.
    EXPECT_TRUE(m.delivered_exactly_once()) << to_string(p);
  }
}

TEST(AuditorCleanRunTest, NdjsonStreamIsByteIdenticalAcrossRuns) {
  for (const Protocol p : all_protocols()) {
    std::string first;
    std::string second;
    for (std::string* out : {&first, &second}) {
      auto session = clean_isp_session(p);
      (void)session->measure();
      session->audit_sweep();
      session->auditor()->append_ndjson(*out, to_string(p));
    }
    EXPECT_EQ(first, second) << to_string(p);
  }
}

TEST(AuditorTruePositiveTest, InjectedDuplicationRaisesDuplicateDelivery) {
  // The far receiver's access link duplicates every delivery. The last hop
  // is past any branch point, so the router-side replication guard cannot
  // absorb the extra copy: the host sees the probe twice, which under
  // HBH's at-most-once promise is exactly a duplicate-delivery anomaly —
  // and nothing else (the injected copy shares the original's TTL, so the
  // loop detector must stay silent).
  auto scenario = topo::attach_hosts(
      topo::make_line(3), {NodeId{0}, NodeId{1}, NodeId{2}}, 0);
  Session session{scenario, Protocol::kHbh, {.observe = {.audit = true}}};
  Auditor& auditor = *session.auditor();
  session.subscribe(scenario.hosts[1]);
  session.subscribe(scenario.hosts[2]);
  session.run_for(120);
  ASSERT_TRUE(session.measure().delivered_exactly_once());
  ASSERT_EQ(auditor.total(), 0u);

  net::Impairment dup;
  dup.duplicate = 1.0;
  session.seed_impairments(9);
  session.impair_link(NodeId{2}, scenario.hosts[2], dup);
  (void)session.measure();
  EXPECT_GE(auditor.count(AnomalyKind::kDuplicateDelivery), 1u);
  EXPECT_EQ(auditor.total(), auditor.count(AnomalyKind::kDuplicateDelivery));
  ASSERT_FALSE(auditor.events().empty());
  EXPECT_EQ(auditor.events()[0].kind, AnomalyKind::kDuplicateDelivery);
  EXPECT_EQ(auditor.events()[0].channel, session.default_channel().channel());
}

TEST(AuditorTruePositiveTest, StrictModeAbortsOnFirstViolation) {
  auto scenario = topo::attach_hosts(
      topo::make_line(3), {NodeId{0}, NodeId{1}, NodeId{2}}, 0);
  Session session{scenario, Protocol::kHbh,
                  {.observe = {.audit = true, .strict = true}}};
  session.subscribe(scenario.hosts[2]);
  session.run_for(120);

  net::Impairment dup;
  dup.duplicate = 1.0;
  session.seed_impairments(9);
  session.impair_link(NodeId{0}, NodeId{1}, dup);
  EXPECT_THROW((void)session.measure(), std::runtime_error);
}

/// A hostile agent that returns every data packet to its sender — the
/// classic forwarding loop two misconfigured routers would produce.
class BouncingAgent : public net::ProtocolAgent {
 public:
  void handle(net::PacketHandle h, NodeId from) override {
    if (net().packet(h).type == net::PacketType::kData && from.valid()) {
      net().send_direct(self(), from, h);
      return;
    }
    net::ProtocolAgent::handle(h, from);
  }
};

TEST(AuditorTruePositiveTest, BouncingRouterRaisesLoop) {
  // Replace the mid-line router with a bouncer: data ping-pongs on the
  // 0-1 link, re-crossing it with ever lower TTL until exhaustion. Both
  // loop detectors (TTL regression, ttl-expired drop) see it; no
  // audit_sweep here — the bouncer is not an HbhRouter to enumerate.
  auto scenario = topo::attach_hosts(
      topo::make_line(3), {NodeId{0}, NodeId{1}, NodeId{2}}, 0);
  Session session{scenario, Protocol::kHbh, {.observe = {.audit = true}}};
  Auditor& auditor = *session.auditor();
  session.subscribe(scenario.hosts[2]);
  session.run_for(120);

  session.network().attach(NodeId{1}, std::make_unique<BouncingAgent>());
  (void)session.default_channel().inject_data();
  session.run_for(300);
  EXPECT_GE(auditor.count(AnomalyKind::kLoop), 1u);
  EXPECT_EQ(auditor.count(AnomalyKind::kDuplicateDelivery), 0u);
}

TEST(AuditorTruePositiveTest, LoopEventsCiteTheLoopingPacketsTrace) {
  // The packet's trace context lives beside it in the fabric, not in the
  // packet: an anomaly raised from a tap must still cite the trace of the
  // data emission that looped, and cite none when the run is untraced.
  for (const bool traced : {false, true}) {
    auto scenario = topo::attach_hosts(
        topo::make_line(3), {NodeId{0}, NodeId{1}, NodeId{2}}, 0);
    Session session{scenario, Protocol::kHbh,
                    {.observe = {.tracing = traced, .audit = true}}};
    session.subscribe(scenario.hosts[2]);
    session.run_for(120);
    session.network().attach(NodeId{1}, std::make_unique<BouncingAgent>());
    (void)session.default_channel().inject_data();
    session.run_for(300);
    const auto& events = session.auditor()->events();
    ASSERT_FALSE(events.empty()) << traced;
    for (const metrics::AnomalyEvent& e : events) {
      if (!traced) {
        EXPECT_EQ(e.trace_id, 0u);
        continue;
      }
      bool emitted = false;
      for (const metrics::SpanRecord& span : session.tracer()->spans()) {
        emitted = emitted || (span.trace_id == e.trace_id &&
                              span.parent_id == 0 && span.name == "data");
      }
      EXPECT_TRUE(emitted) << "trace " << e.trace_id;
    }
  }
}

TEST(AuditorTruePositiveTest, CrashedPimRouterRaisesBlackHole) {
  // PIM data is group-addressed: a crashed router (unicast-only forwarder
  // after the crash) cannot route it, so the subtree behind it starves.
  // Three spaced emissions past the starvation window are the evidence.
  Rng rng{31337};
  auto base = topo::make_isp();
  const auto receivers = rng.sample(base.candidate_receivers(), 8);
  Session session{base, Protocol::kPimSm, {.observe = {.audit = true}}};
  Auditor& auditor = *session.auditor();
  Time delay = 0.1;
  for (const NodeId r : receivers) {
    session.subscribe(r, delay);
    delay += 1.0;
  }
  session.run_for(200);
  ASSERT_TRUE(session.measure().delivered_exactly_once());

  // Crash the busiest on-tree backbone router that is neither the
  // source's access router nor the RP (their state cannot rebuild).
  const Measurement before = session.measure();
  NodeId src_router = kNoNode;
  for (std::size_t i = 0; i < session.scenario().hosts.size(); ++i) {
    if (session.scenario().hosts[i] == session.scenario().source_host) {
      src_router = session.scenario().routers[i];
    }
  }
  NodeId victim = kNoNode;
  for (const auto& [link, copies] : before.per_link) {
    const auto kind = session.scenario().topo.kind(link.second);
    if (kind == net::NodeKind::kRouter && link.second != src_router &&
        link.second != session.rp()) {
      victim = link.second;
      break;
    }
  }
  ASSERT_TRUE(victim.valid());
  session.crash_router(victim);
  ASSERT_EQ(auditor.total(), 0u);

  // Evidence emissions, then enough virtual time that they age past the
  // starvation horizon, then one more emission to trigger the check.
  for (int i = 0; i < 3; ++i) {
    (void)session.default_channel().inject_data();
    session.run_for(10);
  }
  session.run_for(2 * session.auditor()->config().blackhole_starvation);
  (void)session.default_channel().inject_data();
  session.run_for(50);
  EXPECT_GE(auditor.count(AnomalyKind::kBlackHole), 1u);
  EXPECT_EQ(auditor.count(AnomalyKind::kLoop), 0u);
}

TEST(AuditorTruePositiveTest, ForcedOrphanEntryRaisesSoftStateLeak) {
  // Everyone leaves; long after t1 + t2 + slack a table entry is forcibly
  // re-refreshed (mutable_state is the fault-seeding backdoor). The sweep
  // must flag it: nothing legitimate can be keeping it alive.
  auto scenario = topo::attach_hosts(
      topo::make_line(3), {NodeId{0}, NodeId{1}, NodeId{2}}, 0);
  Session session{scenario, Protocol::kHbh, {.observe = {.audit = true}}};
  Auditor& auditor = *session.auditor();
  session.subscribe(scenario.hosts[1]);
  session.subscribe(scenario.hosts[2]);
  session.run_for(120);
  ASSERT_TRUE(session.measure().delivered_exactly_once());

  session.unsubscribe(scenario.hosts[1]);
  session.unsubscribe(scenario.hosts[2]);
  // t1 + t2 + leak_slack with the default timers = 35 + 70 + 20.
  session.run_for(200);
  session.audit_sweep();
  ASSERT_EQ(auditor.total(), 0u);  // lazily retained dead entries: no leak

  const net::Channel ch = session.default_channel().channel();
  bool forced = false;
  for (const NodeId router : session.scenario().routers) {
    auto& agent =
        static_cast<mcast::hbh::HbhRouter&>(session.network().agent(router));
    if (mcast::hbh::ChannelState* st = agent.mutable_state(ch)) {
      const Time now = session.simulator().now();
      if (st->mct) {
        st->mct->state.refresh(mcast::McastConfig{}, now);
        forced = true;
      } else if (st->mft && !st->mft->raw().empty()) {
        st->mft->raw().begin()->second.refresh(mcast::McastConfig{}, now);
        forced = true;
      }
      if (forced) break;
    }
  }
  ASSERT_TRUE(forced) << "no residual table entry to force";
  session.audit_sweep();
  EXPECT_GE(auditor.count(AnomalyKind::kSoftStateLeak), 1u);
  EXPECT_EQ(auditor.total(), auditor.count(AnomalyKind::kSoftStateLeak));
}

TEST(AuditorTruePositiveTest, NdjsonCarriesTheSeededAnomaly) {
  auto scenario = topo::attach_hosts(
      topo::make_line(3), {NodeId{0}, NodeId{1}, NodeId{2}}, 0);
  Session session{scenario, Protocol::kHbh, {.observe = {.audit = true}}};
  Auditor& auditor = *session.auditor();
  session.subscribe(scenario.hosts[2]);
  session.run_for(120);
  net::Impairment dup;
  dup.duplicate = 1.0;
  session.seed_impairments(9);
  session.impair_link(NodeId{0}, NodeId{1}, dup);
  (void)session.measure();
  ASSERT_GE(auditor.total(), 1u);

  std::string out;
  auditor.append_ndjson(out, "HBH");
  EXPECT_NE(out.find("\"schema\":\"hbh.audit/v1\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"kind\":\"duplicate-delivery\""), std::string::npos);
  EXPECT_NE(out.find("\"protocol\":\"HBH\""), std::string::npos);
  // One complete JSON object per line, newline-terminated.
  EXPECT_EQ(out.back(), '\n');
  EXPECT_EQ(out.find('{'), 0u);
}

}  // namespace
}  // namespace hbh::harness
