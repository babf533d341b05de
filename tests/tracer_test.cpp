// End-to-end tests for the causal tracer: span ancestry, the convergence
// analyzer against probe ground truth, determinism, capacity bounds, and
// the Perfetto export (docs/OBSERVABILITY.md "Causal tracing").
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness/session.hpp"
#include "metrics/tracer.hpp"
#include "topo/builders.hpp"

namespace hbh {
namespace {

using harness::Protocol;
using harness::Session;
using metrics::SpanKind;
using metrics::SpanRecord;
using metrics::Tracer;

// Line h0-r0-r1-r2-h2 with unit costs: the probe path from the source host
// to the sole receiver host is exactly 4 links, so delay ground truth is 4.
topo::Scenario line_scenario() {
  return topo::attach_hosts(topo::make_line(3),
                            {NodeId{0}, NodeId{1}, NodeId{2}});
}

struct TracedRun {
  explicit TracedRun(Protocol proto)
      : session{line_scenario(), proto, {.observe = {.tracing = true}}} {
    receiver = session.scenario().hosts.back();
  }

  Session session;
  NodeId receiver = kNoNode;
};

TEST(TracerTest, JoinToFirstDeliveryMatchesProbeMeasuredDelay) {
  TracedRun run{Protocol::kHbh};
  auto channel = run.session.default_channel();
  channel.subscribe(run.receiver, 0.1);
  run.session.run_for(120);

  const Time probe_sent_at = run.session.simulator().now();
  const harness::Measurement m = run.session.measure();
  ASSERT_TRUE(m.delivered_exactly_once());
  EXPECT_DOUBLE_EQ(m.mean_delay, 4.0);  // 4 unit links, ground truth

  const metrics::ConvergenceSummary summary =
      metrics::analyze_convergence(run.session.tracer()->spans());
  ASSERT_EQ(summary.grafts.size(), 1u);
  const metrics::GraftTimeline& g = summary.grafts.front();
  // The probe is the first data packet of the run, so the receiver's first
  // delivery is the probe's arrival: subscribe + measured delay line up
  // exactly with the timeline the tracer reconstructed.
  EXPECT_DOUBLE_EQ(g.subscribed_at, 0.1);
  EXPECT_DOUBLE_EQ(g.first_delivery_at, probe_sent_at + m.mean_delay);
  EXPECT_DOUBLE_EQ(g.join_to_first_delivery,
                   probe_sent_at + m.mean_delay - 0.1);
  EXPECT_GT(g.control_messages, 0u);
}

TEST(TracerTest, TransmitSpansDescendFromRootsForEveryProtocol) {
  for (const Protocol proto : harness::all_protocols()) {
    TracedRun run{proto};
    auto channel = run.session.default_channel();
    channel.subscribe(run.receiver, 0.1);
    run.session.run_for(120);
    (void)run.session.measure();

    const std::vector<SpanRecord>& spans = run.session.tracer()->spans();
    std::unordered_map<std::uint64_t, const SpanRecord*> by_id;
    for (const SpanRecord& s : spans) by_id[s.span_id] = &s;

    std::size_t transmits = 0;
    for (const SpanRecord& s : spans) {
      if (s.kind != SpanKind::kTransmit) continue;
      ++transmits;
      // Walk to the root: every hop must resolve, terminate at a recorded
      // root span, and stay within the same trace.
      const SpanRecord* cur = &s;
      while (cur->parent_id != 0) {
        const auto it = by_id.find(cur->parent_id);
        ASSERT_NE(it, by_id.end())
            << to_string(proto) << ": dangling parent of " << s.name;
        EXPECT_EQ(it->second->trace_id, s.trace_id);
        cur = it->second;
      }
      EXPECT_EQ(cur->kind, SpanKind::kRoot)
          << to_string(proto) << ": " << s.name << " not rooted";
    }
    EXPECT_GT(transmits, 0u) << to_string(proto);
  }
}

TEST(TracerTest, ExplicitPruneBeatsSoftStateTimeout) {
  // The asymmetry the convergence ablation quantifies, asserted on the
  // known line: PIM un-grafts by explicit prune (well under one refresh
  // period), HBH waits for the soft-state death timer (t2 = 70 default).
  auto leave_latency = [](Protocol proto) {
    TracedRun run{proto};
    auto channel = run.session.default_channel();
    channel.subscribe(run.receiver, 0.1);
    run.session.run_for(120);
    channel.unsubscribe(run.receiver);
    run.session.run_for(160);
    const metrics::ConvergenceSummary summary =
        metrics::analyze_convergence(run.session.tracer()->spans());
    EXPECT_EQ(summary.leaves.size(), 1u);
    return summary.mean_leave_to_prune();
  };

  const double pim = leave_latency(Protocol::kPimSs);
  EXPECT_GT(pim, 0.0);
  EXPECT_LT(pim, 10.0);

  const double hbh = leave_latency(Protocol::kHbh);
  EXPECT_GE(hbh, 35.0);   // at least t1: state must outlive one miss
  EXPECT_LT(hbh, 160.0);  // and die within the drain we allowed
  EXPECT_GT(hbh, pim);
}

TEST(TracerTest, IdenticalRunsProduceIdenticalSpans) {
  auto spans_of = []() {
    TracedRun run{Protocol::kHbh};
    auto channel = run.session.default_channel();
    channel.subscribe(run.receiver, 0.1);
    run.session.run_for(90);
    (void)run.session.measure();
    return run.session.tracer()->spans();
  };
  const std::vector<SpanRecord> a = spans_of();
  const std::vector<SpanRecord> b = spans_of();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].trace_id, b[i].trace_id) << i;
    EXPECT_EQ(a[i].span_id, b[i].span_id) << i;
    EXPECT_EQ(a[i].parent_id, b[i].parent_id) << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << i;
    EXPECT_EQ(a[i].name, b[i].name) << i;
    EXPECT_EQ(a[i].node, b[i].node) << i;
    EXPECT_EQ(a[i].subject, b[i].subject) << i;
    EXPECT_DOUBLE_EQ(a[i].start, b[i].start) << i;
    EXPECT_DOUBLE_EQ(a[i].end, b[i].end) << i;
  }
}

TEST(TracerTest, PerfettoExportIsSchemaTaggedTraceEventJson) {
  TracedRun run{Protocol::kHbh};
  auto channel = run.session.default_channel();
  channel.subscribe(run.receiver, 0.1);
  run.session.run_for(90);
  (void)run.session.measure();

  const std::string path = ::testing::TempDir() + "tracer_test_trace.json";
  ASSERT_TRUE(metrics::write_perfetto_trace(
      *run.session.tracer(), {{"figure", "tracer_test"}, {"protocol", "HBH"}},
      path));
  std::ifstream in{path};
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string doc = buf.str();
  std::remove(path.c_str());

  for (const char* needle :
       {"hbh.trace/v1", "\"traceEvents\"", "\"displayTimeUnit\"",
        "\"ph\":\"X\"", "\"ph\":\"i\"", "\"thread_name\"", "\"process_name\"",
        "\"subscribe\"", "\"deliver\"", "\"trace\":", "\"parent\":",
        "\"figure\":\"tracer_test\""}) {
    EXPECT_NE(doc.find(needle), std::string::npos) << "missing " << needle;
  }
  EXPECT_EQ(doc.front(), '{');
  EXPECT_EQ(doc.back(), '\n');
}

TEST(TracerTest, CapacityBoundsRecordingButIdsKeepAdvancing) {
  sim::Simulator sim;
  Tracer tracer{sim, 2};
  const net::TraceContext c1 =
      tracer.root("a", NodeId{0}, net::Channel{}, kNoAddr);
  const net::TraceContext c2 =
      tracer.root("b", NodeId{0}, net::Channel{}, kNoAddr);
  const net::TraceContext c3 =
      tracer.root("c", NodeId{0}, net::Channel{}, kNoAddr);
  EXPECT_EQ(tracer.spans().size(), 2u);
  EXPECT_TRUE(tracer.truncated());
  EXPECT_EQ(tracer.dropped(), 1u);
  // Structure stays deterministic past the cap: contexts are still live
  // and ids still advance, only the recording is bounded.
  EXPECT_TRUE(c3.active());
  EXPECT_GT(c3.span_id, c2.span_id);
  EXPECT_GT(c2.span_id, c1.span_id);
  tracer.clear();
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
}

}  // namespace
}  // namespace hbh
