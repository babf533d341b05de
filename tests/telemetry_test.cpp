// Tests for the telemetry subsystem: registry semantics, the JSON writer,
// the state sampler, the fabric stats tap, and the end-to-end run report
// (validated against a strict JSON grammar).
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "harness/experiment.hpp"
#include "harness/session.hpp"
#include "metrics/json.hpp"
#include "metrics/net_stats.hpp"
#include "metrics/registry.hpp"
#include "metrics/report.hpp"
#include "metrics/sampler.hpp"
#include "net/network.hpp"
#include "net/wire.hpp"
#include "routing/unicast.hpp"
#include "sim/simulator.hpp"
#include "topo/builders.hpp"
#include "topo/isp.hpp"
#include "util/rng.hpp"

namespace hbh {
namespace {

using metrics::JsonWriter;
using metrics::Registry;
using metrics::Series;
using metrics::StateSampler;

// Minimal recursive-descent JSON syntax checker — no semantics, just enough
// grammar to prove every report we emit parses under a strict reader.
struct JsonChecker {
  std::string_view s;
  std::size_t i = 0;

  void ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\n' || s[i] == '\t' ||
                            s[i] == '\r')) {
      ++i;
    }
  }
  bool eat(char c) {
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
  bool literal(std::string_view lit) {
    if (s.substr(i, lit.size()) != lit) return false;
    i += lit.size();
    return true;
  }
  bool string() {
    if (!eat('"')) return false;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') {
        ++i;
        if (i >= s.size()) return false;
      }
      ++i;
    }
    return eat('"');
  }
  bool number() {
    const std::size_t start = i;
    if (i < s.size() && s[i] == '-') ++i;
    while (i < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[i])) != 0 ||
            s[i] == '.' || s[i] == 'e' || s[i] == 'E' || s[i] == '+' ||
            s[i] == '-')) {
      ++i;
    }
    return i > start;
  }
  bool value() {
    ws();
    if (i >= s.size()) return false;
    switch (s[i]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }
  bool object() {
    if (!eat('{')) return false;
    ws();
    if (eat('}')) return true;
    while (true) {
      ws();
      if (!string()) return false;
      ws();
      if (!eat(':')) return false;
      if (!value()) return false;
      ws();
      if (eat('}')) return true;
      if (!eat(',')) return false;
    }
  }
  bool array() {
    if (!eat('[')) return false;
    ws();
    if (eat(']')) return true;
    while (true) {
      if (!value()) return false;
      ws();
      if (eat(']')) return true;
      if (!eat(',')) return false;
    }
  }
};

bool json_valid(std::string_view text) {
  JsonChecker p{text};
  if (!p.value()) return false;
  p.ws();
  return p.i == p.s.size();
}

net::Topology::Edge edge(std::uint32_t a, std::uint32_t b) {
  return net::Topology::Edge{NodeId{a}, NodeId{b}, net::LinkSpec{}};
}

net::Packet packet_of(net::PacketType type) {
  net::Packet p;
  p.type = type;
  p.src = Ipv4Addr{10, 0, 0, 1};
  p.dst = Ipv4Addr{10, 0, 1, 1};
  p.channel = net::Channel{Ipv4Addr{10, 0, 0, 1}, GroupAddr::ssm(1)};
  switch (type) {
    case net::PacketType::kJoin:
      p.payload = net::JoinPayload{Ipv4Addr{10, 0, 2, 1}, true, false};
      break;
    case net::PacketType::kData:
      p.payload = net::DataPayload{1, 9, 0, false};
      break;
    default:
      p.payload = net::JoinPayload{Ipv4Addr{10, 0, 2, 1}, true, false};
      break;
  }
  return p;
}

TEST(RegistryTest, CounterAccumulates) {
  Registry reg;
  metrics::Counter& c = reg.counter("x");
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
}

TEST(RegistryTest, SameNameReturnsSameMetric) {
  Registry reg;
  EXPECT_EQ(&reg.counter("x"), &reg.counter("x"));
  EXPECT_EQ(&reg.gauge("g"), &reg.gauge("g"));
  metrics::Histogram& first = reg.histogram("h", {1, 2});
  EXPECT_EQ(&first, &reg.histogram("h", {9}));
  EXPECT_EQ(first.bounds().size(), 2u);  // registration bounds win
  EXPECT_EQ(reg.counters().size(), 1u);
}

TEST(RegistryTest, GaugeSetAddAndBind) {
  Registry reg;
  metrics::Gauge& g = reg.gauge("g");
  g.set(2.5);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  double source = 10;
  reg.bind_gauge("bound", [&source] { return source; });
  EXPECT_DOUBLE_EQ(reg.gauge("bound").value(), 10.0);
  source = 11;
  EXPECT_DOUBLE_EQ(reg.gauge("bound").value(), 11.0);
}

TEST(RegistryTest, HistogramBucketsSumAndOverflow) {
  Registry reg;
  metrics::Histogram& h = reg.histogram("h", {1, 2, 4});
  h.observe(0.5);  // bucket 0 (<= 1)
  h.observe(2);    // bucket 1 (<= 2)
  h.observe(100);  // overflow bucket
  ASSERT_EQ(h.counts().size(), 4u);
  EXPECT_EQ(h.counts()[0], 1u);
  EXPECT_EQ(h.counts()[1], 1u);
  EXPECT_EQ(h.counts()[2], 0u);
  EXPECT_EQ(h.counts()[3], 1u);
  EXPECT_DOUBLE_EQ(h.sum(), 102.5);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.mean(), 102.5 / 3);
}

TEST(RegistryTest, HistogramQuantilesInterpolateWithinBuckets) {
  Registry reg;
  metrics::Histogram& h = reg.histogram("h", {10, 20, 40});
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty histogram
  for (int i = 0; i < 8; ++i) h.observe(5);    // bucket [0, 10]
  for (int i = 0; i < 2; ++i) h.observe(15);   // bucket (10, 20]
  // p50: rank 5 of 10 lands 5/8 into the first bucket -> 10 * 5/8.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 6.25);
  // p90: rank 9 is the first observation past the 8 in bucket 0, half-way
  // through bucket 1's two observations -> 10 + 10 * 1/2.
  EXPECT_DOUBLE_EQ(h.quantile(0.9), 15.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 20.0);  // all mass is <= 20
}

TEST(RegistryTest, HistogramQuantileOverflowClampsToLastBound) {
  Registry reg;
  metrics::Histogram& h = reg.histogram("h", {1, 2});
  h.observe(1000);  // overflow bucket: upper edge unknown
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 2.0);
}

TEST(JsonWriterTest, CompactNestedDocument) {
  std::ostringstream out;
  JsonWriter w{out, 0};
  w.begin_object();
  w.member("a", 1);
  w.key("b");
  w.begin_array();
  w.value(1.5);
  w.value(true);
  w.null();
  w.end_array();
  w.member("s", "he\"llo\n");
  w.end_object();
  EXPECT_TRUE(w.complete());
  EXPECT_EQ(out.str(), R"({"a":1,"b":[1.5,true,null],"s":"he\"llo\n"})");
  EXPECT_TRUE(json_valid(out.str()));
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  std::ostringstream out;
  JsonWriter w{out, 0};
  w.begin_array();
  w.value(std::nan(""));
  w.value(std::numeric_limits<double>::infinity());
  w.end_array();
  EXPECT_EQ(out.str(), "[null,null]");
}

TEST(JsonWriterTest, IndentedOutputStaysValid) {
  std::ostringstream out;
  JsonWriter w{out};
  w.begin_object();
  w.key("nested");
  w.begin_object();
  w.member("k", "v");
  w.end_object();
  w.key("empty");
  w.begin_object();
  w.end_object();
  w.end_object();
  EXPECT_TRUE(w.complete());
  EXPECT_TRUE(json_valid(out.str()));
}

TEST(StateSamplerTest, SamplesBoundGaugesOverVirtualTime) {
  sim::Simulator sim;
  Registry reg;
  double x = 1.0;
  reg.bind_gauge("x", [&x] { return x; });
  StateSampler sampler{sim, reg, 5.0};
  sampler.start();  // immediate t=0 sample, then every 5 time units
  sim.schedule(7.0, [&x] { x = 3.0; });
  sim.run(21.0);
  const Series& s = sampler.series().at("x");
  ASSERT_EQ(s.t.size(), 5u);  // t = 0, 5, 10, 15, 20
  EXPECT_DOUBLE_EQ(s.t[1], 5.0);
  EXPECT_DOUBLE_EQ(s.v[1], 1.0);
  EXPECT_DOUBLE_EQ(s.v[2], 3.0);  // change at t=7 visible from t=10 on
  EXPECT_FALSE(sampler.truncated());
}

TEST(StateSamplerTest, MaxSamplesBoundsMemory) {
  sim::Simulator sim;
  Registry reg;
  reg.bind_gauge("x", [] { return 0.0; });
  StateSampler sampler{sim, reg, 1.0, /*max_samples=*/3};
  sampler.start();
  sim.run(10.5);
  EXPECT_EQ(sampler.sample_count(), 3u);
  EXPECT_TRUE(sampler.truncated());
  EXPECT_EQ(sampler.series().at("x").t.size(), 3u);
}

TEST(NetworkStatsTapTest, CountsPerTypeBytesAndDrops) {
  Registry reg;
  metrics::NetworkStatsTap tap{reg};
  const auto e = edge(0, 1);
  const auto join = packet_of(net::PacketType::kJoin);
  tap.on_transmit(e, join, 1.0);
  tap.on_transmit(e, join, 2.0);
  tap.on_transmit(e, packet_of(net::PacketType::kData), 3.0);
  tap.on_drop(NodeId{1}, join, "no-route", 4.0);
  EXPECT_EQ(reg.counter("net.tx.join").value(), 2u);
  EXPECT_EQ(reg.counter("net.tx_bytes.join").value(),
            2 * net::encoded_size(join));
  EXPECT_EQ(reg.counter("net.tx.data").value(), 1u);
  EXPECT_EQ(reg.counter("net.tx.tree").value(), 0u);
  EXPECT_EQ(reg.counter("net.drops").value(), 1u);
  EXPECT_EQ(reg.counter("net.drops.no-route").value(), 1u);
  EXPECT_EQ(reg.histogram("net.packet_bytes", {}).count(), 3u);
}

/// Raw fabric on a 4-node line with the stats tap attached: every drop the
/// Network makes lands in a per-reason counter with an exactly predictable
/// count (no protocol traffic, no randomness in what is sent).
class DropCounterTest : public ::testing::Test {
 protected:
  DropCounterTest() {
    for (int i = 0; i < 4; ++i) topo_.add_node();
    for (std::uint32_t i = 0; i + 1 < 4; ++i) {
      topo_.add_duplex(NodeId{i}, NodeId{i + 1},
                       net::LinkSpec{.cost = 1, .delay = 2});
    }
    routes_ = std::make_unique<routing::UnicastRouting>(topo_);
    net_ = std::make_unique<net::Network>(sim_, topo_, *routes_);
    tap_ = std::make_unique<metrics::NetworkStatsTap>(reg_);
    net_->add_tap(tap_.get());
  }

  net::Packet data_to(NodeId to) {
    net::Packet p;
    p.src = net_->address_of(NodeId{0});
    p.dst = net_->address_of(to);
    p.type = net::PacketType::kData;
    p.payload = net::DataPayload{};
    return p;
  }

  std::uint64_t drops(const std::string& reason) {
    return reg_.counter("net.drops." + reason).value();
  }

  net::Topology topo_;
  sim::Simulator sim_;
  std::unique_ptr<routing::UnicastRouting> routes_;
  std::unique_ptr<net::Network> net_;
  Registry reg_;
  std::unique_ptr<metrics::NetworkStatsTap> tap_;
};

TEST_F(DropCounterTest, TtlExpiredCountsExactly) {
  // ttl=1 buys exactly one hop: node 1's forward finds ttl 0 and drops.
  net::Packet p = data_to(NodeId{3});
  p.ttl = 1;
  net_->send(NodeId{0}, std::move(p));
  sim_.run();
  EXPECT_EQ(drops("ttl-expired"), 1u);
  EXPECT_EQ(reg_.counter("net.drops").value(), 1u);
  EXPECT_EQ(reg_.counter("net.tx.data").value(), 1u);  // the one hop it got
}

TEST_F(DropCounterTest, SeededLossDropsEveryCopyOnTheImpairedLink) {
  // loss=1.0 makes the seeded plan deterministic outright: every copy
  // entering link 1->2 is dropped as "loss" at node 1, after crossing
  // 0->1 intact.
  net_->impairments().reseed(7);
  net::Impairment lossy;
  lossy.loss = 1.0;
  net_->set_impairment(NodeId{1}, NodeId{2}, lossy);
  for (int i = 0; i < 3; ++i) {
    net_->send(NodeId{0}, data_to(NodeId{3}));
    sim_.run();
  }
  EXPECT_EQ(drops("loss"), 3u);
  EXPECT_EQ(drops("ttl-expired"), 0u);
  EXPECT_EQ(reg_.counter("net.drops").value(), 3u);
  EXPECT_EQ(reg_.counter("net.tx.data").value(), 3u);  // three 0->1 hops
}

TEST_F(DropCounterTest, BlackholeWindowDropsAsLinkDown) {
  // A blackhole window is an impairment the IGP never sees: routing still
  // points through 0->1, so both sends die there as "link-down".
  net::Impairment blackhole;
  blackhole.down_windows = {{0.0, 1000.0}};
  net_->set_impairment(NodeId{0}, NodeId{1}, blackhole);
  net_->send(NodeId{0}, data_to(NodeId{3}));
  net_->send(NodeId{0}, data_to(NodeId{3}));
  sim_.run();
  EXPECT_EQ(drops("link-down"), 2u);
  EXPECT_EQ(reg_.counter("net.drops").value(), 2u);
  EXPECT_EQ(reg_.counter("net.tx.data").value(), 0u);  // nothing got out
}

TEST(NetworkStatsTapTest, QueueAndRedDropsLandInDistinctCounters) {
  // A capacitated link: a 5-burst into a limit-4 queue yields exactly one
  // "queue-full"; a RED link under sustained 2x overload yields "red-early"
  // drops. The two reasons must never share a counter.
  sim::Simulator sim;
  net::Topology topo;
  topo.add_node();
  topo.add_node();
  topo.add_node();
  topo.add_duplex(NodeId{0}, NodeId{1},
                  net::LinkSpec{.cost = 1, .delay = 2, .capacity = 10,
                                .queue_limit = 4});
  topo.add_duplex(NodeId{1}, NodeId{2},
                  net::LinkSpec{.cost = 1, .delay = 1, .capacity = 40,
                                .queue_limit = 32,
                                .aqm = net::AqmPolicy::kRed});
  routing::UnicastRouting routes{topo};
  net::Network net{sim, topo, routes};
  net.seed_aqm(42);
  Registry reg;
  metrics::NetworkStatsTap tap{reg};
  net.add_tap(&tap);

  auto data = [&](NodeId from, NodeId to) {
    net::Packet p;
    p.src = net.address_of(from);
    p.dst = net.address_of(to);
    p.type = net::PacketType::kData;
    p.payload = net::DataPayload{};
    return p;
  };
  for (int i = 0; i < 5; ++i) {
    net.send_direct(NodeId{0}, NodeId{1}, data(NodeId{0}, NodeId{1}));
  }
  for (int i = 0; i < 200; ++i) {
    sim.schedule(0.5 * i, [&] {
      net.send_direct(NodeId{1}, NodeId{2}, data(NodeId{1}, NodeId{2}));
    });
  }
  sim.run();

  EXPECT_EQ(reg.counter("net.drops.queue-full").value(), 1u);
  EXPECT_GT(reg.counter("net.drops.red-early").value(), 0u);
  EXPECT_EQ(reg.counter("net.drops").value(),
            reg.counter("net.drops.queue-full").value() +
                reg.counter("net.drops.red-early").value());

  // Per-link occupancy instruments: high-water gauge reads the peak the
  // Network tracked; the admission counter matches its tally.
  const LinkId ab = *topo.find_link(NodeId{0}, NodeId{1});
  EXPECT_DOUBLE_EQ(reg.gauge("net.queue.hwm.n0-n1").value(),
                   static_cast<double>(net.queue_high_water(ab)));
  EXPECT_EQ(reg.counter("net.queue.admitted.n0-n1").value(),
            net.queue_admitted(ab));
  EXPECT_DOUBLE_EQ(reg.gauge("net.queue.hwm.n0-n1").value(), 4.0);
  EXPECT_GT(reg.gauge("net.queue.hwm.n1-n2").value(), 0.0);
  // Uncongested reverse directions registered nothing (report stays lean).
  EXPECT_TRUE(reg.gauges().find("net.queue.hwm.n1-n0") ==
              reg.gauges().end());
}

/// One small converged ISP run with telemetry on (4 receivers, HBH).
class SessionTelemetryTest : public ::testing::Test {
 protected:
  SessionTelemetryTest() {
    Rng rng{42};
    auto scenario = topo::make_isp();
    topo::randomize_costs(scenario.topo, rng);
    receivers_ = rng.sample(scenario.candidate_receivers(), 4);
    session_ = std::make_unique<harness::Session>(
        std::move(scenario), harness::Protocol::kHbh,
        harness::SessionConfig{.observe = {.telemetry = true}});
    registry_ = session_->registry();
    Time delay = 0.1;
    for (const NodeId r : receivers_) {
      session_->subscribe(r, delay);
      delay += 1.0;
    }
    session_->run_for(300);
  }

  std::vector<NodeId> receivers_;
  std::unique_ptr<harness::Session> session_;
  Registry* registry_ = nullptr;
};

TEST_F(SessionTelemetryTest, GaugesAndTapsTrackTheRun) {
  const harness::Measurement m = session_->measure();
  EXPECT_TRUE(m.delivered_exactly_once());

  Registry& reg = *registry_;
  EXPECT_GT(reg.counter("net.tx.join").value(), 0u);
  EXPECT_GT(reg.counter("net.tx.tree").value(), 0u);
  EXPECT_GT(reg.counter("net.tx.data").value(), 0u);
  EXPECT_GT(reg.counter("net.tx_bytes.tree").value(),
            reg.counter("net.tx.tree").value());  // >1 byte per message

  EXPECT_DOUBLE_EQ(reg.gauge("session.members").value(), 4.0);
  EXPECT_GT(reg.gauge("state.forwarding_entries").value(), 0.0);
  EXPECT_GT(reg.gauge("state.stateful_routers").value(), 0.0);
  EXPECT_GT(reg.gauge("agents.rx.join").value(), 0.0);
  EXPECT_GT(reg.gauge("agents.rx.data").value(), 0.0);
  EXPECT_GT(reg.gauge("agents.timer_fires").value(), 0.0);
  EXPECT_GT(reg.gauge("sim.executed_events").value(), 0.0);

  EXPECT_GT(reg.counter("net.tx_bytes.join").value(),
            reg.counter("net.tx.join").value());
}

TEST_F(SessionTelemetryTest, SamplerRecordsStateSeries) {
  const metrics::StateSampler* sampler = session_->sampler();
  ASSERT_NE(sampler, nullptr);
  EXPECT_GE(sampler->sample_count(), 30u);  // 300 tu at period 10
  const Series& s = sampler->series().at("state.forwarding_entries");
  ASSERT_EQ(s.t.size(), s.v.size());
  EXPECT_DOUBLE_EQ(s.v.front(), 0.0);  // sampled before any join
  EXPECT_GT(s.v.back(), 0.0);         // converged tree holds MFT entries
}

TEST(SessionObserverTest, SpecInstallsExactlyTheNamedObservers) {
  const auto scenario = topo::attach_hosts(
      topo::make_line(3), {NodeId{0}, NodeId{1}, NodeId{2}}, 0);
  const harness::ObserverSpec alone[] = {
      {.telemetry = true}, {.tracing = true}, {.audit = true}};
  for (const harness::ObserverSpec& spec : alone) {
    harness::Session session{scenario, harness::Protocol::kHbh,
                             {.observe = spec}};
    EXPECT_EQ(session.registry() != nullptr, spec.telemetry);
    EXPECT_EQ(session.sampler() != nullptr, spec.telemetry);
    EXPECT_EQ(session.tracer() != nullptr, spec.tracing);
    EXPECT_EQ(session.auditor() != nullptr, spec.audit);
  }

  // HBH_AUDIT folds into every session's spec: strict mode audits a
  // session whose own spec leaves the auditor off.
  setenv("HBH_AUDIT", "strict", 1);
  const harness::Session audited{scenario, harness::Protocol::kHbh,
                                 {.observe = {.telemetry = true}}};
  unsetenv("HBH_AUDIT");
  ASSERT_NE(audited.auditor(), nullptr);
  EXPECT_TRUE(audited.auditor()->config().strict);
  EXPECT_EQ(audited.tracer(), nullptr);
}

TEST_F(SessionTelemetryTest, RunReportIsSchemaValidJson) {
  metrics::RunReport report;
  report.info["protocol"] = "HBH";
  report.numbers["group_size"] = 4;
  report.registry = registry_;
  report.sampler = session_->sampler();
  std::ostringstream out;
  report.write(out);
  const std::string doc = out.str();
  EXPECT_TRUE(json_valid(doc)) << doc.substr(0, 400);
  for (const char* key :
       {"\"schema\"", "\"hbh.run_report/v3\"", "\"counters\"", "\"gauges\"",
        "\"net.tx_bytes.join\"", "\"series\"", "\"sample_period\""}) {
    EXPECT_NE(doc.find(key), std::string::npos) << key;
  }
}

TEST(RunReportTest, ExperimentReportEndToEnd) {
  harness::ExperimentSpec spec;
  spec.topology = harness::TopoKind::kIsp;
  spec.group_sizes = {4};
  spec.trials = 1;
  harness::ObservedCell cell;
  const auto results = harness::run_all(spec, 0, &cell);
  harness::ArtifactPaths paths;
  paths.report = testing::TempDir() + "hbh_report_test.json";
  const std::string& path = paths.report;
  ASSERT_TRUE(harness::write_artifacts(paths, spec, results, "test", cell));

  std::ifstream in{path};
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string doc = buffer.str();
  EXPECT_TRUE(json_valid(doc));
  for (const char* key :
       {"\"hbh.run_report/v3\"", "\"sweep\"", "\"runs\"", "\"HBH\"",
        "\"PIM-SM\"", "\"series\"", "\"state.forwarding_entries\"",
        "\"net.tx_bytes.tree\"", "\"wall_seconds\""}) {
    EXPECT_NE(doc.find(key), std::string::npos) << key;
  }
  EXPECT_EQ(doc.find("\"messages"), std::string::npos);
  std::remove(path.c_str());
}

TEST(RunReportTest, EnvVarOptIn) {
  harness::ExperimentSpec spec;
  spec.topology = harness::TopoKind::kIsp;
  spec.group_sizes = {2};
  spec.trials = 1;
  const std::vector<harness::SweepResult> results{
      {harness::Protocol::kHbh, {}}};

  unsetenv("HBH_REPORT");
  EXPECT_TRUE(harness::ArtifactPaths::from_env().report.empty());
  EXPECT_FALSE(harness::ArtifactPaths::from_env().need_cell());

  const std::string path = testing::TempDir() + "hbh_report_env_test.json";
  setenv("HBH_REPORT", path.c_str(), 1);
  const harness::ArtifactPaths paths = harness::ArtifactPaths::from_env();
  unsetenv("HBH_REPORT");
  EXPECT_EQ(paths.report, path);
  EXPECT_TRUE(paths.need_cell());
  harness::ObservedCell cell;
  (void)harness::run_all(spec, 1, &cell);
  EXPECT_TRUE(harness::write_artifacts(paths, spec, results, "env", cell));
  std::ifstream in{path};
  EXPECT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_TRUE(json_valid(buffer.str()));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hbh
