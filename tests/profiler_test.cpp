// Performance observatory: phase profiler semantics (nesting, merge,
// jobs-invariance, the HBH_NO_TELEMETRY kill switch) and the JSON parser
// behind tools/report_scrub.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "metrics/json.hpp"
#include "metrics/json_parse.hpp"
#include "metrics/profiler.hpp"
#include "util/profiler.hpp"

namespace hbh {
namespace {

TEST(PhaseProfiler, NestedScopesRecordSlashJoinedPaths) {
  prof::PhaseProfiler profiler;
  {
    const prof::ScopedProfiler install{profiler};
    prof::PhaseScope outer{"outer"};
    { prof::PhaseScope inner{"inner"}; }
    { prof::PhaseScope inner{"inner"}; }
  }
  if (!prof::kProfilerCompiled) {
    // Kill switch: with -DHBH_NO_TELEMETRY=ON even direct PhaseScope use
    // must record nothing.
    EXPECT_TRUE(profiler.phases().empty());
    return;
  }
  ASSERT_EQ(profiler.phases().size(), 2u);
  const prof::PhaseStats& outer = profiler.phases().at("outer");
  const prof::PhaseStats& inner = profiler.phases().at("outer/inner");
  EXPECT_EQ(outer.count, 1u);
  EXPECT_EQ(inner.count, 2u);
  // steady_clock is monotonic, and the outer span contains both inner
  // spans.
  EXPECT_GE(outer.wall_ns, inner.wall_ns);
}

TEST(PhaseProfiler, ScopedProfilerRestoresPreviousSink) {
  if (!prof::kProfilerCompiled) GTEST_SKIP() << "profiler compiled out";
  prof::PhaseProfiler a;
  prof::PhaseProfiler b;
  {
    const prof::ScopedProfiler install_a{a};
    { prof::PhaseScope s{"into_a"}; }
    {
      const prof::ScopedProfiler install_b{b};
      { prof::PhaseScope s{"into_b"}; }
    }
    // b uninstalled again: this must land in a.
    { prof::PhaseScope s{"into_a"}; }
  }
  EXPECT_EQ(a.phases().at("into_a").count, 2u);
  EXPECT_EQ(a.phases().count("into_b"), 0u);
  EXPECT_EQ(b.phases().at("into_b").count, 1u);
}

TEST(PhaseProfiler, ScopeWithoutInstalledProfilerIsANoOp) {
  prof::PhaseScope s{"nowhere"};  // must not crash or leak state
  SUCCEED();
}

TEST(PhaseAggregator, MergeAddsCountsPerLabel) {
  if (!prof::kProfilerCompiled) GTEST_SKIP() << "profiler compiled out";
  prof::PhaseAggregator agg;
  prof::PhaseProfiler p1;
  prof::PhaseProfiler p2;
  {
    const prof::ScopedProfiler install{p1};
    { prof::PhaseScope s{"work"}; }
  }
  {
    const prof::ScopedProfiler install{p2};
    { prof::PhaseScope s{"work"}; }
    { prof::PhaseScope s{"extra"}; }
  }
  agg.merge("HBH", p1);
  agg.merge("HBH", p2);
  agg.merge("PIM-SM", p1);
  const prof::PhaseMap hbh = agg.snapshot("HBH");
  EXPECT_EQ(hbh.at("work").count, 2u);
  EXPECT_EQ(hbh.at("extra").count, 1u);
  EXPECT_EQ(agg.snapshot("PIM-SM").at("work").count, 1u);
  EXPECT_TRUE(agg.snapshot("no-such-label").empty());
  agg.reset();
  EXPECT_TRUE(agg.snapshot("HBH").empty());
}

namespace {

/// Every (protocol label, phase path) count one run_all of `spec` adds to
/// the process-wide profile.
std::map<std::string, std::uint64_t> run_all_phase_counts(
    const harness::ExperimentSpec& spec, std::size_t jobs) {
  prof::process_profile().reset();
  (void)harness::run_all(spec, jobs);
  std::map<std::string, std::uint64_t> counts;
  for (const auto& [label, phases] : prof::process_profile().snapshot()) {
    for (const auto& [path, stats] : phases) {
      counts[label + ":" + path] = stats.count;
    }
  }
  prof::process_profile().reset();
  return counts;
}

}  // namespace

// The contract the perf_profile report section depends on: phase *counts*
// aggregated across the trial pool are identical for any worker count
// (merge order commutes; only wall/CPU timings vary).
TEST(PhaseProfiler, RunAllPhaseCountsAreJobsInvariant) {
  if (!prof::kProfilerCompiled) GTEST_SKIP() << "profiler compiled out";
  harness::ExperimentSpec spec;
  spec.topology = harness::TopoKind::kIsp;
  spec.group_sizes = {4, 8};
  spec.trials = 3;

  const auto serial = run_all_phase_counts(spec, 1);
  const auto parallel = run_all_phase_counts(spec, 4);

  ASSERT_FALSE(serial.empty());
  EXPECT_GT(serial.count("HBH:trial_setup"), 0u);
  EXPECT_GT(serial.count("HBH:warmup/soft_state_refresh/spf"), 0u);
  EXPECT_EQ(serial, parallel);
}

// The same contract on the random-50 topology, where a cell's four
// protocols share one SPF table: which protocol builds a tree depends only
// on the fixed in-cell order, never on which worker ran the cell.
TEST(PhaseProfiler, RunAllPhaseCountsAreJobsInvariantOnRandom50) {
  if (!prof::kProfilerCompiled) GTEST_SKIP() << "profiler compiled out";
  harness::ExperimentSpec spec;
  spec.topology = harness::TopoKind::kRandom50;
  spec.group_sizes = {5, 15};
  spec.trials = 3;

  const auto serial = run_all_phase_counts(spec, 1);
  const auto parallel = run_all_phase_counts(spec, 4);

  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial.at("HBH:trial_setup"), 6u);
  EXPECT_EQ(serial.at("PIM-SM:trial_setup"), 6u);
  EXPECT_GT(serial.count("HBH:warmup/soft_state_refresh/spf"), 0u);
  EXPECT_EQ(serial, parallel);
}

TEST(PerfProfileJson, WritesSchemaAndPhases) {
  prof::PhaseMap phases;
  phases["warmup"] = prof::PhaseStats{.count = 3, .wall_ns = 500,
                                      .allocs = 7, .alloc_bytes = 96};
  std::ostringstream out;
  metrics::JsonWriter w{out};
  metrics::write_perf_profile(w, phases);
  const std::string doc = out.str();
  EXPECT_NE(doc.find("\"warmup\""), std::string::npos);
  EXPECT_NE(doc.find("\"peak_rss_bytes\""), std::string::npos);
  // The artifact must itself be valid JSON.
  metrics::JsonValue parsed;
  std::string error;
  ASSERT_TRUE(metrics::parse_json(doc, parsed, &error)) << error;
  const metrics::JsonValue* schema = parsed.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->string, "hbh.perf_profile/v3");
  // v3 layout: a phase object carries exactly these members, in this order.
  const metrics::JsonValue* warmup = parsed.find("phases", "warmup");
  ASSERT_NE(warmup, nullptr);
  ASSERT_TRUE(warmup->is_object());
  const std::vector<std::pair<std::string, double>> expected = {
      {"count", 3.0}, {"wall_ns", 500.0}, {"allocs", 7.0},
      {"alloc_bytes", 96.0}};
  std::vector<std::pair<std::string, double>> members;
  for (const auto& [key, value] : warmup->object) {
    ASSERT_TRUE(value.is_number()) << key;
    members.emplace_back(key, value.number);
  }
  EXPECT_EQ(members, expected);
}

TEST(JsonParse, ParsesNestedDocumentsAndEscapes) {
  metrics::JsonValue v;
  std::string error;
  ASSERT_TRUE(metrics::parse_json(
      R"({"a": [1, 2.5, -3e2], "s": "q\"\nA", "b": true, "n": null})", v,
      &error))
      << error;
  const metrics::JsonValue* arr = v.find("a");
  ASSERT_NE(arr, nullptr);
  ASSERT_TRUE(arr->is_array());
  EXPECT_EQ(arr->array.size(), 3u);
  EXPECT_EQ(arr->array[1].number, 2.5);
  EXPECT_EQ(v.find("s")->string, "q\"\nA");
  EXPECT_TRUE(v.find("b")->boolean);
  EXPECT_EQ(v.find("n")->kind, metrics::JsonValue::Kind::kNull);
}

TEST(JsonParse, RejectsMalformedInput) {
  metrics::JsonValue v;
  std::string error;
  EXPECT_FALSE(metrics::parse_json("{\"a\": }", v, &error));
  EXPECT_FALSE(metrics::parse_json("[1, 2", v, &error));
  EXPECT_FALSE(metrics::parse_json("{} trailing", v, &error));
  EXPECT_FALSE(metrics::parse_json("", v, &error));
}

}  // namespace
}  // namespace hbh
