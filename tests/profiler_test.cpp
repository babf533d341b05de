// Performance observatory: phase profiler semantics (nesting, merge,
// jobs-invariance, the HBH_NO_TELEMETRY kill switch) and the baseline
// regression checker behind tools/perf_compare.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "harness/experiment.hpp"
#include "metrics/baseline.hpp"
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
  // Steady/CPU clocks are monotonic, and the outer span contains both
  // inner spans.
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

// The contract the perf_profile report section depends on: phase *counts*
// aggregated across the trial pool are identical for any worker count
// (merge order commutes; only wall/CPU timings vary).
TEST(PhaseProfiler, RunAllPhaseCountsAreJobsInvariant) {
  if (!prof::kProfilerCompiled) GTEST_SKIP() << "profiler compiled out";
  harness::ExperimentSpec spec;
  spec.topology = harness::TopoKind::kIsp;
  spec.group_sizes = {4, 8};
  spec.trials = 3;

  auto counts_at = [&](std::size_t jobs) {
    prof::process_profile().reset();
    (void)harness::run_all(spec, jobs);
    std::map<std::string, std::uint64_t> counts;
    for (const auto& [label, phases] : prof::process_profile().snapshot()) {
      for (const auto& [path, stats] : phases) {
        counts[label + ":" + path] = stats.count;
      }
    }
    return counts;
  };
  const auto serial = counts_at(1);
  const auto parallel = counts_at(4);
  prof::process_profile().reset();

  ASSERT_FALSE(serial.empty());
  EXPECT_GT(serial.count("HBH:trial_setup"), 0u);
  EXPECT_GT(serial.count("HBH:warmup/soft_state_refresh/spf"), 0u);
  EXPECT_EQ(serial, parallel);
}

TEST(PerfProfileJson, WritesSchemaAndPhases) {
  prof::PhaseMap phases;
  phases["warmup"] = prof::PhaseStats{.count = 3, .wall_ns = 500, .cpu_ns = 400,
                                      .allocs = 0, .alloc_bytes = 0};
  std::ostringstream out;
  metrics::JsonWriter w{out};
  metrics::write_perf_profile(w, phases);
  const std::string doc = out.str();
  EXPECT_NE(doc.find("hbh.perf_profile/v2"), std::string::npos);
  EXPECT_NE(doc.find("\"warmup\""), std::string::npos);
  EXPECT_NE(doc.find("\"peak_rss_bytes\""), std::string::npos);
  // The artifact must itself be valid JSON.
  metrics::JsonValue parsed;
  std::string error;
  ASSERT_TRUE(metrics::parse_json(doc, parsed, &error)) << error;
  const metrics::JsonValue* count = parsed.find("phases", "warmup", "count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->number, 3.0);
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

TEST(Baseline, FlattenUsesNameMembersForArrayElements) {
  metrics::JsonValue v;
  std::string error;
  ASSERT_TRUE(metrics::parse_json(
      R"({"micro": [{"name": "pump", "items_per_second": 42}],
          "run": {"ok": true}})",
      v, &error))
      << error;
  std::map<std::string, double> flat;
  metrics::flatten_numbers(v, "", flat);
  EXPECT_EQ(flat.at("micro.pump.items_per_second"), 42.0);
  EXPECT_EQ(flat.at("run.ok"), 1.0);  // bools flatten to 0/1
}

metrics::Baseline make_baseline(const std::string& metrics_body) {
  metrics::JsonValue doc;
  std::string error;
  const std::string text = R"({"schema": "hbh.perf_baseline/v1",
                               "bench": "t", "metrics": {)" +
                           metrics_body + "}}";
  EXPECT_TRUE(metrics::parse_json(text, doc, &error)) << error;
  metrics::Baseline b;
  EXPECT_TRUE(metrics::parse_baseline(doc, b, &error)) << error;
  return b;
}

metrics::JsonValue parse_current(const std::string& text) {
  metrics::JsonValue v;
  std::string error;
  EXPECT_TRUE(metrics::parse_json(text, v, &error)) << error;
  return v;
}

TEST(Baseline, RejectsWrongSchema) {
  metrics::JsonValue doc;
  std::string error;
  ASSERT_TRUE(metrics::parse_json(
      R"({"schema": "hbh.run_report/v1", "metrics": {}})", doc, &error));
  metrics::Baseline b;
  EXPECT_FALSE(metrics::parse_baseline(doc, b, &error));
}

TEST(Baseline, HigherDirectionFlagsOnlyDrops) {
  const metrics::Baseline b = make_baseline(
      R"("tput": {"value": 100, "noise": 0.2, "direction": "higher"})");
  auto status = [&](double current, double tolerance = 1.0) {
    const std::string doc = "{\"tput\": " + std::to_string(current) + "}";
    return metrics::compare_to_baseline(b, parse_current(doc), tolerance)
        .metrics.at(0)
        .status;
  };
  EXPECT_EQ(status(95), metrics::MetricStatus::kPass);
  EXPECT_EQ(status(500), metrics::MetricStatus::kPass);  // faster is fine
  EXPECT_EQ(status(79), metrics::MetricStatus::kRegressed);
  // --tolerance scales the allowed spread.
  EXPECT_EQ(status(79, 2.0), metrics::MetricStatus::kPass);
  EXPECT_EQ(status(95, 0.01), metrics::MetricStatus::kRegressed);
}

TEST(Baseline, BandDirectionFlagsBothSides) {
  const metrics::Baseline b = make_baseline(
      R"("pkts": {"value": 1000, "noise": 0.1, "direction": "band"})");
  auto status = [&](double current) {
    const std::string doc = "{\"pkts\": " + std::to_string(current) + "}";
    return metrics::compare_to_baseline(b, parse_current(doc))
        .metrics.at(0)
        .status;
  };
  EXPECT_EQ(status(1000), metrics::MetricStatus::kPass);
  EXPECT_EQ(status(1099), metrics::MetricStatus::kPass);
  EXPECT_EQ(status(1200), metrics::MetricStatus::kRegressed);
  EXPECT_EQ(status(800), metrics::MetricStatus::kRegressed);
}

TEST(Baseline, LowerDirectionFlagsOnlyGrowth) {
  const metrics::Baseline b = make_baseline(
      R"("rss": {"value": 1000, "noise": 0.5, "direction": "lower"})");
  auto status = [&](double current) {
    const std::string doc = "{\"rss\": " + std::to_string(current) + "}";
    return metrics::compare_to_baseline(b, parse_current(doc))
        .metrics.at(0)
        .status;
  };
  EXPECT_EQ(status(10), metrics::MetricStatus::kPass);  // shrinking is fine
  EXPECT_EQ(status(1400), metrics::MetricStatus::kPass);
  EXPECT_EQ(status(1600), metrics::MetricStatus::kRegressed);
}

TEST(Baseline, MissingMetricFailsTheComparison) {
  const metrics::Baseline b = make_baseline(
      R"("gone": {"value": 1, "noise": 0.5, "direction": "band"})");
  const metrics::CompareReport report =
      metrics::compare_to_baseline(b, parse_current(R"({"other": 1})"));
  EXPECT_EQ(report.missing(), 1u);
  EXPECT_FALSE(report.ok());
}

}  // namespace
}  // namespace hbh
