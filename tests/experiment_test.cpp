// Tests for the experiment harness: trial pairing, sweep aggregation,
// table/CSV formatting, and the session plumbing they rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "harness/experiment.hpp"
#include "metrics/json_parse.hpp"
#include "topo/isp.hpp"

namespace hbh::harness {
namespace {

ExperimentSpec tiny_spec() {
  ExperimentSpec spec;
  spec.topology = TopoKind::kIsp;
  spec.group_sizes = {3};
  spec.trials = 3;
  return spec;
}

TEST(ExperimentTest, ProtocolNames) {
  EXPECT_EQ(to_string(Protocol::kHbh), "HBH");
  EXPECT_EQ(to_string(Protocol::kReunite), "REUNITE");
  EXPECT_EQ(to_string(Protocol::kPimSm), "PIM-SM");
  EXPECT_EQ(to_string(Protocol::kPimSs), "PIM-SS");
  EXPECT_EQ(all_protocols().size(), 4u);
}

TEST(ExperimentTest, GroupSizeAxesMatchFigures) {
  EXPECT_EQ(isp_group_sizes().front(), 2u);
  EXPECT_EQ(isp_group_sizes().back(), 16u);
  EXPECT_EQ(random50_group_sizes().front(), 5u);
  EXPECT_EQ(random50_group_sizes().back(), 45u);
}

TEST(ExperimentTest, TrialIsSeedDeterministic) {
  const ExperimentSpec spec = tiny_spec();
  const TrialResult a = run_trial(spec, Protocol::kHbh, 3, 0);
  const TrialResult b = run_trial(spec, Protocol::kHbh, 3, 0);
  EXPECT_DOUBLE_EQ(a.tree_cost, b.tree_cost);
  EXPECT_DOUBLE_EQ(a.mean_delay, b.mean_delay);
}

TEST(ExperimentTest, DifferentTrialsDiffer) {
  const ExperimentSpec spec = tiny_spec();
  const TrialResult a = run_trial(spec, Protocol::kHbh, 3, 0);
  const TrialResult b = run_trial(spec, Protocol::kHbh, 3, 1);
  // Different cost draws and receiver sets: at least one metric differs
  // (they could coincide by chance; both matching exactly is unlikely).
  EXPECT_TRUE(a.tree_cost != b.tree_cost || a.mean_delay != b.mean_delay);
}

TEST(ExperimentTest, HbhDeliversInAllTinyTrials) {
  const ExperimentSpec spec = tiny_spec();
  for (std::size_t t = 0; t < spec.trials; ++t) {
    const TrialResult r = run_trial(spec, Protocol::kHbh, 3, t);
    EXPECT_TRUE(r.delivered) << "trial " << t;
    EXPECT_GT(r.tree_cost, 0);
    EXPECT_GT(r.mean_delay, 0);
  }
}

TEST(ExperimentTest, SweepAggregatesTrials) {
  const ExperimentSpec spec = tiny_spec();
  const auto results = run_all(spec);
  ASSERT_EQ(results.size(), all_protocols().size());
  const SweepResult& sweep = results[1];
  ASSERT_EQ(sweep.protocol, Protocol::kPimSs);
  ASSERT_EQ(sweep.cells.size(), 1u);
  EXPECT_EQ(sweep.cells[0].group_size, 3u);
  EXPECT_EQ(sweep.cells[0].tree_cost.count(), 3u);
  EXPECT_EQ(sweep.cells[0].mean_delay.count(), 3u);
  EXPECT_EQ(sweep.cells[0].delivery_failures, 0u);
}

TEST(ExperimentTest, ParallelRunAllIsBitIdenticalToSerial) {
  // The determinism-under-parallelism contract (docs/PERFORMANCE.md):
  // results land in pre-sized grid slots and aggregate in grid order, so
  // every rendered artifact is byte-identical for any job count.
  ExperimentSpec spec = tiny_spec();
  spec.group_sizes = {2, 4};
  const auto serial = run_all(spec, /*jobs=*/1);
  const auto parallel = run_all(spec, /*jobs=*/4);
  EXPECT_EQ(format_table(serial, "cost", /*with_ci=*/true),
            format_table(parallel, "cost", /*with_ci=*/true));
  EXPECT_EQ(format_table(serial, "delay", /*with_ci=*/true),
            format_table(parallel, "delay", /*with_ci=*/true));
  EXPECT_EQ(format_csv(serial), format_csv(parallel));
}

/// Per-trial results keyed by (protocol, group size, trial index).
using TrialGrid =
    std::map<std::tuple<Protocol, std::size_t, std::size_t>, TrialResult>;

void expect_same_trials(const TrialGrid& got, const TrialGrid& want) {
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [key, w] : want) {
    const TrialResult& g = got.at(key);
    EXPECT_EQ(g.tree_cost, w.tree_cost) << to_string(std::get<0>(key));
    EXPECT_EQ(g.mean_delay, w.mean_delay) << to_string(std::get<0>(key));
    EXPECT_EQ(g.delivered, w.delivered) << to_string(std::get<0>(key));
  }
}

/// Folds `grid` in run_all's aggregation order and checks every cell of
/// `sweeps` matches it bit for bit.
void expect_matches_run_all(const std::vector<SweepResult>& sweeps,
                            const ExperimentSpec& spec, const TrialGrid& grid) {
  for (const SweepResult& sweep : sweeps) {
    ASSERT_EQ(sweep.cells.size(), spec.group_sizes.size());
    for (const SweepCell& cell : sweep.cells) {
      RunningStats cost;
      RunningStats delay;
      std::size_t failures = 0;
      for (std::size_t t = 0; t < spec.trials; ++t) {
        const TrialResult& r = grid.at({sweep.protocol, cell.group_size, t});
        cost.add(r.tree_cost);
        delay.add(r.mean_delay);
        if (!r.delivered) ++failures;
      }
      EXPECT_EQ(cell.tree_cost.mean(), cost.mean());
      EXPECT_EQ(cell.tree_cost.variance(), cost.variance());
      EXPECT_EQ(cell.mean_delay.mean(), delay.mean());
      EXPECT_EQ(cell.mean_delay.variance(), delay.variance());
      EXPECT_EQ(cell.delivery_failures, failures);
    }
  }
}

TEST(ExperimentTest, RunTrialCellReuseNeverChangesResults) {
  // run_trial reuses the SPF table of the last paired cell it ran on this
  // thread. Whether a call hits or misses that memo must not show in any
  // result, and all of them must equal run_all.
  ExperimentSpec spec;
  spec.topology = TopoKind::kRandom50;
  spec.group_sizes = {5, 10};
  spec.trials = 2;
  const auto& protocols = all_protocols();

  // Protocol-major: consecutive calls name different cells, so every call
  // builds its cell afresh.
  TrialGrid misses;
  for (const Protocol p : protocols) {
    for (const std::size_t g : spec.group_sizes) {
      for (std::size_t t = 0; t < spec.trials; ++t) {
        misses[{p, g, t}] = run_trial(spec, p, g, t);
      }
    }
  }

  // Cell-major with the first protocol rotating, each trial run twice in a
  // row: the later calls of a cell reuse it, the repeats on a table that
  // already holds every tree the protocol needs.
  TrialGrid hits;
  std::size_t rotate = 0;
  for (const std::size_t g : spec.group_sizes) {
    for (std::size_t t = 0; t < spec.trials; ++t, ++rotate) {
      for (std::size_t j = 0; j < protocols.size(); ++j) {
        const Protocol p = protocols[(rotate + j) % protocols.size()];
        const TrialResult first = run_trial(spec, p, g, t);
        const TrialResult again = run_trial(spec, p, g, t);
        EXPECT_EQ(again.tree_cost, first.tree_cost);
        EXPECT_EQ(again.mean_delay, first.mean_delay);
        EXPECT_EQ(again.delivered, first.delivered);
        hits[{p, g, t}] = first;
      }
    }
  }
  expect_same_trials(hits, misses);

  // Cells interleaved: every call alternates between two cells.
  TrialGrid interleaved;
  for (const Protocol p : protocols) {
    for (std::size_t t = 0; t < spec.trials; ++t) {
      for (const std::size_t g : spec.group_sizes) {
        interleaved[{p, g, t}] = run_trial(spec, p, g, t);
      }
    }
  }
  expect_same_trials(interleaved, misses);
  expect_matches_run_all(run_all(spec, 1), spec, misses);
  expect_matches_run_all(run_all(spec, 2), spec, misses);

  // Same indices, symmetrized costs: each call follows the asymmetric run
  // of the same (group size, trial), so a memo that ignored
  // symmetric_costs would hand back the wrong cell.
  ExperimentSpec symmetric = spec;
  symmetric.symmetric_costs = true;
  TrialGrid sym;
  bool any_differs = false;
  for (const std::size_t g : spec.group_sizes) {
    for (std::size_t t = 0; t < spec.trials; ++t) {
      for (const Protocol p : protocols) {
        (void)run_trial(spec, p, g, t);
        const TrialResult r = run_trial(symmetric, p, g, t);
        const TrialResult& asym = misses.at({p, g, t});
        any_differs = any_differs || r.tree_cost != asym.tree_cost ||
                      r.mean_delay != asym.mean_delay;
        sym[{p, g, t}] = r;
      }
    }
  }
  EXPECT_TRUE(any_differs);
  expect_matches_run_all(run_all(symmetric, 1), symmetric, sym);
}

std::string read_file(const std::string& path) {
  std::ifstream in{path};
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// JSON equality, skipping the members that hold wall-clock timings
/// (tools/report_scrub drops these too) and the phase profile, which
/// aggregates every run in the process rather than one sweep.
bool same_report(const metrics::JsonValue& a, const metrics::JsonValue& b) {
  using Kind = metrics::JsonValue::Kind;
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case Kind::kNull:
      return true;
    case Kind::kBool:
      return a.boolean == b.boolean;
    case Kind::kNumber:
      return a.number == b.number;
    case Kind::kString:
      return a.string == b.string;
    case Kind::kArray:
      return std::equal(a.array.begin(), a.array.end(), b.array.begin(),
                        b.array.end(), same_report);
    case Kind::kObject:
      break;
  }
  const auto skipped = [](const std::string& key) {
    return key == "wall_seconds" || key == "audit_wall_seconds" ||
           key == "perf_profile";
  };
  std::vector<const std::pair<std::string, metrics::JsonValue>*> x;
  std::vector<const std::pair<std::string, metrics::JsonValue>*> y;
  for (const auto& m : a.object) if (!skipped(m.first)) x.push_back(&m);
  for (const auto& m : b.object) if (!skipped(m.first)) y.push_back(&m);
  return std::equal(x.begin(), x.end(), y.begin(), y.end(),
                    [](const auto* l, const auto* r) {
                      return l->first == r->first &&
                             same_report(l->second, r->second);
                    });
}

TEST(ExperimentTest, ObservedCellIsTheSweepsOwnCell) {
  // Observing a cell must not change what the sweep computes, at any job
  // count, and the observed sessions are the sweep's own trials of the
  // largest group size, trial 0.
  ExperimentSpec spec = tiny_spec();
  spec.group_sizes = {2, 4};
  spec.trials = 2;
  for (const std::size_t jobs : {1u, 2u}) {
    const auto plain = run_all(spec, jobs);
    ObservedCell cell;
    const auto observed = run_all(spec, jobs, &cell);
    EXPECT_EQ(format_table(observed, "cost", /*with_ci=*/true),
              format_table(plain, "cost", /*with_ci=*/true));
    EXPECT_EQ(format_table(observed, "delay", /*with_ci=*/true),
              format_table(plain, "delay", /*with_ci=*/true));
    EXPECT_EQ(format_csv(observed), format_csv(plain));

    EXPECT_EQ(cell.group_size, 4u);
    ASSERT_EQ(cell.runs.size(), all_protocols().size());
    for (std::size_t p = 0; p < cell.runs.size(); ++p) {
      const ObservedRun& run = cell.runs[p];
      EXPECT_EQ(run.protocol, all_protocols()[p]);
      ASSERT_NE(run.session, nullptr);
      EXPECT_NE(run.session->registry(), nullptr);
      EXPECT_NE(run.session->tracer(), nullptr);
      EXPECT_NE(run.session->auditor(), nullptr);
      EXPECT_FALSE(run.abort);
      const TrialResult trial = run_trial(spec, run.protocol, 4, 0);
      ASSERT_TRUE(run.measurement);
      EXPECT_EQ(static_cast<double>(run.measurement->tree_cost),
                trial.tree_cost);
      EXPECT_EQ(run.measurement->mean_delay, trial.mean_delay);
      EXPECT_EQ(run.measurement->delivered_exactly_once(), trial.delivered);
    }
  }
}

TEST(ExperimentTest, ObservedCellArtifactsAreJobsInvariant) {
  ExperimentSpec spec = tiny_spec();
  spec.group_sizes = {2, 4};
  spec.trials = 2;
  ArtifactPaths at[2];
  const std::size_t jobs[2] = {1, 2};
  for (std::size_t i = 0; i < 2; ++i) {
    const std::string stem =
        testing::TempDir() + "observed_jobs" + std::to_string(jobs[i]);
    at[i].report = stem + ".report.json";
    at[i].trace = stem + ".trace.json";
    at[i].audit = stem + ".audit.ndjson";
    ObservedCell cell;
    const auto results = run_all(spec, jobs[i], &cell);
    ASSERT_TRUE(write_artifacts(at[i], spec, results, "test", cell));
  }
  const std::string trace = read_file(at[0].trace);
  EXPECT_NE(trace.find("hbh.trace/v1"), std::string::npos);
  EXPECT_EQ(trace, read_file(at[1].trace));
  EXPECT_EQ(read_file(at[0].audit), read_file(at[1].audit));

  metrics::JsonValue report[2];
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(metrics::parse_json_file(at[i].report, report[i]));
  }
  ASSERT_NE(report[0].find("runs", "HBH", "counters", "net.tx_bytes.tree"),
            nullptr);
  EXPECT_TRUE(same_report(report[0], report[1]));
  for (const ArtifactPaths& p : at) {
    std::remove(p.report.c_str());
    std::remove(p.trace.c_str());
    std::remove(p.audit.c_str());
  }
}

/// Every receiver access link duplicates what it carries, so each probe
/// copy reaches its host twice — a duplicate delivery for every protocol
/// that promises at-most-once (all but REUNITE).
void duplicate_access_links(Session& session) {
  const topo::Scenario& scenario = session.scenario();
  net::Impairment dup;
  dup.duplicate = 1.0;
  session.seed_impairments(9);
  for (std::size_t i = 0; i < scenario.hosts.size(); ++i) {
    if (scenario.hosts[i] == scenario.source_host) continue;
    session.impair_link(scenario.routers[i], scenario.hosts[i], dup);
  }
}

/// The figure trial on a fabric whose access links duplicate (above).
TrialResult duplicating_trial(Session& session, TrialContext& trial) {
  duplicate_access_links(session);
  return figure_trial(session, trial);
}

TEST(ExperimentTest, ObservedAuditStreamCarriesSeededViolations) {
  const ExperimentSpec spec = tiny_spec();
  ArtifactPaths paths;
  paths.audit = testing::TempDir() + "observed_audit.ndjson";
  ObservedCell recorded_cell;
  (void)run_grid(spec, duplicating_trial, 1, &recorded_cell);
  ASSERT_TRUE(write_artifacts(paths, spec, {}, "test", recorded_cell));
  const std::string recorded = read_file(paths.audit);
  EXPECT_NE(recorded.find("\"kind\":\"duplicate-delivery\""),
            std::string::npos)
      << recorded;

  // HBH_AUDIT=strict aborts each run on its first violation. The stream
  // is written before the abort is rethrown, and carries each run's first
  // recorded event. Only the observed cell holds its abort; the grid's
  // other trials must not run strict, so the grid is that cell alone.
  ExperimentSpec one_cell = spec;
  one_cell.trials = 1;
  setenv("HBH_AUDIT", "strict", 1);
  ObservedCell strict;
  (void)run_grid(one_cell, duplicating_trial, 1, &strict);
  unsetenv("HBH_AUDIT");
  EXPECT_THROW((void)write_artifacts(paths, spec, {}, "test", strict),
               std::runtime_error);
  const std::string aborted = read_file(paths.audit);
  ASSERT_FALSE(aborted.empty());
  std::istringstream lines{aborted};
  for (std::string line; std::getline(lines, line);) {
    EXPECT_NE(recorded.find(line + "\n"), std::string::npos) << line;
  }
  std::remove(paths.audit.c_str());
}

/// A body besides the figure trial: joins, then quiescence, then the
/// state census — a trial whose result is not a TrialResult.
struct CensusRow {
  Time settle = 0;
  StateCensus census;
  std::size_t receivers = 0;
  std::uint64_t draw = 0;  ///< the cell stream's next value

  friend bool operator==(const CensusRow& a, const CensusRow& b) {
    return a.settle == b.settle && a.receivers == b.receivers &&
           a.draw == b.draw &&
           a.census.control_entries == b.census.control_entries &&
           a.census.forwarding_entries == b.census.forwarding_entries &&
           a.census.routers_with_state == b.census.routers_with_state;
  }
};

CensusRow census_trial(Session& session, TrialContext& trial) {
  for (const NodeId r : trial.receivers) session.subscribe(r);
  CensusRow row;
  row.settle = run_to_quiescence(session);
  row.census = session.state_census();
  row.receivers = trial.receivers.size();
  row.draw = trial.rng.next();
  return row;
}

TEST(ExperimentTest, CustomBodyRowsAreJobsInvariant) {
  ExperimentSpec spec = tiny_spec();
  spec.group_sizes = {2, 4};
  spec.trials = 2;
  const auto serial = run_grid(spec, census_trial, 1);
  const auto parallel = run_grid(spec, census_trial, 2);
  ASSERT_EQ(serial.size(), all_protocols().size() * 2 * 2);
  EXPECT_TRUE(serial == parallel);
  // Grid order: protocol, then group size, then trial.
  EXPECT_EQ(serial[0].receivers, 2u);
  EXPECT_EQ(serial[2].receivers, 4u);
  // Paired trials: every protocol sees the same cell stream.
  for (std::size_t p = 1; p < all_protocols().size(); ++p) {
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(serial[p * 4 + i].draw, serial[i].draw);
    }
  }
}

TEST(ExperimentTest, CustomBodyObservedRowIsTheGridsOwnRow) {
  // The observed cell (last group size, trial 0) runs instrumented in the
  // grid; its rows equal the unobserved grid's at any job count.
  ExperimentSpec spec = tiny_spec();
  spec.group_sizes = {2, 4};
  spec.trials = 2;
  const auto plain = run_grid(spec, census_trial, 1);
  for (const std::size_t jobs : {1u, 2u}) {
    ObservedCell cell;
    const auto observed = run_grid(spec, census_trial, jobs, &cell);
    EXPECT_TRUE(observed == plain);
    EXPECT_EQ(cell.group_size, 4u);
    ASSERT_EQ(cell.runs.size(), all_protocols().size());
    for (std::size_t p = 0; p < cell.runs.size(); ++p) {
      const ObservedRun& run = cell.runs[p];
      EXPECT_EQ(run.protocol, all_protocols()[p]);
      ASSERT_NE(run.session, nullptr);
      EXPECT_NE(run.session->tracer(), nullptr);
      EXPECT_FALSE(run.abort);
      // No probe: only figure_trial takes one.
      EXPECT_FALSE(run.measurement);
      const StateCensus census = run.session->state_census();
      const CensusRow& row = plain[p * 4 + 2];  // size 4, trial 0
      EXPECT_EQ(census.control_entries, row.census.control_entries);
      EXPECT_EQ(census.forwarding_entries, row.census.forwarding_entries);
    }
  }
}

TEST(ExperimentTest, TableFormatContainsAllProtocolsAndSizes) {
  ExperimentSpec spec = tiny_spec();
  spec.trials = 1;
  const auto results = run_all(spec);
  const std::string table = format_table(results, "cost");
  EXPECT_NE(table.find("HBH"), std::string::npos);
  EXPECT_NE(table.find("REUNITE"), std::string::npos);
  EXPECT_NE(table.find("PIM-SM"), std::string::npos);
  EXPECT_NE(table.find("PIM-SS"), std::string::npos);
  EXPECT_NE(table.find("receivers"), std::string::npos);
  EXPECT_NE(table.find('3'), std::string::npos);
}

TEST(ExperimentTest, CsvFormatIsParseable) {
  ExperimentSpec spec = tiny_spec();
  spec.trials = 1;
  const auto results = run_all(spec);
  const std::string csv = format_csv(results);
  EXPECT_NE(csv.find("group_size,protocol,metric,mean,ci95,trials"),
            std::string::npos);
  // 4 protocols x 1 size x 2 metrics = 8 data lines + header.
  std::size_t lines = 0;
  for (const char c : csv) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 9u);
}

TEST(ExperimentTest, SymmetricAblationChangesCosts) {
  // With symmetrized costs the asymmetric pathologies vanish; HBH and
  // PIM-SS tree costs coincide trial by trial.
  ExperimentSpec spec = tiny_spec();
  spec.symmetric_costs = true;
  for (std::size_t t = 0; t < 3; ++t) {
    const TrialResult hbh = run_trial(spec, Protocol::kHbh, 3, t);
    const TrialResult ss = run_trial(spec, Protocol::kPimSs, 3, t);
    ASSERT_TRUE(hbh.delivered);
    ASSERT_TRUE(ss.delivered);
    EXPECT_DOUBLE_EQ(hbh.tree_cost, ss.tree_cost) << "trial " << t;
    EXPECT_DOUBLE_EQ(hbh.mean_delay, ss.mean_delay) << "trial " << t;
  }
}

TEST(SessionTest, MembersTracksSubscriptions) {
  auto scenario = topo::make_isp();
  Session session{scenario, Protocol::kHbh};
  EXPECT_TRUE(session.members().empty());
  session.subscribe(scenario.hosts[3]);
  session.subscribe(scenario.hosts[5]);
  session.run_for(1);
  EXPECT_EQ(session.members().size(), 2u);
  session.unsubscribe(scenario.hosts[3]);
  session.run_for(1);
  EXPECT_EQ(session.members().size(), 1u);
}

TEST(SessionTest, DelayedSubscribeTakesEffectLater) {
  auto scenario = topo::make_isp();
  Session session{scenario, Protocol::kHbh};
  session.subscribe(scenario.hosts[3], 50);
  session.run_for(10);
  EXPECT_TRUE(session.members().empty());
  session.run_for(50);
  EXPECT_EQ(session.members().size(), 1u);
}

TEST(SessionTest, RpOnlySetForPimSm) {
  auto scenario = topo::make_isp();
  Session sm{scenario, Protocol::kPimSm};
  Session ss{scenario, Protocol::kPimSs};
  Session hbh{scenario, Protocol::kHbh};
  EXPECT_TRUE(sm.rp().valid());
  EXPECT_FALSE(ss.rp().valid());
  EXPECT_FALSE(hbh.rp().valid());
}

TEST(SessionTest, ChannelUsesSourceAddressAndSsmGroup) {
  auto scenario = topo::make_isp();
  Session session{scenario, Protocol::kHbh};
  EXPECT_EQ(session.channel().source,
            session.network().address_of(scenario.source_host));
  EXPECT_TRUE(session.channel().group.addr().is_ssm());
}

TEST(SessionTest, RunToQuiescenceConvergesAndDelivers) {
  auto scenario = topo::make_isp();
  Rng rng{31337};
  topo::randomize_costs(scenario.topo, rng);
  const auto receivers = rng.sample(scenario.candidate_receivers(), 6);
  Session session{std::move(scenario), Protocol::kHbh};
  Time delay = 0.1;
  for (const NodeId r : receivers) {
    session.subscribe(r, delay);
    delay += 1.0;
  }
  const Time convergence = run_to_quiescence(session);
  EXPECT_LT(convergence, 3000.0);  // settled before the horizon
  EXPECT_TRUE(session.measure().delivered_exactly_once());
}

TEST(SessionTest, PimExplicitPruneLeavesFast) {
  auto scenario = topo::make_isp();
  Session session{scenario, Protocol::kPimSs};
  session.subscribe(scenario.hosts[4]);
  session.subscribe(scenario.hosts[9]);
  session.run_for(60);
  ASSERT_TRUE(session.measure().delivered_exactly_once());
  session.unsubscribe(scenario.hosts[4]);
  session.run_for(30);  // far below t2=70: the prune did the teardown
  const Measurement m = session.measure();
  EXPECT_TRUE(m.delivered_exactly_once());  // only hosts[9] is a member
  EXPECT_EQ(session.members().size(), 1u);
}

TEST(SessionTest, MeasureOnEmptyGroupIsClean) {
  auto scenario = topo::make_isp();
  Session session{scenario, Protocol::kPimSm};
  session.run_for(20);
  const Measurement m = session.measure(50);
  EXPECT_TRUE(m.missing.empty());
  EXPECT_TRUE(m.duplicated.empty());
  EXPECT_DOUBLE_EQ(m.mean_delay, 0.0);
}

}  // namespace
}  // namespace hbh::harness
