// Tests for the experiment harness: trial pairing, sweep aggregation,
// table/CSV formatting, and the session plumbing they rely on.
#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <vector>

#include "harness/experiment.hpp"
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
  const SweepResult sweep = run_sweep(spec, Protocol::kPimSs);
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

TEST(ExperimentTest, ParallelSweepMatchesSerialSweep) {
  const ExperimentSpec spec = tiny_spec();
  const SweepResult serial = run_sweep(spec, Protocol::kHbh, /*jobs=*/1);
  const SweepResult parallel = run_sweep(spec, Protocol::kHbh, /*jobs=*/3);
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t c = 0; c < serial.cells.size(); ++c) {
    EXPECT_EQ(serial.cells[c].tree_cost.mean(),
              parallel.cells[c].tree_cost.mean());
    EXPECT_EQ(serial.cells[c].mean_delay.mean(),
              parallel.cells[c].mean_delay.mean());
    EXPECT_EQ(serial.cells[c].delivery_failures,
              parallel.cells[c].delivery_failures);
  }
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
