#include "harness/experiment.hpp"

#include <cassert>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iomanip>
#include <memory>
#include <optional>
#include <sstream>
#include <tuple>

#include "harness/trial_pool.hpp"
#include "metrics/auditor.hpp"
#include "metrics/profiler.hpp"
#include "metrics/report.hpp"
#include "topo/isp.hpp"
#include "topo/random.hpp"
#include "util/env.hpp"
#include "util/profiler.hpp"
#include "util/rng.hpp"

namespace hbh::harness {

std::string_view to_string(TopoKind k) {
  switch (k) {
    case TopoKind::kIsp:
      return "ISP";
    case TopoKind::kRandom50:
      return "random-50";
  }
  return "?";
}

std::vector<std::size_t> isp_group_sizes() {
  return {2, 4, 6, 8, 10, 12, 14, 16};
}

std::vector<std::size_t> random50_group_sizes() {
  return {5, 10, 15, 20, 25, 30, 35, 40, 45};
}

namespace {

/// Everything a paired (group size, trial) cell is built from. The cell's
/// cost-randomized scenario, its receiver sample and hence its
/// shortest-path trees are a function of these fields alone: the builders
/// below read the spec only through this key, so equal keys name the same
/// cell and a new input has to be added here before a builder can read it.
struct CellKey {
  TopoKind topology;
  std::uint64_t base_seed;
  bool symmetric_costs;
  std::size_t group_size;
  std::size_t trial_index;

  friend bool operator==(const CellKey&, const CellKey&) = default;
};

CellKey cell_key(const ExperimentSpec& spec, std::size_t group_size,
                 std::size_t trial_index) {
  return {spec.topology, spec.base_seed, spec.symmetric_costs, group_size,
          trial_index};
}

/// Seed for a cell — protocol-independent so every protocol sees the same
/// costs and receiver set (paired trials).
std::uint64_t cell_seed(const CellKey& cell) {
  std::uint64_t s = cell.base_seed;
  s ^= 0x1000003u * (cell.group_size + 1);
  s ^= 0x100000001B3ull * (cell.trial_index + 1);
  std::uint64_t mix = s;
  return splitmix64(mix);
}

topo::Scenario build_scenario(const CellKey& cell) {
  switch (cell.topology) {
    case TopoKind::kIsp:
      return topo::make_isp();
    case TopoKind::kRandom50: {
      // One fixed random graph per base seed (the paper evaluates a single
      // generated topology); costs are re-randomized per trial by caller.
      Rng topo_rng{cell.base_seed};
      return topo::make_random50(topo_rng);
    }
  }
  assert(false);
  return topo::make_isp();
}

/// Runs one trial of `protocol` on `cell` under its own phase profiler.
/// The scenario and receivers are rebuilt from the cell's seed and moved
/// into the session, which `body` then runs. `cell_routes` is the SPF
/// table the cell's sessions share: created here on the cell's first trial
/// (inside the trial_setup phase, so that protocol is charged for it),
/// attached to on the later ones. `observed`, when given, makes this an
/// observed run: telemetry, tracing and audit go on, the auditor sweeps
/// after the body, a strict-audit abort is caught instead of thrown, and
/// the session is kept in `*observed`.
void run_cell_trial(const ExperimentSpec& spec, Protocol protocol,
                    const CellKey& cell, std::size_t slot,
                    std::shared_ptr<routing::SpfTable>& cell_routes,
                    const TrialBody& body, ObservedRun* observed = nullptr) {
  // Per-trial profiler, merged into the process-wide per-protocol
  // aggregate on completion. Stats are integers summed under a mutex, so
  // the aggregated phase *counts* are identical no matter which TrialPool
  // worker ran which cell (the HBH_JOBS determinism contract); only
  // timings vary.
  prof::PhaseProfiler profiler;
  {
    const prof::ScopedProfiler install{profiler};
    std::unique_ptr<Session> session;
    Rng rng{cell_seed(cell)};
    std::vector<NodeId> receivers;
    {
      HBH_PHASE("trial_setup");
      topo::Scenario scenario = build_scenario(cell);
      topo::randomize_costs(scenario.topo, rng);
      if (cell.symmetric_costs) topo::symmetrize_costs(scenario.topo);

      auto candidates = scenario.candidate_receivers();
      assert(cell.group_size <= candidates.size());
      receivers = rng.sample(candidates, cell.group_size);

      if (!cell_routes) {
        cell_routes = std::make_shared<routing::SpfTable>(
            scenario.topo, routing::cost_metric());
      }
      // An observed run adds telemetry, tracing and audit (record mode
      // unless HBH_AUDIT=strict), so the report's "anomalies" section is
      // present — with zeros — on every clean run.
      SessionConfig config = spec.session;
      if (observed != nullptr) {
        config.observe.telemetry = true;
        config.observe.tracing = true;
        config.observe.audit = true;
      }
      session = std::make_unique<Session>(std::move(scenario), protocol,
                                          std::move(config), cell_routes);
    }
    TrialContext trial{spec, protocol, slot, std::move(receivers), rng,
                       observed};
    try {
      body(*session, trial);
      if (observed != nullptr) session->audit_sweep();
    } catch (const std::exception&) {
      // HBH_AUDIT=strict aborts a run on its first anomaly, recorded
      // before the throw: an observed run keeps the abort for
      // write_artifacts, so the artifacts still carry the event.
      if (observed == nullptr) throw;
      observed->abort = std::current_exception();
    }
    if (observed != nullptr) {
      observed->protocol = protocol;
      observed->session = std::move(session);
    }
  }
  prof::process_profile().merge(to_string(protocol), profiler);
}

/// Runs one paired cell on the calling thread: its protocols back to back,
/// sharing one SPF table, in all_protocols() reversed — HBH, the protocol
/// under study, runs first and computes every tree it routes on, so its
/// phase profile reads as if it ran alone; its siblings reuse those trees.
/// Protocol p's trial gets slot `slot + p * stride`. `observed`, when
/// given, receives every protocol's observed run (see run_cell_trial).
void run_paired_cell(const ExperimentSpec& spec, const CellKey& cell,
                     std::size_t slot, std::size_t stride,
                     const TrialBody& body, ObservedCell* observed) {
  const auto& protocols = all_protocols();
  if (observed != nullptr) {
    observed->group_size = cell.group_size;
    observed->runs.resize(protocols.size());
  }
  std::shared_ptr<routing::SpfTable> routes;
  for (std::size_t p = protocols.size(); p-- > 0;) {
    run_cell_trial(spec, protocols[p], cell, slot + p * stride, routes, body,
                   observed != nullptr ? &observed->runs[p] : nullptr);
  }
}

}  // namespace

TrialResult figure_trial(Session& session, TrialContext& trial) {
  // Staggered joins in randomized order (the sample is already shuffled),
  // spaced just over a tree period apart: each join meets the state the
  // previous receivers built, as in an ongoing session. The warmup clock
  // starts after the last join.
  Time delay = 0.1;
  for (const NodeId r : trial.receivers) {
    session.subscribe(r, delay);
    delay += 1.2 * trial.spec.session.timers.tree_period;
  }
  {
    HBH_PHASE("warmup");
    session.run_for(delay + trial.spec.warmup);
  }
  Measurement m;
  {
    HBH_PHASE("measure");
    m = session.measure(trial.spec.drain);
  }
  const TrialResult result{static_cast<double>(m.tree_cost), m.mean_delay,
                           m.delivered_exactly_once()};
  if (trial.observed != nullptr) trial.observed->measurement = std::move(m);
  return result;
}

TrialResult run_trial(const ExperimentSpec& spec, Protocol protocol,
                      std::size_t group_size, std::size_t trial_index) {
  // One-entry memo of the SPF table of the last cell this thread ran: a
  // caller that runs a cell's protocols back to back (perfbench's
  // interleaved sweep) builds each of its trees once. A different key drops
  // the old table before the new cell is set up, so one table is alive at
  // a time.
  struct Memo {
    std::optional<CellKey> key;
    std::shared_ptr<routing::SpfTable> routes;
  };
  thread_local Memo memo;
  const CellKey cell = cell_key(spec, group_size, trial_index);
  if (memo.key != cell) {
    memo.routes.reset();
    memo.key = cell;
  }
  TrialResult result;
  run_cell_trial(spec, protocol, cell, 0, memo.routes,
                 [&result](Session& session, TrialContext& trial) {
                   result = figure_trial(session, trial);
                 });
  return result;
}

Time run_to_quiescence(Session& session, Time quiet, Time horizon) {
  const Time start = session.simulator().now();
  const Time step = 10;  // one refresh period
  Time last_change = start;
  auto fingerprint = [&] {
    const auto census = session.state_census();
    return std::tuple{census.control_entries, census.forwarding_entries,
                      census.routers_with_state,
                      session.total_structural_changes()};
  };
  auto previous = fingerprint();
  while (session.simulator().now() - start < horizon) {
    session.run_for(step);
    const auto current = fingerprint();
    if (current != previous) {
      previous = current;
      last_change = session.simulator().now();
    } else if (session.simulator().now() - last_change >= quiet) {
      return last_change - start;
    }
  }
  return horizon;
}

void run_cells(const ExperimentSpec& spec, const TrialBody& body,
               std::size_t jobs, ObservedCell* observed) {
  // One pool task per paired (group size, trial) cell, so the phase counts
  // charged to each protocol do not depend on the job count.
  const std::size_t trials = spec.trials;
  const std::size_t cells = spec.group_sizes.size() * trials;
  // The observed cell: the last group size's trial 0.
  const std::size_t observed_slot = cells - trials;
  TrialPool pool{jobs};
  pool.run(cells, [&](std::size_t i) {
    const CellKey cell =
        cell_key(spec, spec.group_sizes[i / trials], i % trials);
    run_paired_cell(spec, cell, i, cells, body,
                    i == observed_slot ? observed : nullptr);
  });
}

std::vector<SweepResult> run_all(const ExperimentSpec& spec, std::size_t jobs,
                                 ObservedCell* observed) {
  const std::vector<TrialResult> grid =
      run_grid(spec, figure_trial, jobs, observed);
  // Folds each protocol's [size][trial] slice in grid order, so the
  // floating-point accumulation — and every table, CSV and run report
  // derived from it — is bit-identical no matter which thread produced
  // which trial, or when.
  std::vector<SweepResult> out;
  const TrialResult* r = grid.data();
  for (const Protocol protocol : all_protocols()) {
    SweepResult& sweep = out.emplace_back(SweepResult{protocol, {}});
    for (const std::size_t group_size : spec.group_sizes) {
      SweepCell& cell = sweep.cells.emplace_back();
      cell.group_size = group_size;
      for (std::size_t trial = 0; trial < spec.trials; ++trial, ++r) {
        cell.tree_cost.add(r->tree_cost);
        cell.mean_delay.add(r->mean_delay);
        if (!r->delivered) ++cell.delivery_failures;
      }
    }
  }
  return out;
}

std::string format_table(const std::vector<SweepResult>& results,
                         std::string_view metric, bool with_ci) {
  assert(!results.empty());
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out << std::setw(10) << "receivers";
  for (const auto& sweep : results) {
    out << std::setw(with_ci ? 22 : 12) << to_string(sweep.protocol);
  }
  out << '\n';
  const std::size_t rows = results.front().cells.size();
  for (std::size_t row = 0; row < rows; ++row) {
    out << std::setw(10) << results.front().cells[row].group_size;
    for (const auto& sweep : results) {
      assert(sweep.cells[row].group_size ==
             results.front().cells[row].group_size);
      const RunningStats& stats = metric == "cost"
                                      ? sweep.cells[row].tree_cost
                                      : sweep.cells[row].mean_delay;
      if (with_ci) {
        out << std::setw(22) << stats.to_string(2);
      } else {
        out << std::setw(12) << std::setprecision(2) << stats.mean();
      }
    }
    out << '\n';
  }
  return out.str();
}

std::string format_csv(const std::vector<SweepResult>& results) {
  std::ostringstream out;
  out << "group_size,protocol,metric,mean,ci95,trials\n";
  out.setf(std::ios::fixed);
  out << std::setprecision(4);
  for (const auto& sweep : results) {
    for (const auto& cell : sweep.cells) {
      out << cell.group_size << ',' << to_string(sweep.protocol) << ",cost,"
          << cell.tree_cost.mean() << ',' << cell.tree_cost.ci95_half_width()
          << ',' << cell.tree_cost.count() << '\n';
      out << cell.group_size << ',' << to_string(sweep.protocol) << ",delay,"
          << cell.mean_delay.mean() << ',' << cell.mean_delay.ci95_half_width()
          << ',' << cell.mean_delay.count() << '\n';
    }
  }
  return out.str();
}

namespace {

/// The run report: spec, sweep summary, one "runs" entry per observed
/// protocol, the "anomalies" section, then `extra`'s sections.
bool write_run_report(const ExperimentSpec& spec,
                      const std::vector<SweepResult>& results,
                      std::string_view figure, const ObservedCell& observed,
                      const ReportAxis& axis, const ReportSectionHook& extra,
                      const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  const auto wall_start = std::chrono::steady_clock::now();

  // Rendering is itself a profiled phase (aggregated under the "report"
  // label, visible in the HBH_PROF_OUT artifact).
  prof::PhaseProfiler render_profiler;
  const prof::ScopedProfiler render_install{render_profiler};
  std::optional<prof::PhaseScope> render_scope{std::in_place,
                                              "report_render"};

  metrics::JsonWriter w(out);
  w.begin_object();
  w.member("schema", metrics::kRunReportSchema);
  w.member("figure", figure);

  w.key("spec");
  w.begin_object();
  w.member("topology", to_string(spec.topology));
  w.member("trials", static_cast<std::uint64_t>(spec.trials));
  w.member("base_seed", static_cast<std::uint64_t>(spec.base_seed));
  w.member("symmetric_costs", spec.symmetric_costs);
  w.member("warmup", spec.warmup);
  w.member("drain", spec.drain);
  w.key("group_sizes");
  w.begin_array();
  for (const std::size_t s : spec.group_sizes) {
    w.value(static_cast<std::uint64_t>(s));
  }
  w.end_array();
  if (!axis.name.empty()) {
    w.key(axis.name);
    w.begin_array();
    for (const double v : axis.values) w.value(v);
    w.end_array();
  }
  w.end_object();

  // The sweep summary (same numbers as format_csv).
  w.key("sweep");
  w.begin_array();
  for (const auto& sweep : results) {
    w.begin_object();
    w.member("protocol", to_string(sweep.protocol));
    w.key("cells");
    w.begin_array();
    for (const auto& cell : sweep.cells) {
      w.begin_object();
      w.member("group_size", static_cast<std::uint64_t>(cell.group_size));
      w.member("tree_cost_mean", cell.tree_cost.mean());
      w.member("tree_cost_ci95", cell.tree_cost.ci95_half_width());
      w.member("mean_delay_mean", cell.mean_delay.mean());
      w.member("mean_delay_ci95", cell.mean_delay.ci95_half_width());
      w.member("trials", static_cast<std::uint64_t>(cell.tree_cost.count()));
      w.member("delivery_failures",
               static_cast<std::uint64_t>(cell.delivery_failures));
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  // One entry per protocol of the observed cell: registry metrics, state
  // time series, span summary and convergence timelines of a trial the
  // figure itself averages.
  w.key("runs");
  w.begin_object();
  for (const ObservedRun& run : observed.runs) {
    Session& session = *run.session;
    const prof::PhaseMap profile =
        prof::process_profile().snapshot(to_string(run.protocol));
    const metrics::ConvergenceSummary convergence =
        metrics::analyze_convergence(session.tracer()->spans());

    metrics::RunReport report;
    report.profile = &profile;
    report.registry = session.registry();
    report.sampler = session.sampler();
    report.tracer = session.tracer();
    report.convergence = &convergence;
    report.info["protocol"] = std::string(to_string(run.protocol));
    report.info["topology"] = std::string(to_string(spec.topology));
    report.numbers["group_size"] = static_cast<double>(observed.group_size);
    if (const auto& m = run.measurement) {
      report.numbers["probe.tree_cost"] = static_cast<double>(m->tree_cost);
      report.numbers["probe.mean_delay"] = m->mean_delay;
      report.numbers["probe.delivered"] = m->delivered_exactly_once() ? 1 : 0;
    }
    report.numbers["sim.end_time"] = session.simulator().now();

    w.key(to_string(run.protocol));
    w.begin_object();
    report.write_body(w);
    w.end_object();
  }
  w.end_object();

  // Forwarding-plane invariant audit of the observed runs.
  std::vector<metrics::AuditedRun> audited;
  for (const ObservedRun& run : observed.runs) {
    audited.push_back({to_string(run.protocol), run.session->auditor()});
  }
  metrics::write_anomalies(w, audited);

  if (extra) extra(w);

  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall_start;
  w.member("wall_seconds", wall.count());
  w.end_object();
  out << '\n';

  render_scope.reset();
  prof::process_profile().merge("report", render_profiler);
  return out.good();
}

/// HBH's causal trace from the observed cell, as Perfetto JSON.
bool write_trace_file(const ExperimentSpec& spec, std::string_view figure,
                      const ObservedCell& observed, const std::string& path) {
  for (const ObservedRun& run : observed.runs) {
    if (run.protocol != Protocol::kHbh) continue;
    std::map<std::string, std::string> info;
    info["figure"] = std::string(figure);
    info["protocol"] = std::string(to_string(run.protocol));
    info["topology"] = std::string(to_string(spec.topology));
    info["group_size"] = std::to_string(observed.group_size);
    return metrics::write_perfetto_trace(*run.session->tracer(), info, path);
  }
  return false;
}

/// Every observed protocol's anomalies, one hbh.audit/v1 object a line.
bool write_audit_file(const ObservedCell& observed, const std::string& path) {
  std::string out;
  for (const ObservedRun& run : observed.runs) {
    run.session->auditor()->append_ndjson(out, to_string(run.protocol));
  }
  std::ofstream file(path);
  if (!file) return false;
  file << out;
  return file.good();
}

bool write_profile_file(std::string_view figure, const std::string& path) {
  std::map<std::string, std::string> info;
  info["figure"] = std::string(figure);
  return metrics::write_profile_file(prof::process_profile().snapshot(),
                                     info, path);
}

}  // namespace

ArtifactPaths ArtifactPaths::from_env() {
  return {env_report_path(), env_trace_out(), env_audit_out(), env_prof_out()};
}

bool write_artifacts(const ArtifactPaths& paths, const ExperimentSpec& spec,
                     const std::vector<SweepResult>& results,
                     std::string_view figure, const ObservedCell& observed,
                     const ReportAxis& axis, const ReportSectionHook& extra) {
  bool ok = true;
  const auto write = [&ok](const std::string& path, const char* artifact,
                           const char* variable, auto&& writer) {
    if (path.empty()) return;
    if (writer(path)) {
      std::printf("%s: %s\n", artifact, path.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write %s=%s\n", variable,
                   path.c_str());
      ok = false;
    }
  };
  write(paths.report, "report", "HBH_REPORT", [&](const std::string& path) {
    return write_run_report(spec, results, figure, observed, axis, extra,
                            path);
  });
  write(paths.trace, "trace", "HBH_TRACE_OUT", [&](const std::string& path) {
    return write_trace_file(spec, figure, observed, path);
  });
  write(paths.audit, "audit", "HBH_AUDIT_OUT", [&](const std::string& path) {
    return write_audit_file(observed, path);
  });
  write(paths.profile, "profile", "HBH_PROF_OUT",
        [&](const std::string& path) {
          return write_profile_file(figure, path);
        });
  for (const ObservedRun& run : observed.runs) {
    if (run.abort) std::rethrow_exception(run.abort);
  }
  return ok;
}

}  // namespace hbh::harness
