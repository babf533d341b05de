#include "harness/experiment.hpp"

#include <array>
#include <cassert>
#include <chrono>
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

/// Seed for a (spec, size, trial) cell — protocol-independent so every
/// protocol sees the same costs and receiver set (paired trials).
std::uint64_t cell_seed(const ExperimentSpec& spec, std::size_t group_size,
                        std::size_t trial_index) {
  std::uint64_t s = spec.base_seed;
  s ^= 0x1000003u * (group_size + 1);
  s ^= 0x100000001B3ull * (trial_index + 1);
  std::uint64_t mix = s;
  return splitmix64(mix);
}

topo::Scenario build_scenario(const ExperimentSpec& spec, Rng& rng) {
  switch (spec.topology) {
    case TopoKind::kIsp:
      return topo::make_isp();
    case TopoKind::kRandom50: {
      // One fixed random graph per base seed (the paper evaluates a single
      // generated topology); costs are re-randomized per trial by caller.
      Rng topo_rng{spec.base_seed};
      return topo::make_random50(topo_rng);
    }
  }
  (void)rng;
  assert(false);
  return topo::make_isp();
}

/// The paired-trial session for one cell, with joins scheduled but nothing
/// run yet — shared by run_trial and the instrumented report runs.
struct TrialSetup {
  std::unique_ptr<Session> session;
  Time last_join = 0;  ///< time the last join fires
};

TrialSetup prepare_trial(const ExperimentSpec& spec, Protocol protocol,
                         std::size_t group_size, std::size_t trial_index) {
  HBH_PHASE("trial_setup");
  Rng rng{cell_seed(spec, group_size, trial_index)};
  topo::Scenario scenario = build_scenario(spec, rng);
  topo::randomize_costs(scenario.topo, rng);
  if (spec.symmetric_costs) topo::symmetrize_costs(scenario.topo);

  auto candidates = scenario.candidate_receivers();
  assert(group_size <= candidates.size());
  const std::vector<NodeId> receivers = rng.sample(candidates, group_size);

  TrialSetup setup;
  setup.session =
      std::make_unique<Session>(std::move(scenario), protocol, spec.session);
  // Staggered joins in randomized order (the sample above is already
  // shuffled), spaced just over a tree period apart: each join meets the
  // state the previous receivers built, as in an ongoing session. The
  // warmup clock starts after the last join.
  Time delay = 0.1;
  for (const NodeId r : receivers) {
    setup.session->subscribe(r, delay);
    delay += 1.2 * spec.session.timers.tree_period;
  }
  setup.last_join = delay;
  return setup;
}

}  // namespace

TrialResult run_trial(const ExperimentSpec& spec, Protocol protocol,
                      std::size_t group_size, std::size_t trial_index) {
  // Per-trial profiler, merged into the process-wide per-protocol
  // aggregate on completion. Stats are integers summed under a mutex, so
  // the aggregated phase *counts* are identical no matter which TrialPool
  // worker ran which trial (the HBH_JOBS determinism contract); only
  // timings vary.
  prof::PhaseProfiler profiler;
  TrialResult result;
  {
    const prof::ScopedProfiler install{profiler};
    TrialSetup setup = prepare_trial(spec, protocol, group_size, trial_index);
    Session& session = *setup.session;
    {
      HBH_PHASE("warmup");
      session.run_for(setup.last_join + spec.warmup);
    }
    HBH_PHASE("measure");
    const Measurement m = session.measure(spec.drain);
    result.tree_cost = static_cast<double>(m.tree_cost);
    result.mean_delay = m.mean_delay;
    result.delivered = m.delivered_exactly_once();
  }
  prof::process_profile().merge(to_string(protocol), profiler);
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

namespace {

/// Folds one protocol's [size][trial] grid slice into per-size cells.
/// Always iterates in grid order, so the floating-point accumulation —
/// and therefore every table, CSV, and run report derived from it — is
/// bit-identical no matter which thread produced which trial, or when.
SweepResult aggregate_sweep(const ExperimentSpec& spec, Protocol protocol,
                            const TrialResult* grid) {
  SweepResult out;
  out.protocol = protocol;
  out.cells.reserve(spec.group_sizes.size());
  for (std::size_t s = 0; s < spec.group_sizes.size(); ++s) {
    SweepCell cell;
    cell.group_size = spec.group_sizes[s];
    for (std::size_t trial = 0; trial < spec.trials; ++trial) {
      const TrialResult& r = grid[s * spec.trials + trial];
      cell.tree_cost.add(r.tree_cost);
      cell.mean_delay.add(r.mean_delay);
      if (!r.delivered) ++cell.delivery_failures;
    }
    out.cells.push_back(cell);
  }
  return out;
}

}  // namespace

SweepResult run_sweep(const ExperimentSpec& spec, Protocol protocol,
                      std::size_t jobs) {
  const std::size_t trials = spec.trials;
  std::vector<TrialResult> grid(spec.group_sizes.size() * trials);
  TrialPool pool{jobs};
  pool.run(grid.size(), [&](std::size_t i) {
    grid[i] =
        run_trial(spec, protocol, spec.group_sizes[i / trials], i % trials);
  });
  return aggregate_sweep(spec, protocol, grid.data());
}

std::vector<SweepResult> run_all(const ExperimentSpec& spec,
                                 std::size_t jobs) {
  // One flat (protocol, group size, trial) grid behind a single pool:
  // workers drain cells across protocol boundaries, so a slow protocol's
  // tail overlaps the next protocol's trials instead of serializing.
  const auto& protocols = all_protocols();
  const std::size_t trials = spec.trials;
  const std::size_t per_protocol = spec.group_sizes.size() * trials;
  std::vector<TrialResult> grid(protocols.size() * per_protocol);
  TrialPool pool{jobs};
  pool.run(grid.size(), [&](std::size_t i) {
    const Protocol protocol = protocols[i / per_protocol];
    const std::size_t cell = i % per_protocol;
    grid[i] = run_trial(spec, protocol, spec.group_sizes[cell / trials],
                        cell % trials);
  });
  std::vector<SweepResult> out;
  out.reserve(protocols.size());
  for (std::size_t p = 0; p < protocols.size(); ++p) {
    out.push_back(
        aggregate_sweep(spec, protocols[p], grid.data() + p * per_protocol));
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

bool write_run_report(const ExperimentSpec& spec,
                      const std::vector<SweepResult>& results,
                      std::string_view figure, const std::string& path,
                      const SessionHook& customize,
                      const ReportSectionHook& extra) {
  std::ofstream out(path);
  if (!out) return false;
  const auto wall_start = std::chrono::steady_clock::now();

  // Rendering is itself a profiled phase (aggregated under the "report"
  // label, visible in the HBH_PROF_OUT artifact). The per-protocol
  // deep-dives below install their own profilers, so their phases land
  // under the protocol labels, not here.
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

  // One instrumented deep-dive per protocol: the largest swept group size,
  // trial 0 — a cell the sweep already covered, re-run with telemetry on so
  // the report carries registry metrics, state time series, and per-type
  // message/byte counts without slowing the sweep itself.
  const std::size_t size =
      spec.group_sizes.empty() ? 2 : spec.group_sizes.back();

  // Per-protocol invariant-audit results, captured during the deep-dives
  // and rendered as the top-level "anomalies" section after "runs".
  struct AuditSnapshot {
    Protocol protocol = Protocol::kHbh;
    bool strict = false;
    std::array<std::uint64_t, metrics::kAnomalyKindCount> counts{};
    std::vector<metrics::AnomalyEvent> events;
  };
  std::vector<AuditSnapshot> audits;
  double audit_wall_seconds = 0.0;

  w.key("runs");
  w.begin_object();
  for (const auto& sweep : results) {
    // The deep-dive gets its own profiler so its phases aggregate under
    // the protocol label alongside the sweep's trials; the merge happens
    // before the snapshot below, so this run is included in the section.
    prof::PhaseProfiler dive_profiler;
    std::optional<prof::ScopedProfiler> dive_install{std::in_place,
                                                    dive_profiler};
    TrialSetup setup = prepare_trial(spec, sweep.protocol, size, 0);
    Session& session = *setup.session;
    session.enable_telemetry(spec.session.timers.tree_period);
    session.enable_tracing();
    // Deep-dives are always audited (record mode; strict only when the
    // session already picked it up from HBH_AUDIT=strict) so the report's
    // "anomalies" section is present — with zeros — on every clean run.
    metrics::Auditor& auditor = session.enable_audit();
    if (customize) customize(session);
    {
      HBH_PHASE("warmup");
      session.run_for(setup.last_join + spec.warmup);
    }
    Measurement m;
    {
      HBH_PHASE("measure");
      m = session.measure(spec.drain);
    }
    {
      const auto audit_start = std::chrono::steady_clock::now();
      session.audit_sweep();
      AuditSnapshot snap;
      snap.protocol = sweep.protocol;
      snap.strict = auditor.config().strict;
      for (std::size_t k = 0; k < metrics::kAnomalyKindCount; ++k) {
        snap.counts[k] = auditor.count(static_cast<metrics::AnomalyKind>(k));
      }
      snap.events = auditor.events();
      audits.push_back(std::move(snap));
      audit_wall_seconds +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        audit_start)
              .count();
    }
    dive_install.reset();
    prof::process_profile().merge(to_string(sweep.protocol), dive_profiler);
    const prof::PhaseMap profile =
        prof::process_profile().snapshot(to_string(sweep.protocol));
    const metrics::ConvergenceSummary convergence =
        metrics::analyze_convergence(session.tracer()->spans());

    metrics::RunReport report;
    report.profile = &profile;
    report.registry = session.registry();
    report.sampler = session.sampler();
    report.trace = session.trace();
    report.tracer = session.tracer();
    report.convergence = &convergence;
    report.info["protocol"] = std::string(to_string(sweep.protocol));
    report.info["topology"] = std::string(to_string(spec.topology));
    report.numbers["group_size"] = static_cast<double>(size);
    report.numbers["probe.tree_cost"] = static_cast<double>(m.tree_cost);
    report.numbers["probe.mean_delay"] = m.mean_delay;
    report.numbers["probe.delivered"] = m.delivered_exactly_once() ? 1 : 0;
    report.numbers["sim.end_time"] = session.simulator().now();

    w.key(to_string(sweep.protocol));
    w.begin_object();
    report.write_body(w);
    w.end_object();
  }
  w.end_object();

  // Forwarding-plane invariant audit of the deep-dive runs. A clean run
  // reports all-zero counters; counters and events are deterministic at
  // any HBH_JOBS (the deep-dives are serial), only audit_wall_seconds
  // varies (report_scrub strips it).
  {
    std::uint64_t grand_total = 0;
    bool strict = false;
    for (const AuditSnapshot& snap : audits) {
      for (const std::uint64_t n : snap.counts) grand_total += n;
      strict = strict || snap.strict;
    }
    w.key("anomalies");
    w.begin_object();
    w.member("schema", "hbh.anomalies/v1");
    w.member("strict", strict);
    w.member("audit_wall_seconds", audit_wall_seconds);
    w.member("total", grand_total);
    w.key("by_protocol");
    w.begin_object();
    for (const AuditSnapshot& snap : audits) {
      w.key(to_string(snap.protocol));
      w.begin_object();
      std::uint64_t total = 0;
      for (const std::uint64_t n : snap.counts) total += n;
      w.member("total", total);
      for (std::size_t k = 0; k < metrics::kAnomalyKindCount; ++k) {
        w.member(to_string(static_cast<metrics::AnomalyKind>(k)),
                 snap.counts[k]);
      }
      w.key("events");
      w.begin_array();
      for (const metrics::AnomalyEvent& ev : snap.events) {
        w.begin_object();
        w.member("kind", to_string(ev.kind));
        w.member("t", ev.at);
        w.member("node", to_string(ev.node));
        w.member("channel", ev.channel.to_string());
        w.member("seq", static_cast<std::uint64_t>(ev.seq));
        w.member("trace", ev.trace_id);
        w.member("detail", ev.detail);
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
    w.end_object();
    w.end_object();
  }

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

bool maybe_write_report_from_env(const ExperimentSpec& spec,
                                 const std::vector<SweepResult>& results,
                                 std::string_view figure) {
  const std::string path = env_report_path();
  if (path.empty()) return false;
  return write_run_report(spec, results, figure, path);
}

bool write_trace_file(const ExperimentSpec& spec, std::string_view figure,
                      const std::string& path, const SessionHook& customize) {
  // One serial instrumented HBH re-run (largest group size, trial 0): the
  // same cell the report deep-dives. Serial by construction, so the file
  // is byte-identical at any HBH_JOBS setting.
  const std::size_t size =
      spec.group_sizes.empty() ? 2 : spec.group_sizes.back();
  TrialSetup setup = prepare_trial(spec, Protocol::kHbh, size, 0);
  Session& session = *setup.session;
  session.enable_tracing();
  if (customize) customize(session);
  session.run_for(setup.last_join + spec.warmup);
  (void)session.measure(spec.drain);

  std::map<std::string, std::string> info;
  info["figure"] = std::string(figure);
  info["protocol"] = std::string(to_string(Protocol::kHbh));
  info["topology"] = std::string(to_string(spec.topology));
  info["group_size"] = std::to_string(size);
  return metrics::write_perfetto_trace(*session.tracer(), info, path);
}

bool maybe_write_trace_from_env(const ExperimentSpec& spec,
                                std::string_view figure,
                                const SessionHook& customize) {
  const std::string path = env_trace_out();
  if (path.empty()) return false;
  return write_trace_file(spec, figure, path, customize);
}

bool write_audit_file(const ExperimentSpec& spec, std::string_view figure,
                      const std::string& path, const SessionHook& customize) {
  (void)figure;
  // One serial audited re-run per protocol (largest group size, trial 0 —
  // the cells the report deep-dives). Serial by construction, so the NDJSON
  // stream is byte-identical at any HBH_JOBS setting. Record mode even
  // under HBH_AUDIT=strict: the stream is the diagnosis artifact, so it
  // must survive the anomaly the strict gate would abort on.
  const std::size_t size =
      spec.group_sizes.empty() ? 2 : spec.group_sizes.back();
  std::string out;
  for (const Protocol protocol : all_protocols()) {
    TrialSetup setup = prepare_trial(spec, protocol, size, 0);
    Session& session = *setup.session;
    metrics::Auditor& auditor = session.enable_audit();
    if (customize) customize(session);
    try {
      session.run_for(setup.last_join + spec.warmup);
      (void)session.measure(spec.drain);
      session.audit_sweep();
    } catch (const std::exception&) {
      // HBH_AUDIT=strict aborts the run on the first anomaly, but the
      // event was recorded before the throw — the stream still carries it.
    }
    auditor.append_ndjson(out, to_string(protocol));
  }
  std::ofstream file(path);
  if (!file) return false;
  file << out;
  return file.good();
}

bool maybe_write_audit_from_env(const ExperimentSpec& spec,
                                std::string_view figure,
                                const SessionHook& customize) {
  const std::string path = env_audit_out();
  if (path.empty()) return false;
  return write_audit_file(spec, figure, path, customize);
}

bool write_profile_file(std::string_view figure, const std::string& path) {
  std::map<std::string, std::string> info;
  info["figure"] = std::string(figure);
  return metrics::write_profile_file(prof::process_profile().snapshot(),
                                     info, path);
}

bool maybe_write_profile_from_env(std::string_view figure) {
  const std::string path = env_prof_out();
  if (path.empty()) return false;
  return write_profile_file(figure, path);
}

}  // namespace hbh::harness
