// The experiment driver reproducing the paper's §4 evaluation.
//
// One *trial* = one cost randomization + one random receiver set + one
// protocol, simulated to convergence, then probed. Trials are paired:
// the (figure, group size, trial index) triple fully determines topology
// costs and the receiver set, so every protocol sees identical conditions
// — the same pairing the paper gets by simulating all protocols on each
// sampled configuration.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "harness/session.hpp"
#include "metrics/json.hpp"
#include "topo/builders.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace hbh::harness {

/// Which evaluation topology (§4.1).
enum class TopoKind {
  kIsp,       ///< Figure 6: 18 routers + 18 hosts, source = node 18
  kRandom50,  ///< 50-router random topology, average degree 8.6
};

[[nodiscard]] std::string_view to_string(TopoKind k);

struct ExperimentSpec {
  TopoKind topology = TopoKind::kIsp;
  std::vector<std::size_t> group_sizes{};  ///< receivers per sweep point
  std::size_t trials = 100;                ///< paper uses 500
  std::uint64_t base_seed = 20010827;      ///< SIGCOMM'01 conference date
  bool symmetric_costs = false;            ///< ablation: symmetrize links
  Time warmup = 240;                       ///< control-plane convergence time
  Time drain = 160;                        ///< data-plane settling per probe
  /// Per-session wiring (soft-state timers, unicast-only clouds) handed
  /// verbatim to every trial's Session — the one source of truth for
  /// protocol timer configuration.
  SessionConfig session{};
};

/// Default sweeps matching the figures' x-axes.
[[nodiscard]] std::vector<std::size_t> isp_group_sizes();       // 2..16 step 2
[[nodiscard]] std::vector<std::size_t> random50_group_sizes();  // 5..45 step 5

struct TrialResult {
  double tree_cost = 0;
  double mean_delay = 0;
  bool delivered = false;  ///< every member exactly once
};

/// Runs a single (topology variant, protocol, group size, trial) cell.
/// The calling thread keeps the SPF table of the last paired cell it ran,
/// so running a cell's protocols back to back builds each shortest-path
/// tree once; the result never depends on whether the table was reused.
[[nodiscard]] TrialResult run_trial(const ExperimentSpec& spec,
                                    Protocol protocol, std::size_t group_size,
                                    std::size_t trial_index);

/// Runs `session` until its control plane is quiescent: no router state
/// change (structural-change counters and the state census fingerprint)
/// for `quiet` consecutive time units, up to `horizon`. Returns the time
/// of the last observed change — the control-plane convergence time.
/// Returns `horizon` if the session never settled.
[[nodiscard]] Time run_to_quiescence(Session& session, Time quiet = 100,
                                     Time horizon = 3000);

struct SweepCell {
  std::size_t group_size = 0;
  RunningStats tree_cost;
  RunningStats mean_delay;
  std::size_t delivery_failures = 0;
};

struct SweepResult {
  Protocol protocol{};
  std::vector<SweepCell> cells;
};

/// One protocol's instrumented session from the observed cell, kept alive
/// after its run so the artifact writers can read it.
struct ObservedRun {
  Protocol protocol{};
  std::unique_ptr<Session> session;
  /// The probe figure_trial took; unset under any other trial body.
  std::optional<Measurement> measurement;
  /// A strict-audit abort (HBH_AUDIT=strict) caught mid-run, so the
  /// violating event still reaches the artifacts; write_artifacts
  /// rethrows it once they are written. `measurement` may then be unset.
  std::exception_ptr abort;
};

/// The paired cell the artifacts describe — the largest swept group size,
/// trial 0 — run with telemetry, tracing and the invariant auditor on.
/// The observers change no event the protocols see, so the cell's trial
/// results are the same as without them.
struct ObservedCell {
  std::size_t group_size = 0;
  std::vector<ObservedRun> runs;  ///< all_protocols() order; empty if unrun
};

/// What a trial body gets besides its freshly built session: the cell's
/// receiver sample and its random stream. Both are functions of the
/// paired cell alone, so every protocol sees the same ones.
struct TrialContext {
  const ExperimentSpec& spec;
  Protocol protocol;
  /// Index of the trial in the [protocol][group size][trial] grid.
  std::size_t slot;
  /// `group_size` receivers sampled from the scenario's candidates, in
  /// random order. None has subscribed yet.
  std::vector<NodeId> receivers;
  /// The cell's stream, past the cost draw and the sample: a body that
  /// needs more randomness (churn scripts, extra channels, fault seeds)
  /// draws it here.
  Rng& rng;
  /// The observed run this trial fills, or null off the observed cell.
  ObservedRun* observed;
};

/// Runs one trial on its session. Bodies run concurrently on TrialPool
/// workers, so a body may write only its own trial's slot.
using TrialBody = std::function<void(Session&, TrialContext&)>;

/// The figures' trial (§4): the receivers join in sample order, spaced
/// 1.2 tree periods apart, the control plane runs for `spec.warmup` after
/// the last join, and one probe drained for `spec.drain` is measured.
TrialResult figure_trial(Session& session, TrialContext& trial);

/// Runs `body` on every (protocol, group size, trial) cell of `spec`,
/// fanning the (group size, trial) grid across one worker pool: each task
/// is one paired cell, whose four protocols run back to back on one
/// worker (HBH first) and share the cell's SPF table. `jobs` sizes the
/// pool: 0 resolves HBH_JOBS / hardware_concurrency (harness::TrialPool),
/// 1 is the serial path. `observed`, when given, receives the observed
/// cell (the last group size, trial 0), instrumented where the grid runs
/// it and swept by its auditor after the body; a strict-audit abort there
/// is held in the cell, not thrown, until write_artifacts rethrows it.
void run_cells(const ExperimentSpec& spec, const TrialBody& body,
               std::size_t jobs = 0, ObservedCell* observed = nullptr);

/// run_cells collecting `body`'s return value per trial, in grid order:
/// protocol p, group size s, trial t lands at index
/// (p * group_sizes.size() + s) * trials + t. The grid is identical at
/// every job count.
template <class Body>
auto run_grid(const ExperimentSpec& spec, Body&& body, std::size_t jobs = 0,
              ObservedCell* observed = nullptr) {
  using Result = std::invoke_result_t<Body&, Session&, TrialContext&>;
  std::vector<Result> grid(all_protocols().size() * spec.group_sizes.size() *
                           spec.trials);
  run_cells(
      spec,
      [&](Session& session, TrialContext& trial) {
        grid[trial.slot] = body(session, trial);
      },
      jobs, observed);
  return grid;
}

/// The figure sweep: run_grid of figure_trial, folded per protocol and
/// group size in grid order, so every table, CSV and report is
/// bit-identical for every job count.
[[nodiscard]] std::vector<SweepResult> run_all(
    const ExperimentSpec& spec, std::size_t jobs = 0,
    ObservedCell* observed = nullptr);

/// Renders the figure-style table: one row per group size, one column per
/// protocol. `metric` selects tree cost ("cost") or delay ("delay").
[[nodiscard]] std::string format_table(const std::vector<SweepResult>& results,
                                       std::string_view metric,
                                       bool with_ci = false);

/// Machine-readable CSV (group_size,protocol,metric,mean,ci95,trials).
[[nodiscard]] std::string format_csv(const std::vector<SweepResult>& results);

/// Called with the writer positioned inside the run report's root object
/// (after "anomalies", before "wall_seconds") — benches use it to append
/// their own top-level sections (e.g. ablation_congestion's
/// "congestion"); the hook must emit complete members (w.key(...) +
/// balanced begin/end).
using ReportSectionHook = std::function<void(metrics::JsonWriter&)>;

/// Where write_artifacts puts each artifact; an empty path skips it.
struct ArtifactPaths {
  std::string report;   ///< HBH_REPORT: hbh.run_report/v3 JSON
  std::string trace;    ///< HBH_TRACE_OUT: hbh.trace/v1 Perfetto JSON
  std::string audit;    ///< HBH_AUDIT_OUT: hbh.audit/v1 NDJSON
  std::string profile;  ///< HBH_PROF_OUT: hbh.perf_profile/v4 JSON

  /// The paths the HBH_* variables name (docs/OBSERVABILITY.md).
  [[nodiscard]] static ArtifactPaths from_env();

  /// True when an artifact reads the observed cell (all but the profile).
  [[nodiscard]] bool need_cell() const {
    return !report.empty() || !trace.empty() || !audit.empty();
  }
};

/// A bench's own x-axis, when it sweeps something besides the group size
/// (an ablation's loss rates, offered loads or channel counts): the
/// report's "spec" lists it as `name: [values]`. An empty name adds
/// nothing.
struct ReportAxis {
  std::string name;
  std::vector<double> values;
};

/// Writes every artifact `paths` names, all from `observed` (the observed
/// cell of the bench's run_cells call), and prints "<artifact>: <path>"
/// for each (an error on stderr for a file that cannot be created):
///   * report — `spec` (plus `axis`), the sweep summary of `results`, one
///     "runs" entry per protocol (registry metrics, state time series,
///     span summary, convergence timelines, phase profile), the
///     "anomalies" section, then `extra`'s sections;
///   * trace — HBH's causal trace as Perfetto JSON;
///   * audit — every protocol's anomalies as NDJSON (empty when clean);
///   * profile — the process-wide phase profile (every trial run so far,
///     keyed by protocol label, plus the report's rendering); its phase
///     counts are deterministic at any HBH_JOBS, its timings are not.
/// Only the profile is independent of `observed`: a bench with no protocol
/// runs passes a default spec, no results and an empty cell.
/// The cell's sessions already ran, so the trace and audit files are
/// byte-identical at any HBH_JOBS, and so is the report after
/// tools/report_scrub. Returns false if a file could not be written.
/// Rethrows a strict-audit abort the cell caught, after the files are
/// written.
bool write_artifacts(const ArtifactPaths& paths, const ExperimentSpec& spec,
                     const std::vector<SweepResult>& results,
                     std::string_view figure, const ObservedCell& observed,
                     const ReportAxis& axis = {},
                     const ReportSectionHook& extra = {});

}  // namespace hbh::harness
