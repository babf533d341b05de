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
#include <string>
#include <vector>

#include "harness/session.hpp"
#include "metrics/json.hpp"
#include "topo/builders.hpp"
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
  Measurement measurement;
  /// A strict-audit abort (HBH_AUDIT=strict) caught mid-run, so the
  /// violating event still reaches the artifacts; write_artifacts
  /// rethrows it once they are written. `measurement` may then be empty.
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

/// Runs all four protocols, fanning the (group size, trial) grid across
/// one worker pool: each task is one paired cell, whose four protocols run
/// back to back on one worker (HBH first) and share the cell's SPF table.
/// `jobs` sizes the pool: 0 resolves HBH_JOBS / hardware_concurrency
/// (harness::TrialPool), 1 is the serial path. Results are bit-identical
/// for every job count: each trial writes a pre-sized grid slot and
/// aggregation runs in grid order. `observed`, when given, receives the
/// sweep's own observed cell, instrumented where the sweep runs it; a
/// strict-audit abort there is held in the cell, not thrown, until
/// write_artifacts rethrows it.
[[nodiscard]] std::vector<SweepResult> run_all(
    const ExperimentSpec& spec, std::size_t jobs = 0,
    ObservedCell* observed = nullptr);

/// Hook run on each observed session before its warmup — benches without
/// a sweep use it to re-apply their scenario conditions (e.g. fault
/// injection) so the artifacts reflect them.
using SessionHook = std::function<void(Session&)>;

/// Runs only the observed cell, through the same per-cell path as
/// run_all, with `customize` applied — for benches that run no sweep.
[[nodiscard]] ObservedCell observe_cell(const ExperimentSpec& spec,
                                        const SessionHook& customize = {});

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

/// Writes every artifact `paths` names, all from `observed` (run_all's or
/// observe_cell's observed cell), and prints "<artifact>: <path>" for each
/// (an error on stderr for a file that cannot be created):
///   * report — the sweep summary of `results`, one "runs" entry per
///     protocol (registry metrics, state time series, span summary,
///     convergence timelines, phase profile), the "anomalies" section,
///     then `extra`'s sections;
///   * trace — HBH's causal trace as Perfetto JSON;
///   * audit — every protocol's anomalies as NDJSON (empty when clean);
///   * profile — the process-wide phase profile (every trial run so far,
///     keyed by protocol label, plus the report's rendering); its phase
///     counts are deterministic at any HBH_JOBS, its timings are not.
/// Only the profile is independent of `observed`: a bench with no protocol
/// runs passes a default spec, no results and an empty cell.
/// The cell's sessions already ran, so the trace and audit files are
/// byte-identical at any HBH_JOBS, and so is the report after
/// tools/report_scrub. Returns false if a file could not be written. Rethrows a strict-audit
/// abort the cell caught, after the files are written.
bool write_artifacts(const ArtifactPaths& paths, const ExperimentSpec& spec,
                     const std::vector<SweepResult>& results,
                     std::string_view figure, const ObservedCell& observed,
                     const ReportSectionHook& extra = {});

}  // namespace hbh::harness
