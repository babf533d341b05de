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
#include <functional>
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

/// Runs the full sweep for one protocol. `jobs` sizes the worker pool
/// fanning the (group size, trial) grid out across threads: 0 resolves
/// HBH_JOBS / hardware_concurrency (harness::TrialPool), 1 is the serial
/// path. Results are bit-identical for every job count: each trial writes
/// a pre-sized grid slot and aggregation runs in grid order.
[[nodiscard]] SweepResult run_sweep(const ExperimentSpec& spec,
                                    Protocol protocol, std::size_t jobs = 0);

/// Runs all four protocols, fanning the (group size, trial) grid across
/// one worker pool: each task is one paired cell, whose four protocols run
/// back to back on one worker (HBH first) and share the cell's SPF table
/// (same determinism contract and `jobs` semantics as run_sweep).
[[nodiscard]] std::vector<SweepResult> run_all(const ExperimentSpec& spec,
                                               std::size_t jobs = 0);

/// Renders the figure-style table: one row per group size, one column per
/// protocol. `metric` selects tree cost ("cost") or delay ("delay").
[[nodiscard]] std::string format_table(const std::vector<SweepResult>& results,
                                       std::string_view metric,
                                       bool with_ci = false);

/// Machine-readable CSV (group_size,protocol,metric,mean,ci95,trials).
[[nodiscard]] std::string format_csv(const std::vector<SweepResult>& results);

/// Writes a machine-readable JSON run report (schema hbh.run_report/v2) to
/// `path`: the sweep summary in `results`, plus one fully instrumented
/// re-run per protocol (largest group size, trial 0, telemetry enabled) with
/// registry metrics, sampled protocol-state time series, and per-type
/// message/byte counts. `customize`, when set, runs on each instrumented
/// session before the warmup — benches use it to re-apply their scenario
/// conditions (e.g. fault injection) so the report reflects them.
/// Returns false if the file could not be created. `extra`, when set, is
/// called with the writer positioned inside the report's root object
/// (after "runs", before "wall_seconds") — benches use it to append their
/// own top-level sections (e.g. ablation_congestion's "congestion"); the
/// hook must emit complete members (w.key(...) + balanced begin/end).
using SessionHook = std::function<void(Session&)>;
using ReportSectionHook = std::function<void(metrics::JsonWriter&)>;
bool write_run_report(const ExperimentSpec& spec,
                      const std::vector<SweepResult>& results,
                      std::string_view figure, const std::string& path,
                      const SessionHook& customize = {},
                      const ReportSectionHook& extra = {});

/// Honors HBH_REPORT=path.json (docs/OBSERVABILITY.md): writes the report
/// there and returns true, or does nothing when the variable is unset.
bool maybe_write_report_from_env(const ExperimentSpec& spec,
                                 const std::vector<SweepResult>& results,
                                 std::string_view figure);

/// Writes a Perfetto/Chrome trace-event JSON (schema hbh.trace/v1) of one
/// serial instrumented HBH re-run — the largest swept group size, trial 0,
/// causal tracing enabled. Serial by construction, so the file is
/// byte-identical at any HBH_JOBS setting. Returns false if the file could
/// not be created.
bool write_trace_file(const ExperimentSpec& spec, std::string_view figure,
                      const std::string& path,
                      const SessionHook& customize = {});

/// Honors HBH_TRACE_OUT=path.json: writes the trace there and returns
/// true, or does nothing when the variable is unset.
bool maybe_write_trace_from_env(const ExperimentSpec& spec,
                                std::string_view figure,
                                const SessionHook& customize = {});

/// Writes the forwarding-plane invariant audit as NDJSON (one hbh.audit/v1
/// object per anomaly; an empty file means a clean run): one serial audited
/// re-run per protocol — the largest swept group size, trial 0, the same
/// cell the report deep-dives. Serial by construction, so the file is
/// byte-identical at any HBH_JOBS setting. Returns false if the file could
/// not be created.
bool write_audit_file(const ExperimentSpec& spec, std::string_view figure,
                      const std::string& path,
                      const SessionHook& customize = {});

/// Honors HBH_AUDIT_OUT=path.ndjson: writes the audit stream there and
/// returns true, or does nothing when the variable is unset.
bool maybe_write_audit_from_env(const ExperimentSpec& spec,
                                std::string_view figure,
                                const SessionHook& customize = {});

/// Writes the process-wide phase profile accumulated so far (every trial
/// run_trial executed, the report deep-dives, report rendering) as a
/// standalone hbh.perf_profile/v3 document keyed by protocol label.
/// Timings vary run to run; phase counts are deterministic at any
/// HBH_JOBS. Returns false if the file could not be created.
bool write_profile_file(std::string_view figure, const std::string& path);

/// Honors HBH_PROF_OUT=path.json: writes the profile there and returns
/// true, or does nothing when the variable is unset.
bool maybe_write_profile_from_env(std::string_view figure);

}  // namespace hbh::harness
