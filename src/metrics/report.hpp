// Machine-readable run reports (schema "hbh.run_report/v3").
//
// A RunReport bundles everything one instrumented run produced — free-form
// metadata, the Registry's counters/gauges/histograms (per-type message
// and byte counts among them), the StateSampler's time series, the
// Tracer's span summary and convergence timelines — and serializes it to
// JSON. Benches opt in with HBH_REPORT=path.json (see
// docs/OBSERVABILITY.md for the schema); after tools/report_scrub two
// reports of the same simulation compare byte-for-byte.
#pragma once

#include <map>
#include <ostream>
#include <span>
#include <string>

#include "metrics/auditor.hpp"
#include "metrics/json.hpp"
#include "metrics/profiler.hpp"
#include "metrics/registry.hpp"
#include "metrics/sampler.hpp"
#include "metrics/tracer.hpp"

namespace hbh::metrics {

inline constexpr std::string_view kRunReportSchema = "hbh.run_report/v3";

struct RunReport {
  /// Free-form string metadata ("protocol", "topology", ...).
  std::map<std::string, std::string> info;
  /// Free-form numeric metadata ("wall_seconds", "probe.tree_cost", ...).
  std::map<std::string, double> numbers;

  /// Optional sections; null pointers are simply omitted from the JSON.
  const Registry* registry = nullptr;
  const StateSampler* sampler = nullptr;
  const Tracer* tracer = nullptr;                 ///< causal span summary
  const ConvergenceSummary* convergence = nullptr;
  /// Aggregated phase profile (schema hbh.perf_profile/v4); omitted when
  /// null or empty. Phase counts are deterministic at any HBH_JOBS;
  /// timings are excluded from byte-identity checks.
  const PhaseMap* profile = nullptr;

  /// Writes the report's keys into an already-open JSON object — lets a
  /// caller embed several runs in one document (harness::write_artifacts).
  void write_body(JsonWriter& w) const;

  /// Writes a standalone {schema, ...} document.
  void write(std::ostream& out) const;

  /// Writes to `path`; false if the file could not be created.
  [[nodiscard]] bool write_file(const std::string& path) const;
};

/// One audited run as the report's "anomalies" section lists it.
struct AuditedRun {
  std::string_view label;  ///< its key under "by_protocol"
  const Auditor* auditor = nullptr;
};

/// Writes the "anomalies" member (schema hbh.anomalies/v1) into an open
/// report object: the grand total, whether any auditor was strict, their
/// summed sweep time, and per run its total, per-kind counts and retained
/// events. A clean run reports all-zero counters. Counters and events are
/// deterministic at any HBH_JOBS; only audit_wall_seconds varies
/// (tools/report_scrub strips it).
void write_anomalies(JsonWriter& w, std::span<const AuditedRun> runs);

}  // namespace hbh::metrics
