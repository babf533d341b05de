// Serialization of phase profiles (schema "hbh.perf_profile/v3").
//
// The profiler core lives in src/util/profiler.hpp so the instrumented
// layers (routing, sim, mcast) can open HBH_PHASE scopes without a
// dependency cycle; this header re-exports the types under hbh::metrics
// and adds the JSON side: the per-protocol "perf_profile" section of the
// run report and the standalone profile document written for
// HBH_PROF_OUT (see docs/OBSERVABILITY.md "Phase profiling").
//
// Timings (wall_ns) vary run to run and are excluded from the repo's
// byte-identity checks; phase *counts* are deterministic and must be
// byte-identical at any HBH_JOBS.
#pragma once

#include <map>
#include <string>
#include <string_view>

#include "metrics/json.hpp"
#include "util/profiler.hpp"

namespace hbh::metrics {

using prof::PhaseAggregator;
using prof::PhaseMap;
using prof::PhaseProfiler;
using prof::PhaseScope;
using prof::PhaseStats;
using prof::ScopedProfiler;

inline constexpr std::string_view kPerfProfileSchema = "hbh.perf_profile/v3";

/// Writes a "phases" object value: {"<path>": {count, wall_ns, allocs,
/// alloc_bytes}, ...}. Expects the writer positioned for a value.
void write_phase_map(JsonWriter& w, const PhaseMap& phases);

/// Writes a full perf_profile section value: {"schema", "phases",
/// "resources": {peak_rss_bytes, alloc_counting}}.
void write_perf_profile(JsonWriter& w, const PhaseMap& phases);

/// Writes a standalone {schema, info, labels: {<label>: {phases}}, resources}
/// document for every label in `by_label` (the HBH_PROF_OUT artifact);
/// false if the file could not be created.
[[nodiscard]] bool write_profile_file(
    const std::map<std::string, PhaseMap>& by_label,
    const std::map<std::string, std::string>& info, const std::string& path);

}  // namespace hbh::metrics
