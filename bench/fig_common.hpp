// Shared driver for the figure-reproduction benches.
//
// Each fig*_ binary reproduces one figure of the paper's §4.2: it runs the
// four protocols over the figure's group-size sweep and prints the series
// the paper plots. Tuned via the HBH_* environment knobs — accessors in
// util/env.hpp, authoritative table in README "Environment knobs"
// (HBH_TRIALS defaults to 60 here; the paper uses 500).
#pragma once

#include <cstdio>
#include <string>

#include "harness/experiment.hpp"
#include "util/env.hpp"
#include "util/log.hpp"

namespace hbh::bench {

inline harness::ExperimentSpec spec_from_env(harness::TopoKind topology) {
  harness::ExperimentSpec spec;
  spec.topology = topology;
  spec.group_sizes = topology == harness::TopoKind::kIsp
                         ? harness::isp_group_sizes()
                         : harness::random50_group_sizes();
  // Default trial counts keep the whole bench suite to minutes on one
  // core; the paper's full 500-trial runs are one env var away.
  const std::size_t default_trials =
      topology == harness::TopoKind::kIsp ? 60 : 25;
  spec.trials = env_trials(default_trials);
  spec.base_seed = env_seed();
  return spec;
}

inline int run_figure(const char* figure, const char* paper_caption,
                      harness::TopoKind topology, const char* metric) {
  init_log_level_from_env();
  const harness::ExperimentSpec spec = spec_from_env(topology);
  std::printf("=== %s — %s ===\n", figure, paper_caption);
  // Deliberately no jobs= in the banner: stdout must be byte-identical
  // across HBH_JOBS settings so CI can diff serial vs parallel runs.
  std::printf("topology=%s trials=%zu seed=%llu (paper: 500 trials)\n\n",
              std::string(to_string(topology)).c_str(), spec.trials,
              static_cast<unsigned long long>(spec.base_seed));
  const harness::ArtifactPaths artifacts = harness::ArtifactPaths::from_env();
  harness::ObservedCell observed;
  const auto results =
      harness::run_all(spec, 0, artifacts.need_cell() ? &observed : nullptr);
  std::printf("%s\n", harness::format_table(results, metric).c_str());

  std::size_t failures = 0;
  for (const auto& sweep : results) {
    for (const auto& cell : sweep.cells) failures += cell.delivery_failures;
  }
  if (failures != 0) {
    std::printf("note: %zu/%zu trials were measured before full soft-state "
                "convergence\n",
                failures, spec.trials * spec.group_sizes.size() * 4);
  }
  if (env_csv()) {
    std::printf("\n%s", harness::format_csv(results).c_str());
  }
  return harness::write_artifacts(artifacts, spec, results, figure, observed)
             ? 0
             : 1;
}

/// Artifact support for benches that run no figure sweep: the observed
/// cell (the largest group size of `topology`'s sweep, trial 0) runs once
/// per protocol with `customize` applied, and every artifact the HBH_*
/// variables request is written from it. `extra` appends bench-specific top-level report
/// sections (harness::ReportSectionHook semantics).
inline void write_bench_artifacts(
    const char* name, harness::TopoKind topology,
    const harness::SessionHook& customize = {},
    const harness::ReportSectionHook& extra = {}) {
  const harness::ExperimentSpec spec = spec_from_env(topology);
  const harness::ArtifactPaths artifacts = harness::ArtifactPaths::from_env();
  harness::ObservedCell observed;
  if (artifacts.need_cell()) observed = harness::observe_cell(spec, customize);
  // No sweep: the report's "sweep" section lists each protocol, empty.
  std::vector<harness::SweepResult> results;
  for (const harness::Protocol p : harness::all_protocols()) {
    results.push_back(harness::SweepResult{p, {}});
  }
  (void)harness::write_artifacts(artifacts, spec, results, name, observed,
                                 extra);
}

}  // namespace hbh::bench
