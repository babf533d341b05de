// Shared driver for the figure-reproduction benches.
//
// Each fig*_ binary reproduces one topology's pair of figures from the
// paper's §4.2, tree cost (Figure 7) and receiver delay (Figure 8), which
// read the same trials: it runs the four protocols over the topology's
// group-size sweep once and prints both series the paper plots. Tuned via
// the HBH_* environment knobs — accessors in util/env.hpp, authoritative
// table in README "Environment knobs" (HBH_TRIALS defaults to 60 on the
// ISP topology and 25 on random-50; the paper uses 500).
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

/// Runs `topology`'s sweep once and prints the two figures that read it,
/// panel (a) on the ISP topology and (b) on random-50: Figure 7 (tree
/// cost), then Figure 8 (receiver delay), each block exactly as it would
/// read alone. Then come the CSV (HBH_CSV, both metrics) and the
/// artifacts the HBH_* variables request.
inline int run_figures(harness::TopoKind topology) {
  init_log_level_from_env();
  const harness::ExperimentSpec spec = spec_from_env(topology);
  const harness::ArtifactPaths artifacts = harness::ArtifactPaths::from_env();
  harness::ObservedCell observed;
  const auto results =
      harness::run_all(spec, 0, artifacts.need_cell() ? &observed : nullptr);

  std::size_t failures = 0;
  for (const auto& sweep : results) {
    for (const auto& cell : sweep.cells) failures += cell.delivery_failures;
  }
  const char panel = topology == harness::TopoKind::kIsp ? 'a' : 'b';
  for (const int figure : {7, 8}) {
    if (figure == 8) std::printf("\n");
    std::printf("=== Figure %d(%c) — %s, %s ===\n", figure, panel,
                figure == 7 ? "average number of packet copies"
                            : "receiver average delay",
                panel == 'a' ? "ISP topology" : "50-node random topology");
    // Deliberately no jobs= in the banner: stdout must be byte-identical
    // across HBH_JOBS settings so CI can diff serial vs parallel runs.
    std::printf("topology=%s trials=%zu seed=%llu (paper: 500 trials)\n\n",
                std::string(to_string(topology)).c_str(), spec.trials,
                static_cast<unsigned long long>(spec.base_seed));
    std::printf("%s\n",
                harness::format_table(results, figure == 7 ? "cost" : "delay")
                    .c_str());
    if (failures != 0) {
      std::printf("note: %zu/%zu trials were measured before full soft-state "
                  "convergence\n",
                  failures, spec.trials * spec.group_sizes.size() * 4);
    }
  }
  if (env_csv()) {
    std::printf("\n%s", harness::format_csv(results).c_str());
  }
  const std::string name =
      std::string("Figures 7(") + panel + "), 8(" + panel + ")";
  return harness::write_artifacts(artifacts, spec, results, name, observed)
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
