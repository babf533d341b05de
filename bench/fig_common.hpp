// Shared driver for the figure-reproduction benches, and the spec and
// grid helpers the ablations share.
//
// Each fig*_ binary reproduces one topology's pair of figures from the
// paper's §4.2, tree cost (Figure 7) and receiver delay (Figure 8), which
// read the same trials: it runs the four protocols over the topology's
// group-size sweep once and prints both series the paper plots. Tuned via
// the HBH_* environment knobs — accessors in util/env.hpp, authoritative
// table in README "Environment knobs" (HBH_TRIALS defaults to 60 on the
// ISP topology and 25 on random-50; the paper uses 500).
#pragma once

#include <array>
#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "util/env.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"

namespace hbh::bench {

/// A bench's spec: `topology`'s cells at `group_sizes`, HBH_TRIALS trials
/// (default `default_trials`), HBH_SEED. An ablation runs it through
/// harness::run_grid once per value of its own x-axis.
inline harness::ExperimentSpec spec_from_env(
    harness::TopoKind topology, std::vector<std::size_t> group_sizes,
    std::size_t default_trials) {
  harness::ExperimentSpec spec;
  spec.topology = topology;
  spec.group_sizes = std::move(group_sizes);
  spec.trials = env_trials(default_trials);
  spec.base_seed = env_seed();
  return spec;
}

/// The figures' spec for `topology`. Default trial counts keep the whole
/// bench suite to minutes on one core; the paper's full 500-trial runs
/// are one env var away.
inline harness::ExperimentSpec spec_from_env(harness::TopoKind topology) {
  const bool isp = topology == harness::TopoKind::kIsp;
  return spec_from_env(topology,
                       isp ? harness::isp_group_sizes()
                           : harness::random50_group_sizes(),
                       isp ? 60 : 25);
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

/// The trials of protocol `p` (all_protocols() index) at group size index
/// `s` in a harness::run_grid result, in trial order.
template <class Row>
std::span<const Row> cell_trials(const std::vector<Row>& grid,
                                 const harness::ExperimentSpec& spec,
                                 std::size_t p, std::size_t s = 0) {
  return {grid.data() + (p * spec.group_sizes.size() + s) * spec.trials,
          spec.trials};
}

/// Those trials' rows of numbers folded column by column, in trial order.
template <std::size_t N>
std::array<RunningStats, N> fold(const std::vector<std::array<double, N>>& grid,
                                 const harness::ExperimentSpec& spec,
                                 std::size_t p, std::size_t s = 0) {
  std::array<RunningStats, N> out;
  for (const auto& row : cell_trials(grid, spec, p, s)) {
    for (std::size_t k = 0; k < N; ++k) out[k].add(row[k]);
  }
  return out;
}

}  // namespace hbh::bench
