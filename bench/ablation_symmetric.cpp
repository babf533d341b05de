// Ablation: symmetric link costs (DESIGN.md §5).
//
// Every pathology the paper attributes to asymmetric unicast routing must
// vanish when c(a,b) == c(b,a): REUNITE stops duplicating packets, reverse
// SPTs coincide with SPTs, and HBH / PIM-SS / REUNITE converge to the same
// tree cost. This bench reruns the Figure 7(a)/8(a) sweep with symmetrized
// costs to demonstrate it.
#include <cstdio>

#include "fig_common.hpp"

int main() {
  using namespace hbh;
  init_log_level_from_env();
  harness::ExperimentSpec spec =
      bench::spec_from_env(harness::TopoKind::kIsp);
  spec.symmetric_costs = true;
  std::printf("=== Ablation: symmetric link costs, ISP topology ===\n");
  std::printf("trials=%zu — asymmetry-driven gaps should collapse\n\n",
              spec.trials);
  const harness::ArtifactPaths artifacts = harness::ArtifactPaths::from_env();
  harness::ObservedCell observed;
  const auto results =
      harness::run_all(spec, 0, artifacts.need_cell() ? &observed : nullptr);
  std::printf("TREE COST\n%s\n",
              harness::format_table(results, "cost").c_str());
  std::printf("DELAY\n%s\n", harness::format_table(results, "delay").c_str());

  // Quantify the collapse: max relative gap between HBH and PIM-SS
  // (results come in all_protocols() order: PIM-SM, PIM-SS, REUNITE, HBH).
  const auto& ss = results[1].cells;
  const auto& hbh = results[3].cells;
  double max_gap = 0;
  for (std::size_t i = 0; i < hbh.size(); ++i) {
    const double b = ss[i].tree_cost.mean();
    max_gap = std::max(max_gap, std::abs(hbh[i].tree_cost.mean() - b) / b);
  }
  std::printf("max |HBH - PIM-SS| relative tree-cost gap: %.2f%% "
              "(identical trees up to equal-cost tie-breaks)\n",
              100.0 * max_gap);
  return harness::write_artifacts(artifacts, spec, results,
                                 "ablation_symmetric", observed)
             ? 0
             : 1;
}
