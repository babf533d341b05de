// Reproduces Figures 7(b) and 8(b) from one sweep of the 50-node random
// topology (average degree 8.6): average tree cost (packet copies) and
// average receiver delay vs number of receivers.
#include "fig_common.hpp"

int main() {
  return hbh::bench::run_figures(hbh::harness::TopoKind::kRandom50);
}
