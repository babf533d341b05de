// Reproduces Figures 7(a) and 8(a) from one sweep of the ISP topology:
// average tree cost (packet copies) and average receiver delay vs number
// of receivers, for PIM-SM, PIM-SS, REUNITE, and HBH.
#include "fig_common.hpp"

int main() { return hbh::bench::run_figures(hbh::harness::TopoKind::kIsp); }
