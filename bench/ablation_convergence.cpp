// Ablation: control-plane convergence time per protocol.
//
// How long after the last member joins does the router state stop
// changing? PIM trees settle in about one join round-trip; HBH needs a
// few tree/fusion rounds to relocate branching points; REUNITE's
// reconfiguration (stale -> marked trees -> re-anchor) is the slowest —
// the dynamic face of the instability Figures 2 and 4 describe.
#include <cstdio>

#include "fig_common.hpp"
#include "topo/isp.hpp"
#include "util/rng.hpp"

using namespace hbh;
using harness::Protocol;
using harness::Session;

int main() {
  init_log_level_from_env();
  const auto trials =
      env_trials(25);
  std::printf("=== Ablation: control-plane convergence time (ISP) ===\n");
  std::printf("trials=%zu; receivers join 1/time-unit, then we wait for "
              "state quiescence\n\n",
              trials);
  std::printf("%-8s %10s %22s %14s\n", "proto", "receivers",
              "convergence (mean)", "worst");

  for (const Protocol proto : harness::all_protocols()) {
    for (const std::size_t group : {4u, 16u}) {
      RunningStats convergence;
      for (std::size_t trial = 0; trial < trials; ++trial) {
        Rng rng{0x5EED ^ (group * 977 + trial)};
        auto scenario = topo::make_isp();
        topo::randomize_costs(scenario.topo, rng);
        const auto receivers =
            rng.sample(scenario.candidate_receivers(), group);
        Session session{std::move(scenario), proto};
        Time delay = 0.1;
        for (const NodeId r : receivers) {
          session.subscribe(r, delay);
          delay += 1.0;
        }
        convergence.add(harness::run_to_quiescence(session));
      }
      std::printf("%-8s %10zu %22s %14.0f\n",
                  std::string(to_string(proto)).c_str(), group,
                  convergence.to_string(1).c_str(), convergence.max());
    }
  }
  std::printf(
      "\nReading: convergence is measured from t=0 (first join) to the\n"
      "last router-state change; soft-state churn (entry expiry at t2=70)\n"
      "dominates HBH/REUNITE, while PIM settles as fast as joins travel.\n");
  bench::write_bench_artifacts("ablation_convergence",
                               harness::TopoKind::kIsp);
  return 0;
}
