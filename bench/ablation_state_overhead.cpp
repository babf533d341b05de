// Ablation: router state and control-plane overhead per protocol.
//
// The recursive-unicast motivation (paper §2.1) is state reduction: "the
// minority of routers are branching nodes", so REUNITE/HBH keep forwarding
// state (MFT) only there and one-entry control state (MCT) elsewhere.
// This bench converges each protocol on the ISP topology and reports
//  * MCT (control) entries and MFT/oif (forwarding) entries network-wide,
//  * how many routers hold any state at all,
//  * steady-state control-message transmissions per refresh period.
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
      env_trials(30);
  std::printf("=== Ablation: router state & control overhead (ISP) ===\n");
  std::printf("trials=%zu, converged at t=400, overhead window 100 tu\n\n",
              trials);
  std::printf("%-8s %10s %12s %12s %14s %16s\n", "proto", "receivers",
              "MCT entries", "MFT entries", "stateful rtrs", "ctl msgs/period");

  for (const Protocol proto : harness::all_protocols()) {
    for (const std::size_t group : {4u, 8u, 16u}) {
      RunningStats mct, mft, stateful, ctl_rate;
      for (std::size_t trial = 0; trial < trials; ++trial) {
        Rng rng{0xC0FFEE ^ (group * 131 + trial)};
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
        session.run_for(400);
        const auto census = session.state_census();
        mct.add(static_cast<double>(census.control_entries));
        mft.add(static_cast<double>(census.forwarding_entries));
        stateful.add(static_cast<double>(census.routers_with_state));

        const std::uint64_t before =
            session.network().counters().control_transmissions;
        session.run_for(100);
        const std::uint64_t after =
            session.network().counters().control_transmissions;
        ctl_rate.add(static_cast<double>(after - before) / 10.0);
      }
      std::printf("%-8s %10zu %12.1f %12.1f %14.1f %16.1f\n",
                  std::string(to_string(proto)).c_str(), group, mct.mean(),
                  mft.mean(), stateful.mean(), ctl_rate.mean());
    }
  }
  std::printf(
      "\nReading: HBH/REUNITE concentrate forwarding entries at branching\n"
      "routers and keep single-entry MCTs elsewhere; PIM needs oif state at\n"
      "every on-tree router. Control rate counts every join/tree/fusion\n"
      "link transmission per refresh period.\n");
  bench::write_bench_artifacts("ablation_state_overhead",
                               harness::TopoKind::kIsp);
  return 0;
}
