// Ablation: join latency — how quickly a new receiver starts receiving.
//
// The paper argues delay properties of the converged trees; an equally
// practical property of these soft-state protocols is how many refresh
// periods a *new* receiver waits before data reaches it. We converge a
// group, subscribe one extra receiver, then probe every half period until
// the newcomer reports a delivery.
#include <cstdio>

#include "fig_common.hpp"
#include "topo/isp.hpp"
#include "util/rng.hpp"

using namespace hbh;
using harness::Protocol;
using harness::Session;

namespace {

/// Time from subscribe() until the first probe delivery at `newcomer`.
double measure_join_latency(Session& session, NodeId newcomer) {
  const Time t0 = session.simulator().now();
  session.subscribe(newcomer);
  for (int attempt = 0; attempt < 60; ++attempt) {
    session.measure(/*drain=*/5.0);
    const auto& ds = session.receiver(newcomer).deliveries();
    if (!ds.empty()) return ds.front().received_at - t0;
  }
  return -1;  // never joined within the horizon
}

}  // namespace

int main() {
  init_log_level_from_env();
  const auto trials =
      env_trials(30);
  std::printf("=== Ablation: join latency of a late receiver (ISP) ===\n");
  std::printf("trials=%zu, 8 receivers converged, 9th joins late\n\n",
              trials);
  std::printf("%-8s %18s %18s %10s\n", "proto", "mean latency",
              "worst latency", "timeouts");

  for (const Protocol proto : harness::all_protocols()) {
    RunningStats latency;
    std::size_t timeouts = 0;
    for (std::size_t trial = 0; trial < trials; ++trial) {
      Rng rng{0xBEEF ^ trial};
      auto scenario = topo::make_isp();
      topo::randomize_costs(scenario.topo, rng);
      auto picked = rng.sample(scenario.candidate_receivers(), 9);
      const NodeId newcomer = picked.back();
      picked.pop_back();
      Session session{std::move(scenario), proto};
      Time delay = 0.1;
      for (const NodeId r : picked) {
        session.subscribe(r, delay);
        delay += 1.0;
      }
      session.run_for(400);
      const double l = measure_join_latency(session, newcomer);
      if (l < 0) {
        ++timeouts;
      } else {
        latency.add(l);
      }
    }
    std::printf("%-8s %18s %18.1f %10zu\n",
                std::string(to_string(proto)).c_str(),
                latency.to_string(1).c_str(), latency.max(), timeouts);
  }
  std::printf(
      "\nReading: PIM receivers attach as soon as the join installs oifs\n"
      "(~one path RTT); HBH/REUNITE newcomers wait for the next source\n"
      "tree round to install forwarding state, i.e. up to one tree period\n"
      "plus propagation.\n");
  bench::write_bench_artifacts("ablation_join_latency",
                               harness::TopoKind::kIsp);
  return 0;
}
