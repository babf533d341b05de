// Ablation: traced convergence timelines per protocol.
//
// The causal tracer turns one instrumented run into per-receiver numbers
// the aggregate benches cannot see: how long after *this* receiver's
// subscribe did the first data packet reach it, how many control-message
// transmissions its join chain cost, and how long after unsubscribe its
// forwarding state actually disappeared. PIM grafts in about one join
// round-trip and prunes explicitly; HBH/REUNITE graft at the next tree
// round and leave by soft-state timeout (t2) — the timelines put numbers
// on that asymmetry, per receiver rather than per sweep cell.
//
// All four protocols replay the identical workload (same costs, same
// receiver sample, same event times), so rows are directly comparable.
#include <cstdio>

#include "fig_common.hpp"
#include "metrics/tracer.hpp"
#include "topo/isp.hpp"
#include "util/rng.hpp"

using namespace hbh;
using harness::Protocol;
using harness::Session;

int main() {
  init_log_level_from_env();
  constexpr std::size_t kGroup = 8;
  constexpr Time kDataPeriod = 2.0;  // steady data plane, 1 packet / 2 units
  constexpr Time kJoinSpacing = 12.0;
  constexpr Time kSettle = 240.0;    // after last join / after leaves
  const std::uint64_t seed = env_seed(0x7ACEDu);

  std::printf("=== Ablation: traced convergence timelines (ISP) ===\n");
  std::printf("receivers=%zu, data every %.0f units; half the group leaves "
              "after convergence\n\n",
              kGroup, kDataPeriod);
  std::printf("%-8s %7s %12s %12s %11s %7s %12s\n", "proto", "grafts",
              "join->data", "undelivered", "ctrl/graft", "leaves",
              "leave->gone");

  for (const Protocol proto : harness::all_protocols()) {
    // Identical conditions per protocol: one seed drives costs and the
    // receiver sample before the protocol is even chosen.
    Rng rng{seed};
    auto scenario = topo::make_isp();
    topo::randomize_costs(scenario.topo, rng);
    const auto receivers = rng.sample(scenario.candidate_receivers(), kGroup);

    Session session{std::move(scenario), proto, {.observe = {.tracing = true}}};
    auto channel = session.default_channel();

    Time delay = 0.1;
    for (const NodeId r : receivers) {
      channel.subscribe(r, delay);
      delay += kJoinSpacing;
    }
    const Time last_join = delay;
    // A steady data plane: every emission is its own root span, so each
    // receiver's first delivery lands within kDataPeriod of its graft
    // completing.
    const Time horizon = last_join + 2 * kSettle;
    for (Time t = 0.5; t < horizon; t += kDataPeriod) {
      session.simulator().schedule(t, [channel]() mutable {
        (void)channel.inject_data();
      });
    }
    session.run_for(last_join + kSettle);
    for (std::size_t i = 0; i < kGroup / 2; ++i) {
      channel.unsubscribe(receivers[i]);
    }
    session.run_for(kSettle);

    const metrics::ConvergenceSummary summary =
        metrics::analyze_convergence(session.tracer()->spans());
    std::printf("%-8s %7zu %12.2f %12zu %11.1f %7zu %12.2f\n",
                std::string(to_string(proto)).c_str(), summary.grafts.size(),
                summary.mean_join_to_first_delivery(),
                summary.undelivered_grafts(), summary.mean_control_per_graft(),
                summary.leaves.size(), summary.mean_leave_to_prune());
  }

  std::printf(
      "\nReading: join->data is the receiver-perceived graft latency (first\n"
      "delivery after subscribe); ctrl/graft counts control-message\n"
      "transmissions causally descended from each subscribe; leave->gone is\n"
      "explicit-prune latency for PIM and soft-state eviction (t2) for\n"
      "HBH/REUNITE.\n");
  bench::write_bench_artifacts("ablation_trace_convergence",
                               harness::TopoKind::kIsp);
  return 0;
}
