// Ablation: the control plane's dynamics and state, per protocol (ISP).
//
// The figures measure converged trees; this ablation measures how the
// soft-state protocols get there and what they keep. Each trial:
//  1. all receivers but the last join, 1.2 tree periods apart, while the
//     source sends one data packet every kDataPeriod;
//  2. settle — time from the last join until router state stops changing
//     (harness::run_to_quiescence). PIM settles in about one join
//     round-trip, HBH after tree/fusion rounds relocate branching points,
//     REUNITE (stale -> marked -> re-anchor) slowest: the dynamic face of
//     the instability of Figures 2 and 4;
//  3. the §2.1 census — MCT (control) and MFT/oif (forwarding) entries,
//     routers holding any state — and control transmissions per refresh
//     period over spec.drain;
//  4. late join — the last receiver subscribes; time until data reaches it;
//  5. leave — half of the first receivers unsubscribe; time until router
//     state is quiet again (PIM prunes, HBH/REUNITE wait out t2).
// The traced block reads the observed cell's causal trace
// (metrics::analyze_convergence): per-receiver join -> first data,
// control transmissions per graft and leave -> forwarding state gone.
//
// Determinism: one harness::run_grid; the observed cell is always run, so
// stdout is byte-identical at any HBH_JOBS and with or without artifacts.
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "fig_common.hpp"
#include "metrics/tracer.hpp"

using namespace hbh;
using harness::Session;
using harness::TrialContext;

namespace {

constexpr Time kDataPeriod = 2.0;    // steady data plane
constexpr Time kLateHorizon = 300;   // cap on the late join's wait

/// One trial: settle, MCT, MFT, stateful routers, control transmissions
/// per refresh period, late join latency, leave settle.
using Row = std::array<double, 7>;

Row control_plane_trial(Session& session, TrialContext& trial) {
  const std::vector<NodeId>& receivers = trial.receivers;
  const Time period = trial.spec.session.timers.tree_period;
  session.default_channel().set_traffic(
      {.rate = 1 / kDataPeriod, .start = 0.5});
  Time last_join = 0.1;
  for (std::size_t i = 0; i + 1 < receivers.size(); ++i) {
    last_join = 0.1 + static_cast<double>(i) * 1.2 * period;
    session.subscribe(receivers[i], last_join);
  }
  session.run_for(last_join);
  const Time settle = harness::run_to_quiescence(session);

  const harness::StateCensus census = session.state_census();
  const std::uint64_t before =
      session.network().counters().control_transmissions;
  session.run_for(trial.spec.drain);
  const std::uint64_t control =
      session.network().counters().control_transmissions - before;

  const NodeId late = receivers.back();
  const Time subscribed = session.simulator().now();
  session.subscribe(late);
  const auto& deliveries = session.receiver(late).deliveries();
  while (deliveries.empty() &&
         session.simulator().now() - subscribed < kLateHorizon) {
    session.run_for(kDataPeriod);
  }
  const Time join_latency = deliveries.empty()
                                ? kLateHorizon
                                : deliveries.front().received_at - subscribed;

  for (std::size_t i = 0; i < (receivers.size() - 1) / 2; ++i) {
    session.unsubscribe(receivers[i]);
  }
  const Time leave_settle = harness::run_to_quiescence(session);
  return {settle,
          static_cast<double>(census.control_entries),
          static_cast<double>(census.forwarding_entries),
          static_cast<double>(census.routers_with_state),
          static_cast<double>(control) / (trial.spec.drain / period),
          join_latency,
          leave_settle};
}

}  // namespace

int main() {
  init_log_level_from_env();
  // 4, 8 and 16 converged receivers, plus the late one.
  harness::ExperimentSpec spec =
      bench::spec_from_env(harness::TopoKind::kIsp, {5, 9, 17}, 30);
  spec.warmup = 0;   // no fixed warmup: each trial runs to quiescence
  spec.drain = 100;  // the control-overhead window
  const harness::ArtifactPaths artifacts = harness::ArtifactPaths::from_env();
  harness::ObservedCell observed;
  const auto grid =
      harness::run_grid(spec, control_plane_trial, 0, &observed);

  std::printf("=== Ablation: control-plane dynamics and state (ISP) ===\n");
  std::printf("trials=%zu seed=%llu; joins 1.2 tree periods apart, data "
              "every %.0f units,\nthen settle, census, one late join and "
              "half the group leaving\n\n",
              spec.trials, static_cast<unsigned long long>(spec.base_seed),
              kDataPeriod);
  std::printf("%-8s %9s %16s %6s %5s %5s %8s %10s %15s %6s %13s\n", "proto",
              "receivers", "settle (mean)", "worst", "MCT", "MFT", "stateful",
              "ctl/period", "late join", "worst", "leave settle");
  const auto& protocols = harness::all_protocols();
  for (std::size_t p = 0; p < protocols.size(); ++p) {
    for (std::size_t s = 0; s < spec.group_sizes.size(); ++s) {
      const auto st = bench::fold(grid, spec, p, s);
      std::printf("%-8s %9zu %16s %6.0f %5.1f %5.1f %8.1f %10.1f %15s %6.1f "
                  "%13.1f\n",
                  std::string(to_string(protocols[p])).c_str(),
                  spec.group_sizes[s] - 1, st[0].to_string(1).c_str(),
                  st[0].max(), st[1].mean(), st[2].mean(), st[3].mean(),
                  st[4].mean(), st[5].to_string(1).c_str(), st[5].max(),
                  st[6].mean());
    }
  }

  std::printf("\nTraced, observed cell (%zu receivers, trial 0):\n",
              observed.group_size);
  std::printf("%-8s %7s %12s %12s %11s %7s %12s\n", "proto", "grafts",
              "join->data", "undelivered", "ctrl/graft", "leaves",
              "leave->gone");
  for (const harness::ObservedRun& run : observed.runs) {
    const metrics::ConvergenceSummary summary =
        metrics::analyze_convergence(run.session->tracer()->spans());
    std::printf("%-8s %7zu %12.2f %12zu %11.1f %7zu %12.2f\n",
                std::string(to_string(run.protocol)).c_str(),
                summary.grafts.size(), summary.mean_join_to_first_delivery(),
                summary.undelivered_grafts(), summary.mean_control_per_graft(),
                summary.leaves.size(), summary.mean_leave_to_prune());
  }
  std::printf(
      "\nReading: PIM settles as fast as joins travel and prunes explicitly;\n"
      "HBH/REUNITE soft state settles over tree rounds and is evicted at t2.\n"
      "A late HBH receiver waits for the next tree round. HBH/REUNITE keep\n"
      "forwarding entries only at branching routers (single-entry MCTs\n"
      "elsewhere); PIM needs oifs at every on-tree router. ctrl/graft counts\n"
      "control transmissions causally descended from each subscribe.\n");
  return harness::write_artifacts(artifacts, spec, {},
                                  "ablation_control_plane", observed)
             ? 0
             : 1;
}
