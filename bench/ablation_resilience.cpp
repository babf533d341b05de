// Ablation: delivery under fault injection, per protocol.
//
// The paper's robustness claim is qualitative: soft state plus periodic
// refreshes "adapts to network dynamics" (§2.1). This ablation makes it
// quantitative. Every backbone link of the ISP topology gets a seeded
// impairment (packet loss plus a reordering jitter window); we then ask
// two questions per protocol and loss rate:
//
//   * delivery ratio — what fraction of (probe, receiver) pairs still
//     received data while the fabric was lossy?
//   * reconvergence  — after the impairment lifts, how long until a probe
//     is again delivered exactly once to every member?
//
// Determinism: each loss rate is one harness::run_grid over the same
// paired cells, and the impairment plane draws from per-link streams
// seeded from the cell's own stream (net::ImpairmentPlane), so every
// protocol and loss rate replays the same costs, receivers and fault
// seeds, and the output is byte-identical at any HBH_JOBS.
#include <array>
#include <cstdio>
#include <vector>

#include "fig_common.hpp"

using namespace hbh;
using harness::Session;
using harness::TrialContext;

namespace {

constexpr std::size_t kProbes = 8;  // probes sent while impaired
constexpr Time kHorizon = 400;      // give up on reconvergence past this
constexpr double kObservedLoss = 0.05;  // the cell the artifacts show

/// One trial: delivery ratio while impaired, reconvergence after.
using Row = std::array<double, 2>;

/// Joins 1/time unit, converges for spec.warmup, impairs every backbone
/// link at `loss`, probes, then lifts the impairment and waits for a
/// clean probe.
Row resilience_trial(Session& session, TrialContext& trial, double loss) {
  Time delay = 0.1;
  for (const NodeId r : trial.receivers) {
    session.subscribe(r, delay);
    delay += 1.0;
  }
  session.run_for(trial.spec.warmup);

  session.seed_impairments(trial.rng.next());
  const net::Impairment imp{loss, 0.0, 0.25, 2.0, {}};
  for (const auto& [a, b] : topo::backbone_links(session.scenario().topo)) {
    session.impair_link(a, b, imp);
  }
  std::size_t delivered = 0;
  std::size_t expected = 0;
  for (std::size_t probe = 0; probe < kProbes; ++probe) {
    const std::size_t members = session.members().size();
    // Randomized costs are delays too: the deepest receiver can sit
    // ~100 time units out, so drain generously before judging.
    const auto m = session.measure(trial.spec.drain);
    delivered += members - m.missing.size();
    expected += members;
  }
  const double delivery_ratio =
      static_cast<double>(delivered) / static_cast<double>(expected);

  // Lift the impairment and wait for exactly-once delivery again.
  // Reconvergence is the send-time offset of the first probe that comes
  // back clean — 0 when the first post-repair probe succeeds.
  session.clear_impairments();
  const Time lifted = session.simulator().now();
  while (session.simulator().now() - lifted < kHorizon) {
    const Time sent_at = session.simulator().now() - lifted;
    if (session.measure(trial.spec.drain).delivered_exactly_once()) {
      return {delivery_ratio, sent_at};
    }
    session.run_for(10);  // one tree period, then try again
  }
  return {delivery_ratio, kHorizon};
}

}  // namespace

int main() {
  init_log_level_from_env();
  harness::ExperimentSpec spec =
      bench::spec_from_env(harness::TopoKind::kIsp, {8}, 6);
  spec.warmup = 160;  // > 2*t2: tree fully converged
  spec.drain = 150;
  const std::vector<double> loss_rates{0.0, 0.01, 0.02, 0.05, 0.10};

  std::printf("=== Ablation: resilience under loss + reordering (ISP) ===\n");
  std::printf("trials=%zu seed=%llu group=%zu probes=%zu; every backbone "
              "link impaired\n\n",
              spec.trials, static_cast<unsigned long long>(spec.base_seed),
              spec.group_sizes.front(), kProbes);
  std::printf("%-8s %6s %16s %20s %10s\n", "proto", "loss", "delivery ratio",
              "reconvergence (mean)", "worst");

  // One grid per loss rate; the artifacts show the 5% grid's observed
  // cell, the acceptance impairment (docs/RESILIENCE.md).
  const harness::ArtifactPaths artifacts = harness::ArtifactPaths::from_env();
  harness::ObservedCell observed;
  std::vector<std::vector<Row>> grids;
  for (const double loss : loss_rates) {
    grids.push_back(harness::run_grid(
        spec,
        [loss](Session& session, TrialContext& trial) {
          return resilience_trial(session, trial, loss);
        },
        0,
        loss == kObservedLoss && artifacts.need_cell() ? &observed : nullptr));
  }
  for (std::size_t p = 0; p < harness::all_protocols().size(); ++p) {
    for (std::size_t l = 0; l < loss_rates.size(); ++l) {
      const auto [ratio, reconvergence] = bench::fold(grids[l], spec, p);
      std::printf("%-8s %5.0f%% %16s %20s %10.0f\n",
                  std::string(to_string(harness::all_protocols()[p])).c_str(),
                  loss_rates[l] * 100, ratio.to_string(3).c_str(),
                  reconvergence.to_string(1).c_str(), reconvergence.max());
    }
  }
  std::printf(
      "\nReading: at 0%% loss every protocol should read 1.000 / ~0 (sanity).\n"
      "Under loss, delivery degrades with tree depth (each extra hop is\n"
      "another chance to lose the unicast copy) and reconvergence is paced\n"
      "by the soft-state timers: a lost refresh costs one period, a decayed\n"
      "entry costs up to t2 before the next join rebuilds it.\n");
  return harness::write_artifacts(artifacts, spec, {}, "ablation_resilience",
                                  observed, {"loss_rates", loss_rates})
             ? 0
             : 1;
}
