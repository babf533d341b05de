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
// Determinism: the impairment plane draws from per-link seeded streams
// (net::ImpairmentPlane), so a trial is a pure function of
// (HBH_SEED, trial index) — rerunning the bench reproduces every loss.
#include <cstdio>
#include <vector>

#include "fig_common.hpp"
#include "net/topology.hpp"
#include "topo/isp.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace hbh;
using harness::Protocol;
using harness::Session;

namespace {

/// All router-router duplex links (a < b) of the scenario's topology.
std::vector<std::pair<NodeId, NodeId>> backbone_links(
    const topo::Scenario& scenario) {
  std::vector<std::pair<NodeId, NodeId>> out;
  const net::Topology& topo = scenario.topo;
  for (std::size_t i = 0; i < topo.link_count(); ++i) {
    const auto& e = topo.edge(LinkId{static_cast<std::uint32_t>(i)});
    if (e.from.index() < e.to.index() &&
        topo.kind(e.from) == net::NodeKind::kRouter &&
        topo.kind(e.to) == net::NodeKind::kRouter) {
      out.emplace_back(e.from, e.to);
    }
  }
  return out;
}

}  // namespace

int main() {
  init_log_level_from_env();
  const std::size_t trials = env_trials(6);
  const std::uint64_t base_seed = env_seed();
  constexpr std::size_t kGroup = 8;    // receivers
  constexpr std::size_t kProbes = 8;   // probes sent while impaired
  constexpr Time kWarmup = 160;        // > 2*t2: tree fully converged
  constexpr Time kHorizon = 400;       // give up on reconvergence past this
  const std::vector<double> loss_rates{0.0, 0.01, 0.02, 0.05, 0.10};

  std::printf("=== Ablation: resilience under loss + reordering (ISP) ===\n");
  std::printf("trials=%zu seed=%llu group=%zu probes=%zu; every backbone "
              "link impaired\n\n",
              trials, static_cast<unsigned long long>(base_seed), kGroup,
              kProbes);
  std::printf("%-8s %6s %16s %20s %10s\n", "proto", "loss", "delivery ratio",
              "reconvergence (mean)", "worst");

  for (const Protocol proto : harness::all_protocols()) {
    for (const double loss : loss_rates) {
      RunningStats ratio;
      RunningStats reconvergence;
      for (std::size_t trial = 0; trial < trials; ++trial) {
        Rng rng{base_seed ^ (0xAB1E * trial + 7)};
        auto scenario = topo::make_isp();
        topo::randomize_costs(scenario.topo, rng);
        const auto links = backbone_links(scenario);
        const auto receivers =
            rng.sample(scenario.candidate_receivers(), kGroup);
        Session session{std::move(scenario), proto};
        Time delay = 0.1;
        for (const NodeId r : receivers) {
          session.subscribe(r, delay);
          delay += 1.0;
        }
        session.run_for(kWarmup);

        // Impair: per-trial seed, same streams for every protocol and
        // loss rate (paired trials — see the determinism contract).
        session.seed_impairments(base_seed + trial);
        const net::Impairment imp{loss, 0.0, 0.25, 2.0, {}};
        for (const auto& [a, b] : links) session.impair_link(a, b, imp);

        std::size_t delivered = 0;
        std::size_t expected = 0;
        for (std::size_t probe = 0; probe < kProbes; ++probe) {
          const std::size_t members = session.members().size();
          // Randomized costs are delays too: the deepest receiver can sit
          // ~100 time units out, so drain generously before judging.
          const auto m = session.measure(/*drain=*/150);
          delivered += members - m.missing.size();
          expected += members;
        }
        if (expected > 0) {
          ratio.add(static_cast<double>(delivered) /
                    static_cast<double>(expected));
        }

        // Lift the impairment and wait for exactly-once delivery again.
        // Reconvergence is the send-time offset of the first probe that
        // comes back clean — 0 when the first post-repair probe succeeds.
        session.clear_impairments();
        const Time lifted = session.simulator().now();
        Time reconv = kHorizon;
        while (session.simulator().now() - lifted < kHorizon) {
          const Time sent_at = session.simulator().now() - lifted;
          if (session.measure(/*drain=*/150).delivered_exactly_once()) {
            reconv = sent_at;
            break;
          }
          session.run_for(10);  // one tree period, then try again
        }
        reconvergence.add(reconv);
      }
      std::printf("%-8s %5.0f%% %16s %20s %10.0f\n",
                  std::string(to_string(proto)).c_str(), loss * 100,
                  ratio.to_string(3).c_str(), reconvergence.to_string(1).c_str(),
                  reconvergence.max());
    }
  }
  std::printf(
      "\nReading: at 0%% loss every protocol should read 1.000 / ~0 (sanity).\n"
      "Under loss, delivery degrades with tree depth (each extra hop is\n"
      "another chance to lose the unicast copy) and reconvergence is paced\n"
      "by the soft-state timers: a lost refresh costs one period, a decayed\n"
      "entry costs up to t2 before the next join rebuilds it.\n");
  // The observed cell re-applies the acceptance impairment (5% loss +
  // reordering on every backbone link), so the report carries the fault
  // counters too (net.drops.loss — docs/RESILIENCE.md).
  bench::write_bench_artifacts(
      "ablation_resilience", harness::TopoKind::kIsp, [&](Session& session) {
        session.seed_impairments(base_seed);
        const net::Impairment imp{0.05, 0.0, 0.25, 2.0, {}};
        for (const auto& [a, b] : backbone_links(session.scenario())) {
          session.impair_link(a, b, imp);
        }
      });
  return 0;
}
