// Ablation: aggregate router state as the channel count grows.
//
// The paper's §2.1/§3 state argument is per ⟨S,G⟩ channel: HBH and
// REUNITE place forwarding state (MFT) only at branching routers and a
// one-entry control block (MCT) everywhere else, while PIM pays oif
// state at every on-tree router. What an operator cares about is the
// *aggregate* — N channels' worth of per-channel state — so this bench
// sweeps the number of concurrently hosted channels (1..64, capped by
// HBH_CHANNELS) on the random-50 topology, runs every channel under a
// seeded exponential on/off membership churn workload (HBH_CHURN_ON /
// HBH_CHURN_OFF mean dwell times; docs/CHANNELS.md), and reports, per
// router class (branching / non-branching / RP):
//  * (router, channel) incidences holding any state,
//  * aggregate MCT (control) and MFT/oif (forwarding) entries,
//  * steady-state control-message transmissions per refresh period.
//
// Determinism: each channel count is one harness::run_grid over the same
// paired cells, and every channel's receiver set and churn script come
// from the cell's own stream, so all four protocols see identical
// workloads and the output is byte-identical for every HBH_JOBS setting.
#include <array>
#include <cstdio>
#include <utility>
#include <string>
#include <vector>

#include "fig_common.hpp"
#include "harness/churn_plan.hpp"
#include "util/profiler.hpp"

using namespace hbh;
using harness::AggregateCensus;
using harness::ChannelHandle;
using harness::ChurnConfig;
using harness::ChurnPlan;
using harness::Protocol;
using harness::Session;
using harness::TrialContext;

namespace {


/// One trial's census, a value per report key; the table prints the
/// columns kPrinted names.
constexpr std::array<const char*, 10> kKeys{
    "branching.routers",          "branching.forwarding_entries",
    "non_branching.routers",      "non_branching.control_entries",
    "non_branching.forwarding_entries", "rp.routers",
    "rp.entries",                 "control_entries",
    "forwarding_entries",         "ctl_msgs_per_period"};
constexpr std::pair<std::size_t, const char*> kPrinted[] = {
    {0, "br rtrs"}, {1, "br MFT"},  {2, "non-br rtrs"}, {3, "nb MCT"},
    {4, "nb MFT"},  {5, "RP rtrs"}, {9, "ctl/period"}};
constexpr std::size_t kNbMft = 4;  // the paper's claim: 0 for HBH/REUNITE
using Row = std::array<double, kKeys.size()>;

/// `channels` channels all sourced at the scenario's source host, each
/// with its own receiver set (the cell's sample for the default channel)
/// and churn script; the census is taken when churn ends, at spec.warmup,
/// then control transmissions are counted over spec.drain.
Row scaling_trial(Session& session, TrialContext& trial, std::size_t channels,
                  const ChurnConfig& churn) {
  const std::vector<NodeId> candidates =
      session.scenario().candidate_receivers();
  for (std::size_t c = 0; c < channels; ++c) {
    ChannelHandle handle =
        c == 0 ? session.default_channel()
               : session.create_channel(session.scenario().source_host);
    const std::vector<NodeId> receivers =
        c == 0 ? trial.receivers
               : trial.rng.sample(candidates, trial.receivers.size());
    handle.schedule_churn(
        ChurnPlan::exponential_on_off(receivers, churn, trial.rng.next()));
  }
  {
    HBH_PHASE("churn");
    session.run_for(trial.spec.warmup);
  }
  const AggregateCensus c = session.aggregate_census();
  const std::uint64_t before =
      session.network().counters().control_transmissions;
  {
    HBH_PHASE("measure");
    session.run_for(trial.spec.drain);
  }
  const std::uint64_t after =
      session.network().counters().control_transmissions;
  const auto n = [](std::size_t v) { return static_cast<double>(v); };
  return {n(c.branching.routers),
          n(c.branching.forwarding_entries),
          n(c.non_branching.routers),
          n(c.non_branching.control_entries),
          n(c.non_branching.forwarding_entries),
          n(c.rp.routers),
          n(c.rp.control_entries + c.rp.forwarding_entries),
          n(c.totals.control_entries),
          n(c.totals.forwarding_entries),
          static_cast<double>(after - before) / (trial.spec.drain / 10.0)};
}

/// Grid-order aggregate of one (protocol, channel count) cell.
using CellStats = std::array<RunningStats, kKeys.size()>;

}  // namespace

int main() {
  init_log_level_from_env();
  harness::ExperimentSpec spec =
      bench::spec_from_env(harness::TopoKind::kRandom50, {8}, 4);
  spec.warmup = 400;  // churn until the census
  spec.drain = 100;   // then count control transmissions this long
  const std::size_t max_channels = env_channels(64);
  ChurnConfig churn;
  churn.mean_on = env_churn_on(120);
  churn.mean_off = env_churn_off(60);
  churn.horizon = spec.warmup - 40;  // let the last events settle a little

  std::vector<double> channel_counts;
  for (std::size_t n = 1; n <= max_channels; n *= 2) {
    channel_counts.push_back(static_cast<double>(n));
  }

  std::printf("=== Ablation: aggregate state vs channel count (random-50) "
              "===\n");
  std::printf("trials=%zu seed=%llu channels up to %zu, %zu receivers per "
              "channel,\nchurn on/off means %.0f/%.0f tu, census at t=%.0f\n\n",
              spec.trials, static_cast<unsigned long long>(spec.base_seed),
              static_cast<std::size_t>(channel_counts.back()),
              spec.group_sizes.front(), churn.mean_on, churn.mean_off,
              spec.warmup);

  // One grid per channel count, folded into sweep[p][count]; the
  // artifacts show the largest count's observed cell.
  const harness::ArtifactPaths artifacts = harness::ArtifactPaths::from_env();
  harness::ObservedCell observed;
  const auto& protocols = harness::all_protocols();
  std::vector<std::vector<CellStats>> sweep(protocols.size());
  for (std::size_t c = 0; c < channel_counts.size(); ++c) {
    const bool observe =
        c + 1 == channel_counts.size() && artifacts.need_cell();
    const std::vector<Row> grid = harness::run_grid(
        spec,
        [&, channels = static_cast<std::size_t>(channel_counts[c])](
            Session& session, TrialContext& trial) {
          return scaling_trial(session, trial, channels, churn);
        },
        0, observe ? &observed : nullptr);
    for (std::size_t p = 0; p < protocols.size(); ++p) {
      sweep[p].push_back(bench::fold(grid, spec, p));
    }
  }

  bool control_only_holds = true;
  for (std::size_t p = 0; p < protocols.size(); ++p) {
    const Protocol proto = protocols[p];
    std::printf("%-8s %9s", std::string(to_string(proto)).c_str(),
                "channels");
    for (const auto& [column, header] : kPrinted) std::printf(" %11s", header);
    std::printf("\n");
    for (std::size_t c = 0; c < channel_counts.size(); ++c) {
      std::printf("%-8s %9.0f", "", channel_counts[c]);
      for (const auto& [column, header] : kPrinted) {
        std::printf(" %11.1f", sweep[p][c][column].mean());
      }
      std::printf("\n");
      if ((proto == Protocol::kHbh || proto == Protocol::kReunite) &&
          sweep[p][c][kNbMft].mean() != 0) {
        control_only_holds = false;
      }
    }
    std::printf("\n");
  }

  std::printf(
      "Reading: per channel, HBH/REUNITE non-branching routers hold control\n"
      "state only (nb MFT = 0%s), so aggregate forwarding state scales with\n"
      "branching incidences, not with on-tree routers x channels as PIM's\n"
      "oif state does. The PIM-SM RP column counts the per-channel\n"
      "rendezvous routers serving shared trees.\n",
      control_only_holds ? ", verified above" : " EXPECTED BUT VIOLATED");

  // The census table rides in the run report as a top-level
  // "state_scaling" section.
  const bool written = harness::write_artifacts(
      artifacts, spec, {}, "ablation_state_scaling", observed,
      {"channel_counts", channel_counts}, [&](metrics::JsonWriter& w) {
        w.key("state_scaling");
        w.begin_object();
        w.member("churn_mean_on", churn.mean_on);
        w.member("churn_mean_off", churn.mean_off);
        w.key("protocols");
        w.begin_object();
        for (std::size_t p = 0; p < protocols.size(); ++p) {
          w.key(to_string(protocols[p]));
          w.begin_array();
          for (std::size_t c = 0; c < channel_counts.size(); ++c) {
            w.begin_object();
            w.member("channels", channel_counts[c]);
            for (std::size_t k = 0; k < kKeys.size(); ++k) {
              w.member(kKeys[k], sweep[p][c][k].mean());
            }
            w.member("trials", static_cast<std::uint64_t>(spec.trials));
            w.end_object();
          }
          w.end_array();
        }
        w.end_object();
        w.end_object();
      });
  return control_only_holds && written ? 0 : 1;
}
