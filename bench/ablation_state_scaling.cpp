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
// Determinism: trials are paired — the (channel count, trial) pair fully
// determines topology costs, per-channel receiver sets, and churn
// scripts, so all four protocols see identical workloads — and the
// (protocol, channel count, trial) grid fans out across a TrialPool with
// pre-sized slots and grid-order aggregation, so output is byte-identical
// for every HBH_JOBS setting.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/churn_plan.hpp"
#include "harness/experiment.hpp"
#include "harness/trial_pool.hpp"
#include "metrics/json.hpp"
#include "metrics/json_parse.hpp"
#include "metrics/report.hpp"
#include "metrics/tracer.hpp"
#include "topo/random.hpp"
#include "util/env.hpp"
#include "util/log.hpp"
#include "util/profiler.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace hbh;
using harness::AggregateCensus;
using harness::ChannelHandle;
using harness::ChurnConfig;
using harness::ChurnPlan;
using harness::Protocol;
using harness::Session;

namespace {

constexpr std::size_t kGroup = 8;   // receivers sampled per channel
constexpr Time kHorizon = 400;      // churn runs the whole horizon
constexpr Time kCtlWindow = 100;    // control-overhead sampling window

/// Seed for a (channel count, trial) cell — protocol-independent, so all
/// four protocols replay the same costs, receiver sets, and churn.
std::uint64_t cell_seed(std::uint64_t base_seed, std::size_t channels,
                        std::size_t trial) {
  std::uint64_t s = base_seed;
  s ^= 0x9E3779B9u * (channels + 1);
  s ^= 0x100000001B3ull * (trial + 1);
  std::uint64_t mix = s;
  return splitmix64(mix);
}

struct CellResult {
  AggregateCensus census;
  double ctl_rate = 0;  ///< control transmissions per refresh period
};

struct Workload {
  std::uint64_t base_seed = 20010827;
  ChurnConfig churn{};
};

/// Builds the paired-trial session: one network, `channels` channels all
/// sourced at the scenario's source host, each with its own receiver set
/// and churn script. `observed` turns telemetry, tracing and audit on.
std::unique_ptr<Session> make_session(Protocol proto, std::size_t channels,
                                      std::size_t trial, const Workload& w,
                                      bool observed) {
  HBH_PHASE("trial_setup");
  Rng rng{cell_seed(w.base_seed, channels, trial)};
  // One fixed random graph per base seed (as the experiment driver does);
  // per-trial costs are randomized on top.
  Rng topo_rng{w.base_seed};
  topo::Scenario scenario = topo::make_random50(topo_rng);
  topo::randomize_costs(scenario.topo, rng);
  const std::vector<NodeId> candidates = scenario.candidate_receivers();
  const NodeId source_host = scenario.source_host;

  auto session = std::make_unique<Session>(
      std::move(scenario), proto,
      harness::SessionConfig{.observe = {.telemetry = observed,
                                         .tracing = observed,
                                         .audit = observed}});
  std::vector<ChannelHandle> handles;
  handles.push_back(session->default_channel());
  for (std::size_t c = 1; c < channels; ++c) {
    handles.push_back(session->create_channel(source_host));
  }
  for (ChannelHandle& handle : handles) {
    const std::vector<NodeId> receivers = rng.sample(candidates, kGroup);
    const std::uint64_t churn_seed = rng.next();
    handle.schedule_churn(
        ChurnPlan::exponential_on_off(receivers, w.churn, churn_seed));
  }
  return session;
}

/// The report's view of the observed cell (largest channel count, trial 0)
/// at the end of its churn phase: every section of the report body but
/// the phase profile, which is complete only once the whole sweep ran;
/// and its auditor's verdict once the measurement window closed.
struct ObservedBody {
  metrics::JsonValue head;  ///< info, numbers, registry, series, trace
  metrics::ConvergenceSummary convergence;
  metrics::Auditor auditor;  ///< a copy: the session ends with its run
};

ObservedBody observe(Session& session, Protocol proto,
                     std::size_t channels) {
  metrics::RunReport report;
  report.registry = session.registry();
  report.sampler = session.sampler();
  report.tracer = session.tracer();
  report.info["protocol"] = std::string(to_string(proto));
  report.info["topology"] = "random-50";
  report.numbers["channels"] = static_cast<double>(channels);
  report.numbers["sim.end_time"] = session.simulator().now();
  std::ostringstream text;
  metrics::JsonWriter jw{text, 0};
  jw.begin_object();
  report.write_body(jw);
  jw.end_object();
  ObservedBody body;
  (void)metrics::parse_json(text.str(), body.head);
  body.convergence = metrics::analyze_convergence(session.tracer()->spans());
  return body;
}

/// Runs one grid slot. With `observed` set, the slot is the observed cell:
/// telemetry, tracing and audit ride along (changing no event the
/// protocols see), the report body is taken once churn ends, before the
/// measurement window, and the audit verdict after it.
CellResult run_cell(Protocol proto, std::size_t channels, std::size_t trial,
                    const Workload& w, ObservedBody* observed) {
  // Per-trial profiler merged under the protocol label: phase *counts* are
  // pure simulation outputs, so the aggregate is byte-identical for every
  // HBH_JOBS setting (merge order commutes; only timings vary).
  prof::PhaseProfiler profiler;
  CellResult out;
  {
    const prof::ScopedProfiler install{profiler};
    auto session = make_session(proto, channels, trial, w, observed != nullptr);
    {
      HBH_PHASE("churn");
      session->run_for(kHorizon);
    }
    if (observed != nullptr) *observed = observe(*session, proto, channels);
    out.census = session->aggregate_census();
    const std::uint64_t before =
        session->network().counters().control_transmissions;
    {
      HBH_PHASE("measure");
      session->run_for(kCtlWindow);
    }
    const std::uint64_t after =
        session->network().counters().control_transmissions;
    out.ctl_rate = static_cast<double>(after - before) / (kCtlWindow / 10.0);
    if (observed != nullptr) {
      session->audit_sweep();
      observed->auditor = *session->auditor();
    }
  }
  prof::process_profile().merge(to_string(proto), profiler);
  return out;
}

/// Grid-order aggregate of one (protocol, channel count) cell.
struct CellStats {
  std::size_t channels = 0;
  RunningStats branching_rtrs, branching_fwd;
  RunningStats nonbr_rtrs, nonbr_ctl, nonbr_fwd;
  RunningStats rp_rtrs, rp_entries;
  RunningStats total_ctl, total_fwd, ctl_rate;
};

CellStats aggregate(std::size_t channels, const CellResult* results,
                    std::size_t trials) {
  CellStats s;
  s.channels = channels;
  for (std::size_t t = 0; t < trials; ++t) {
    const AggregateCensus& c = results[t].census;
    s.branching_rtrs.add(static_cast<double>(c.branching.routers));
    s.branching_fwd.add(static_cast<double>(c.branching.forwarding_entries));
    s.nonbr_rtrs.add(static_cast<double>(c.non_branching.routers));
    s.nonbr_ctl.add(static_cast<double>(c.non_branching.control_entries));
    s.nonbr_fwd.add(static_cast<double>(c.non_branching.forwarding_entries));
    s.rp_rtrs.add(static_cast<double>(c.rp.routers));
    s.rp_entries.add(static_cast<double>(c.rp.control_entries +
                                         c.rp.forwarding_entries));
    s.total_ctl.add(static_cast<double>(c.totals.control_entries));
    s.total_fwd.add(static_cast<double>(c.totals.forwarding_entries));
    s.ctl_rate.add(results[t].ctl_rate);
  }
  return s;
}

void write_report(const std::string& path,
                  const std::vector<std::size_t>& channel_counts,
                  std::size_t trials, const Workload& w,
                  const std::vector<std::vector<CellStats>>& sweep,
                  const std::vector<ObservedBody>& observed) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write HBH_REPORT=%s\n", path.c_str());
    return;
  }
  const auto wall_start = std::chrono::steady_clock::now();
  const auto& protocols = harness::all_protocols();

  metrics::JsonWriter jw(out);
  jw.begin_object();
  jw.member("schema", metrics::kRunReportSchema);
  jw.member("figure", "ablation_state_scaling");

  jw.key("spec");
  jw.begin_object();
  jw.member("topology", "random-50");
  jw.member("trials", static_cast<std::uint64_t>(trials));
  jw.member("base_seed", w.base_seed);
  jw.member("group_size", static_cast<std::uint64_t>(kGroup));
  jw.member("churn_mean_on", w.churn.mean_on);
  jw.member("churn_mean_off", w.churn.mean_off);
  jw.member("horizon", kHorizon);
  jw.key("channel_counts");
  jw.begin_array();
  for (const std::size_t n : channel_counts) {
    jw.value(static_cast<std::uint64_t>(n));
  }
  jw.end_array();
  jw.end_object();

  jw.key("sweep");
  jw.begin_array();
  for (std::size_t p = 0; p < protocols.size(); ++p) {
    jw.begin_object();
    jw.member("protocol", to_string(protocols[p]));
    jw.key("cells");
    jw.begin_array();
    for (const CellStats& s : sweep[p]) {
      jw.begin_object();
      jw.member("channels", static_cast<std::uint64_t>(s.channels));
      jw.member("branching.routers", s.branching_rtrs.mean());
      jw.member("branching.forwarding_entries", s.branching_fwd.mean());
      jw.member("non_branching.routers", s.nonbr_rtrs.mean());
      jw.member("non_branching.control_entries", s.nonbr_ctl.mean());
      jw.member("non_branching.forwarding_entries", s.nonbr_fwd.mean());
      jw.member("rp.routers", s.rp_rtrs.mean());
      jw.member("rp.entries", s.rp_entries.mean());
      jw.member("control_entries", s.total_ctl.mean());
      jw.member("forwarding_entries", s.total_fwd.mean());
      jw.member("ctl_msgs_per_period", s.ctl_rate.mean());
      jw.member("trials", static_cast<std::uint64_t>(s.ctl_rate.count()));
      jw.end_object();
    }
    jw.end_array();
    jw.end_object();
  }
  jw.end_array();

  // One instrumented run per protocol: the sweep's own largest channel
  // count, trial 0 — registry counters (net.tx.* and net.tx_bytes.*), the
  // per-class state gauges and the sampled time series as they stood when
  // churn ended, then the sweep's phase profile.
  jw.key("runs");
  jw.begin_object();
  for (std::size_t p = 0; p < protocols.size(); ++p) {
    const prof::PhaseMap profile =
        prof::process_profile().snapshot(to_string(protocols[p]));
    metrics::RunReport tail;
    tail.profile = &profile;
    tail.convergence = &observed[p].convergence;
    jw.key(to_string(protocols[p]));
    jw.begin_object();
    for (const auto& [key, value] : observed[p].head.object) {
      jw.key(key);
      metrics::write_json(jw, value);
    }
    tail.write_body(jw);
    jw.end_object();
  }
  jw.end_object();

  std::vector<metrics::AuditedRun> audited;
  for (std::size_t p = 0; p < protocols.size(); ++p) {
    audited.push_back({to_string(protocols[p]), &observed[p].auditor});
  }
  metrics::write_anomalies(jw, audited);

  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall_start;
  jw.member("wall_seconds", wall.count());
  jw.end_object();
  out << '\n';
  std::printf("report: %s\n", path.c_str());
}

}  // namespace

int main() {
  init_log_level_from_env();
  const std::size_t trials = env_trials(4);
  const std::size_t max_channels = env_channels(64);
  Workload w;
  w.base_seed = env_seed();
  w.churn.mean_on = env_churn_on(120);
  w.churn.mean_off = env_churn_off(60);
  w.churn.horizon = kHorizon - 40;  // let the last events settle a little

  std::vector<std::size_t> channel_counts;
  for (std::size_t n = 1; n <= max_channels; n *= 2) {
    channel_counts.push_back(n);
  }

  std::printf("=== Ablation: aggregate state vs channel count (random-50) "
              "===\n");
  std::printf("trials=%zu seed=%llu channels up to %zu, %zu receivers per "
              "channel,\nchurn on/off means %.0f/%.0f tu, census at t=%.0f\n\n",
              trials, static_cast<unsigned long long>(w.base_seed),
              channel_counts.back(), kGroup, w.churn.mean_on, w.churn.mean_off,
              static_cast<double>(kHorizon));

  // Flat (protocol, channel count, trial) grid behind one pool.
  const auto& protocols = harness::all_protocols();
  const std::size_t per_protocol = channel_counts.size() * trials;
  std::vector<CellResult> grid(protocols.size() * per_protocol);
  // The report describes the largest channel count's trial 0, instrumented
  // where the sweep runs it: one observed slot per protocol.
  const std::string report = env_report_path();
  std::vector<ObservedBody> observed(protocols.size());
  const std::size_t observed_cell = (channel_counts.size() - 1) * trials;
  harness::TrialPool pool;
  pool.run(grid.size(), [&](std::size_t i) {
    const std::size_t p = i / per_protocol;
    const std::size_t cell = i % per_protocol;
    ObservedBody* body = !report.empty() && cell == observed_cell
                             ? &observed[p]
                             : nullptr;
    grid[i] = run_cell(protocols[p], channel_counts[cell / trials],
                       cell % trials, w, body);
  });

  std::vector<std::vector<CellStats>> sweep(protocols.size());
  bool control_only_holds = true;
  for (std::size_t p = 0; p < protocols.size(); ++p) {
    const Protocol proto = protocols[p];
    std::printf("%-8s %9s | %9s %9s | %13s %9s %9s | %8s %11s\n",
                std::string(to_string(proto)).c_str(), "channels", "br rtrs",
                "br MFT", "non-br rtrs", "nb MCT", "nb MFT", "RP rtrs",
                "ctl/period");
    for (std::size_t c = 0; c < channel_counts.size(); ++c) {
      const CellStats s = aggregate(
          channel_counts[c],
          grid.data() + p * per_protocol + c * trials, trials);
      std::printf("%-8s %9zu | %9.1f %9.1f | %13.1f %9.1f %9.1f | %8.1f "
                  "%11.1f\n",
                  "", s.channels, s.branching_rtrs.mean(),
                  s.branching_fwd.mean(), s.nonbr_rtrs.mean(),
                  s.nonbr_ctl.mean(), s.nonbr_fwd.mean(), s.rp_rtrs.mean(),
                  s.ctl_rate.mean());
      if ((proto == Protocol::kHbh || proto == Protocol::kReunite) &&
          s.nonbr_fwd.mean() != 0) {
        control_only_holds = false;
      }
      sweep[p].push_back(s);
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

  if (!report.empty()) {
    write_report(report, channel_counts, trials, w, sweep, observed);
  }
  harness::ArtifactPaths profile_only;
  profile_only.profile = env_prof_out();
  (void)harness::write_artifacts(profile_only, {}, {}, "ablation_state_scaling",
                                 {});
  return control_only_holds ? 0 : 1;
}
