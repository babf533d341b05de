// sweep_rand50: the Figure 7(b)/8(b) sweep on the 50-router random
// topology, one thread, the four protocols interleaved cell by cell.
//
// The seed picks which trials run: trial indices start at seed * 2^20, so
// each seed draws its own cost randomisations and receiver sets on the
// paper's one random graph (ExperimentSpec's default base seed). Trial
// indices advance one at a time; each index runs every group size, and
// each (group size, index) cell runs all four protocols back to back, the
// first protocol rotating from cell to cell. Any stretch of the timed
// window therefore holds the same mix of group sizes and protocols, and
// all four protocols share whatever speed drift the machine has.
//
// The first kReferenceIndices indices (432 trials) always complete: the
// ordering checks, the result digest and the exact per-trial counts cover
// exactly those, so they repeat bit for bit for a seed. The window then
// continues until --seconds have passed; the delivery checks and
// attempted/failed and the delivery checks cover every trial of it.
//
// The traced run follows every run_trial call with a replica of the same
// trial built through the public calls run_trial makes, wrapped in spans,
// so the session's counters can be read. Its results must equal
// run_trial's, and the time ratio of the two is bench.trace_overhead.
#include <array>
#include <cstdio>
#include <memory>

#include "alloc_count.hpp"
#include "common.hpp"
#include "harness/experiment.hpp"
#include "reference.hpp"
#include "topo/random.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using hbh::Time;
using hbh::harness::ExperimentSpec;
using hbh::harness::Protocol;
using hbh::harness::TrialResult;

constexpr std::size_t kReferenceIndices = 12;
constexpr std::size_t kSetupRepeats = 15;
constexpr std::size_t kSetupGroupSize = 25;
// Share of trials each protocol must deliver exactly once (kProtocols
// order). PIM-SM and PIM-SS install join state hop by hop as each join
// travels, so every one of their trials must deliver; the fixed warm-up
// does not always settle an HBH or REUNITE tree (ROADMAP item 1), so those
// two get a floor instead.
constexpr std::array<double, 4> kMinDelivered{0.98, 0.90, 1.0, 1.0};
// Reference-kernel events after each cell (about a tenth of its time) and
// before each set-up repeat.
constexpr std::size_t kCellChunk = 60000;
constexpr std::size_t kSetupChunk = 50000;

/// Mirrors the paired-trial seed run_trial derives for a cell; a replica
/// that drifted from it is caught by the result comparison.
std::uint64_t cell_seed(const ExperimentSpec& spec, std::size_t group_size,
                        std::size_t trial_index) {
  std::uint64_t s = spec.base_seed;
  s ^= 0x1000003u * (group_size + 1);
  s ^= 0x100000001B3ull * (trial_index + 1);
  return hbh::splitmix64(s);
}

/// Exact per-trial work counts of the replica, summed per protocol.
struct TrialCounts {
  std::uint64_t trials = 0;
  std::uint64_t ctrl_pkts = 0;
  std::uint64_t converge_ctrl_pkts = 0;
  std::uint64_t measure_data_pkts = 0;
  std::uint64_t probe_copies = 0;  // Measurement::tree_cost
  std::uint64_t events = 0;
  std::uint64_t spf = 0;
  std::uint64_t allocs = 0;
  std::uint64_t timer_fires = 0;
  std::array<std::uint64_t, hbh::net::kPacketTypeCount> rx{};
};

/// One trial through the same public calls run_trial makes, in spans.
TrialResult replica_trial(const ExperimentSpec& spec, std::size_t pi,
                          std::size_t group_size, std::size_t trial_index,
                          SpanRecorder& spans, TrialCounts& counts) {
  const int p = static_cast<int>(pi);
  const ScopedSpan trial_span(&spans, "trial", p);
  const std::uint64_t allocs0 = alloc_count();

  hbh::topo::Scenario scenario;
  std::vector<hbh::NodeId> receivers;
  {
    const ScopedSpan span(&spans, "topo.build", p);
    hbh::Rng rng{cell_seed(spec, group_size, trial_index)};
    hbh::Rng topo_rng{spec.base_seed};
    scenario = hbh::topo::make_random50(topo_rng);
    hbh::topo::randomize_costs(scenario.topo, rng);
    receivers = rng.sample(scenario.candidate_receivers(), group_size);
  }
  std::unique_ptr<hbh::harness::Session> session;
  {
    const ScopedSpan span(&spans, "harness.session", p);
    session = std::make_unique<hbh::harness::Session>(
        std::move(scenario), kProtocols[pi], spec.session);
  }
  const hbh::net::NetworkCounters c0 = session->network().counters();
  {
    const ScopedSpan span(&spans, "mcast.converge", p);
    Time delay = 0.1;
    for (const hbh::NodeId r : receivers) {
      session->subscribe(r, delay);
      delay += 1.2 * spec.session.timers.tree_period;
    }
    session->run_for(delay + spec.warmup);
  }
  const hbh::net::NetworkCounters c1 = session->network().counters();
  hbh::harness::Measurement m;
  {
    const ScopedSpan span(&spans, "probe.measure", p);
    m = session->measure(spec.drain);
  }
  const hbh::net::NetworkCounters& c2 = session->network().counters();
  const hbh::net::AgentStats stats = session->aggregate_agent_stats();

  counts.trials += 1;
  counts.ctrl_pkts += c2.control_transmissions;
  counts.converge_ctrl_pkts +=
      c1.control_transmissions - c0.control_transmissions;
  counts.measure_data_pkts += c2.data_transmissions - c1.data_transmissions;
  counts.probe_copies += m.tree_cost;
  counts.events += session->simulator().executed();
  counts.spf += session->routes().spf_computations();
  counts.timer_fires += stats.timer_fires;
  for (std::size_t t = 0; t < stats.rx_by_type.size(); ++t) {
    counts.rx[t] += stats.rx_by_type[t];
  }
  {
    const ScopedSpan span(&spans, "harness.teardown", p);
    session.reset();
  }
  counts.allocs += alloc_count() - allocs0;

  TrialResult result;
  result.tree_cost = static_cast<double>(m.tree_cost);
  result.mean_delay = m.mean_delay;
  result.delivered = m.delivered_exactly_once();
  return result;
}

bool same_result(const TrialResult& a, const TrialResult& b) {
  return a.tree_cost == b.tree_cost && a.mean_delay == b.mean_delay &&
         a.delivered == b.delivered;
}

}  // namespace

Outcome run_sweep_rand50(const Options& options) {
  Outcome out;
  ExperimentSpec spec;
  spec.topology = hbh::harness::TopoKind::kRandom50;
  spec.group_sizes = hbh::harness::random50_group_sizes();
  const std::size_t first_index = static_cast<std::size_t>(options.seed) << 20;
  const std::size_t sizes = spec.group_sizes.size();

  // Set-up: one warm-up cell per repeat (every protocol at one group size,
  // on trial indices below the measured ones), so lazy initialisation and
  // cold caches are paid outside the window.
  ReferenceKernel kernel;
  std::vector<double> setup_times;
  for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
    kernel.run_chunk(kSetupChunk);
    const auto t0 = Clock::now();
    for (const Protocol p : kProtocols) {
      (void)hbh::harness::run_trial(spec, p, kSetupGroupSize,
                                    first_index - 1 - rep);
    }
    setup_times.push_back(seconds_since(t0));
  }
  const double setup_scale = kernel.rate_scale();
  kernel.reset_tally();

  SpanRecorder spans;
  SpanRecorder* const rec = options.trace ? &spans : nullptr;
  if (rec != nullptr) spans.reserve(1u << 16);

  std::array<double, 4> trial_seconds{};   // run_trial wall time per protocol
  std::array<double, 4> replica_seconds{};
  std::array<std::uint64_t, 4> trials{};
  std::array<std::uint64_t, 4> undelivered{};  // not delivered exactly once
  std::array<double, 4> probe_copies{};    // probe data transmissions
  std::array<TrialCounts, 4> counts{};     // replica counts, reference block
  std::array<TrialCounts, 4> all_counts{}; // replica counts, whole window
  std::array<double, 4> ref_cost{};
  std::array<double, 4> ref_delay{};
  std::uint64_t ref_trials = 0;
  std::uint64_t replica_mismatches = 0;
  Digest digest;

  const auto window_start = Clock::now();
  double elapsed = 0;
  std::size_t indices_done = 0;
  for (std::size_t k = 0;; ++k) {
    const bool reference = k < kReferenceIndices;
    for (std::size_t s = 0; s < sizes; ++s) {
      const std::size_t g = spec.group_sizes[s];
      const std::size_t trial_index = first_index + k;
      const std::size_t rotate = (k * sizes + s) % kProtocols.size();
      std::array<TrialResult, 4> results{};
      for (std::size_t j = 0; j < kProtocols.size(); ++j) {
        const std::size_t pi = (rotate + j) % kProtocols.size();
        const auto t0 = Clock::now();
        {
          const ScopedSpan span(rec, "harness.run_trial", static_cast<int>(pi));
          results[pi] = hbh::harness::run_trial(spec, kProtocols[pi], g,
                                                trial_index);
        }
        trial_seconds[pi] += seconds_since(t0);
        trials[pi] += 1;
        if (!results[pi].delivered) undelivered[pi] += 1;
        probe_copies[pi] += results[pi].tree_cost;
      }
      if (rec != nullptr) {
        for (std::size_t j = 0; j < kProtocols.size(); ++j) {
          const std::size_t pi = (rotate + j) % kProtocols.size();
          const auto t0 = Clock::now();
          TrialCounts& c = reference ? counts[pi] : all_counts[pi];
          const TrialResult r =
              replica_trial(spec, pi, g, trial_index, spans, c);
          replica_seconds[pi] += seconds_since(t0);
          if (!same_result(r, results[pi])) ++replica_mismatches;
        }
      }
      kernel.run_chunk(kCellChunk, rec);
      if (reference) {
        for (std::size_t pi = 0; pi < kProtocols.size(); ++pi) {
          const TrialResult& r = results[pi];
          ref_cost[pi] += r.tree_cost;
          ref_delay[pi] += r.mean_delay;
          ref_trials += 1;
          digest.add(r.tree_cost);
          digest.add(r.mean_delay);
          digest.add(static_cast<std::uint64_t>(r.delivered));
        }
      }
    }
    indices_done = k + 1;
    elapsed = seconds_since(window_start);
    if (!reference || k + 1 == kReferenceIndices) {
      if (elapsed >= options.seconds) break;
    }
  }

  std::uint64_t total_trials = 0;
  std::uint64_t total_undelivered = 0;
  double total_copies = 0;
  double total_seconds = 0;
  for (std::size_t pi = 0; pi < kProtocols.size(); ++pi) {
    total_trials += trials[pi];
    total_undelivered += undelivered[pi];
    total_copies += probe_copies[pi];
    total_seconds += trial_seconds[pi];
  }
  // A trial fails when it breaks an exact contract: a PIM-SM or PIM-SS
  // probe that does not reach every receiver exactly once, or a traced
  // replica that differs from run_trial. HBH's and REUNITE's unsettled
  // trees miss the delivery goal without failing; delivery_ratio counts
  // them.
  out.attempted = total_trials;
  for (std::size_t pi = 0; pi < kProtocols.size(); ++pi) {
    if (kMinDelivered[pi] == 1.0) out.failed += undelivered[pi];
  }
  out.failed += replica_mismatches;

  // Correctness: the orderings EXPERIMENTS.md records for Figs 7b/8b,
  // averaged over the reference block.
  constexpr std::size_t kReuniteIndex = 1;
  out.check(ref_cost[kReuniteIndex] > ref_cost[kHbhIndex],
            "REUNITE mean tree cost is not above HBH's");
  for (std::size_t pi = 1; pi < kProtocols.size(); ++pi) {
    out.check(ref_delay[kHbhIndex] < ref_delay[pi],
              std::string("HBH mean delay is not below ") +
                  kProtocolLabels[pi]);
  }
  // Each protocol's share of trials delivered exactly once stays within a
  // margin of HEAD's: REUNITE misses 2-5% of its trials, HBH 2 of 13149,
  // PIM-SM and PIM-SS none (seeds 1-20, 30 s windows).
  for (std::size_t pi = 0; pi < kProtocols.size(); ++pi) {
    const double delivered =
        1.0 - ratio(static_cast<double>(undelivered[pi]),
                    static_cast<double>(trials[pi]));
    out.check(delivered >= kMinDelivered[pi],
              std::string(kProtocolLabels[pi]) +
                  ": too few trials delivered exactly once");
  }
  out.check(replica_mismatches == 0,
            "traced replica diverged from run_trial");

  char line[160];
  std::snprintf(line, sizeof line,
                "reference block: %zu trial indices x %zu group sizes x 4 "
                "protocols; %zu indices run in the window",
                kReferenceIndices, sizes, indices_done);
  out.notes.push_back(line);
  for (std::size_t pi = 0; pi < kProtocols.size(); ++pi) {
    const double n = static_cast<double>(ref_trials / kProtocols.size());
    std::snprintf(line, sizeof line,
                  "reference mean %-8s tree_cost=%.4f delay=%.4f",
                  kProtocolLabels[pi], ref_cost[pi] / n, ref_delay[pi] / n);
    out.notes.push_back(line);
  }
  for (std::size_t pi = 0; pi < kProtocols.size(); ++pi) {
    std::snprintf(line, sizeof line,
                  "trials %-8s %llu run, %llu not delivered exactly once",
                  kProtocolLabels[pi],
                  static_cast<unsigned long long>(trials[pi]),
                  static_cast<unsigned long long>(undelivered[pi]));
    out.notes.push_back(line);
  }
  out.notes.push_back("digest.results: " + digest.hex());

  const double fail_ratio = ratio(static_cast<double>(total_undelivered),
                                  static_cast<double>(total_trials));
  // Rates count run_trial's time, pooled or HBH's alone, and are scaled to
  // the reference kernel's nominal speed.
  const EndToEnd raw{
      .setup_s = median(setup_times),
      .trials_per_s = ratio(static_cast<double>(total_trials), total_seconds),
      .hbh_trials_per_s = ratio(static_cast<double>(trials[kHbhIndex]),
                                trial_seconds[kHbhIndex]),
      .pkts_per_s = ratio(total_copies, total_seconds),
      .hbh_pkts_per_s =
          ratio(probe_copies[kHbhIndex], trial_seconds[kHbhIndex])};
  out.notes.push_back(raw.describe(kernel.events_per_second()));
  if (!options.trace) {
    add_end_to_end(out, raw, kernel.rate_scale(), setup_scale,
                   1.0 - fail_ratio);
    return out;
  }

  // --- Traced run: per-layer metrics -----------------------------------
  Digest count_digest;
  TrialCounts pooled;
  for (std::size_t pi = 0; pi < kProtocols.size(); ++pi) {
    const TrialCounts& c = counts[pi];
    const double n = static_cast<double>(c.trials);
    const std::string label = kProtocolLabels[pi];
    // pkts_per_s counts a trial's data transmissions as its probe copies.
    out.check(c.measure_data_pkts == c.probe_copies,
              label + ": probe copies differ from data transmissions");
    out.add("net." + label + ".ctrl_pkts_per_trial",
            ratio(static_cast<double>(c.ctrl_pkts), n), "count");
    out.add("sim." + label + ".events_per_trial",
            ratio(static_cast<double>(c.events), n), "count");
    for (const std::uint64_t v :
         {c.trials, c.ctrl_pkts, c.converge_ctrl_pkts, c.measure_data_pkts,
          c.events, c.spf, c.allocs, c.timer_fires}) {
      count_digest.add(v);
    }
    for (const std::uint64_t v : c.rx) count_digest.add(v);

    // Converge timings come from every replica in the window, so their
    // packet count does too.
    const std::uint64_t converge_ctrl_pkts =
        c.converge_ctrl_pkts + all_counts[pi].converge_ctrl_pkts;
    const int p = static_cast<int>(pi);
    const auto converge = spans.durations("mcast.converge", p);
    double converge_total = 0;
    for (const double d : converge) converge_total += d;
    out.add("mcast." + label + ".converge_ms", median(converge) * 1e3, "ms");
    out.add("mcast." + label + ".us_per_ctrl_pkt",
            ratio(converge_total * 1e6,
                  static_cast<double>(converge_ctrl_pkts)),
            "us");

    pooled.trials += c.trials;
    pooled.timer_fires += c.timer_fires;
    pooled.spf += c.spf;
    pooled.allocs += c.allocs;
  }
  const TrialCounts& hbh_counts = counts[kHbhIndex];
  const double hbh_n = static_cast<double>(hbh_counts.trials);
  const auto rx = [&](hbh::net::PacketType t) {
    return ratio(static_cast<double>(
                     hbh_counts.rx[static_cast<std::size_t>(t)]),
                 hbh_n);
  };
  out.add("mcast.hbh.rx_join_per_trial", rx(hbh::net::PacketType::kJoin),
          "count");
  out.add("mcast.hbh.rx_tree_per_trial", rx(hbh::net::PacketType::kTree),
          "count");
  out.add("mcast.hbh.rx_fusion_per_trial", rx(hbh::net::PacketType::kFusion),
          "count");
  const double pooled_n = static_cast<double>(pooled.trials);
  out.add("mcast.timer_fires_per_trial",
          ratio(static_cast<double>(pooled.timer_fires), pooled_n), "count");
  out.add("routing.spf_per_trial",
          ratio(static_cast<double>(pooled.spf), pooled_n), "count");
  out.add("alloc.per_trial",
          ratio(static_cast<double>(pooled.allocs), pooled_n), "count");

  std::uint64_t window_events = 0;
  double replica_total = 0;
  for (std::size_t pi = 0; pi < kProtocols.size(); ++pi) {
    window_events += counts[pi].events + all_counts[pi].events;
    replica_total += replica_seconds[pi];
  }
  out.add("sim.events_per_s",
          ratio(static_cast<double>(window_events), replica_total), "1/s");

  out.add("topo.build_ms", median(spans.durations("topo.build")) * 1e3, "ms");
  out.add("harness.session_ms",
          median(spans.durations("harness.session")) * 1e3, "ms");
  const auto trial_times = spans.durations("harness.run_trial");
  out.add("harness.trial_p50_ms", percentile(trial_times, 0.50) * 1e3, "ms");
  out.add("harness.trial_p99_ms", percentile(trial_times, 0.99) * 1e3, "ms");
  out.add("harness.trials", static_cast<double>(total_trials), "count");
  out.add("probe.measure_ms", median(spans.durations("probe.measure")) * 1e3,
          "ms");
  out.add("fail_ratio", fail_ratio, "1");
  out.add("bench.ref_events_per_s", kernel.events_per_second(), "1/s");
  out.add("bench.trace_overhead", ratio(replica_total, total_seconds), "1");
  add_span_metrics(out, spans, 0, elapsed);
  out.notes.push_back("digest.counts: " + count_digest.hex());
  if (!options.spans_path.empty() &&
      !spans.write_chrome_trace(options.spans_path)) {
    out.failures.push_back("cannot write spans to " + options.spans_path);
  }
  return out;
}

}  // namespace perfbench
