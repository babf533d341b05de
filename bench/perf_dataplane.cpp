// Data-plane packets/sec microbench: the per-hop cost of data fan-out
// through the fabric (docs/PERFORMANCE.md "Per-hop cost").
//
// For each protocol: build the ISP session, converge the control plane,
// then time a loop of source emissions draining through the simulator.
// Built with -DHBH_PROF_ALLOC=ON the artifact also carries the exact
// heap allocation count and bytes of the measured loop (the EventQueue
// recycles its slot pool and SPF results are cached, so what remains is
// per-packet payload/handler cost) — allocation regressions on the data
// path show up as a counted number instead of a timing blur.
//
// Throughput (packets_per_second) varies with the machine; the packet
// *counts* are pure simulation outputs and are deterministic for a fixed
// seed and round count — bench/baselines/perf_dataplane.json gates them
// with a tight band and the timings with a wide one.
//
// Knobs: HBH_SEED, HBH_DP_ROUNDS (measured emission rounds, default 64),
// HBH_DP_WARMUP (unmeasured warmup rounds, default 8), HBH_DP_BURST
// (emissions per round, default 16 — a burst shares one drain, so the
// wall clock measures fan-out work, not round bookkeeping), HBH_PERF_OUT
// (JSON path, default BENCH_perf_dataplane.json; empty string disables the
// file), HBH_PROF_OUT (standalone phase profile).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/session.hpp"
#include "metrics/json.hpp"
#include "topo/builders.hpp"
#include "topo/isp.hpp"
#include "util/env.hpp"
#include "util/log.hpp"
#include "util/profiler.hpp"
#include "util/rng.hpp"

using namespace hbh;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kReceivers = 16;
constexpr Time kConvergeTime = 240;   // control-plane warmup, as in figures
constexpr Time kRoundDrain = 30;      // sim time per emission round
constexpr Time kTailDrain = 60;       // final drain inside the timed window

// Queued mode: the same loop with capacitated backbone links, so the hot
// path includes EgressQueue admission (serialization + wait arithmetic,
// drop-tail bookkeeping). Capacity is sized so bursts fill queues without
// starving the loop — the mode measures queue-machinery overhead, and its
// drop/admission counts are deterministic gate inputs.
constexpr double kQueuedCapacity = 500;  // bytes per time unit
constexpr std::size_t kQueuedLimit = 32;

struct ProtocolResult {
  harness::Protocol protocol;
  std::uint64_t data_packets = 0;     ///< data transmissions, measured loop
  std::uint64_t control_packets = 0;  ///< control riding along (soft state)
  std::uint64_t sim_events = 0;
  double wall_seconds = 0;
  std::uint64_t allocs = 0;           ///< 0 unless -DHBH_PROF_ALLOC=ON
  std::uint64_t alloc_bytes = 0;
  std::uint64_t queue_slots = 0;      ///< slot pool size after the loop
  std::uint64_t queue_pushes = 0;     ///< total pushes (reuse = pushes/slots)
  std::uint64_t queued_packets = 0;   ///< egress-queue admissions (queued mode)
  std::uint64_t drops_queue_full = 0;  ///< drop-tail losses (queued mode)
  std::uint64_t drops_red = 0;         ///< RED early drops (queued mode)

  [[nodiscard]] double packets_per_second() const {
    return wall_seconds > 0 ? static_cast<double>(data_packets) / wall_seconds
                            : 0;
  }
  [[nodiscard]] double events_per_second() const {
    return wall_seconds > 0 ? static_cast<double>(sim_events) / wall_seconds
                            : 0;
  }
};

ProtocolResult run_protocol(harness::Protocol protocol, std::uint64_t seed,
                            std::size_t rounds, std::size_t warmup_rounds,
                            std::size_t burst, bool queued) {
  // Phase attribution reads the clock inside the measured loop, so the
  // profiler is installed only when a profile artifact was actually
  // requested via HBH_PROF_OUT.
  prof::PhaseProfiler profiler;
  std::optional<prof::ScopedProfiler> install;
  if (!env_prof_out().empty()) install.emplace(profiler);

  // Same paired-trial construction as the figure sweeps: every protocol
  // sees identical costs and the same receiver set.
  Rng rng{seed};
  topo::Scenario scenario = topo::make_isp();
  topo::randomize_costs(scenario.topo, rng);
  if (queued) {
    topo::apply_backbone_capacity(scenario.topo, kQueuedCapacity, kQueuedLimit);
  }
  auto candidates = scenario.candidate_receivers();
  const std::vector<NodeId> receivers = rng.sample(candidates, kReceivers);

  const harness::SessionConfig config{};
  harness::Session session{std::move(scenario), protocol, config};
  harness::ChannelHandle ch = session.default_channel();
  ProtocolResult result{.protocol = protocol};
  {
    HBH_PHASE("converge");
    Time delay = 0.1;
    for (const NodeId r : receivers) {
      session.subscribe(r, delay);
      delay += 1.2 * config.timers.tree_period;
    }
    session.run_for(delay + kConvergeTime);
    for (std::size_t i = 0; i < warmup_rounds; ++i) {
      for (std::size_t b = 0; b < burst; ++b) (void)ch.inject_data();
      session.run_for(kRoundDrain);
    }
  }

  {
    HBH_PHASE("measure_loop");
    const net::NetworkCounters before = session.network().counters();
    const std::uint64_t events_before = session.simulator().executed();
    const prof::AllocCounters alloc_before = prof::thread_alloc_counters();
    const auto start = Clock::now();
    for (std::size_t i = 0; i < rounds; ++i) {
      for (std::size_t b = 0; b < burst; ++b) (void)ch.inject_data();
      session.run_for(kRoundDrain);
    }
    session.run_for(kTailDrain);
    result.wall_seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    const prof::AllocCounters alloc_after = prof::thread_alloc_counters();
    const net::NetworkCounters& after = session.network().counters();
    result.data_packets = after.data_transmissions - before.data_transmissions;
    result.control_packets =
        after.control_transmissions - before.control_transmissions;
    result.sim_events = session.simulator().executed() - events_before;
    result.queued_packets = after.queued_packets - before.queued_packets;
    result.drops_queue_full = after.drops_queue_full - before.drops_queue_full;
    result.drops_red = after.drops_red - before.drops_red;
    result.allocs = alloc_after.allocs - alloc_before.allocs;
    result.alloc_bytes = alloc_after.bytes - alloc_before.bytes;
    result.queue_slots = session.simulator().queue().slots_allocated();
    result.queue_pushes = session.simulator().queue().total_pushes();
  }

  prof::process_profile().merge(to_string(protocol), profiler);
  return result;
}

}  // namespace

int main() {
  init_log_level_from_env();
  const std::uint64_t seed = env_seed();
  const std::size_t rounds = env_dp_rounds(64);
  const std::size_t warmup_rounds = env_dp_warmup(8);
  const std::size_t burst = env_dp_burst(16);

  std::printf("=== perf_dataplane — data fan-out packets/sec ===\n");
  std::printf(
      "topology=ISP receivers=%zu rounds=%zu warmup=%zu burst=%zu "
      "seed=%llu\n\n",
      kReceivers, rounds, warmup_rounds, burst,
      static_cast<unsigned long long>(seed));

  std::vector<ProtocolResult> results;
  std::vector<ProtocolResult> queued_results;
  for (const harness::Protocol p : harness::all_protocols()) {
    results.push_back(
        run_protocol(p, seed, rounds, warmup_rounds, burst, false));
    queued_results.push_back(
        run_protocol(p, seed, rounds, warmup_rounds, burst, true));
  }

  std::printf("%-10s %12s %12s %14s %14s %10s\n", "protocol", "data_pkts",
              "ctrl_pkts", "packets/s", "events/s", "allocs");
  for (const ProtocolResult& r : results) {
    std::printf("%-10s %12llu %12llu %14.0f %14.0f %10llu\n",
                std::string(to_string(r.protocol)).c_str(),
                static_cast<unsigned long long>(r.data_packets),
                static_cast<unsigned long long>(r.control_packets),
                r.packets_per_second(), r.events_per_second(),
                static_cast<unsigned long long>(r.allocs));
  }

  std::printf("\nqueued mode (backbone capacity=%.0f B/tu, queue=%zu, "
              "drop-tail):\n",
              kQueuedCapacity, kQueuedLimit);
  std::printf("%-10s %12s %12s %12s %14s\n", "protocol", "data_pkts",
              "queued", "drops", "packets/s");
  for (const ProtocolResult& r : queued_results) {
    std::printf("%-10s %12llu %12llu %12llu %14.0f\n",
                std::string(to_string(r.protocol)).c_str(),
                static_cast<unsigned long long>(r.data_packets),
                static_cast<unsigned long long>(r.queued_packets),
                static_cast<unsigned long long>(r.drops_queue_full +
                                                r.drops_red),
                r.packets_per_second());
  }

  const std::string out_path = env_perf_out("BENCH_perf_dataplane.json");
  if (!out_path.empty()) {
    std::ofstream out{out_path};
    if (!out) {
      std::fprintf(stderr, "error: cannot write HBH_PERF_OUT=%s\n",
                   out_path.c_str());
      return 1;
    }
    metrics::JsonWriter w{out};
    w.begin_object();
    w.member("schema", "hbh.perf_dataplane/v2");
    w.key("config");
    w.begin_object();
    w.member("topology", "ISP");
    w.member("receivers", static_cast<std::uint64_t>(kReceivers));
    w.member("rounds", static_cast<std::uint64_t>(rounds));
    w.member("warmup_rounds", static_cast<std::uint64_t>(warmup_rounds));
    w.member("burst", static_cast<std::uint64_t>(burst));
    w.member("seed", seed);
    w.member("alloc_counting", prof::kAllocCountingCompiled);
    w.end_object();
    w.key("protocols");
    w.begin_object();
    for (const ProtocolResult& r : results) {
      w.key(to_string(r.protocol));
      w.begin_object();
      w.member("data_packets", r.data_packets);
      w.member("control_packets", r.control_packets);
      w.member("sim_events", r.sim_events);
      w.member("wall_seconds", r.wall_seconds);
      w.member("packets_per_second", r.packets_per_second());
      w.member("events_per_second", r.events_per_second());
      w.member("allocs", r.allocs);
      w.member("alloc_bytes", r.alloc_bytes);
      w.member("queue_slots", r.queue_slots);
      w.member("queue_pushes", r.queue_pushes);
      w.end_object();
    }
    w.end_object();
    // Same loop with capacitated backbone links: the hot path now runs
    // EgressQueue admission per data copy. Counts are deterministic; the
    // baseline pins a throughput floor so queue arithmetic regressions on
    // the data path trip the perf gate (docs/PERFORMANCE.md).
    w.key("queued");
    w.begin_object();
    w.member("capacity", kQueuedCapacity);
    w.member("queue_limit", static_cast<std::uint64_t>(kQueuedLimit));
    w.key("protocols");
    w.begin_object();
    for (const ProtocolResult& r : queued_results) {
      w.key(to_string(r.protocol));
      w.begin_object();
      w.member("data_packets", r.data_packets);
      w.member("queued_packets", r.queued_packets);
      w.member("drops_queue_full", r.drops_queue_full);
      w.member("drops_red", r.drops_red);
      w.member("wall_seconds", r.wall_seconds);
      w.member("packets_per_second", r.packets_per_second());
      w.end_object();
    }
    w.end_object();
    w.end_object();
    w.member("peak_rss_bytes", prof::peak_rss_bytes());
    w.end_object();
    out << '\n';
    std::printf("\nwrote %s\n", out_path.c_str());
  }

  harness::ArtifactPaths profile_only;
  profile_only.profile = env_prof_out();
  (void)harness::write_artifacts(profile_only, {}, {}, "perf_dataplane", {});
  return 0;
}
