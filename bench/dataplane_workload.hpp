// The data-plane workload behind bench/perf_dataplane, shared with the test
// that pins its counts (tests/integration_test.cpp, DataplaneWorkloadTest).
//
// Per protocol: build the ISP session with randomized costs, subscribe 16
// receivers, converge the control plane, run unmeasured warmup rounds,
// then measure a loop of source-emission rounds draining through the
// simulator. A round is a burst of emissions sharing one drain, so the
// wall clock measures fan-out work, not round bookkeeping. Queued mode
// repeats the loop with capacitated backbone links, so every data copy
// passes EgressQueue admission (serialization + wait arithmetic); at
// these sizes the bursts queue but never overflow, so the mode times
// admission, not loss (CongestionTest pins the drop-tail path).
//
// Every count in DataplaneRun is a pure simulation output, exact for a
// given seed; only wall_seconds depends on the machine and build.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "harness/session.hpp"
#include "topo/builders.hpp"
#include "topo/isp.hpp"
#include "util/profiler.hpp"
#include "util/rng.hpp"

namespace hbh::bench {

inline constexpr std::size_t kDataplaneReceivers = 16;
inline constexpr std::size_t kDataplaneRounds = 64;   // measured rounds
inline constexpr std::size_t kDataplaneWarmup = 8;    // unmeasured rounds
inline constexpr std::size_t kDataplaneBurst = 16;    // emissions per round
inline constexpr double kQueuedCapacity = 500;        // bytes per time unit
inline constexpr std::size_t kQueuedLimit = 32;       // packets per queue

/// The measured loop's deltas, plus the event-queue slot pool after it.
struct DataplaneRun {
  std::uint64_t data_packets = 0;
  std::uint64_t control_packets = 0;  ///< soft-state refresh riding along
  std::uint64_t sim_events = 0;
  std::uint64_t queue_slots = 0;
  std::uint64_t queued_packets = 0;   ///< egress-queue admissions
  std::uint64_t drops_queue_full = 0;
  std::uint64_t drops_red = 0;
  /// Packets left in the fabric's pool once every receiver has left and
  /// the soft state has expired (after the timed window): 0 unless a
  /// packet leaked.
  std::uint64_t packets_live = 0;
  double wall_seconds = 0;
};

inline DataplaneRun run_dataplane(harness::Protocol protocol,
                                  std::uint64_t seed, bool queued) {
  constexpr Time kConvergeTime = 240;  // control-plane warmup, as in figures
  constexpr Time kRoundDrain = 30;     // sim time per emission round
  constexpr Time kTailDrain = 60;      // final drain inside the timed window

  // Same paired-trial construction as the figure sweeps: every protocol
  // sees identical costs and the same receiver set.
  Rng rng{seed};
  topo::Scenario scenario = topo::make_isp();
  topo::randomize_costs(scenario.topo, rng);
  if (queued) {
    topo::apply_backbone_capacity(scenario.topo, kQueuedCapacity, kQueuedLimit);
  }
  auto candidates = scenario.candidate_receivers();
  const std::vector<NodeId> receivers =
      rng.sample(candidates, kDataplaneReceivers);

  const harness::SessionConfig config{};
  harness::Session session{std::move(scenario), protocol, config};
  harness::ChannelHandle ch = session.default_channel();
  auto round = [&] {
    for (std::size_t b = 0; b < kDataplaneBurst; ++b) (void)ch.inject_data();
    session.run_for(kRoundDrain);
  };
  {
    HBH_PHASE("converge");
    Time delay = 0.1;
    for (const NodeId r : receivers) {
      session.subscribe(r, delay);
      delay += 1.2 * config.timers.tree_period;
    }
    session.run_for(delay + kConvergeTime);
    for (std::size_t i = 0; i < kDataplaneWarmup; ++i) round();
  }

  HBH_PHASE("measure_loop");
  const net::NetworkCounters before = session.network().counters();
  const std::uint64_t events_before = session.simulator().executed();
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kDataplaneRounds; ++i) round();
  session.run_for(kTailDrain);
  DataplaneRun run;
  run.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  const net::NetworkCounters& after = session.network().counters();
  run.data_packets = after.data_transmissions - before.data_transmissions;
  run.control_packets =
      after.control_transmissions - before.control_transmissions;
  run.sim_events = session.simulator().executed() - events_before;
  run.queue_slots = session.simulator().queue().slots_allocated();
  run.queued_packets = after.queued_packets - before.queued_packets;
  run.drops_queue_full = after.drops_queue_full - before.drops_queue_full;
  run.drops_red = after.drops_red - before.drops_red;

  // Drain: with every receiver gone, soft state expires within t2 and the
  // sources stop sending, so the pool must empty.
  for (const NodeId r : receivers) session.unsubscribe(r);
  session.run_for(4 * config.timers.t2);
  run.packets_live = session.network().packets_live();
  return run;
}

}  // namespace hbh::bench
