// Data-plane packets/sec bench: the per-hop cost of data fan-out
// through the fabric (docs/PERFORMANCE.md "Per-hop cost").
//
// For each protocol, runs the bench/dataplane_workload.hpp loop twice —
// plain, and with capacitated backbone links — and prints one table per
// mode. Throughput varies with the machine; the packet counts are pure
// simulation outputs, pinned exactly by
// DataplaneWorkloadTest.CountsMatchThePinnedValues. Heap allocations per
// packet come from perfbench's `alloc.per_pkt` (perfbench/README.md).
//
// Knobs: HBH_SEED, HBH_PROF_OUT (standalone phase profile).
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "dataplane_workload.hpp"
#include "harness/experiment.hpp"
#include "util/env.hpp"
#include "util/log.hpp"
#include "util/profiler.hpp"

using namespace hbh;
using bench::DataplaneRun;

namespace {

double per_second(std::uint64_t count, double seconds) {
  return seconds > 0 ? static_cast<double>(count) / seconds : 0;
}

DataplaneRun run_protocol(harness::Protocol protocol, std::uint64_t seed,
                          bool queued) {
  // Phase attribution reads the clock inside the measured loop, so the
  // profiler is installed only when a profile artifact was actually
  // requested via HBH_PROF_OUT.
  prof::PhaseProfiler profiler;
  std::optional<prof::ScopedProfiler> install;
  if (!env_prof_out().empty()) install.emplace(profiler);
  const DataplaneRun run = bench::run_dataplane(protocol, seed, queued);
  install.reset();
  prof::process_profile().merge(to_string(protocol), profiler);
  return run;
}

}  // namespace

int main() {
  init_log_level_from_env();
  const std::uint64_t seed = env_seed();

  std::printf("=== perf_dataplane — data fan-out packets/sec ===\n");
  std::printf(
      "topology=ISP receivers=%zu rounds=%zu warmup=%zu burst=%zu "
      "seed=%llu\n\n",
      bench::kDataplaneReceivers, bench::kDataplaneRounds,
      bench::kDataplaneWarmup, bench::kDataplaneBurst,
      static_cast<unsigned long long>(seed));

  const auto& protocols = harness::all_protocols();
  std::vector<DataplaneRun> results;
  std::vector<DataplaneRun> queued_results;
  for (const harness::Protocol p : protocols) {
    results.push_back(run_protocol(p, seed, false));
    queued_results.push_back(run_protocol(p, seed, true));
  }

  std::printf("%-10s %12s %12s %14s %14s\n", "protocol", "data_pkts",
              "ctrl_pkts", "packets/s", "events/s");
  for (std::size_t i = 0; i < protocols.size(); ++i) {
    const DataplaneRun& r = results[i];
    std::printf("%-10s %12llu %12llu %14.0f %14.0f\n",
                std::string(to_string(protocols[i])).c_str(),
                static_cast<unsigned long long>(r.data_packets),
                static_cast<unsigned long long>(r.control_packets),
                per_second(r.data_packets, r.wall_seconds),
                per_second(r.sim_events, r.wall_seconds));
  }

  std::printf("\nqueued mode (backbone capacity=%.0f B/tu, queue=%zu, "
              "drop-tail):\n",
              bench::kQueuedCapacity, bench::kQueuedLimit);
  std::printf("%-10s %12s %12s %12s %14s\n", "protocol", "data_pkts",
              "queued", "drops", "packets/s");
  for (std::size_t i = 0; i < protocols.size(); ++i) {
    const DataplaneRun& r = queued_results[i];
    std::printf("%-10s %12llu %12llu %12llu %14.0f\n",
                std::string(to_string(protocols[i])).c_str(),
                static_cast<unsigned long long>(r.data_packets),
                static_cast<unsigned long long>(r.queued_packets),
                static_cast<unsigned long long>(r.drops_queue_full +
                                                r.drops_red),
                per_second(r.data_packets, r.wall_seconds));
  }

  harness::ArtifactPaths profile_only;
  profile_only.profile = env_prof_out();
  (void)harness::write_artifacts(profile_only, {}, {}, "perf_dataplane", {});
  return 0;
}
