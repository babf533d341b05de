// Microbenchmarks of the simulation substrate (google-benchmark).
//
// These are M1–M4 in DESIGN.md: event-queue throughput, Dijkstra SPF,
// protocol convergence, and a full measured trial, plus the HBH
// forwarding table's per-packet operations. They characterize the
// simulator itself, not the paper's results.
#include <benchmark/benchmark.h>

#include <optional>

#include "harness/experiment.hpp"
#include "harness/session.hpp"
#include "mcast/hbh/tables.hpp"
#include "metrics/registry.hpp"
#include "routing/unicast.hpp"
#include "sim/simulator.hpp"
#include "topo/isp.hpp"
#include "topo/random.hpp"
#include "util/profiler.hpp"
#include "util/rng.hpp"

namespace {

using namespace hbh;

void BM_EventQueuePushPop(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  Rng rng{1};
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::size_t i = 0; i < batch; ++i) {
      q.push(rng.uniform(0, 1000), [] {});
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop().when);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(batch) *
                          state.iterations());
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1000)->Arg(10000);

// The shape the simulator actually sees: a few hundred pending events
// (the perfbench workloads average 135–658), each pop followed by a
// push a small integer delay plus jitter past the popped time, so pushes
// land in the middle of the heap and many share a timestamp's integer
// part. Unlike the batch push-then-drain above, the heap never shrinks.
void BM_EventQueueSteadyState(benchmark::State& state) {
  const auto pending = static_cast<std::size_t>(state.range(0));
  Rng rng{4};
  sim::EventQueue q;
  for (std::size_t i = 0; i < pending; ++i) {
    q.push(static_cast<Time>(rng.uniform_int(0, 8)), [] {});
  }
  for (auto _ : state) {
    const Time now = q.pop().when;
    const Time delay = static_cast<Time>(rng.uniform_int(0, 8)) +
                       (rng.chance(0.5) ? rng.uniform(0, 0.01) : 0.0);
    benchmark::DoNotOptimize(q.push(now + delay, [] {}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueSteadyState)->Arg(400);

// Data-plane fan-out: a converged HBH session on the ISP topology, per-
// iteration burst of emissions drained through the simulator. items/s is
// data transmissions per second — the per-hop cost under the microbench
// harness (bench/perf_dataplane is the report-grade version).
void BM_DataFanout(benchmark::State& state) {
  Rng rng{9};
  auto scenario = topo::make_isp();
  topo::randomize_costs(scenario.topo, rng);
  const auto picked = rng.sample(scenario.candidate_receivers(), 16);
  harness::Session session{std::move(scenario), harness::Protocol::kHbh};
  harness::ChannelHandle ch = session.default_channel();
  Time delay = 0.1;
  for (const NodeId r : picked) {
    ch.subscribe(r, delay);
    delay += 1.0;
  }
  session.run_for(delay + 240);
  const std::uint64_t before =
      session.network().counters().data_transmissions;
  for (auto _ : state) {
    for (int burst = 0; burst < 16; ++burst) (void)ch.inject_data();
    session.run_for(30);
  }
  const std::uint64_t after = session.network().counters().data_transmissions;
  state.SetItemsProcessed(static_cast<std::int64_t>(after - before));
}
BENCHMARK(BM_DataFanout);

// Soft-state workload shape: every protocol timer push is later cancelled
// and re-armed (refresh), so cancel cost is as hot as push/pop cost.
void BM_EventQueuePushCancelChurn(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  Rng rng{2};
  std::vector<sim::EventId> ids;
  ids.reserve(batch);
  for (auto _ : state) {
    sim::EventQueue q;
    ids.clear();
    for (std::size_t i = 0; i < batch; ++i) {
      ids.push_back(q.push(rng.uniform(0, 1000), [] {}));
    }
    for (std::size_t i = 0; i < batch; i += 2) q.cancel(ids[i]);
    while (!q.empty()) benchmark::DoNotOptimize(q.pop().when);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(batch) *
                          state.iterations());
}
BENCHMARK(BM_EventQueuePushCancelChurn)->Arg(1000)->Arg(10000);

void BM_SimulatorTimerWheel(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int fired = 0;
    sim::PeriodicTimer timer{sim, 1.0, [&] { ++fired; }};
    timer.start();
    sim.run(10000.0);
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_SimulatorTimerWheel);

// One HBH router's per-packet table work on an MFT of range(0) entries:
// find, purge and an in-place data-target walk. With range(1) == 0 no
// entry has expired and purge returns at its expiry gate; with 1 each
// iteration plants a dead entry, so every purge walks the table and
// evicts it.
void BM_HbhMft(benchmark::State& state) {
  const auto entries = static_cast<std::uint32_t>(state.range(0));
  const bool expired = state.range(1) != 0;
  const mcast::McastConfig cfg;
  const Time now = 1000;
  mcast::hbh::Mft mft;
  for (std::uint32_t i = 0; i < entries; ++i) {
    mft.upsert(Ipv4Addr{(10u << 24) | (2 * i + 2)}, cfg, now);
  }
  const Ipv4Addr probe{(10u << 24) | entries};
  const Ipv4Addr victim{(10u << 24) | 1u};
  for (auto _ : state) {
    if (expired) mft.upsert(victim, cfg, now - cfg.t2);
    benchmark::DoNotOptimize(mft.find(probe));
    benchmark::DoNotOptimize(mft.purge(now));
    std::size_t copies = 0;
    mft.for_each_data_target(now, [&](Ipv4Addr) { ++copies; });
    benchmark::DoNotOptimize(copies);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HbhMft)->ArgsProduct({{4, 16, 45}, {0, 1}});

void BM_DijkstraIsp(benchmark::State& state) {
  auto scenario = topo::make_isp();
  Rng rng{3};
  topo::randomize_costs(scenario.topo, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::dijkstra(scenario.topo, NodeId{0}));
  }
}
BENCHMARK(BM_DijkstraIsp);

// The fault-path shape: repeated SPF recomputes of the same root. The
// scratch + result buffers amortize all per-call allocation away.
void BM_DijkstraIntoIsp(benchmark::State& state) {
  auto scenario = topo::make_isp();
  Rng rng{3};
  topo::randomize_costs(scenario.topo, rng);
  routing::SpfResult out;
  routing::DijkstraScratch scratch;
  std::vector<double> weights;
  routing::link_weights(scenario.topo, routing::cost_metric(), weights);
  for (auto _ : state) {
    routing::dijkstra_into(scenario.topo, NodeId{0}, weights, out, scratch);
    benchmark::DoNotOptimize(out.dist.data());
  }
}
BENCHMARK(BM_DijkstraIntoIsp);

// One SPF on the sweep's topology (make_random50, as sweep_rand50 builds
// it), rotating through the roots with warm buffers.
void BM_DijkstraIntoRand50(benchmark::State& state) {
  Rng rng{5};
  auto scenario = topo::make_random50(rng);
  topo::randomize_costs(scenario.topo, rng);
  const auto n = static_cast<std::uint32_t>(scenario.topo.node_count());
  routing::SpfResult out;
  routing::DijkstraScratch scratch;
  std::vector<double> weights;
  routing::link_weights(scenario.topo, routing::cost_metric(), weights);
  std::uint32_t root = 0;
  for (auto _ : state) {
    routing::dijkstra_into(scenario.topo, NodeId{root}, weights, out, scratch);
    benchmark::DoNotOptimize(out.dist.data());
    root = root + 1 == n ? 0 : root + 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DijkstraIntoRand50);

void BM_AllPairsRoutingRand50(benchmark::State& state) {
  Rng rng{5};
  auto scenario = topo::make_random50(rng);
  topo::randomize_costs(scenario.topo, rng);
  const std::size_t n = scenario.topo.node_count();
  for (auto _ : state) {
    routing::UnicastRouting routes{scenario.topo};
    // SPFs are computed lazily per root; query every root so this still
    // measures the full all-pairs build.
    double acc = 0;
    for (std::size_t r = 0; r < n; ++r) {
      acc += routes.distance(NodeId{static_cast<std::uint32_t>(r)}, NodeId{49});
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_AllPairsRoutingRand50);

void BM_HbhConvergenceIsp(benchmark::State& state) {
  const auto receivers = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Rng rng{7};
    auto scenario = topo::make_isp();
    topo::randomize_costs(scenario.topo, rng);
    const auto picked = rng.sample(scenario.candidate_receivers(), receivers);
    harness::Session session{std::move(scenario), harness::Protocol::kHbh};
    state.ResumeTiming();
    Time delay = 0.1;
    for (const NodeId r : picked) {
      session.subscribe(r, delay);
      delay += 1.0;
    }
    session.run_for(400);
    benchmark::DoNotOptimize(session.simulator().executed());
  }
}
BENCHMARK(BM_HbhConvergenceIsp)->Arg(4)->Arg(16);

// Telemetry hot path: one branch + one add when enabled (Arg(1)), one
// branch when disabled (Arg(0)) — the "~zero cost when off" design claim.
void BM_RegistryCounterInc(benchmark::State& state) {
  metrics::Registry reg{state.range(0) != 0};
  metrics::Counter& counter = reg.counter("bench.counter");
  for (auto _ : state) {
    counter.inc();
  }
  benchmark::DoNotOptimize(counter.value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegistryCounterInc)->Arg(0)->Arg(1);

void BM_RegistryHistogramObserve(benchmark::State& state) {
  metrics::Registry reg{state.range(0) != 0};
  metrics::Histogram& h =
      reg.histogram("bench.sizes", {24, 32, 48, 64, 96, 128, 192, 256});
  Rng rng{11};
  for (auto _ : state) {
    h.observe(rng.uniform(0, 300));
  }
  benchmark::DoNotOptimize(h.count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegistryHistogramObserve)->Arg(0)->Arg(1);

// One phase scope enter/exit pair, as each soft-state refresh opens inside
// a trial's warmup: with a PhaseProfiler installed (Arg(1)) it reads the
// steady clock twice and updates one phase; with none (Arg(0)) it is one
// thread-local load and branch.
void BM_PhaseScope(benchmark::State& state) {
  prof::PhaseProfiler profiler;
  std::optional<prof::ScopedProfiler> install;
  if (state.range(0) != 0) install.emplace(profiler);
  {
    const prof::PhaseScope outer{"warmup"};
    for (auto _ : state) {
      const prof::PhaseScope scope{"soft_state_refresh"};
    }
  }
  benchmark::DoNotOptimize(profiler.phases().size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PhaseScope)->Arg(0)->Arg(1);

// Same workload as BM_HbhConvergenceIsp but with the full telemetry stack
// on (taps, gauges, sampler); the delta over the plain run is the
// instrumentation overhead budget.
void BM_HbhConvergenceTelemetry(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Rng rng{7};
    auto scenario = topo::make_isp();
    topo::randomize_costs(scenario.topo, rng);
    const auto picked = rng.sample(scenario.candidate_receivers(), 16);
    harness::Session session{std::move(scenario), harness::Protocol::kHbh};
    session.enable_telemetry(/*sample_period=*/10.0);
    state.ResumeTiming();
    Time delay = 0.1;
    for (const NodeId r : picked) {
      session.subscribe(r, delay);
      delay += 1.0;
    }
    session.run_for(400);
    benchmark::DoNotOptimize(session.simulator().executed());
  }
}
BENCHMARK(BM_HbhConvergenceTelemetry);

void BM_FullTrial(benchmark::State& state) {
  harness::ExperimentSpec spec;
  spec.topology = harness::TopoKind::kIsp;
  std::size_t trial = 0;
  for (auto _ : state) {
    const auto r =
        harness::run_trial(spec, harness::Protocol::kHbh, 8, trial++);
    benchmark::DoNotOptimize(r.tree_cost);
  }
}
BENCHMARK(BM_FullTrial);

}  // namespace

BENCHMARK_MAIN();
