// dataplane_isp and churn_congested: converged ISP sessions, one per
// protocol and world, driven from one thread in rounds interleaved across
// protocols.
//
// A world is the ISP topology with its own cost draw and its own 16
// receivers (of the 17 candidate hosts), the same for all four protocols.
// Each run builds kWorlds worlds from the seed, so that one cost draw's
// tree shapes do not decide the run's figures; every world gets one
// session per protocol, staggered joins, then the figures' 240 time units
// of convergence. A round visits every session once.
//
// dataplane_isp: each session's round emits a burst of kBurst packets on
// its channel (ChannelHandle::inject_data) and drains the session for
// kRoundDrain time units. Every (emission, receiver) pair of the timed
// window must arrive exactly once, except REUNITE's (see run_lanes()).
//
// churn_congested: backbone links get a capacity and drop-tail queues
// (Session::apply_backbone_capacity), the channel emits at a fixed rate
// (TrafficSpec), 8 core receivers stay joined and the other 8 follow an
// exponential on/off ChurnPlan. Each session's step schedules the next
// kStep time units of membership events and runs the session that long.
// The offered load exceeds the capacity: one copy per emission needs 432
// bytes per time unit (4 x 108-byte packets) against 360, so on every
// protocol's tree the backbone links nearest the source stay saturated,
// their queues full, and drop-tail sheds about a sixth of the copies there
// (more where REUNITE sends two copies over one link). Each protocol must
// still deliver its HEAD share of core pairs, less a margin, and HBH,
// PIM-SM and PIM-SS must never duplicate a core pair or deliver it late.
//
// The first kBlockRounds rounds form the reference block: exact counts and
// the result digest cover exactly those, so they repeat bit for bit for a
// seed. The window then runs until --seconds have passed.
//
// The traced run alternates rounds: odd rounds record spans per layer,
// even rounds are timed once under a single root span. The ratio of the
// two is bench.trace_overhead.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "alloc_count.hpp"
#include "common.hpp"
#include "harness/churn_plan.hpp"
#include "mcast/common/membership.hpp"
#include "reference.hpp"
#include "topo/isp.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using hbh::NodeId;
using hbh::Time;
using hbh::harness::Session;

constexpr std::size_t kWorlds = 32;
constexpr std::size_t kReceivers = 16;
constexpr std::size_t kCoreReceivers = 8;  // churn_congested: never leave
constexpr Time kConverge = 240;            // as in the figure sweeps
constexpr std::size_t kSetupRepeats = 3;

// dataplane_isp
constexpr std::size_t kBurst = 64;     // emissions per round
constexpr Time kRoundDrain = 30;       // sim time per round
constexpr std::size_t kLagRounds = 4;  // rounds before a pair is final
constexpr std::size_t kWarmupRounds = 8;

// churn_congested
constexpr double kCapacity = 360;      // bytes per time unit, backbone edges
constexpr std::size_t kQueueLimit = 64;
constexpr double kRate = 4;            // emissions per time unit
constexpr std::uint32_t kPayload = 64; // bytes per data packet
constexpr Time kStep = 10;             // sim time per step
constexpr Time kFinalAfter = 400;      // emission age at which a pair is final
constexpr Time kChurnHorizon = 5e4;    // length of the pregenerated plans
constexpr std::size_t kWarmupSteps = 12;
// Share of core pairs each protocol must deliver (kProtocols order). HEAD
// delivers 0.833 on HBH, PIM-SM and PIM-SS (the bottleneck's 360/432) and
// 0.52-0.62 on REUNITE over seeds 1-6.
constexpr std::array<double, 4> kMinCoreDelivery{0.80, 0.45, 0.80, 0.80};

constexpr std::size_t kBlockRounds = 16;
constexpr std::size_t kRingSize = 4096;  // outstanding emissions per session
// Reference-kernel events after each round (a tenth to a sixth of its
// time) and before each set-up repeat.
constexpr std::size_t kDataplaneChunk = 120000;
constexpr std::size_t kChurnChunk = 200000;
constexpr std::size_t kSetupChunk = 200000;

/// Exactly-once accounting of (emission, receiver) pairs for one session.
/// Emission sequence numbers are consecutive from 0; a sequence number is
/// finalised once no copy of it can still be in flight.
class Ledger {
 public:
  explicit Ledger(std::size_t receivers)
      : receivers_(receivers), counts_(kRingSize * receivers, 0) {}

  /// Starts counting at sequence number `first`: copies of earlier
  /// emissions (the set-up's warm-up) are ignored from now on.
  void start_at(std::uint32_t first) {
    *this = Ledger{receivers_};
    base_ = first;
    first_ = first;
  }

  void record(std::size_t receiver, const hbh::mcast::Delivery& d) {
    if (receiver >= receivers_ || d.seq < first_) return;  // not counted
    if (d.seq < base_) {
      ++late_;  // arrived after its pair was finalised
      return;
    }
    if (d.seq - base_ >= kRingSize) {
      throw std::runtime_error("ledger overflow");
    }
    std::uint8_t& c = counts_[slot(d.seq) + receiver];
    if (c < 255) ++c;
    latency_ += d.received_at - d.sent_at;
    copies_ += 1;
  }

  /// Settles every pair with a sequence number below `upto`.
  void finalize(std::uint32_t upto) {
    for (; base_ < upto; ++base_) {
      const std::size_t at = slot(base_);
      for (std::size_t r = 0; r < receivers_; ++r) {
        const std::uint8_t c = counts_[at + r];
        pairs_ += 1;
        if (c == 1) once_ += 1;
        if (c == 0) missing_ += 1;
        if (c > 1) duplicated_ += 1;
        counts_[at + r] = 0;
      }
    }
  }

  [[nodiscard]] std::uint64_t pairs() const { return pairs_; }
  [[nodiscard]] std::uint64_t once() const { return once_; }
  [[nodiscard]] std::uint64_t missing() const { return missing_; }
  [[nodiscard]] std::uint64_t duplicated() const { return duplicated_; }
  [[nodiscard]] std::uint64_t late() const { return late_; }
  /// Sum of sent-to-received times of the counted copies, and their number.
  [[nodiscard]] double latency() const { return latency_; }
  [[nodiscard]] std::uint64_t copies() const { return copies_; }

 private:
  [[nodiscard]] std::size_t slot(std::uint32_t seq) const {
    return (seq % kRingSize) * receivers_;
  }

  std::size_t receivers_;
  std::vector<std::uint8_t> counts_;
  std::uint32_t base_ = 0;
  std::uint32_t first_ = 0;
  std::uint64_t pairs_ = 0, once_ = 0, missing_ = 0, duplicated_ = 0,
                late_ = 0, copies_ = 0;
  double latency_ = 0;
};

/// One world's inputs, drawn from the seed.
struct World {
  hbh::topo::Scenario scenario;
  std::vector<NodeId> receivers;  // core receivers first
  std::vector<NodeId> churners;   // churn_congested: receivers[8..16)
  hbh::harness::ChurnPlan plan;   // churn_congested: churners' script
};

/// Counters of one session, snapshotted to form deltas.
struct Snapshot {
  hbh::net::NetworkCounters net{};
  std::uint64_t events = 0;
  std::uint64_t spf = 0;
  std::uint64_t structural = 0;
};

/// One session and its bookkeeping.
struct Lane {
  std::size_t pi = 0;
  const World* world = nullptr;
  std::unique_ptr<Session> session;
  hbh::harness::ChannelHandle channel;
  std::vector<hbh::mcast::ReceiverHost*> hosts;  // world->receivers order
  Ledger ledger{kReceivers};
  std::uint32_t emitted = 0;    // dataplane: inject_data calls so far
  Time traffic_start = 0;       // churn: sim time of emission 0
  std::vector<bool> joined;     // churn: membership of every receiver
  std::size_t plan_next = 0;    // churn: next plan event to schedule
  std::uint64_t membership_events = 0;

  // Timed-window accounting.
  std::uint64_t rounds = 0;
  double seconds = 0;            // wall time in timed rounds
  Snapshot window_start{};
  double traced_seconds = 0;     // traced run: rounds with layer spans
  double untraced_seconds = 0;   // traced run: rounds timed once
  std::uint64_t traced_pkts = 0;

  [[nodiscard]] Snapshot snapshot() const {
    return Snapshot{session->network().counters(),
                    session->simulator().executed(),
                    session->routes().spf_computations(),
                    session->total_structural_changes()};
  }
  [[nodiscard]] std::uint64_t data_pkts_since_window() const {
    return session->network().counters().data_transmissions -
           window_start.net.data_transmissions;
  }
};

std::vector<World> make_worlds(std::uint64_t seed, bool churn) {
  std::vector<World> worlds(kWorlds);
  for (std::size_t w = 0; w < kWorlds; ++w) {
    World& world = worlds[w];
    hbh::Rng rng{mix_seed(seed, (churn ? 1000 : 0) + w)};
    world.scenario = hbh::topo::make_isp();
    hbh::topo::randomize_costs(world.scenario.topo, rng);
    world.receivers =
        rng.sample(world.scenario.candidate_receivers(), kReceivers);
    if (churn) {
      world.churners.assign(world.receivers.begin() + kCoreReceivers,
                            world.receivers.end());
      world.plan = hbh::harness::ChurnPlan::exponential_on_off(
          world.churners,
          hbh::harness::ChurnConfig{.horizon = kChurnHorizon,
                                    .p_start_joined = 1.0},
          mix_seed(seed, 2000 + w));
    }
  }
  return worlds;
}

/// Builds and converges one lane per (world, protocol), protocols
/// adjacent, so a round alternates protocols. Spans go to `rec`.
std::vector<Lane> build_lanes(const std::vector<World>& worlds,
                              std::size_t counted, SpanRecorder* rec) {
  std::vector<Lane> lanes(worlds.size() * kProtocols.size());
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    Lane& lane = lanes[i];
    lane.pi = i % kProtocols.size();
    lane.world = &worlds[i / kProtocols.size()];
    lane.ledger = Ledger{counted};
    const int p = static_cast<int>(lane.pi);
    hbh::topo::Scenario scenario;
    {
      const ScopedSpan span(rec, "topo.build", p);
      scenario = lane.world->scenario;
    }
    {
      const ScopedSpan span(rec, "harness.session", p);
      lane.session = std::make_unique<Session>(std::move(scenario),
                                               kProtocols[lane.pi]);
    }
    lane.channel = lane.session->default_channel();
    {
      const ScopedSpan span(rec, "mcast.converge", p);
      const hbh::mcast::McastConfig timers{};
      Time delay = 0.1;
      for (const NodeId r : lane.world->receivers) {
        lane.channel.subscribe(r, delay);
        delay += 1.2 * timers.tree_period;
      }
      lane.session->run_for(delay + kConverge);
    }
    for (const NodeId r : lane.world->receivers) {
      lane.hosts.push_back(&lane.session->receiver(r));
    }
    lane.joined.assign(kReceivers, true);
  }
  return lanes;
}

/// Hands every delivery since the last call to the ledger and clears it.
void collect(Lane& lane) {
  for (std::size_t r = 0; r < lane.hosts.size(); ++r) {
    hbh::mcast::ReceiverHost& host = *lane.hosts[r];
    for (const hbh::mcast::Delivery& d : host.deliveries()) {
      lane.ledger.record(r, d);
    }
    host.clear_deliveries();
  }
}

// --- dataplane_isp ------------------------------------------------------

void data_emit(Lane& lane) {
  for (std::size_t b = 0; b < kBurst; ++b) (void)lane.channel.inject_data();
  lane.emitted += kBurst;
}

void data_check(Lane& lane) {
  collect(lane);
  const std::uint32_t lag = kLagRounds * kBurst;
  if (lane.emitted > lag) lane.ledger.finalize(lane.emitted - lag);
}

/// One round; returns the wall time of its emit + drain.
double data_round(Lane& lane, SpanRecorder* rec) {
  const int p = static_cast<int>(lane.pi);
  if (rec == nullptr) {
    const auto t0 = Clock::now();
    data_emit(lane);
    lane.session->run_for(kRoundDrain);
    const double seconds = seconds_since(t0);
    data_check(lane);
    return seconds;
  }
  const ScopedSpan round(rec, "data.round", p);
  const auto t0 = Clock::now();
  {
    const ScopedSpan span(rec, "data.emit", p);
    data_emit(lane);
  }
  {
    const ScopedSpan span(rec, "data.drain", p);
    lane.session->run_for(kRoundDrain);
  }
  const double seconds = seconds_since(t0);
  const ScopedSpan span(rec, "data.check", p);
  data_check(lane);
  return seconds;
}

void data_finish(Lane& lane) {
  lane.session->run_for(8 * kRoundDrain);
  collect(lane);
  lane.ledger.finalize(lane.emitted);
}

// --- churn_congested ----------------------------------------------------

/// Schedules the world's membership events of the next kStep time units,
/// skipping those that would not change a receiver's membership.
void churn_schedule(Lane& lane) {
  const Time now = lane.session->simulator().now();
  const Time until = now + kStep;
  const auto& events = lane.world->plan.events();
  const auto& churners = lane.world->churners;
  hbh::harness::ChurnPlan chunk;
  bool any = false;
  for (; lane.plan_next < events.size(); ++lane.plan_next) {
    const hbh::harness::ChurnEvent& ev = events[lane.plan_next];
    const Time at = lane.traffic_start + ev.at;
    if (at >= until) break;
    const auto c = static_cast<std::size_t>(
        std::find(churners.begin(), churners.end(), ev.host) -
        churners.begin());
    const std::size_t r = kCoreReceivers + c;
    if (lane.joined[r] == ev.join) continue;
    lane.joined[r] = ev.join;
    lane.membership_events += 1;
    any = true;
    if (ev.join) {
      chunk.join(at - now, ev.host);
    } else {
      chunk.leave(at - now, ev.host);
    }
  }
  if (any) lane.channel.schedule_churn(chunk);
}

/// Emissions the channel's traffic timer has made by now.
std::uint32_t emissions_so_far(const Lane& lane) {
  const double k = std::floor(
      (lane.session->simulator().now() - lane.traffic_start) * kRate);
  return static_cast<std::uint32_t>(k) + 1;
}

/// Settles the core pairs of emissions at least kFinalAfter old.
void churn_check(Lane& lane) {
  collect(lane);  // churners' deliveries are cleared, not counted
  const Time settled = lane.session->simulator().now() - kFinalAfter;
  if (settled >= lane.traffic_start) {
    const double k = std::floor((settled - lane.traffic_start) * kRate);
    lane.ledger.finalize(static_cast<std::uint32_t>(k) + 1);
  }
}

double churn_step(Lane& lane, SpanRecorder* rec) {
  const int p = static_cast<int>(lane.pi);
  if (rec == nullptr) {
    const auto t0 = Clock::now();
    churn_schedule(lane);
    lane.session->run_for(kStep);
    const double seconds = seconds_since(t0);
    churn_check(lane);
    return seconds;
  }
  const ScopedSpan step(rec, "churn.step", p);
  const auto t0 = Clock::now();
  {
    const ScopedSpan span(rec, "churn.schedule", p);
    churn_schedule(lane);
  }
  {
    const ScopedSpan span(rec, "churn.run", p);
    lane.session->run_for(kStep);
  }
  const double seconds = seconds_since(t0);
  const ScopedSpan span(rec, "data.check", p);
  churn_check(lane);
  return seconds;
}

void churn_start(Lane& lane) {
  lane.session->apply_backbone_capacity(kCapacity, kQueueLimit);
  lane.traffic_start = lane.session->simulator().now();
  // Emission k leaves at traffic_start + k / kRate exactly: the interval
  // is a power of two, so the timer's repeated additions do not round.
  lane.channel.set_traffic(hbh::harness::TrafficSpec{
      .rate = kRate, .payload_bytes = kPayload, .start = lane.traffic_start});
}

void churn_finish(Lane& lane) {
  lane.channel.set_traffic(hbh::harness::TrafficSpec{});
  const std::uint32_t emitted = emissions_so_far(lane);
  lane.session->run_for(kFinalAfter);
  collect(lane);
  lane.ledger.finalize(emitted);
}

// --- shared round loop ----------------------------------------------------

enum class Kind { kDataplane, kChurn };

/// Per-protocol sums over the lanes of that protocol.
struct ProtocolTotals {
  std::uint64_t rounds = 0;
  double seconds = 0;
  std::uint64_t pkts = 0;
  double traced_seconds = 0;
  std::uint64_t traced_pkts = 0;
  std::uint64_t pairs = 0;
  std::uint64_t once = 0;
  std::uint64_t missing = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t late = 0;
  std::uint64_t queued = 0;  // data copies admitted to an egress queue
  std::uint64_t drops = 0;   // data copies dropped at a full queue
  double latency = 0;        // sent-to-received time of counted copies
  std::uint64_t copies = 0;
};

Outcome run_lanes(const Options& options, Kind kind) {
  Outcome out;
  const bool churn = kind == Kind::kChurn;
  const std::vector<World> worlds = make_worlds(options.seed, churn);
  const std::size_t counted = churn ? kCoreReceivers : kReceivers;
  const auto round = [churn](Lane& lane, SpanRecorder* rec) {
    return churn ? churn_step(lane, rec) : data_round(lane, rec);
  };

  SpanRecorder spans;
  SpanRecorder* const rec = options.trace ? &spans : nullptr;
  if (rec != nullptr) spans.reserve(1u << 20);

  // Set-up, repeated: build, converge and warm up every session; the last
  // repeat's sessions are the ones measured. A reference chunk before each
  // repeat gauges the machine's speed during set-up.
  ReferenceKernel kernel;
  std::vector<double> setup_times;
  std::vector<Lane> lanes;
  for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
    lanes.clear();
    kernel.run_chunk(kSetupChunk);
    const auto t0 = Clock::now();
    const bool last = rep + 1 == kSetupRepeats;
    lanes = build_lanes(worlds, counted, last ? rec : nullptr);
    if (churn) {
      for (Lane& lane : lanes) churn_start(lane);
    }
    const std::size_t warmup = churn ? kWarmupSteps : kWarmupRounds;
    for (std::size_t r = 0; r < warmup; ++r) {
      for (Lane& lane : lanes) (void)round(lane, nullptr);
    }
    setup_times.push_back(seconds_since(t0));
  }
  const double setup_scale = kernel.rate_scale();
  kernel.reset_tally();

  for (Lane& lane : lanes) {
    lane.window_start = lane.snapshot();
    lane.membership_events = 0;
    lane.ledger.start_at(churn ? emissions_so_far(lane) : lane.emitted);
  }
  const std::size_t n = lanes.size();
  const std::size_t chunk = churn ? kChurnChunk : kDataplaneChunk;
  const std::size_t first_window_span = spans.spans().size();
  const std::uint64_t window_allocs = alloc_count();
  std::uint64_t block_allocs = 0;
  std::vector<Snapshot> block_end(n);
  std::vector<std::uint64_t> block_members(n), block_slots(n),
      block_once(n), block_missing(n);

  const auto window_start = Clock::now();
  double elapsed = 0;
  std::uint64_t rounds = 0;
  for (;; ++rounds) {
    // Traced run: odd rounds get layer spans, even rounds one root span.
    const bool traced_round = rec != nullptr && rounds % 2 == 1;
    for (std::size_t j = 0; j < n; ++j) {
      Lane& lane = lanes[(rounds + j) % n];
      const std::uint64_t pkts_before =
          lane.session->network().counters().data_transmissions;
      double seconds = 0;
      if (rec != nullptr && !traced_round) {
        const ScopedSpan span(rec, "bench.untraced", static_cast<int>(lane.pi));
        seconds = round(lane, nullptr);
        lane.untraced_seconds += seconds;
      } else {
        seconds = round(lane, rec);
      }
      if (traced_round) {
        lane.traced_seconds += seconds;
        lane.traced_pkts +=
            lane.session->network().counters().data_transmissions -
            pkts_before;
      }
      lane.seconds += seconds;
      lane.rounds += 1;
    }
    kernel.run_chunk(chunk, rec);
    if (rounds + 1 == kBlockRounds) {
      block_allocs = alloc_count() - window_allocs;
      for (std::size_t i = 0; i < n; ++i) {
        const Lane& lane = lanes[i];
        block_end[i] = lane.snapshot();
        block_members[i] = lane.membership_events;
        block_slots[i] = lane.session->simulator().queue().slots_allocated();
        block_once[i] = lane.ledger.once();
        block_missing[i] = lane.ledger.missing() + lane.ledger.duplicated();
      }
    }
    if (rounds + 1 >= kBlockRounds) {
      elapsed = seconds_since(window_start);
      if (elapsed >= options.seconds) {
        ++rounds;
        break;
      }
      if (churn && lanes.front().session->simulator().now() -
                           lanes.front().traffic_start + kStep >=
                       kChurnHorizon) {
        out.notes.push_back("window ended early: churn plans exhausted");
        ++rounds;
        break;
      }
    }
  }

  // Window totals, then settle every outstanding pair (outside the window).
  std::array<ProtocolTotals, 4> totals{};
  std::uint64_t total_pkts = 0, total_rounds = 0;
  double total_seconds = 0;
  for (const Lane& lane : lanes) {
    ProtocolTotals& t = totals[lane.pi];
    const hbh::net::NetworkCounters& c = lane.session->network().counters();
    t.rounds += lane.rounds;
    t.seconds += lane.seconds;
    t.pkts += lane.data_pkts_since_window();
    t.traced_seconds += lane.traced_seconds;
    t.traced_pkts += lane.traced_pkts;
    t.queued += c.queued_packets - lane.window_start.net.queued_packets;
    t.drops += c.drops_queue_full - lane.window_start.net.drops_queue_full;
    total_pkts += lane.data_pkts_since_window();
    total_rounds += lane.rounds;
    total_seconds += lane.seconds;
  }
  std::uint64_t pairs = 0, once = 0, missing = 0, duplicated = 0, late = 0;
  std::uint64_t broken = 0;  // pairs that break the protocol's contract
  for (Lane& lane : lanes) {
    if (churn) {
      churn_finish(lane);
    } else {
      data_finish(lane);
    }
    const Ledger& l = lane.ledger;
    pairs += l.pairs();
    once += l.once();
    missing += l.missing();
    duplicated += l.duplicated();
    late += l.late();
    ProtocolTotals& t = totals[lane.pi];
    t.pairs += l.pairs();
    t.once += l.once();
    t.missing += l.missing();
    t.duplicated += l.duplicated();
    t.late += l.late();
    t.latency += l.latency();
    t.copies += l.copies();
    // REUNITE promises no exactly-once delivery: its data plane duplicates
    // packets (paper §2.3), and its trees are not always settled after the
    // figures' warm-up, so some copies go missing in a few worlds. Its
    // pairs count in delivery_ratio and the output, not in the check.
    // Under churn_congested the queues drop copies of every protocol, so
    // only a duplicated or late copy breaks the others' contract there.
    if (kProtocols[lane.pi] != hbh::harness::Protocol::kReunite) {
      broken += (churn ? 0 : l.missing()) + l.duplicated() + l.late();
    }
  }

  // Digests over the reference block: simulation outputs, then work counts.
  Digest results;
  Digest counts;
  for (std::size_t i = 0; i < n; ++i) {
    const Snapshot& a = lanes[i].window_start;
    const Snapshot& b = block_end[i];
    for (const std::uint64_t v :
         {b.net.data_transmissions - a.net.data_transmissions,
          b.net.control_transmissions - a.net.control_transmissions,
          b.net.queued_packets - a.net.queued_packets,
          b.net.drops_queue_full - a.net.drops_queue_full,
          b.net.drops_red - a.net.drops_red, b.structural - a.structural,
          block_members[i], block_once[i], block_missing[i]}) {
      results.add(v);
    }
    for (const std::uint64_t v :
         {b.events - a.events, b.spf - a.spf, block_slots[i]}) {
      counts.add(v);
    }
  }
  counts.add(block_allocs);

  char line[200];
  std::snprintf(line, sizeof line,
                "window: %llu rounds x %zu sessions (%zu worlds x 4 "
                "protocols); reference block %zu rounds",
                static_cast<unsigned long long>(rounds), n, kWorlds,
                kBlockRounds);
  out.notes.push_back(line);
  std::snprintf(line, sizeof line,
                "pairs: %llu counted, %llu exactly once, %llu missing, %llu "
                "duplicated, %llu late",
                static_cast<unsigned long long>(pairs),
                static_cast<unsigned long long>(once),
                static_cast<unsigned long long>(missing),
                static_cast<unsigned long long>(duplicated),
                static_cast<unsigned long long>(late));
  out.notes.push_back(line);
  for (std::size_t pi = 0; pi < kProtocols.size(); ++pi) {
    const ProtocolTotals& t = totals[pi];
    std::snprintf(line, sizeof line,
                  "pairs %-8s %llu counted, %llu exactly once, %llu missing, "
                  "%llu duplicated, %llu late",
                  kProtocolLabels[pi], static_cast<unsigned long long>(t.pairs),
                  static_cast<unsigned long long>(t.once),
                  static_cast<unsigned long long>(t.missing),
                  static_cast<unsigned long long>(t.duplicated),
                  static_cast<unsigned long long>(t.late));
    out.notes.push_back(line);
  }
  for (std::size_t pi = 0; pi < kProtocols.size(); ++pi) {
    const ProtocolTotals& t = totals[pi];
    std::snprintf(line, sizeof line,
                  "queues %-8s %llu data copies sent, %llu queued, %llu "
                  "dropped full (%.2f%%); mean delivery latency %.3f",
                  kProtocolLabels[pi], static_cast<unsigned long long>(t.pkts),
                  static_cast<unsigned long long>(t.queued),
                  static_cast<unsigned long long>(t.drops),
                  100 * ratio(static_cast<double>(t.drops),
                              static_cast<double>(t.queued + t.drops)),
                  ratio(t.latency, static_cast<double>(t.copies)));
    out.notes.push_back(line);
  }
  out.notes.push_back("digest.results: " + results.hex());
  out.notes.push_back("digest.counts: " + counts.hex());

  // attempted/failed: a pair fails when it breaks the contract above.
  // delivery_ratio is the share of pairs delivered exactly once
  // (dataplane_isp) or at all (churn_congested, where queue drops lose
  // some legitimately), whatever the protocol.
  out.attempted = pairs;
  out.failed = broken;
  out.check(pairs > 0, "no pairs counted");
  out.check(broken == 0,
            churn ? "an HBH, PIM-SM or PIM-SS core pair was duplicated or "
                    "delivered late"
                  : "an HBH, PIM-SM or PIM-SS (emission, receiver) pair was "
                    "not delivered exactly once");
  if (churn) {
    // Each protocol's share of core pairs delivered stays within a margin
    // of what it delivers at HEAD (perfbench/README.md): a protocol that
    // loses more of them than its queue drops explain fails the run.
    for (std::size_t pi = 0; pi < kProtocols.size(); ++pi) {
      const ProtocolTotals& t = totals[pi];
      const double delivered = ratio(static_cast<double>(t.pairs - t.missing),
                                     static_cast<double>(t.pairs));
      out.check(delivered >= kMinCoreDelivery[pi],
                std::string(kProtocolLabels[pi]) +
                    ": core receivers got too few of the emissions");
    }
  }
  const double delivery_ratio = ratio(
      static_cast<double>(churn ? pairs - missing : once),
      static_cast<double>(pairs));

  // Rates count the time of the rounds' library calls (emit and drain, or
  // schedule and run), pooled or HBH's alone, and are scaled to the
  // reference kernel's nominal speed.
  const ProtocolTotals& hbh = totals[kHbhIndex];
  const EndToEnd raw{
      .setup_s = median(setup_times),
      .trials_per_s = ratio(static_cast<double>(total_rounds), total_seconds),
      .hbh_trials_per_s = ratio(static_cast<double>(hbh.rounds), hbh.seconds),
      .pkts_per_s = ratio(static_cast<double>(total_pkts), total_seconds),
      .hbh_pkts_per_s = ratio(static_cast<double>(hbh.pkts), hbh.seconds)};
  out.notes.push_back(raw.describe(kernel.events_per_second()));
  if (!options.trace) {
    add_end_to_end(out, raw, kernel.rate_scale(), setup_scale,
                   delivery_ratio);
    return out;
  }

  // --- Traced run: per-layer metrics -----------------------------------
  Snapshot block{};
  std::uint64_t slots = 0, members = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Snapshot& a = lanes[i].window_start;
    const Snapshot& b = block_end[i];
    block.net.data_transmissions +=
        b.net.data_transmissions - a.net.data_transmissions;
    block.net.control_transmissions +=
        b.net.control_transmissions - a.net.control_transmissions;
    block.net.queued_packets += b.net.queued_packets - a.net.queued_packets;
    block.net.drops_queue_full +=
        b.net.drops_queue_full - a.net.drops_queue_full;
    block.net.drops_red += b.net.drops_red - a.net.drops_red;
    block.events += b.events - a.events;
    block.spf += b.spf - a.spf;
    block.structural += b.structural - a.structural;
    slots += block_slots[i];
    members += block_members[i];
  }
  for (std::size_t pi = 0; pi < kProtocols.size(); ++pi) {
    const std::string label = kProtocolLabels[pi];
    const ProtocolTotals& t = totals[pi];
    out.add("data." + label + ".ns_per_pkt",
            ratio(t.traced_seconds * 1e9, static_cast<double>(t.traced_pkts)),
            "ns");
    out.add("mcast." + label + ".converge_ms",
            median(spans.durations("mcast.converge", static_cast<int>(pi))) *
                1e3,
            "ms");
  }
  const auto lane_rounds = static_cast<double>(kBlockRounds * n);
  const auto block_data = static_cast<double>(block.net.data_transmissions);
  out.add("data.pkts_per_round", block_data / lane_rounds, "count");
  out.add("net.ctrl_pkts_per_round",
          static_cast<double>(block.net.control_transmissions) / lane_rounds,
          "count");
  out.add("routing.spf_per_trial",
          static_cast<double>(block.spf) / lane_rounds, "count");
  out.add("sim.events_per_pkt",
          ratio(static_cast<double>(block.events), block_data), "count");
  out.add("sim.queue_slots", static_cast<double>(slots), "count");
  out.add("alloc.per_pkt",
          ratio(static_cast<double>(block_allocs), block_data), "count");
  out.add("mcast.structural_changes", static_cast<double>(block.structural),
          "count");
  out.add("net.queued_pkts", static_cast<double>(block.net.queued_packets),
          "count");
  out.add("net.drops_queue_full",
          static_cast<double>(block.net.drops_queue_full), "count");
  out.add("net.drops_red", static_cast<double>(block.net.drops_red), "count");
  out.add("churn.membership_events", static_cast<double>(members), "count");

  const auto round_times =
      spans.durations(churn ? "churn.step" : "data.round");
  out.add("data.round_p50_us", percentile(round_times, 0.50) * 1e6, "us");
  out.add("data.round_p99_us", percentile(round_times, 0.99) * 1e6, "us");
  double emit_seconds = 0;
  for (const double d : spans.durations("data.emit")) emit_seconds += d;
  double round_seconds = 0;
  for (const double d : round_times) round_seconds += d;
  if (!churn) {
    out.add("data.emit_share", ratio(emit_seconds, round_seconds), "1");
  }

  double traced = 0, untraced = 0;
  std::uint64_t events = 0;
  for (const Lane& lane : lanes) {
    traced += lane.traced_seconds;
    untraced += lane.untraced_seconds;
    events += lane.session->simulator().executed() - lane.window_start.events;
  }
  // Traced and untraced rounds alternate, so each half saw the same work.
  out.add("bench.trace_overhead", ratio(traced, untraced), "1");
  out.add("bench.ref_events_per_s", kernel.events_per_second(), "1/s");
  out.add("sim.events_per_s", ratio(static_cast<double>(events), total_seconds),
          "1/s");
  out.add("topo.build_ms", median(spans.durations("topo.build")) * 1e3, "ms");
  out.add("harness.session_ms",
          median(spans.durations("harness.session")) * 1e3, "ms");
  out.add("fail_ratio", 1.0 - delivery_ratio, "1");
  add_span_metrics(out, spans, first_window_span, elapsed);
  if (!options.spans_path.empty() &&
      !spans.write_chrome_trace(options.spans_path)) {
    out.failures.push_back("cannot write spans to " + options.spans_path);
  }
  return out;
}

}  // namespace

Outcome run_dataplane_isp(const Options& options) {
  return run_lanes(options, Kind::kDataplane);
}

Outcome run_churn_congested(const Options& options) {
  return run_lanes(options, Kind::kChurn);
}

}  // namespace perfbench
