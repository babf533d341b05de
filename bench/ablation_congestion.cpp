// Ablation: goodput and queue loss under capacity-constrained links.
//
// The paper evaluates the protocols on an uncongested fabric (delay =
// propagation only). This ablation turns on the congestion layer: every
// backbone link of the ISP topology gets a finite capacity and a bounded
// egress queue (net::LinkSpec), four channels emit high-rate traffic
// (TrafficSpec on each source host), and we measure, per protocol and
// offered load:
//
//   * goodput        — fraction of (emission, receiver) pairs delivered;
//   * queue delay    — exact p50/p95/p99 of wait + serialization over
//                      every copy admitted to an egress queue;
//   * loss placement — queue drops attributed to the router class
//                      (branching / non-branching / RP) that the dropping
//                      link's upstream router holds for the packet's
//                      channel (Session::router_class).
//
// The state-placement claim (§2.1) has a data-plane corollary: HBH sends
// fewer copies over the shared backbone than REUNITE (no unicast-star
// segments) and does not funnel everything through an RP like PIM-SM, so
// at equal offered load its branching routers should shed measurably
// fewer packets. This bench makes that number visible.
//
// Determinism: every loop is serial (HBH_JOBS is irrelevant), RED draws
// come from per-link seeded streams (Network::seed_aqm), and trials are a
// pure function of (HBH_SEED, trial index).
//
// Knobs: HBH_RATE (single offered load instead of the sweep),
// HBH_PAYLOAD, HBH_QUEUE_LIMIT, HBH_AQM — see README "Environment knobs".
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "fig_common.hpp"
#include "metrics/auditor.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "topo/isp.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace hbh;
using harness::ChannelHandle;
using harness::Protocol;
using harness::RouterClass;
using harness::Session;
using harness::TrafficSpec;

namespace {

constexpr std::size_t kChannels = 4;  // sources: hosts 0..3
constexpr std::size_t kGroup = 8;     // receivers per channel
constexpr Time kWarmup = 160;         // > 2*t2: trees fully converged
constexpr Time kDrain = 40;           // let in-flight copies land
constexpr double kCapacity = 500;     // bytes/time-unit per backbone edge
constexpr double kEmitSpan = 60;      // emissions cover ~60 time units

/// Records queue admissions and congestion drops for one trial. Both carry
/// (router, channel) so the trial can classify them after the run.
struct CongestionTap final : net::PacketTap {
  struct Event {
    NodeId at;
    net::Channel channel;
  };
  std::vector<double> delays;  ///< wait + serialization per admitted copy
  std::vector<Event> queued;
  std::vector<Event> drops;

  void on_queue(const net::Topology::Edge& edge, const net::Packet& packet,
                Time wait, Time serialization, std::size_t depth,
                Time now) override {
    (void)depth, (void)now;
    delays.push_back(wait + serialization);
    queued.push_back(Event{edge.from, packet.channel});
  }
  void on_drop(NodeId at, const net::Packet& packet, std::string_view reason,
               Time now) override {
    (void)now;
    if (reason == "queue-full" || reason == "red-early") {
      drops.push_back(Event{at, packet.channel});
    }
  }
};

/// Queue drops by the dropping router's class for the packet's channel.
struct ClassDrops {
  std::uint64_t branching = 0;
  std::uint64_t non_branching = 0;
  std::uint64_t rp = 0;
  std::uint64_t other = 0;  ///< no live state (e.g. transit control hops)

  [[nodiscard]] std::uint64_t total() const {
    return branching + non_branching + rp + other;
  }
};

/// Aggregate over all trials of one (protocol, offered rate) cell.
struct Cell {
  RunningStats goodput;        ///< delivery ratio per trial
  std::vector<double> delays;  ///< pooled queue delays (exact percentiles)
  ClassDrops drops;
  ClassDrops offered;  ///< admitted copies, classified the same way
  std::uint64_t queued = 0;
  std::uint64_t emissions = 0;

  /// Congestion-loss probability at branching-router egress queues:
  /// drops / (drops + admissions) over those queues — the comparable
  /// "branching-router queue loss" number (raw drop counts are not: a
  /// protocol that sheds everything upstream looks spuriously clean).
  [[nodiscard]] double branching_loss() const {
    const double offered_total =
        static_cast<double>(drops.branching + offered.branching);
    return offered_total == 0
               ? 0.0
               : static_cast<double>(drops.branching) / offered_total;
  }

  /// Same loss probability over ALL replication points: branching routers
  /// plus the RP, which is the shared tree's root replication point (PIM-SM
  /// classifies its core as kRp even though packets fan out there). Without
  /// folding the RP in, PIM-SM's funnel damage hides in a class the other
  /// protocols never populate.
  [[nodiscard]] double replication_loss() const {
    const std::uint64_t lost = drops.branching + drops.rp;
    const double offered_total =
        static_cast<double>(lost + offered.branching + offered.rp);
    return offered_total == 0 ? 0.0
                              : static_cast<double>(lost) / offered_total;
  }
};

/// Nearest-rank percentile (q in [0,1]); 0 on an empty sample.
double delay_pct(const std::vector<double>& samples, double q) {
  return samples.empty() ? 0.0 : percentile(samples, q * 100.0);
}

}  // namespace

int main() {
  init_log_level_from_env();
  const std::size_t trials = env_trials(4);
  const std::uint64_t base_seed = env_seed();
  const auto payload = static_cast<std::uint32_t>(env_payload(64));
  const std::size_t queue_limit = env_queue_limit(32);
  // env_aqm accepts only the policy names aqm_from_string parses.
  const net::AqmPolicy aqm = net::aqm_from_string(env_aqm()).value();

  std::vector<double> rates{1.0, 2.0, 4.0};
  if (const double r = env_rate(0); r > 0) rates = {r};

  std::printf("=== Ablation: congestion under capacity-constrained links "
              "(ISP) ===\n");
  std::printf("trials=%zu seed=%llu channels=%zu group=%zu capacity=%.0f "
              "queue=%zu aqm=%s payload=%u\n\n",
              trials, static_cast<unsigned long long>(base_seed), kChannels,
              kGroup, kCapacity, queue_limit,
              std::string(net::to_string(aqm)).c_str(), payload);
  std::printf("%-8s %6s %9s %8s %8s %8s %10s %12s %6s %7s %8s\n", "proto",
              "rate", "goodput", "qd.p50", "qd.p95", "qd.p99", "drops",
              "branching", "nonbr", "rp", "br.loss");

  // cells[protocol][rate index], filled serially — byte-identical output
  // at any HBH_JOBS setting.
  std::map<Protocol, std::vector<Cell>> cells;
  for (const Protocol proto : harness::all_protocols()) {
    cells[proto].resize(rates.size());
    for (std::size_t ri = 0; ri < rates.size(); ++ri) {
      const double rate = rates[ri];
      Cell& cell = cells[proto][ri];
      for (std::size_t trial = 0; trial < trials; ++trial) {
        Rng rng{base_seed ^ (0xC0B6 * trial + 11)};
        auto scenario = topo::make_isp();
        topo::randomize_costs(scenario.topo, rng);

        // Channel i is sourced at host i; receivers are sampled from the
        // non-source hosts, independently per channel (overlap is fine —
        // one receiver host may subscribe to several channels).
        std::vector<NodeId> non_sources(scenario.hosts.begin() + kChannels,
                                        scenario.hosts.end());
        std::vector<std::vector<NodeId>> receiver_sets;
        receiver_sets.reserve(kChannels);
        for (std::size_t c = 0; c < kChannels; ++c) {
          receiver_sets.push_back(rng.sample(non_sources, kGroup));
        }

        CongestionTap tap;  // outlives the session (declared first)
        Session session{std::move(scenario), proto};
        std::vector<ChannelHandle> handles{session.default_channel()};
        for (std::size_t c = 1; c < kChannels; ++c) {
          handles.push_back(
              session.create_channel(session.scenario().hosts[c]));
        }
        Time delay = 0.1;
        for (std::size_t c = 0; c < kChannels; ++c) {
          for (const NodeId r : receiver_sets[c]) {
            handles[c].subscribe(r, delay);
            delay += 1.0;
          }
        }
        session.run_for(kWarmup);

        // Congestion goes live only after convergence: capacity on every
        // backbone edge, per-trial RED streams, and the recording tap.
        session.apply_backbone_capacity(kCapacity, queue_limit, aqm);
        session.network().seed_aqm(base_seed + trial);
        session.network().add_tap(&tap);
        // Saturated queues drop soft-state refresh traffic, and the
        // resulting tree transients legitimately deliver duplicates (the
        // goodput count below dedupes for exactly that reason) — so if
        // HBH_AUDIT armed an auditor, relax its at-most-once heuristics
        // for the congested window. The definitive detectors (TTL
        // exhaustion, black holes) stay live.
        if (metrics::Auditor* auditor = session.auditor()) {
          auditor->set_at_most_once(false);
        }

        // K emissions per channel at 1/rate spacing. stop lands half an
        // interval past the last emission, so the count never depends on
        // floating-point boundary luck. Starts are staggered across the
        // channels to avoid lockstep bursts.
        const auto k_emit =
            static_cast<std::size_t>(std::max(1.0, kEmitSpan * rate));
        const Time interval = 1.0 / rate;
        const Time now = session.simulator().now();
        for (std::size_t c = 0; c < kChannels; ++c) {
          TrafficSpec spec;
          spec.rate = rate;
          spec.payload_bytes = payload;
          spec.start =
              now + interval * static_cast<double>(c) /
                        static_cast<double>(kChannels);
          spec.stop = spec.start +
                      interval * (static_cast<double>(k_emit) - 0.5);
          handles[c].set_traffic(spec);
        }
        const Time horizon = interval * static_cast<double>(k_emit) + kDrain;
        session.run_for(horizon);

        // Goodput: every emission should reach every subscribed receiver
        // exactly once. Count distinct seqs per (channel, receiver) —
        // congestion-induced tree transients can deliver duplicates, and
        // those must not inflate the ratio past the offered load.
        std::size_t delivered = 0;
        std::size_t expected = 0;
        for (std::size_t c = 0; c < kChannels; ++c) {
          expected += k_emit * receiver_sets[c].size();
          for (const NodeId r : receiver_sets[c]) {
            std::vector<bool> seen(k_emit, false);
            for (const auto& d : session.receiver(r).deliveries()) {
              if (d.channel == handles[c].channel() && d.sent_at >= now &&
                  d.seq < k_emit && !seen[d.seq]) {
                seen[d.seq] = true;
                ++delivered;
              }
            }
          }
        }
        cell.goodput.add(static_cast<double>(delivered) /
                         static_cast<double>(expected));
        cell.emissions += k_emit * kChannels;

        // Attribute each admission and each queue drop to the router's
        // class for the packet's channel (live soft state — receivers are
        // still subscribed, so the converged placement is what we read).
        const auto classify = [&](const CongestionTap::Event& ev,
                                  ClassDrops& into) {
          RouterClass cls = RouterClass::kNone;
          for (const ChannelHandle& h : handles) {
            if (h.channel() == ev.channel) {
              cls = session.router_class(ev.at, h.id());
              break;
            }
          }
          switch (cls) {
            case RouterClass::kBranching: ++into.branching; break;
            case RouterClass::kNonBranching: ++into.non_branching; break;
            case RouterClass::kRp: ++into.rp; break;
            case RouterClass::kNone: ++into.other; break;
          }
        };
        for (const auto& ev : tap.drops) classify(ev, cell.drops);
        for (const auto& ev : tap.queued) classify(ev, cell.offered);
        cell.queued += tap.delays.size();
        cell.delays.insert(cell.delays.end(), tap.delays.begin(),
                           tap.delays.end());
        session.network().remove_tap(&tap);
      }

      std::printf("%-8s %6.1f %9s %8.2f %8.2f %8.2f %10llu %12llu %6llu "
                  "%7llu %7.1f%%\n",
                  std::string(to_string(proto)).c_str(), rate,
                  cell.goodput.to_string(3).c_str(),
                  delay_pct(cell.delays, 0.50), delay_pct(cell.delays, 0.95),
                  delay_pct(cell.delays, 0.99),
                  static_cast<unsigned long long>(cell.drops.total()),
                  static_cast<unsigned long long>(cell.drops.branching),
                  static_cast<unsigned long long>(cell.drops.non_branching),
                  static_cast<unsigned long long>(cell.drops.rp),
                  cell.branching_loss() * 100);
    }
  }

  // The §2.1 corollary, stated on the heaviest swept load: HBH's backbone
  // carries fewer copies (no REUNITE unicast-star overhead, no PIM-SM RP
  // funnel), so the queues at its replication points — branching routers
  // plus the RP for PIM-SM — shed a smaller fraction of what they are
  // offered. PIM-SS builds the same shortest-path source trees HBH
  // approximates (paper fig. 7), so parity with it is the expected floor.
  const std::size_t last = rates.size() - 1;
  std::printf("\nReplication-point queue loss (branching + RP) at rate %.1f: "
              "HBH %.1f%% vs REUNITE %.1f%% vs PIM-SM %.1f%% vs "
              "PIM-SS %.1f%%\n",
              rates[last],
              cells[Protocol::kHbh][last].replication_loss() * 100,
              cells[Protocol::kReunite][last].replication_loss() * 100,
              cells[Protocol::kPimSm][last].replication_loss() * 100,
              cells[Protocol::kPimSs][last].replication_loss() * 100);
  std::printf(
      "Reading: goodput falls and tail queue delay rises with offered load.\n"
      "REUNITE's unicast-star segments put more copies on the same backbone\n"
      "links (its data overhead vs HBH), and PIM-SM concentrates load at the\n"
      "RP — both show up as extra queue loss where trees replicate. HBH\n"
      "tracks the PIM-SS source-tree floor while keeping the highest\n"
      "goodput of the four at every offered rate.\n");

  // The machine-readable cells ride in the run report as a top-level
  // "congestion" section (schema hbh.run_report/v3 passes extra sections
  // through unchanged — bench/check_report.cmake pins the needles).
  bench::write_bench_artifacts(
      "ablation_congestion", harness::TopoKind::kIsp, {},
      [&](metrics::JsonWriter& w) {
        w.key("congestion");
        w.begin_object();
        w.member("capacity", kCapacity);
        w.member("queue_limit", static_cast<std::uint64_t>(queue_limit));
        w.member("aqm", net::to_string(aqm));
        w.member("payload_bytes", static_cast<std::uint64_t>(payload));
        w.key("protocols");
        w.begin_object();
        for (const Protocol proto : harness::all_protocols()) {
          w.key(to_string(proto));
          w.begin_array();
          for (std::size_t ri = 0; ri < rates.size(); ++ri) {
            const Cell& cell = cells[proto][ri];
            w.begin_object();
            w.member("rate", rates[ri]);
            w.member("goodput_ratio", cell.goodput.mean());
            w.member("emissions", cell.emissions);
            w.member("queued", cell.queued);
            w.key("queue_delay");
            w.begin_object();
            w.member("p50", delay_pct(cell.delays, 0.50));
            w.member("p95", delay_pct(cell.delays, 0.95));
            w.member("p99", delay_pct(cell.delays, 0.99));
            w.end_object();
            w.key("drops");
            w.begin_object();
            w.member("total", cell.drops.total());
            w.member("branching", cell.drops.branching);
            w.member("non_branching", cell.drops.non_branching);
            w.member("rp", cell.drops.rp);
            w.member("other", cell.drops.other);
            w.end_object();
            w.key("offered");
            w.begin_object();
            w.member("branching", cell.offered.branching);
            w.member("non_branching", cell.offered.non_branching);
            w.member("rp", cell.offered.rp);
            w.member("other", cell.offered.other);
            w.end_object();
            w.member("branching_loss", cell.branching_loss());
            w.member("replication_loss", cell.replication_loss());
            w.end_object();
          }
          w.end_array();
        }
        w.end_object();
        w.end_object();
      });
  return 0;
}
