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
// at equal offered load its replication points should shed fewer
// packets. This bench makes that number visible (EXPERIMENTS.md records
// where the claim holds and where it does not).
//
// Determinism: each offered rate is one harness::run_grid over the same
// paired cells, RED draws come from per-link streams seeded from the
// cell's own stream (Network::seed_aqm), and the grid is folded in grid
// order, so the output is byte-identical at any HBH_JOBS.
//
// Knobs: HBH_RATE (single offered load instead of the sweep),
// HBH_PAYLOAD, HBH_QUEUE_LIMIT, HBH_AQM — see README "Environment knobs".
#include <algorithm>
#include <array>
#include <cstdio>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "fig_common.hpp"
#include "metrics/auditor.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "util/stats.hpp"

using namespace hbh;
using harness::ChannelHandle;
using harness::RouterClass;
using harness::Session;
using harness::TrafficSpec;
using harness::TrialContext;

namespace {

constexpr std::size_t kChannels = 4;  // sources: hosts 0..3
constexpr double kCapacity = 500;     // bytes/time-unit per backbone edge
constexpr double kEmitSpan = 60;      // emissions cover ~60 time units

/// Records queue admissions and congestion drops for one trial. Both carry
/// (router, channel) so the trial can classify them after the run.
struct CongestionTap final : net::PacketTap {
  using Event = std::pair<NodeId, net::Channel>;
  std::vector<double> delays;  ///< wait + serialization per admitted copy
  std::vector<Event> queued;
  std::vector<Event> drops;

  void on_queue(const net::Topology::Edge& edge, const net::Packet& packet,
                Time wait, Time serialization, std::size_t depth,
                Time now) override {
    (void)depth, (void)now;
    delays.push_back(wait + serialization);
    queued.emplace_back(edge.from, packet.channel);
  }
  void on_drop(NodeId at, const net::Packet& packet, std::string_view reason,
               Time now) override {
    (void)now;
    if (reason == "queue-full" || reason == "red-early") {
      drops.emplace_back(at, packet.channel);
    }
  }
};

/// Copies per class of the queue's router for the packet's channel,
/// indexed by RouterClass; kNone ("other") is a router with no live state
/// for it (e.g. a transit control hop).
using ClassCounts = std::array<unsigned long long, 4>;
constexpr std::array<const char*, 4> kClassNames{"other", "non_branching",
                                                 "branching", "rp"};

/// One trial of a (protocol, offered rate) cell, or all of them merged.
struct Cell {
  RunningStats goodput;        ///< delivery ratio per trial
  std::vector<double> delays;  ///< pooled queue delays (exact percentiles)
  ClassCounts drops{};         ///< queue drops
  ClassCounts offered{};       ///< admitted copies
  std::uint64_t emissions = 0;

  void merge(const Cell& trial) {
    goodput.merge(trial.goodput);
    delays.insert(delays.end(), trial.delays.begin(), trial.delays.end());
    for (std::size_t c = 0; c < drops.size(); ++c) {
      drops[c] += trial.drops[c];
      offered[c] += trial.offered[c];
    }
    emissions += trial.emissions;
  }

  /// Congestion-loss probability, drops / (drops + admissions), over the
  /// egress queues of the given router classes. Raw drop counts are not
  /// comparable: a protocol that sheds everything upstream looks
  /// spuriously clean.
  [[nodiscard]] double loss(std::span<const RouterClass> classes) const {
    double lost = 0;
    double total = 0;
    for (const RouterClass cls : classes) {
      const auto c = static_cast<std::size_t>(cls);
      lost += static_cast<double>(drops[c]);
      total += static_cast<double>(drops[c] + offered[c]);
    }
    return total == 0 ? 0.0 : lost / total;
  }
};

/// Queue loss at branching routers, and at ALL replication points:
/// branching routers plus the RP, the shared tree's root replication point
/// (PIM-SM classifies its core as kRp even though packets fan out there).
/// Without folding the RP in, PIM-SM's funnel damage hides in a class the
/// other protocols never populate.
constexpr RouterClass kBranching[] = {RouterClass::kBranching};
constexpr RouterClass kReplication[] = {RouterClass::kBranching,
                                        RouterClass::kRp};

/// Nearest-rank percentile (q in [0,1]); 0 on an empty sample.
double delay_pct(const std::vector<double>& samples, double q) {
  return samples.empty() ? 0.0 : percentile(samples, q * 100.0);
}

/// Four channels, channel c sourced at host c, each joined by group-size
/// receivers sampled from the non-source hosts (overlap is fine — one
/// receiver host may subscribe to several channels). The trees converge
/// for spec.warmup, then congestion goes live and every channel emits at
/// `rate` for ~kEmitSpan time units.
Cell congestion_trial(Session& session, TrialContext& trial, double rate,
                      std::uint32_t payload, std::size_t queue_limit,
                      net::AqmPolicy aqm) {
  const auto& hosts = session.scenario().hosts;
  const std::vector<NodeId> non_sources(hosts.begin() + kChannels,
                                        hosts.end());
  std::vector<ChannelHandle> handles;
  std::vector<std::vector<NodeId>> receiver_sets;
  Time delay = 0.1;
  for (std::size_t c = 0; c < kChannels; ++c) {
    handles.push_back(c == 0 ? session.default_channel()
                             : session.create_channel(hosts[c]));
    receiver_sets.push_back(
        trial.rng.sample(non_sources, trial.receivers.size()));
    for (const NodeId r : receiver_sets[c]) {
      handles[c].subscribe(r, delay);
      delay += 1.0;
    }
  }
  session.run_for(trial.spec.warmup);

  // Congestion goes live only after convergence: capacity on every
  // backbone edge, per-trial RED streams, and the recording tap.
  CongestionTap tap;
  session.apply_backbone_capacity(kCapacity, queue_limit, aqm);
  session.network().seed_aqm(trial.rng.next());
  session.network().add_tap(&tap);
  // Saturated queues drop soft-state refresh traffic, and the resulting
  // tree transients legitimately deliver duplicates (the goodput count
  // below dedupes for exactly that reason) — so if an auditor is armed,
  // relax its at-most-once heuristics for the congested window. The
  // definitive detectors (TTL exhaustion, black holes) stay live.
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
    const Time start = now + interval * static_cast<double>(c) /
                                 static_cast<double>(kChannels);
    handles[c].set_traffic(TrafficSpec{
        .rate = rate,
        .payload_bytes = payload,
        .start = start,
        .stop = start + interval * (static_cast<double>(k_emit) - 0.5)});
  }
  session.run_for(interval * static_cast<double>(k_emit) + trial.spec.drain);
  session.network().remove_tap(&tap);

  // Goodput: every emission should reach every subscribed receiver
  // exactly once. Count distinct seqs per (channel, receiver) —
  // congestion-induced tree transients can deliver duplicates, and those
  // must not inflate the ratio past the offered load.
  Cell cell;
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
  cell.emissions = k_emit * kChannels;

  // Attribute each admission and each queue drop to the router's class
  // for the packet's channel (live soft state — receivers are still
  // subscribed, so the converged placement is what we read).
  const auto classify = [&](const CongestionTap::Event& ev,
                            ClassCounts& into) {
    RouterClass cls = RouterClass::kNone;
    for (const ChannelHandle& h : handles) {
      if (h.channel() == ev.second) {
        cls = session.router_class(ev.first, h.id());
      }
    }
    ++into[static_cast<std::size_t>(cls)];
  };
  for (const auto& ev : tap.drops) classify(ev, cell.drops);
  for (const auto& ev : tap.queued) classify(ev, cell.offered);
  cell.delays = std::move(tap.delays);
  return cell;
}

}  // namespace

int main() {
  init_log_level_from_env();
  harness::ExperimentSpec spec =
      bench::spec_from_env(harness::TopoKind::kIsp, {8}, 4);
  spec.warmup = 160;  // > 2*t2: trees fully converged
  spec.drain = 40;    // let in-flight copies land
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
              spec.trials, static_cast<unsigned long long>(spec.base_seed),
              kChannels, spec.group_sizes.front(), kCapacity, queue_limit,
              std::string(net::to_string(aqm)).c_str(), payload);
  std::printf("%-8s %6s %9s %8s %8s %8s %10s %12s %6s %7s %8s\n", "proto",
              "rate", "goodput", "qd.p50", "qd.p95", "qd.p99", "drops",
              "branching", "nonbr", "rp", "br.loss");

  // One grid per offered rate, folded per protocol into cells[p][rate]
  // and printed; the artifacts show the heaviest rate's observed cell.
  const harness::ArtifactPaths artifacts = harness::ArtifactPaths::from_env();
  harness::ObservedCell observed;
  const auto& protocols = harness::all_protocols();
  std::vector<std::vector<Cell>> cells(protocols.size(),
                                       std::vector<Cell>(rates.size()));
  for (std::size_t ri = 0; ri < rates.size(); ++ri) {
    const bool observe = ri + 1 == rates.size() && artifacts.need_cell();
    const std::vector<Cell> grid = harness::run_grid(
        spec,
        [&, rate = rates[ri]](Session& session, TrialContext& trial) {
          return congestion_trial(session, trial, rate, payload, queue_limit,
                                  aqm);
        },
        0, observe ? &observed : nullptr);
    for (std::size_t p = 0; p < protocols.size(); ++p) {
      Cell& cell = cells[p][ri];
      for (const Cell& trial : bench::cell_trials(grid, spec, p)) {
        cell.merge(trial);
      }
      // Drops: all, then branching, non-branching, RP (RouterClass order).
      std::printf("%-8s %6.1f %9s %8.2f %8.2f %8.2f %10llu %12llu %6llu "
                  "%7llu %7.1f%%\n",
                  std::string(to_string(protocols[p])).c_str(), rates[ri],
                  cell.goodput.to_string(3).c_str(),
                  delay_pct(cell.delays, 0.50), delay_pct(cell.delays, 0.95),
                  delay_pct(cell.delays, 0.99),
                  std::accumulate(cell.drops.begin(), cell.drops.end(), 0ull),
                  cell.drops[2], cell.drops[1], cell.drops[3],
                  cell.loss(kBranching) * 100);
    }
  }

  // The §2.1 corollary, stated on the heaviest swept load: the share of
  // what each protocol's replication points — branching routers plus the
  // RP for PIM-SM — are offered that their queues shed. PIM-SS builds
  // the shortest-path source trees HBH approximates (paper fig. 7).
  std::printf("\nReplication-point queue loss (branching + RP) at rate %.1f:",
              rates.back());
  for (std::size_t p = 0; p < protocols.size(); ++p) {
    std::printf(" %s %.1f%%", std::string(to_string(protocols[p])).c_str(),
                cells[p].back().loss(kReplication) * 100);
  }
  std::printf("\n");
  std::printf(
      "Reading: goodput falls and tail queue delay rises with offered load.\n"
      "REUNITE's unicast-star segments put more copies on the same backbone\n"
      "links, and its replication points shed the most. HBH's shed less\n"
      "than REUNITE's but more than PIM-SM's or PIM-SS's (its relay MFTs\n"
      "count as branching, so that class covers more of its tree). HBH\n"
      "keeps the highest goodput of the four at every offered rate.\n");
  // The machine-readable cells ride in the run report as a top-level
  // "congestion" section (schema hbh.run_report/v3 passes extra sections
  // through unchanged — bench/check_report.cmake pins the needles).
  const bool ok = harness::write_artifacts(
      artifacts, spec, {}, "ablation_congestion", observed, {"rates", rates},
      [&](metrics::JsonWriter& w) {
        w.key("congestion");
        w.begin_object();
        w.member("capacity", kCapacity);
        w.member("queue_limit", static_cast<std::uint64_t>(queue_limit));
        w.member("aqm", net::to_string(aqm));
        w.member("payload_bytes", static_cast<std::uint64_t>(payload));
        w.key("protocols");
        w.begin_object();
        for (std::size_t p = 0; p < protocols.size(); ++p) {
          w.key(to_string(protocols[p]));
          w.begin_array();
          for (std::size_t ri = 0; ri < rates.size(); ++ri) {
            const Cell& cell = cells[p][ri];
            w.begin_object();
            w.member("rate", rates[ri]);
            w.member("goodput_ratio", cell.goodput.mean());
            w.member("emissions", cell.emissions);
            w.member("queued", static_cast<std::uint64_t>(cell.delays.size()));
            w.key("queue_delay");
            w.begin_object();
            w.member("p50", delay_pct(cell.delays, 0.50));
            w.member("p95", delay_pct(cell.delays, 0.95));
            w.member("p99", delay_pct(cell.delays, 0.99));
            w.end_object();
            for (const auto& [name, counts] :
                 {std::pair{"drops", &cell.drops},
                  std::pair{"offered", &cell.offered}}) {
              w.key(name);
              w.begin_object();
              for (std::size_t c = 0; c < counts->size(); ++c) {
                w.member(kClassNames[c],
                         static_cast<std::uint64_t>((*counts)[c]));
              }
              w.end_object();
            }
            w.member("branching_loss", cell.loss(kBranching));
            w.member("replication_loss", cell.loss(kReplication));
            w.end_object();
          }
          w.end_array();
        }
        w.end_object();
        w.end_object();
      });
  return ok ? 0 : 1;
}
