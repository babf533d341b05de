#include "metrics/auditor.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "metrics/json.hpp"

namespace hbh::metrics {

namespace {

/// Detection-window caps: wholesale reset when a map outgrows its cap, so
/// unbounded workloads (long traffic runs) keep bounded memory. Resets are
/// driven purely by deterministic state, so determinism is unaffected.
constexpr std::size_t kMaxCopyKeys = 1u << 16;
constexpr std::size_t kMaxSeqsPerMember = 1u << 14;
constexpr std::size_t kMaxEmissions = 1u << 12;

std::string format_time(Time t) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.12g", t);
  return buf;
}

}  // namespace

std::string_view to_string(AnomalyKind kind) {
  switch (kind) {
    case AnomalyKind::kLoop:
      return "loop";
    case AnomalyKind::kDuplicateDelivery:
      return "duplicate-delivery";
    case AnomalyKind::kBlackHole:
      return "black-hole";
    case AnomalyKind::kStateMisplacement:
      return "state-misplacement";
    case AnomalyKind::kSoftStateLeak:
      return "soft-state-leak";
    case AnomalyKind::kTreeDrift:
      return "tree-drift";
  }
  return "unknown";
}

std::size_t Auditor::CopyKeyHash::operator()(const CopyKey& k) const noexcept {
  std::size_t h = std::hash<net::Channel>{}(k.channel);
  const auto mix = [&h](std::size_t v) {
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  };
  mix(k.seq);
  mix(std::hash<Ipv4Addr>{}(k.dst));
  mix(k.encapsulated ? 0x5Bu : 0xA4u);
  mix(k.link);
  return h;
}

Auditor::Auditor(AuditorConfig config, const net::Network* network)
    : config_(config), network_(network) {}

std::uint64_t Auditor::trace_id_of(const net::Packet& packet) const {
  return network_ != nullptr ? network_->trace_of(packet).trace_id : 0;
}

std::uint64_t Auditor::total() const noexcept {
  std::uint64_t sum = 0;
  for (const std::uint64_t n : counts_) sum += n;
  return sum;
}

void Auditor::raise(AnomalyKind kind, Time at, NodeId node,
                    const net::Channel& channel, std::uint32_t seq,
                    std::uint64_t trace_id, std::string detail) {
  ++counts_[static_cast<std::size_t>(kind)];
  if (events_.size() < config_.max_events) {
    events_.push_back(AnomalyEvent{kind, at, node, channel, seq, trace_id,
                                   detail});
  }
  if (config_.strict) {
    std::string msg{"hbh-audit: "};
    msg.append(to_string(kind))
        .append(" at t=")
        .append(format_time(at))
        .append(" node=")
        .append(to_string(node))
        .append(" channel=")
        .append(channel.to_string());
    if (!detail.empty()) msg.append(": ").append(detail);
    throw std::runtime_error(msg);
  }
}

void Auditor::on_transmit(const net::Topology::Edge& edge,
                          const net::Packet& packet, Time now) {
  if (packet.type != net::PacketType::kData) return;
  if (!config_.at_most_once) return;  // REUNITE: transients re-cross links
  if (copies_.size() >= kMaxCopyKeys) copies_.clear();
  const CopyKey key{packet.channel, packet.data().seq, packet.dst,
                    packet.data().encapsulated,
                    (edge.from.index() << 16) | edge.to.index()};
  const auto [it, inserted] = copies_.try_emplace(key, packet.ttl);
  if (inserted) return;
  // The same copy identity on the same directed link again: an injected
  // duplicate shares the original's TTL (equal — benign); a strictly lower
  // TTL means the packet circled back. Sentinel the entry after raising so
  // a circulating packet is reported once per link, not once per lap.
  if (packet.ttl < it->second && it->second > -128) {
    raise(AnomalyKind::kLoop, now, edge.from, packet.channel,
          packet.data().seq, trace_id_of(packet),
          std::string{"data copy re-crossed "} + to_string(edge.from) + "->" +
              to_string(edge.to) + " with ttl " +
              std::to_string(packet.ttl) + " < " + std::to_string(it->second));
    it->second = -128;
  }
}

void Auditor::on_drop(NodeId at, const net::Packet& packet,
                      std::string_view reason, Time now) {
  // A data packet can only exhaust a 64-hop TTL in these (≤ 50 node)
  // topologies by circulating: definitive loop evidence.
  if (reason == "ttl-expired" && packet.type == net::PacketType::kData) {
    raise(AnomalyKind::kLoop, now, at, packet.channel, packet.data().seq,
          trace_id_of(packet), "data packet exhausted its ttl");
  }
}

void Auditor::on_deliver(NodeId to, NodeId from, const net::Packet& packet,
                         Time now) {
  (void)from;
  if (packet.type != net::PacketType::kData) return;
  const auto ch = channels_.find(packet.channel);
  if (ch == channels_.end()) return;
  const auto member = ch->second.members.find(to);
  if (member == ch->second.members.end()) return;
  // `to` is a currently subscribed receiver host (hosts are leaves, so any
  // data copy arriving here is a delivery attempt the host will accept).
  MemberState& m = member->second;
  m.last_delivery = now;
  // REUNITE legitimately duplicates deliveries during tree transients, so
  // its auditor only tracks liveness here (for black-hole evidence).
  if (!config_.at_most_once) return;
  if (m.seqs_seen.size() >= kMaxSeqsPerMember) m.seqs_seen.clear();
  const std::uint32_t seq = packet.data().seq;
  if (!m.seqs_seen.insert(seq).second) {
    raise(AnomalyKind::kDuplicateDelivery, now, to, packet.channel, seq,
          trace_id_of(packet),
          "receiver saw seq " + std::to_string(seq) + " more than once");
  }
}

void Auditor::note_subscribe(const net::Channel& channel, NodeId host,
                             Time now) {
  ChannelAudit& audit = channels_[channel];
  audit.ever_member = true;
  MemberState& m = audit.members[host];
  m = MemberState{};
  m.subscribed_at = now;
}

void Auditor::note_unsubscribe(const net::Channel& channel, NodeId host,
                               Time now) {
  const auto ch = channels_.find(channel);
  if (ch == channels_.end()) return;
  ch->second.members.erase(host);
  if (ch->second.members.empty()) ch->second.last_left = now;
}

void Auditor::note_emission(const net::Channel& channel, std::uint32_t seq,
                            Time now) {
  (void)seq;
  ChannelAudit& audit = channels_[channel];
  if (audit.emissions.size() >= kMaxEmissions) {
    audit.emissions.erase(audit.emissions.begin(),
                          audit.emissions.begin() + kMaxEmissions / 2);
  }
  audit.emissions.push_back(now);
  check_blackholes(channel, audit, now);
}

void Auditor::check_blackholes(const net::Channel& channel,
                               ChannelAudit& audit, Time now) {
  for (auto& [host, m] : audit.members) {
    if (m.blackhole_reported) continue;
    // Evidence: emissions the receiver should have seen by now — sent
    // after its graft grace expired and after its last delivery, yet old
    // enough that the copy cannot still be in flight or queued.
    const Time eligible_after =
        std::max(m.subscribed_at + config_.blackhole_grace, m.last_delivery);
    const Time eligible_before = now - config_.blackhole_starvation;
    std::size_t evidence = 0;
    for (const Time t : audit.emissions) {
      if (t > eligible_after && t <= eligible_before) ++evidence;
    }
    if (evidence >= config_.blackhole_min_emissions) {
      m.blackhole_reported = true;
      raise(AnomalyKind::kBlackHole, now, host, channel, 0, 0,
            std::to_string(evidence) +
                " source emissions starved (subscribed at t=" +
                format_time(m.subscribed_at) + ", last delivery t=" +
                format_time(m.last_delivery) + ")");
    }
  }
}

void Auditor::note_tree_cost(const net::Channel& channel,
                             std::uint64_t measured, std::uint64_t oracle,
                             bool exact_delivery, Time now) {
  if (!exact_delivery || oracle == 0 || measured == oracle) return;
  raise(AnomalyKind::kTreeDrift, now, kNoNode, channel, 0, 0,
        "converged tree cost " + std::to_string(measured) +
            " != oracle SPT cost " + std::to_string(oracle));
}

void Auditor::begin_sweep(Time now) {
  sweep_now_ = now;
  sweep_start_ = std::chrono::steady_clock::now();
}

void Auditor::sweep_entry(NodeId router, const net::Channel& channel,
                          std::string_view table, Time t2_expiry) {
  const auto ch = channels_.find(channel);
  if (ch == channels_.end()) return;
  const ChannelAudit& audit = ch->second;
  // Leak criterion: every member left long enough ago that refreshes have
  // stopped (t1 mark decay) and the last refreshed entry must have died
  // (t2), plus slack — yet this entry is still live. Dead-but-present
  // entries are NOT leaks: purging is lazy by design, and the forwarding
  // plane already treats them as absent.
  if (!audit.ever_member || !audit.members.empty() || audit.last_left < 0) {
    return;
  }
  const Time deadline =
      audit.last_left + config_.t1 + config_.t2 + config_.leak_slack;
  if (sweep_now_ < deadline || t2_expiry <= sweep_now_) return;
  if (!leak_raised_.emplace(router.index(), channel).second) return;
  raise(AnomalyKind::kSoftStateLeak, sweep_now_, router, channel, 0, 0,
        std::string{table} + " entry still live (t2 deadline t=" +
            format_time(t2_expiry) + ") though the last member left at t=" +
            format_time(audit.last_left));
}

void Auditor::sweep_tables(NodeId router, const net::Channel& channel,
                           bool live_mct, bool live_mft) {
  if (!live_mct || !live_mft) return;
  if (!shape_raised_.emplace(router.index(), channel).second) return;
  raise(AnomalyKind::kStateMisplacement, sweep_now_, router, channel, 0, 0,
        "MCT and MFT live simultaneously (a router keeps exactly one "
        "table per channel)");
}

void Auditor::end_sweep() {
  for (auto& [channel, audit] : channels_) {
    check_blackholes(channel, audit, sweep_now_);
  }
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - sweep_start_;
  sweep_seconds_ += wall.count();
}

void Auditor::append_ndjson(std::string& out, std::string_view protocol) const {
  for (const AnomalyEvent& e : events_) {
    out.append("{\"schema\":\"hbh.audit/v1\",\"protocol\":")
        .append(JsonWriter::quote(protocol))
        .append(",\"kind\":")
        .append(JsonWriter::quote(to_string(e.kind)))
        .append(",\"t\":")
        .append(format_time(e.at))
        .append(",\"node\":")
        .append(JsonWriter::quote(to_string(e.node)))
        .append(",\"channel\":")
        .append(JsonWriter::quote(e.channel.to_string()))
        .append(",\"seq\":")
        .append(std::to_string(e.seq))
        .append(",\"trace\":")
        .append(std::to_string(e.trace_id))
        .append(",\"detail\":")
        .append(JsonWriter::quote(e.detail))
        .append("}\n");
  }
}

}  // namespace hbh::metrics
