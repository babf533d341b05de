#include "metrics/tracer.hpp"

#include <algorithm>
#include <fstream>
#include <unordered_map>

#include "metrics/json.hpp"

namespace hbh::metrics {

namespace {

/// The address a packet is "about" — what its transmit spans are tagged
/// with so a trace can be filtered by receiver/target without decoding
/// payloads.
Ipv4Addr packet_subject(const net::Packet& p) {
  switch (p.type) {
    case net::PacketType::kJoin:
      return p.join().receiver;
    case net::PacketType::kTree:
      return p.tree().target;
    case net::PacketType::kFusion:
      return p.fusion().origin;
    case net::PacketType::kPimJoin:
    case net::PacketType::kPimPrune:
      return p.pim_join().receiver;
    case net::PacketType::kData:
      return p.dst;
  }
  return p.dst;
}

}  // namespace

std::string_view to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRoot:
      return "root";
    case SpanKind::kChild:
      return "child";
    case SpanKind::kTransmit:
      return "tx";
    case SpanKind::kInstant:
      return "instant";
  }
  return "?";
}

Tracer::Tracer(sim::Simulator& sim, std::size_t capacity)
    : sim_(sim), capacity_(capacity) {}

net::TraceContext Tracer::open(std::uint64_t trace_id,
                               std::uint64_t parent_id, SpanKind kind,
                               std::string_view name, NodeId node,
                               const net::Channel& channel, Ipv4Addr subject,
                               net::PacketType type, Time start, Time end) {
  // Ids advance even past capacity so the causal structure (and therefore
  // any trace diff) is independent of the recording limit.
  const std::uint64_t id = next_id_++;
  const std::uint64_t trace = trace_id == 0 ? id : trace_id;
  if (spans_.size() < capacity_) {
    spans_.push_back(SpanRecord{trace, id, parent_id, kind, std::string{name},
                                node, channel, subject, type, start, end});
  } else {
    ++dropped_;
  }
  return net::TraceContext{trace, id};
}

net::TraceContext Tracer::root(std::string_view name, NodeId node,
                               const net::Channel& channel, Ipv4Addr subject) {
  const Time now = sim_.now();
  return open(0, 0, SpanKind::kRoot, name, node, channel, subject,
              net::PacketType::kData, now, now);
}

net::TraceContext Tracer::child(const net::TraceContext& parent,
                                std::string_view name, NodeId node,
                                const net::Channel& channel,
                                Ipv4Addr subject) {
  if (!parent.active()) return parent;
  const Time now = sim_.now();
  return open(parent.trace_id, parent.span_id, SpanKind::kChild, name, node,
              channel, subject, net::PacketType::kData, now, now);
}

void Tracer::instant(const net::TraceContext& parent, std::string_view name,
                     NodeId node, const net::Channel& channel,
                     Ipv4Addr subject) {
  if (!parent.active()) return;
  const Time now = sim_.now();
  open(parent.trace_id, parent.span_id, SpanKind::kInstant, name, node,
       channel, subject, net::PacketType::kData, now, now);
}

net::TraceContext Tracer::on_transmit(const net::Topology::Edge& edge,
                                      const net::Packet& packet,
                                      const net::TraceContext& parent,
                                      Time start, Time arrival) {
  if (!parent.active()) return parent;
  std::string name{"tx:"};
  name.append(net::to_string(packet.type));
  return open(parent.trace_id, parent.span_id, SpanKind::kTransmit, name,
              edge.from, packet.channel, packet_subject(packet), packet.type,
              start, arrival);
}

void Tracer::on_drop(NodeId at, const net::Packet& packet,
                     const net::TraceContext& trace, std::string_view reason,
                     Time now) {
  if (!trace.active()) return;
  std::string name{"drop:"};
  name.append(reason);
  open(trace.trace_id, trace.span_id, SpanKind::kInstant, name, at,
       packet.channel, packet_subject(packet), packet.type, now, now);
}

void Tracer::clear() {
  spans_.clear();
  next_id_ = 1;
  dropped_ = 0;
}

double ConvergenceSummary::mean_join_to_first_delivery() const {
  double sum = 0;
  std::size_t n = 0;
  for (const GraftTimeline& g : grafts) {
    if (g.join_to_first_delivery >= 0) {
      sum += g.join_to_first_delivery;
      ++n;
    }
  }
  return n == 0 ? -1.0 : sum / static_cast<double>(n);
}

double ConvergenceSummary::mean_leave_to_prune() const {
  double sum = 0;
  std::size_t n = 0;
  for (const LeaveTimeline& l : leaves) {
    if (l.leave_to_prune >= 0) {
      sum += l.leave_to_prune;
      ++n;
    }
  }
  return n == 0 ? -1.0 : sum / static_cast<double>(n);
}

double ConvergenceSummary::mean_control_per_graft() const {
  if (grafts.empty()) return 0;
  double sum = 0;
  for (const GraftTimeline& g : grafts) {
    sum += static_cast<double>(g.control_messages);
  }
  return sum / static_cast<double>(grafts.size());
}

std::size_t ConvergenceSummary::undelivered_grafts() const {
  std::size_t n = 0;
  for (const GraftTimeline& g : grafts) {
    if (g.join_to_first_delivery < 0) ++n;
  }
  return n;
}

ConvergenceSummary analyze_convergence(const std::vector<SpanRecord>& spans) {
  // Per-trace transmit rollup: control-message count and the latest arrival
  // (which is when an explicit prune chain quiesces).
  struct TraceTx {
    std::uint64_t control = 0;
    Time max_end = 0;
  };
  std::unordered_map<std::uint64_t, TraceTx> tx_by_trace;
  std::vector<const SpanRecord*> deliveries;
  std::vector<const SpanRecord*> evictions;
  for (const SpanRecord& s : spans) {
    if (s.kind == SpanKind::kTransmit) {
      TraceTx& t = tx_by_trace[s.trace_id];
      if (s.type != net::PacketType::kData) ++t.control;
      t.max_end = std::max(t.max_end, s.end);
    } else if (s.kind == SpanKind::kInstant) {
      if (s.name == "deliver") deliveries.push_back(&s);
      if (s.name == "evict") evictions.push_back(&s);
    }
  }

  ConvergenceSummary out;
  for (const SpanRecord& s : spans) {
    if (s.kind != SpanKind::kRoot) continue;
    if (s.name == "subscribe") {
      GraftTimeline g;
      g.receiver = s.subject;
      g.channel = s.channel;
      g.subscribed_at = s.start;
      for (const SpanRecord* d : deliveries) {  // time-ordered
        if (d->start >= s.start && d->subject == s.subject &&
            d->channel == s.channel) {
          g.first_delivery_at = d->start;
          g.join_to_first_delivery = d->start - s.start;
          break;
        }
      }
      const auto it = tx_by_trace.find(s.trace_id);
      if (it != tx_by_trace.end()) g.control_messages = it->second.control;
      out.grafts.push_back(g);
    } else if (s.name == "unsubscribe") {
      LeaveTimeline l;
      l.receiver = s.subject;
      l.channel = s.channel;
      l.unsubscribed_at = s.start;
      const auto it = tx_by_trace.find(s.trace_id);
      if (it != tx_by_trace.end() && it->second.control > 0) {
        // Explicit leave (PIM prune): converged when the last prune lands.
        l.leave_to_prune = it->second.max_end - s.start;
      } else {
        // Soft-state leave: converged when the receiver's forwarding state
        // times out somewhere — evictions are rooted in tree rounds, so
        // match by (channel, receiver) across traces.
        for (const SpanRecord* e : evictions) {
          if (e->start >= s.start && e->subject == s.subject &&
              e->channel == s.channel) {
            l.leave_to_prune = e->start - s.start;
            break;
          }
        }
      }
      out.leaves.push_back(l);
    }
  }
  return out;
}

bool write_perfetto_trace(const std::vector<SpanRecord>& spans,
                          const std::map<std::string, std::string>& info,
                          std::uint64_t dropped, const std::string& path) {
  std::ofstream out{path};
  if (!out) return false;

  // A root/child span is opened instantaneously; for rendering, extend it
  // to the latest end among its (transitive) children. Children always
  // follow their parent in the record order, so one reverse pass suffices.
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  index_of.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    index_of.emplace(spans[i].span_id, i);
  }
  std::vector<Time> subtree_end(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) subtree_end[i] = spans[i].end;
  for (std::size_t i = spans.size(); i-- > 0;) {
    const std::uint64_t parent = spans[i].parent_id;
    if (parent == 0) continue;
    const auto it = index_of.find(parent);
    if (it != index_of.end()) {
      subtree_end[it->second] =
          std::max(subtree_end[it->second], subtree_end[i]);
    }
  }

  std::vector<std::uint32_t> nodes;
  for (const SpanRecord& s : spans) {
    if (s.node.valid()) nodes.push_back(s.node.index());
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());

  JsonWriter w{out, 0};
  w.begin_object();
  w.member("schema", kTraceSchema);
  w.member("displayTimeUnit", "ms");
  if (!info.empty()) {
    w.key("info");
    w.begin_object();
    for (const auto& [k, v] : info) w.member(k, std::string_view{v});
    w.end_object();
  }
  w.member("spans_recorded", static_cast<std::uint64_t>(spans.size()));
  w.member("spans_dropped", dropped);
  w.key("traceEvents");
  w.begin_array();

  w.begin_object();
  w.member("ph", "M");
  w.member("name", "process_name");
  w.member("pid", 1);
  w.key("args");
  w.begin_object();
  w.member("name", "hbh-sim");
  w.end_object();
  w.end_object();
  for (const std::uint32_t n : nodes) {
    w.begin_object();
    w.member("ph", "M");
    w.member("name", "thread_name");
    w.member("pid", 1);
    w.member("tid", n + 1);
    w.key("args");
    w.begin_object();
    w.member("name", std::string_view{to_string(NodeId{n})});
    w.end_object();
    w.end_object();
  }

  // 1 sim time unit = 1 ms; trace-event timestamps are microseconds.
  constexpr double kUsPerTimeUnit = 1000.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const bool is_instant = s.kind == SpanKind::kInstant;
    w.begin_object();
    w.member("ph", is_instant ? "i" : "X");
    w.member("name", std::string_view{s.name});
    w.member("cat", to_string(s.kind));
    w.member("pid", 1);
    w.member("tid", s.node.valid() ? s.node.index() + 1 : 0u);
    w.member("ts", s.start * kUsPerTimeUnit);
    if (is_instant) {
      w.member("s", "t");  // thread-scoped instant
    } else {
      const Time end = s.kind == SpanKind::kTransmit ? s.end : subtree_end[i];
      w.member("dur", std::max((end - s.start) * kUsPerTimeUnit, 1.0));
    }
    w.key("args");
    w.begin_object();
    w.member("trace", s.trace_id);
    w.member("span", s.span_id);
    w.member("parent", s.parent_id);
    if (s.channel.valid()) {
      w.member("channel", std::string_view{s.channel.to_string()});
    }
    if (!s.subject.unspecified()) {
      w.member("subject", std::string_view{s.subject.to_string()});
    }
    w.end_object();
    w.end_object();
  }

  w.end_array();
  w.end_object();
  out << '\n';
  return out.good();
}

bool write_perfetto_trace(const Tracer& tracer,
                          const std::map<std::string, std::string>& info,
                          const std::string& path) {
  return write_perfetto_trace(tracer.spans(), info, tracer.dropped(), path);
}

}  // namespace hbh::metrics
