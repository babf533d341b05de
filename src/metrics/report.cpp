#include "metrics/report.hpp"

#include <fstream>

namespace hbh::metrics {

void RunReport::write_body(JsonWriter& w) const {
  if (!info.empty()) {
    w.key("info");
    w.begin_object();
    for (const auto& [k, v] : info) w.member(k, std::string_view{v});
    w.end_object();
  }
  if (!numbers.empty()) {
    w.key("numbers");
    w.begin_object();
    for (const auto& [k, v] : numbers) w.member(k, v);
    w.end_object();
  }

  if (registry != nullptr) {
    w.key("counters");
    w.begin_object();
    for (const auto& [name, c] : registry->counters()) {
      w.member(name, c->value());
    }
    w.end_object();
    w.key("gauges");
    w.begin_object();
    for (const auto& [name, g] : registry->gauges()) {
      w.member(name, g->value());
    }
    w.end_object();
    if (!registry->histograms().empty()) {
      w.key("histograms");
      w.begin_object();
      for (const auto& [name, h] : registry->histograms()) {
        w.key(name);
        w.begin_object();
        w.key("bounds");
        w.begin_array();
        for (const double b : h->bounds()) w.value(b);
        w.end_array();
        w.key("counts");
        w.begin_array();
        for (const std::uint64_t c : h->counts()) w.value(c);
        w.end_array();
        w.member("sum", h->sum());
        w.member("count", h->count());
        w.member("p50", h->quantile(0.50));
        w.member("p95", h->quantile(0.95));
        w.member("p99", h->quantile(0.99));
        w.end_object();
      }
      w.end_object();
    }
  }

  if (sampler != nullptr) {
    w.key("series");
    w.begin_object();
    for (const auto& [name, s] : sampler->series()) {
      w.key(name);
      w.begin_object();
      w.key("t");
      w.begin_array();
      for (const Time t : s.t) w.value(t);
      w.end_array();
      w.key("v");
      w.begin_array();
      for (const double v : s.v) w.value(v);
      w.end_array();
      w.end_object();
    }
    w.end_object();
    w.member("sample_period", sampler->period());
    w.member("samples_truncated", sampler->truncated());
  }

  if (tracer != nullptr) {
    w.key("trace");
    w.begin_object();
    w.member("schema", kTraceSchema);
    w.member("spans_recorded",
             static_cast<std::uint64_t>(tracer->spans().size()));
    w.member("spans_dropped", tracer->dropped());
    w.member("truncated", tracer->truncated());
    w.end_object();
  }

  if (profile != nullptr && !profile->empty()) {
    w.key("perf_profile");
    write_perf_profile(w, *profile);
  }

  if (convergence != nullptr) {
    w.key("convergence");
    w.begin_object();
    w.key("grafts");
    w.begin_array();
    for (const GraftTimeline& g : convergence->grafts) {
      w.begin_object();
      w.member("receiver", std::string_view{g.receiver.to_string()});
      w.member("subscribed_at", g.subscribed_at);
      w.member("join_to_first_delivery", g.join_to_first_delivery);
      w.member("control_messages", g.control_messages);
      w.end_object();
    }
    w.end_array();
    w.key("leaves");
    w.begin_array();
    for (const LeaveTimeline& l : convergence->leaves) {
      w.begin_object();
      w.member("receiver", std::string_view{l.receiver.to_string()});
      w.member("unsubscribed_at", l.unsubscribed_at);
      w.member("leave_to_prune", l.leave_to_prune);
      w.end_object();
    }
    w.end_array();
    w.member("mean_join_to_first_delivery",
             convergence->mean_join_to_first_delivery());
    w.member("mean_leave_to_prune", convergence->mean_leave_to_prune());
    w.member("mean_control_per_graft",
             convergence->mean_control_per_graft());
    w.member("undelivered_grafts",
             static_cast<std::uint64_t>(convergence->undelivered_grafts()));
    w.end_object();
  }
}

void RunReport::write(std::ostream& out) const {
  JsonWriter w{out};
  w.begin_object();
  w.member("schema", kRunReportSchema);
  write_body(w);
  w.end_object();
  out << '\n';
}

bool RunReport::write_file(const std::string& path) const {
  std::ofstream out{path};
  if (!out) return false;
  write(out);
  return out.good();
}

void write_anomalies(JsonWriter& w, std::span<const AuditedRun> runs) {
  std::uint64_t grand_total = 0;
  bool strict = false;
  double audit_wall_seconds = 0.0;
  for (const AuditedRun& run : runs) {
    grand_total += run.auditor->total();
    strict = strict || run.auditor->config().strict;
    audit_wall_seconds += run.auditor->sweep_seconds();
  }
  w.key("anomalies");
  w.begin_object();
  w.member("schema", "hbh.anomalies/v1");
  w.member("strict", strict);
  w.member("audit_wall_seconds", audit_wall_seconds);
  w.member("total", grand_total);
  w.key("by_protocol");
  w.begin_object();
  for (const AuditedRun& run : runs) {
    const Auditor& auditor = *run.auditor;
    w.key(run.label);
    w.begin_object();
    w.member("total", auditor.total());
    for (std::size_t k = 0; k < kAnomalyKindCount; ++k) {
      const auto kind = static_cast<AnomalyKind>(k);
      w.member(to_string(kind), auditor.count(kind));
    }
    w.key("events");
    w.begin_array();
    for (const AnomalyEvent& ev : auditor.events()) {
      w.begin_object();
      w.member("kind", to_string(ev.kind));
      w.member("t", ev.at);
      w.member("node", to_string(ev.node));
      w.member("channel", ev.channel.to_string());
      w.member("seq", static_cast<std::uint64_t>(ev.seq));
      w.member("trace", ev.trace_id);
      w.member("detail", ev.detail);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

}  // namespace hbh::metrics
