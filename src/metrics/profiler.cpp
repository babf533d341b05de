#include "metrics/profiler.hpp"

#include <fstream>

namespace hbh::metrics {

void write_phase_map(JsonWriter& w, const PhaseMap& phases) {
  w.begin_object();
  for (const auto& [path, s] : phases) {
    w.key(path);
    w.begin_object();
    w.member("count", s.count);
    w.member("wall_ns", s.wall_ns);
    w.end_object();
  }
  w.end_object();
}

namespace {

void write_resources(JsonWriter& w) {
  w.key("resources");
  w.begin_object();
  w.member("peak_rss_bytes", prof::peak_rss_bytes());
  w.end_object();
}

}  // namespace

void write_perf_profile(JsonWriter& w, const PhaseMap& phases) {
  w.begin_object();
  w.member("schema", kPerfProfileSchema);
  w.key("phases");
  write_phase_map(w, phases);
  write_resources(w);
  w.end_object();
}

bool write_profile_file(const std::map<std::string, PhaseMap>& by_label,
                        const std::map<std::string, std::string>& info,
                        const std::string& path) {
  std::ofstream out{path};
  if (!out) return false;
  JsonWriter w{out};
  w.begin_object();
  w.member("schema", kPerfProfileSchema);
  if (!info.empty()) {
    w.key("info");
    w.begin_object();
    for (const auto& [k, v] : info) w.member(k, std::string_view{v});
    w.end_object();
  }
  w.key("labels");
  w.begin_object();
  for (const auto& [label, phases] : by_label) {
    w.key(label);
    w.begin_object();
    w.key("phases");
    write_phase_map(w, phases);
    w.end_object();
  }
  w.end_object();
  write_resources(w);
  w.end_object();
  out << '\n';
  return out.good();
}

}  // namespace hbh::metrics
