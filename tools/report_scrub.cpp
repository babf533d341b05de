// report_scrub — strips machine-dependent fields from a run report or
// phase profile so two runs (e.g. two builds of the same simulation, or two
// HBH_JOBS settings) can be compared byte-for-byte.
//
// Dropped members, at any nesting depth:
//   * wall-clock and host-load fields: wall_seconds, wall_ns,
//     peak_rss_bytes, audit_wall_seconds
//
// Everything else — packet counts, phase counts, drop reasons,
// per-receiver delays, tree metrics — must match exactly.
//
// Usage: report_scrub <in.json> <out.json>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/json.hpp"
#include "metrics/json_parse.hpp"

namespace {

using hbh::metrics::JsonValue;
using hbh::metrics::JsonWriter;

bool scrubbed_key(std::string_view key) {
  static constexpr std::string_view kDropped[] = {
      "wall_seconds",
      "wall_ns",
      "peak_rss_bytes",
      "audit_wall_seconds",
  };
  for (const std::string_view k : kDropped) {
    if (key == k) return true;
  }
  return false;
}

void scrub(JsonValue& v) {
  std::erase_if(v.object,
                [](const auto& member) { return scrubbed_key(member.first); });
  for (auto& member : v.object) scrub(member.second);
  for (JsonValue& child : v.array) scrub(child);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: report_scrub <in.json> <out.json>\n");
    return 2;
  }
  JsonValue doc;
  std::string error;
  if (!hbh::metrics::parse_json_file(argv[1], doc, &error)) {
    std::fprintf(stderr, "report_scrub: %s: %s\n", argv[1], error.c_str());
    return 1;
  }
  std::ofstream out{argv[2]};
  if (!out) {
    std::fprintf(stderr, "report_scrub: cannot write %s\n", argv[2]);
    return 1;
  }
  scrub(doc);
  JsonWriter w{out};
  hbh::metrics::write_json(w, doc);
  out << '\n';
  if (!w.complete() || !out) {
    std::fprintf(stderr, "report_scrub: write failed for %s\n", argv[2]);
    return 1;
  }
  return 0;
}
