// report_scrub — strips machine-dependent fields from a bench/report JSON
// so two runs (e.g. two builds of the same simulation, or two HBH_JOBS
// settings) can be compared byte-for-byte.
//
// Dropped members, at any nesting depth:
//   * wall-clock and host-load fields: wall_seconds, wall_ns, cpu_ns,
//     packets_per_second, events_per_second, peak_rss_bytes,
//     audit_wall_seconds
//   * allocator counters (allocs, alloc_bytes): they depend on the build
//     and the allocator, not on what the simulation did
//
// Everything else — packet counts, event counts, queue pushes, drop
// reasons, per-receiver delays, tree metrics — must match exactly.
//
// Usage: report_scrub <in.json> <out.json>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>

#include "metrics/json.hpp"
#include "metrics/json_parse.hpp"

namespace {

using hbh::metrics::JsonValue;
using hbh::metrics::JsonWriter;

bool scrubbed_key(std::string_view key) {
  static constexpr std::string_view kDropped[] = {
      "wall_seconds",       "wall_ns",          "cpu_ns",
      "allocs",             "alloc_bytes",      "packets_per_second",
      "events_per_second",  "peak_rss_bytes",   "audit_wall_seconds",
  };
  for (const std::string_view k : kDropped) {
    if (key == k) return true;
  }
  return false;
}

void write_scrubbed(JsonWriter& w, const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::kNull:
      w.null();
      break;
    case JsonValue::Kind::kBool:
      w.value(v.boolean);
      break;
    case JsonValue::Kind::kNumber:
      w.value(v.number);
      break;
    case JsonValue::Kind::kString:
      w.value(v.string);
      break;
    case JsonValue::Kind::kObject:
      w.begin_object();
      for (const auto& [key, child] : v.object) {
        if (scrubbed_key(key)) continue;
        w.key(key);
        write_scrubbed(w, child);
      }
      w.end_object();
      break;
    case JsonValue::Kind::kArray:
      w.begin_array();
      for (const JsonValue& child : v.array) write_scrubbed(w, child);
      w.end_array();
      break;
  }
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
  JsonWriter w{out};
  write_scrubbed(w, doc);
  out << '\n';
  if (!w.complete() || !out) {
    std::fprintf(stderr, "report_scrub: write failed for %s\n", argv[2]);
    return 1;
  }
  return 0;
}
