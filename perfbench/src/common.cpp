#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/rng.hpp"

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double peak_rss_mb() {
  // VmHWM is this process image's own high-water mark. getrusage's
  // ru_maxrss is not: Linux carries it over exec, so a benchmark started
  // from a larger parent (run.py) would report the parent's peak.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed ^ (0x9E3779B97F4A7C15ull * (salt + 1));
  return hbh::splitmix64(state);
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(state_));
  return buf;
}

std::string EndToEnd::describe(double ref_events_per_s) const {
  char line[256];
  std::snprintf(line, sizeof line,
                "unscaled: setup_s=%.6g trials_per_s=%.6g "
                "hbh_trials_per_s=%.6g "
                "pkts_per_s=%.6g hbh_pkts_per_s=%.6g ref_events_per_s=%.6g",
                setup_s, trials_per_s, hbh_trials_per_s, pkts_per_s,
                hbh_pkts_per_s, ref_events_per_s);
  return line;
}

void add_end_to_end(Outcome& out, const EndToEnd& raw, double rate_scale,
                    double setup_scale, double delivery_ratio) {
  out.add("setup_s", raw.setup_s / setup_scale, "s");
  out.add("trials_per_s", raw.trials_per_s * rate_scale, "1/s");
  out.add("hbh_trials_per_s", raw.hbh_trials_per_s * rate_scale, "1/s");
  out.add("pkts_per_s", raw.pkts_per_s * rate_scale, "1/s");
  out.add("hbh_pkts_per_s", raw.hbh_pkts_per_s * rate_scale, "1/s");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  out.add("delivery_ratio", delivery_ratio, "1");
}

void add_span_metrics(Outcome& out, const SpanRecorder& spans,
                      std::size_t first_window_span, double window_seconds) {
  for (const auto& [name, seconds] : spans.self_seconds(first_window_span)) {
    out.add("self." + name, ratio(seconds, window_seconds), "1");
  }
  out.add("bench.span_coverage",
          ratio(spans.root_seconds(first_window_span), window_seconds), "1");
}

}  // namespace perfbench
