// Shared pieces of the benchmark's workloads: options, the outcome every
// workload returns, metric helpers and the output digest.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/session.hpp"
#include "spans.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;  ///< traced run: where the spans go ("" = nowhere)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports back to main().
struct Outcome {
  std::vector<Metric> metrics;       ///< everything measured in this mode
  std::vector<std::string> notes;    ///< extra "key: value" output lines
  std::vector<std::string> failures; ///< correctness checks that failed
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< attempted, but broke an exact contract

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void check(bool ok, std::string what) {
    if (!ok) failures.push_back(std::move(what));
  }
};

[[nodiscard]] Outcome run_sweep_rand50(const Options& options);
[[nodiscard]] Outcome run_dataplane_isp(const Options& options);
[[nodiscard]] Outcome run_churn_congested(const Options& options);

/// The four protocols in a fixed order, with their metric-name labels.
inline constexpr std::array<hbh::harness::Protocol, 4> kProtocols{
    hbh::harness::Protocol::kHbh, hbh::harness::Protocol::kReunite,
    hbh::harness::Protocol::kPimSm, hbh::harness::Protocol::kPimSs};
inline constexpr std::array<const char*, 4> kProtocolLabels{
    "hbh", "reunite", "pim-sm", "pim-ss"};
inline constexpr std::size_t kHbhIndex = 0;

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// Median of `values`; 0 when empty.
[[nodiscard]] double median(std::vector<double> values);

/// `num / den`, or 0 when `den` is 0.
[[nodiscard]] inline double ratio(double num, double den) {
  return den != 0 ? num / den : 0;
}

/// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// Mixes `salt` into a seed (splitmix64 finaliser), so each workload draws
/// its inputs from its own stream of the user's --seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// FNV-1a over 64-bit words: the printed output digest.
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      state_ ^= (word >> (8 * i)) & 0xFF;
      state_ *= 0x100000001B3ull;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t state_ = 0xCBF29CE484222325ull;
};

/// The end-to-end figures of one untraced run, as measured.
struct EndToEnd {
  double setup_s = 0;
  double trials_per_s = 0;
  double hbh_trials_per_s = 0;
  double pkts_per_s = 0;
  double hbh_pkts_per_s = 0;

  /// One output line with the unscaled figures and the kernel's speed.
  [[nodiscard]] std::string describe(double ref_events_per_s) const;
};

/// Adds the end-to-end metrics: rates multiplied by the reference kernel's
/// `rate_scale` over the window, set-up time divided by its `setup_scale`
/// over the set-up (perfbench/src/reference.hpp), plus peak RSS and the
/// delivery ratio.
void add_end_to_end(Outcome& out, const EndToEnd& raw, double rate_scale,
                    double setup_scale, double delivery_ratio);

/// Adds the span-derived metrics every traced run reports: self-time
/// share of the timed window per span name, and the share of the window
/// the root spans opened at or after `first_window_span` cover.
void add_span_metrics(Outcome& out, const SpanRecorder& spans,
                      std::size_t first_window_span, double window_seconds);

}  // namespace perfbench
