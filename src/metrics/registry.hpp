// Run-wide telemetry registry: named counters, gauges, and fixed-bucket
// histograms.
//
// Design goals (DESIGN.md + docs/OBSERVABILITY.md):
//  * O(1) hot path — instruments resolve their metric once at wiring time
//    and then update through a stable reference; an update is one add.
//  * Zero cost when off — a Session builds a Registry only when its
//    ObserverSpec asks for telemetry, so an unobserved run has no
//    instruments to update (benches measure the event loop, not the
//    bookkeeping).
//  * Single-threaded by design, like the simulator it observes: one
//    Registry belongs to one run (harness::Session owns one per session).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/ids.hpp"

namespace hbh::metrics {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_ += n; }

  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  friend class Registry;
  Counter() = default;
  std::uint64_t value_ = 0;
};

/// Point-in-time value. Either stored (set/add) or *bound* to a provider
/// callback that is evaluated lazily at read time — how protocol state
/// (MFT/MCT entry counts, queue depth) is exposed without per-update cost.
class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  void add(double delta) noexcept { value_ += delta; }

  /// Binds the gauge to a provider; value() then reflects the callback.
  void bind(std::function<double()> provider) {
    provider_ = std::move(provider);
  }

  [[nodiscard]] double value() const { return provider_ ? provider_() : value_; }

 private:
  friend class Registry;
  Gauge() = default;
  double value_ = 0;
  std::function<double()> provider_;
};

/// Fixed-bucket histogram: counts per upper bound, plus an overflow bucket
/// and a running sum. Bounds are set once at registration and never
/// reallocate, so observe() is a short scan over a handful of doubles.
class Histogram {
 public:
  void observe(double v) noexcept {
    std::size_t i = 0;
    while (i < bounds_.size() && v > bounds_[i]) ++i;
    ++counts_[i];
    sum_ += v;
    ++total_;
  }

  /// Bucket upper bounds; counts() has one extra trailing overflow bucket.
  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const noexcept {
    return counts_;
  }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t count() const noexcept { return total_; }
  [[nodiscard]] double mean() const noexcept {
    return total_ == 0 ? 0.0 : sum_ / static_cast<double>(total_);
  }

  /// Bucket-interpolated quantile estimate, q in [0, 1]. Within a bucket
  /// the mass is assumed uniform between the adjacent bounds (the first
  /// bucket starts at 0); observations in the overflow bucket clamp to the
  /// last bound, since its upper edge is unknown. 0 on an empty histogram.
  [[nodiscard]] double quantile(double q) const noexcept {
    if (total_ == 0 || bounds_.empty()) return 0.0;
    const double rank = q * static_cast<double>(total_);
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] == 0) continue;
      const std::uint64_t next = cumulative + counts_[i];
      if (static_cast<double>(next) >= rank) {
        if (i >= bounds_.size()) return bounds_.back();  // overflow bucket
        const double lo = i == 0 ? 0.0 : bounds_[i - 1];
        const double hi = bounds_[i];
        const double within =
            (rank - static_cast<double>(cumulative)) /
            static_cast<double>(counts_[i]);
        return lo + (hi - lo) * std::min(std::max(within, 0.0), 1.0);
      }
      cumulative = next;
    }
    return bounds_.back();
  }

 private:
  friend class Registry;
  explicit Histogram(std::vector<double> bounds)
      : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0) {}
  std::vector<double> bounds_;  ///< strictly increasing upper bounds
  std::vector<std::uint64_t> counts_;
  double sum_ = 0;
  std::uint64_t total_ = 0;
};

/// One run's metrics, keyed by dotted names ("net.tx.join"). Lookup cost is
/// paid once at registration; references stay valid for the registry's
/// lifetime (metrics are heap-pinned and the registry never moves).
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Finds or creates the named metric. Registering the same name twice
  /// returns the same object (so independent instruments can share it).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// For an existing histogram the original bounds are kept.
  Histogram& histogram(std::string_view name, std::vector<double> bounds);

  /// Convenience: registers a provider-bound gauge in one call.
  Gauge& bind_gauge(std::string_view name, std::function<double()> provider);

  // Export surface (ordered by name => deterministic reports).
  [[nodiscard]] const std::map<std::string, std::unique_ptr<Counter>>&
  counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, std::unique_ptr<Gauge>>& gauges()
      const noexcept {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, std::unique_ptr<Histogram>>&
  histograms() const noexcept {
    return histograms_;
  }

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace hbh::metrics
