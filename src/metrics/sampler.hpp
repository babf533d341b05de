// Periodic protocol-state sampling over virtual time.
//
// A StateSampler rides the simulator's own PeriodicTimer: every `period`
// time units it reads every gauge registered in a Registry and appends
// (virtual time, value) to that gauge's series. Because gauges are
// provider-bound (MFT/MCT entry counts, event-queue depth, membership),
// sampling is the *only* time their cost is paid — the protocol hot path
// is untouched between ticks.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "metrics/registry.hpp"
#include "sim/simulator.hpp"

namespace hbh::metrics {

/// One sampled time series: parallel vectors of timestamps and values.
struct Series {
  std::vector<Time> t;
  std::vector<double> v;
};

class StateSampler {
 public:
  /// Samples every `period` time units once started. `max_samples` bounds
  /// memory per series for long runs (recording stops; truncated() says so).
  StateSampler(sim::Simulator& simulator, Registry& registry, Time period,
               std::size_t max_samples = 100000);

  /// Arms the sampler; takes an immediate t=now sample so every series has
  /// a defined start point, then one every period.
  void start();
  void stop() { timer_.stop(); }

  /// Takes one snapshot of all registry gauges right now.
  void sample_now();

  [[nodiscard]] const std::map<std::string, Series>& series() const noexcept {
    return series_;
  }
  [[nodiscard]] std::size_t sample_count() const noexcept { return samples_; }
  [[nodiscard]] bool truncated() const noexcept { return truncated_; }
  [[nodiscard]] Time period() const noexcept { return timer_.period(); }

 private:
  sim::Simulator& sim_;
  Registry& registry_;
  std::size_t max_samples_;
  sim::PeriodicTimer timer_;
  std::map<std::string, Series> series_;
  std::size_t samples_ = 0;
  bool truncated_ = false;
};

}  // namespace hbh::metrics
