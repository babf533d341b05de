// Machine-speed reference for the end-to-end metrics (perfbench/README.md,
// "Why the benchmark looks like this: drift").
//
// The shared machines this benchmark runs on change speed by up to 2.7x
// within seconds and by ~20% between runs minutes apart, while a process
// runs undisturbed (thread CPU time equals wall time). A fixed arithmetic
// loop barely sees that drift; a small discrete-event kernel with the
// simulator's instruction mix (binary heap, hash lookups, type-erased
// calls) sees most of it. The workloads run fixed
// chunks of this kernel between their own units of work and scale their
// end-to-end figures by its speed. The kernel is part of the benchmark,
// not of the library, so no change to the library moves it.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "spans.hpp"

namespace perfbench {

class ReferenceKernel {
 public:
  /// The kernel's nominal speed: scaled figures read as if the kernel had
  /// run at this many events per second.
  static constexpr double kNominalEventsPerSecond = 1e7;

  ReferenceKernel();
  // The handlers hold `this`.
  ReferenceKernel(const ReferenceKernel&) = delete;
  ReferenceKernel& operator=(const ReferenceKernel&) = delete;

  /// Runs `events` kernel events, adding their wall time to the tally
  /// (under a "bench.reference" span when `spans` is set).
  void run_chunk(std::size_t events, SpanRecorder* spans = nullptr);

  /// Events per second over every chunk run so far (0 before the first).
  [[nodiscard]] double events_per_second() const;

  /// Multiplier that turns a rate measured beside the chunks into a rate
  /// at the kernel's nominal speed; divide a duration by it instead.
  [[nodiscard]] double rate_scale() const;

  /// Wall time spent in chunks so far.
  [[nodiscard]] double seconds() const noexcept { return seconds_; }

  /// Forgets the time tally (not the kernel state).
  void reset_tally() noexcept {
    seconds_ = 0;
    events_ = 0;
  }

 private:
  struct Event {
    double time;
    std::uint32_t node;
  };

  std::uint64_t next_random() noexcept;
  void step();

  std::vector<Event> heap_;
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> adjacency_;
  std::vector<std::function<void(std::uint32_t)>> handlers_;
  double now_ = 0;
  std::uint64_t state_ = 0x9E3779B97F4A7C15ull;
  std::uint64_t sink_ = 0;
  double seconds_ = 0;
  std::uint64_t events_ = 0;
};

}  // namespace perfbench
