// The discrete-event simulator driving every experiment.
//
// This replaces ns-2 for the paper's purposes: schedule typed actions or
// callbacks at absolute or relative times, run until quiescence or a
// deadline, and query the current virtual time. Single-threaded and
// deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>

#include "sim/event_queue.hpp"
#include "util/ids.hpp"

namespace hbh::sim {

class Simulator {
 public:
  using Callback = EventQueue::Callback;

  /// Current virtual time.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedules `action` to run `delay` time units from now. Requires
  /// delay >= 0. The per-hop and timer paths use this overload.
  EventId schedule(Time delay, Action action);

  /// Schedules the closure `fn` to run `delay` time units from now.
  EventId schedule(Time delay, Callback fn);

  /// Schedules `fn` at absolute time `when`. Requires when >= now().
  EventId schedule_at(Time when, Callback fn);

  /// Cancels a pending event; false if it already fired or was cancelled.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Runs until the queue drains or `deadline` passes, whichever first.
  /// Returns the number of events executed.
  std::size_t run(Time deadline = std::numeric_limits<Time>::infinity());

  /// Runs events with timestamp <= now()+delta, then fast-forwards the clock
  /// to exactly now()+delta even if the queue drained earlier.
  std::size_t run_for(Time delta);

  /// Requests run() to stop after the current event returns.
  void stop() noexcept { stopped_ = true; }

  [[nodiscard]] bool idle() const noexcept { return queue_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

  /// High-water mark of the pending-event queue (telemetry: how bursty the
  /// run was; reset() clears it).
  [[nodiscard]] std::size_t peak_pending() const noexcept {
    return peak_pending_;
  }

  /// Discards all pending events and resets the clock to zero.
  void reset();

  /// Read-only view of the event queue (slot-pool gauges).
  [[nodiscard]] const EventQueue& queue() const noexcept { return queue_; }

 private:
  EventId track(EventId id) noexcept {
    if (queue_.size() > peak_pending_) peak_pending_ = queue_.size();
    return id;
  }

  EventQueue queue_;
  Time now_ = 0;
  bool stopped_ = false;
  std::uint64_t executed_ = 0;
  std::size_t peak_pending_ = 0;
};

/// Repeating timer built on the simulator; used for the paper's periodic
/// join and tree messages. The callback runs every `period` until stop().
class PeriodicTimer {
 public:
  /// `fn` runs on every firing; the timer itself schedules a typed
  /// `fire()` action, never a closure.
  PeriodicTimer(Simulator& simulator, Time period, Simulator::Callback fn);
  ~PeriodicTimer() { stop(); }
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  /// Arms the timer: first firing after `initial_delay` (default: period).
  void start(Time initial_delay = -1);

  /// Disarms the timer; no further firings.
  void stop();

  [[nodiscard]] bool running() const noexcept { return pending_.valid(); }
  [[nodiscard]] Time period() const noexcept { return period_; }

 private:
  void fire();

  Simulator& sim_;
  Time period_;
  Simulator::Callback fn_;
  EventId pending_{};
};

}  // namespace hbh::sim
