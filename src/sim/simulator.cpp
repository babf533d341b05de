#include "sim/simulator.hpp"

#include <cassert>
#include <utility>

#include "util/log.hpp"

namespace hbh::sim {

EventId Simulator::schedule(Time delay, Action action) {
  assert(delay >= 0);
  return track(queue_.push(now_ + delay, action));
}

EventId Simulator::schedule(Time delay, Callback fn) {
  assert(delay >= 0);
  return track(queue_.push(now_ + delay, std::move(fn)));
}

EventId Simulator::schedule_at(Time when, Callback fn) {
  assert(when >= now_);
  return track(queue_.push(when, std::move(fn)));
}

std::size_t Simulator::run(Time deadline) {
  // Stamp log lines with virtual time while events execute, so protocol
  // traces line up with telemetry sampler timestamps.
  ScopedLogTime log_time{[this] { return now_; }};
  stopped_ = false;
  std::size_t count = 0;
  while (!queue_.empty() && !stopped_) {
    if (queue_.next_time() > deadline) break;
    auto [when, fn] = queue_.pop();
    assert(when >= now_);
    now_ = when;
    fn();
    ++count;
    ++executed_;
  }
  return count;
}

std::size_t Simulator::run_for(Time delta) {
  assert(delta >= 0);
  const Time target = now_ + delta;
  const std::size_t count = run(target);
  if (!stopped_ && now_ < target) now_ = target;
  return count;
}

void Simulator::reset() {
  queue_.clear();
  now_ = 0;
  stopped_ = false;
  executed_ = 0;
  peak_pending_ = 0;
}

PeriodicTimer::PeriodicTimer(Simulator& simulator, Time period,
                             Simulator::Callback fn)
    : sim_(simulator), period_(period), fn_(std::move(fn)) {
  assert(period_ > 0);
  assert(fn_ != nullptr);
}

void PeriodicTimer::start(Time initial_delay) {
  stop();
  const Time first = initial_delay < 0 ? period_ : initial_delay;
  pending_ = sim_.schedule(first, action<&PeriodicTimer::fire>(this));
}

void PeriodicTimer::stop() {
  if (pending_.valid()) {
    sim_.cancel(pending_);
    pending_ = EventId{};
  }
}

void PeriodicTimer::fire() {
  pending_ = sim_.schedule(period_, action<&PeriodicTimer::fire>(this));
  fn_();
}

}  // namespace hbh::sim
