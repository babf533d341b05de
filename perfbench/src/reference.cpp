#include "reference.hpp"

#include <algorithm>

namespace perfbench {

namespace {

constexpr std::uint32_t kNodes = 64;
constexpr std::size_t kDegree = 4;
constexpr std::size_t kHandlers = 8;
constexpr std::size_t kPending = 512;

/// Min-heap order on event time.
struct Later {
  template <typename E>
  bool operator()(const E& a, const E& b) const {
    return a.time > b.time;
  }
};

}  // namespace

ReferenceKernel::ReferenceKernel() {
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    auto& out = adjacency_[n];
    for (std::size_t k = 0; k < kDegree; ++k) {
      out.push_back(static_cast<std::uint32_t>(next_random() % kNodes));
    }
  }
  for (std::size_t h = 0; h < kHandlers; ++h) {
    handlers_.emplace_back(
        [this, h](std::uint32_t node) { sink_ += node + h; });
  }
  heap_.reserve(kPending + 1);
  for (std::size_t i = 0; i < kPending; ++i) {
    heap_.push_back(Event{static_cast<double>(next_random() % 1000),
                          static_cast<std::uint32_t>(i % kNodes)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
}

std::uint64_t ReferenceKernel::next_random() noexcept {
  state_ ^= state_ << 13;
  state_ ^= state_ >> 7;
  state_ ^= state_ << 17;
  return state_;
}

void ReferenceKernel::step() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Event e = heap_.back();
  heap_.pop_back();
  now_ = e.time;
  const std::vector<std::uint32_t>& out = adjacency_.find(e.node)->second;
  handlers_[e.node % kHandlers](e.node);
  const std::uint32_t next = out[next_random() % out.size()];
  heap_.push_back(
      Event{now_ + 1 + static_cast<double>(next_random() % 16), next});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void ReferenceKernel::run_chunk(std::size_t events, SpanRecorder* spans) {
  const ScopedSpan span(spans, "bench.reference");
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < events; ++i) step();
  seconds_ += seconds_since(t0);
  events_ += events;
}

double ReferenceKernel::events_per_second() const {
  return seconds_ > 0 ? static_cast<double>(events_) / seconds_ : 0;
}

double ReferenceKernel::rate_scale() const {
  const double rate = events_per_second();
  return rate > 0 ? kNominalEventsPerSecond / rate : 1;
}

}  // namespace perfbench
