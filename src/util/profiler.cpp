#include "util/profiler.hpp"

#include <cassert>
#include <chrono>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace hbh::prof {
namespace {

thread_local PhaseProfiler* tl_profiler = nullptr;

std::uint64_t wall_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

void PhaseProfiler::enter(std::string_view name) {
  Frame f;
  f.parent_path_len = path_.size();
  if (!path_.empty()) path_.push_back('/');
  path_.append(name);
  // The clock is read last on enter and first on exit so the profiler's own
  // bookkeeping (path append, map insert) stays outside the measured span.
  // On Linux steady_clock is a vDSO read, so a scope makes no syscall.
  f.wall0 = wall_now_ns();
  stack_.push_back(f);
}

void PhaseProfiler::exit() {
  assert(!stack_.empty() && "PhaseProfiler::exit without matching enter");
  const std::uint64_t wall1 = wall_now_ns();
  const Frame f = stack_.back();
  stack_.pop_back();
  PhaseStats& s = phases_[path_];
  s.count += 1;
  s.wall_ns += wall1 - f.wall0;
  path_.resize(f.parent_path_len);
}

void PhaseProfiler::clear() {
  assert(stack_.empty() && "PhaseProfiler::clear with open scopes");
  phases_.clear();
  path_.clear();
}

PhaseProfiler* current_profiler() noexcept { return tl_profiler; }

ScopedProfiler::ScopedProfiler(PhaseProfiler& p) noexcept
    : prev_(tl_profiler) {
  tl_profiler = &p;
}

ScopedProfiler::~ScopedProfiler() { tl_profiler = prev_; }

void PhaseAggregator::merge(std::string_view label, const PhaseMap& phases) {
  if (phases.empty()) return;  // a label appears once it records a phase
  const std::lock_guard<std::mutex> lock(mu_);
  PhaseMap& dst = by_label_[std::string(label)];
  for (const auto& [path, stats] : phases) dst[path].merge(stats);
}

std::map<std::string, PhaseMap> PhaseAggregator::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return by_label_;
}

PhaseMap PhaseAggregator::snapshot(std::string_view label) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_label_.find(std::string(label));
  return it == by_label_.end() ? PhaseMap{} : it->second;
}

void PhaseAggregator::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  by_label_.clear();
}

PhaseAggregator& process_profile() {
  static PhaseAggregator aggregator;
  return aggregator;
}

std::uint64_t peak_rss_bytes() noexcept {
#if defined(__unix__) || defined(__APPLE__)
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(ru.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

}  // namespace hbh::prof
