#include "util/profiler.hpp"

#include <cassert>
#include <chrono>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#ifdef HBH_PROF_ALLOC
#include <cstdlib>
#include <new>
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
  const AllocCounters a = thread_alloc_counters();
  f.allocs0 = a.allocs;
  f.alloc_bytes0 = a.bytes;
  f.wall0 = wall_now_ns();
  stack_.push_back(f);
}

void PhaseProfiler::exit() {
  assert(!stack_.empty() && "PhaseProfiler::exit without matching enter");
  const std::uint64_t wall1 = wall_now_ns();
  const AllocCounters a = thread_alloc_counters();
  const Frame f = stack_.back();
  stack_.pop_back();
  PhaseStats& s = phases_[path_];
  s.count += 1;
  s.wall_ns += wall1 - f.wall0;
  s.allocs += a.allocs - f.allocs0;
  s.alloc_bytes += a.bytes - f.alloc_bytes0;
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
  if (phases.empty()) return;  // keep snapshot() empty under HBH_NO_TELEMETRY
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

#ifndef HBH_PROF_ALLOC

AllocCounters thread_alloc_counters() noexcept { return {}; }

#else

namespace {
thread_local AllocCounters tl_alloc;
}

AllocCounters thread_alloc_counters() noexcept { return tl_alloc; }

namespace detail {
inline void note_alloc(std::size_t bytes) noexcept {
  tl_alloc.allocs += 1;
  tl_alloc.bytes += static_cast<std::uint64_t>(bytes);
}
}  // namespace detail

#endif  // HBH_PROF_ALLOC

}  // namespace hbh::prof

#ifdef HBH_PROF_ALLOC

// Global allocation instrumentation (-DHBH_PROF_ALLOC=ON): every heap
// allocation bumps the calling thread's counters, which PhaseProfiler
// snapshots at scope enter/exit to attribute allocations per phase.
// Exactly one definition per binary — this translation unit sits in
// hbh_util, which every executable links.
//
// Every replaced operator new below allocates with malloc/posix_memalign,
// so free() in the deletes is the matching deallocator; GCC can't see
// that pairing and would flag the free() calls.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  hbh::prof::detail::note_alloc(size);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) {
  hbh::prof::detail::note_alloc(size);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc{};
}

void* operator new(std::size_t size, std::align_val_t align) {
  hbh::prof::detail::note_alloc(size);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align),
                     size != 0 ? size : 1) != 0) {
    throw std::bad_alloc{};
  }
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  hbh::prof::detail::note_alloc(size);
  return std::malloc(size != 0 ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  hbh::prof::detail::note_alloc(size);
  return std::malloc(size != 0 ? size : 1);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#pragma GCC diagnostic pop

#endif  // HBH_PROF_ALLOC
