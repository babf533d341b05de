// Phase profiler: RAII nested scopes attributing wall-clock time (and,
// opt-in, heap allocations) to named phases of a run.
//
// The profiler lives in util so every layer — routing (SPF), sim, mcast
// (tree rounds, refresh, data fan-out), harness — can drop an HBH_PHASE
// scope without a dependency cycle; serialization to the run report lives
// in src/metrics/profiler.hpp (which re-exports these types as
// metrics::PhaseProfiler et al.).
//
// Design constraints, in order:
//  1. Determinism. Phase *counts* are a function of the simulation only,
//     so aggregating per-protocol across TrialPool workers must yield
//     byte-identical counts at any HBH_JOBS. All stats are unsigned
//     integers (enter count, nanoseconds, allocations) merged by addition,
//     which commutes — merge order across workers cannot change a sum.
//     Timings naturally differ run to run and are excluded from the
//     repo's byte-identity checks (docs/OBSERVABILITY.md).
//  2. Zero cost when idle. A scope first checks the calling thread's
//     installed profiler; with none installed the constructor is a single
//     thread-local load and branch. Under -DHBH_NO_TELEMETRY=ON the macro
//     expands to nothing and the classes compile to empty shells.
//  3. No locks on the hot path. A PhaseProfiler is thread-confined (one
//     per trial, like Session); only PhaseAggregator::merge — once per
//     trial — takes a mutex.
//
// Phases nest: a scope entered while another is open records under the
// path "outer/inner", so e.g. SPF work triggered during trial setup
// aggregates separately ("trial_setup/spf") from SPF work during the
// measurement window ("measure/.../spf").
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace hbh::prof {

/// True when the profiler is compiled in (mirrors metrics::kTelemetryCompiled;
/// duplicated here to keep util dependency-free).
#ifdef HBH_NO_TELEMETRY
inline constexpr bool kProfilerCompiled = false;
#else
inline constexpr bool kProfilerCompiled = true;
#endif

/// True when global operator new/delete are instrumented (-DHBH_PROF_ALLOC=ON):
/// phase stats then carry per-phase allocation/byte deltas.
#ifdef HBH_PROF_ALLOC
inline constexpr bool kAllocCountingCompiled = true;
#else
inline constexpr bool kAllocCountingCompiled = false;
#endif

/// Everything recorded about one phase path. All fields are integers and
/// merge by addition, keeping aggregated values order-independent.
struct PhaseStats {
  std::uint64_t count = 0;        ///< scope enters
  std::uint64_t wall_ns = 0;      ///< wall-clock time inside the scope
  std::uint64_t allocs = 0;       ///< heap allocations (HBH_PROF_ALLOC only)
  std::uint64_t alloc_bytes = 0;  ///< bytes requested (HBH_PROF_ALLOC only)

  void merge(const PhaseStats& o) noexcept {
    count += o.count;
    wall_ns += o.wall_ns;
    allocs += o.allocs;
    alloc_bytes += o.alloc_bytes;
  }
};

/// Phase path ("trial_setup/spf") -> stats. std::map so iteration — and
/// therefore serialization — is deterministic.
using PhaseMap = std::map<std::string, PhaseStats>;

/// Per-thread (per-trial) phase recorder. Install with ScopedProfiler and
/// open scopes with HBH_PHASE; query or merge the result when done.
class PhaseProfiler {
 public:
  PhaseProfiler() = default;
  PhaseProfiler(const PhaseProfiler&) = delete;
  PhaseProfiler& operator=(const PhaseProfiler&) = delete;

  /// Opens a nested phase; pair with exit(). Prefer HBH_PHASE.
  void enter(std::string_view name);
  void exit();

  [[nodiscard]] const PhaseMap& phases() const noexcept { return phases_; }
  [[nodiscard]] bool idle() const noexcept { return stack_.empty(); }

  /// Forgets everything recorded (open scopes must be closed first).
  void clear();

 private:
  struct Frame {
    std::size_t parent_path_len;  ///< path_ length before this frame
    std::uint64_t wall0;
    std::uint64_t allocs0;
    std::uint64_t alloc_bytes0;
  };

  PhaseMap phases_;
  std::vector<Frame> stack_;
  std::string path_;  ///< current phase path, "/"-joined
};

/// The calling thread's installed profiler; nullptr when none.
[[nodiscard]] PhaseProfiler* current_profiler() noexcept;

/// Installs `p` as the calling thread's profiler for this scope's lifetime
/// (restoring the previous one on destruction, so installs nest — e.g. a
/// per-protocol deep-dive inside a profiled report render).
class ScopedProfiler {
 public:
  explicit ScopedProfiler(PhaseProfiler& p) noexcept;
  ~ScopedProfiler();
  ScopedProfiler(const ScopedProfiler&) = delete;
  ScopedProfiler& operator=(const ScopedProfiler&) = delete;

 private:
  PhaseProfiler* prev_;
};

/// RAII phase scope: records under the installed profiler, no-op without
/// one. The profiler pointer is captured at construction, so a nested
/// ScopedProfiler swap cannot unbalance enter/exit pairs.
class PhaseScope {
 public:
  explicit PhaseScope(const char* name) noexcept
      : prof_(kProfilerCompiled ? current_profiler() : nullptr) {
    if (prof_ != nullptr) prof_->enter(name);
  }
  ~PhaseScope() {
    if (prof_ != nullptr) prof_->exit();
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  PhaseProfiler* prof_;
};

/// Thread-safe label -> PhaseMap accumulator. The harness keeps one per
/// process (process_profile()) keyed by protocol name; every trial merges
/// its profiler on completion, from whichever TrialPool worker ran it.
class PhaseAggregator {
 public:
  void merge(std::string_view label, const PhaseProfiler& p) {
    merge(label, p.phases());
  }
  void merge(std::string_view label, const PhaseMap& phases);

  /// Copies of the aggregated maps (all labels / one label).
  [[nodiscard]] std::map<std::string, PhaseMap> snapshot() const;
  [[nodiscard]] PhaseMap snapshot(std::string_view label) const;

  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, PhaseMap> by_label_;
};

/// The process-wide aggregate the harness and benches report from.
[[nodiscard]] PhaseAggregator& process_profile();

/// Peak resident set size of the process so far, in bytes (0 if the
/// platform offers no getrusage).
[[nodiscard]] std::uint64_t peak_rss_bytes() noexcept;

/// The calling thread's running allocation totals (monotonic; all zero
/// unless built with -DHBH_PROF_ALLOC=ON).
struct AllocCounters {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};
[[nodiscard]] AllocCounters thread_alloc_counters() noexcept;

#ifdef HBH_NO_TELEMETRY
#define HBH_PHASE(name) ((void)0)
#else
#define HBH_PROF_CAT2(a, b) a##b
#define HBH_PROF_CAT(a, b) HBH_PROF_CAT2(a, b)
/// Opens a phase scope for the rest of the enclosing block.
#define HBH_PHASE(name) \
  ::hbh::prof::PhaseScope HBH_PROF_CAT(hbh_phase_scope_, __LINE__) { name }
#endif

}  // namespace hbh::prof
