// Lightweight leveled logging and an in-memory trace recorder.
//
// The protocol implementations emit structured trace lines ("H3 fusion(S,
// r1,r3) -> H1") that unit tests assert on and examples print. Logging is a
// process-wide singleton with a swappable sink so tests can capture output
// without touching stderr.
//
// Thread safety: the parallel experiment engine (harness::TrialPool) runs
// one simulation per worker thread, and every simulation shares this
// singleton. The level is atomic (so the enabled() fast path stays a
// single relaxed load), the sink is swapped and invoked under a mutex with
// one buffered write per line (no interleaved fragments), and the virtual
// time source is thread-local — each worker's simulator stamps only its
// own thread's lines.
#pragma once

#include <atomic>
#include <functional>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace hbh {

enum class LogLevel { kTrace = 0, kDebug = 1, kInfo = 2, kWarn = 3, kError = 4 };

[[nodiscard]] std::string_view to_string(LogLevel level) noexcept;

/// Process-wide logger; safe to use from concurrent trial workers.
class Logger {
 public:
  using Sink = std::function<void(LogLevel, std::string_view)>;
  using TimeSource = std::function<double()>;

  static Logger& instance();

  void set_level(LogLevel level) noexcept {
    level_.store(level, std::memory_order_relaxed);
  }
  [[nodiscard]] LogLevel level() const noexcept {
    return level_.load(std::memory_order_relaxed);
  }

  /// Replaces the sink; pass nullptr to restore the default stderr sink.
  void set_sink(Sink sink);

  /// While a time source is set (a simulator is active on this thread),
  /// every line the thread logs is prefixed with the current virtual time:
  /// "[t=12.5] ...". Pass nullptr to clear. Returns the previous source so
  /// scopes can nest. Per-thread: parallel trials don't see each other's
  /// clocks.
  TimeSource set_time_source(TimeSource source);

  [[nodiscard]] bool enabled(LogLevel level) const noexcept {
    return level >= this->level();
  }

  void write(LogLevel level, std::string_view message);

 private:
  Logger();
  std::atomic<LogLevel> level_{LogLevel::kWarn};
  std::mutex sink_mu_;  ///< guards sink_ swap and every sink invocation
  Sink sink_;
  static thread_local TimeSource time_source_;
};

/// RAII: exposes a virtual clock to the logger while in scope (installed
/// by sim::Simulator::run so traces carry "[t=...]" prefixes that line up
/// with sampler timestamps). Thread-local, like the time source itself.
class ScopedLogTime {
 public:
  explicit ScopedLogTime(Logger::TimeSource source)
      : previous_(Logger::instance().set_time_source(std::move(source))) {}
  ~ScopedLogTime() { Logger::instance().set_time_source(std::move(previous_)); }
  ScopedLogTime(const ScopedLogTime&) = delete;
  ScopedLogTime& operator=(const ScopedLogTime&) = delete;

 private:
  Logger::TimeSource previous_;
};

/// Parses "trace" / "debug" / "info" / "warn" / "error" (case-sensitive,
/// the metric-name spelling used everywhere else); nullopt otherwise.
[[nodiscard]] std::optional<LogLevel> log_level_from_string(
    std::string_view name);

/// Applies the HBH_LOG_LEVEL environment variable if set — how the
/// unattended bench binaries raise verbosity without a rebuild. A name
/// other than the five levels throws std::invalid_argument (util/env.hpp).
void init_log_level_from_env();

namespace detail {
inline void append_all(std::ostringstream&) {}
template <typename T, typename... Rest>
void append_all(std::ostringstream& out, const T& first, const Rest&... rest) {
  out << first;
  append_all(out, rest...);
}

/// Stream-concatenates `parts...` and writes them at `level`. Reached only
/// through HBH_LOG, after the level check: calling it directly would build
/// the parts even when the level is off.
template <typename... Parts>
void log(LogLevel level, const Parts&... parts) {
  std::ostringstream out;
  append_all(out, parts...);
  Logger::instance().write(level, out.str());
}
}  // namespace detail

/// Logs the arguments stream-concatenated at `level`. The arguments are
/// evaluated only when `level` is enabled, so a call site never builds a
/// string (to_string, describe, table dumps) that a disabled level would
/// throw away; keep side effects out of them.
#define HBH_LOG(level, ...)                                \
  do {                                                     \
    if (::hbh::Logger::instance().enabled(level)) {        \
      ::hbh::detail::log((level), __VA_ARGS__);            \
    }                                                      \
  } while (false)

/// RAII capture of all log lines at or above `level`; restores the previous
/// sink and level on destruction. Used by tests asserting on traces.
class LogCapture {
 public:
  explicit LogCapture(LogLevel level = LogLevel::kTrace);
  ~LogCapture();
  LogCapture(const LogCapture&) = delete;
  LogCapture& operator=(const LogCapture&) = delete;

  [[nodiscard]] const std::vector<std::string>& lines() const noexcept {
    return lines_;
  }
  /// True if any captured line contains `needle`.
  [[nodiscard]] bool contains(std::string_view needle) const;
  /// Number of captured lines containing `needle`.
  [[nodiscard]] std::size_t count(std::string_view needle) const;

 private:
  std::vector<std::string> lines_;
  LogLevel previous_level_;
};

}  // namespace hbh
