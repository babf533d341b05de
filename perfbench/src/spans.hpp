// In-memory span recorder for the traced run (perfbench/README.md).
//
// A span is a named wall-clock interval with a parent, recorded by the
// benchmark around its own calls into the library's layers. Spans stay in
// memory while the workload runs and are written out once at the end, so
// recording costs two clock reads and one vector append.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;  ///< relative to the recorder's origin
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;   ///< index of the enclosing span, -1 = none
  std::int32_t protocol = -1; ///< harness::Protocol index, -1 = none

  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  /// Pre-sizes the span store so recording does not allocate (keeps the
  /// traced run's allocation counts free of the recorder's own growth).
  void reserve(std::size_t spans) { spans_.reserve(spans); }

  /// Opens a span as a child of the innermost open span; returns its index.
  std::int32_t open(const char* name, int protocol = -1);
  /// Closes the innermost open span, which must be `index`.
  void close(std::int32_t index);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Per span name: wall time minus the time covered by its child spans,
  /// over the spans recorded at or after index `from`.
  [[nodiscard]] std::map<std::string, double> self_seconds(
      std::size_t from = 0) const;

  /// Summed duration of the root spans (those without a parent) recorded
  /// at or after index `from`.
  [[nodiscard]] double root_seconds(std::size_t from = 0) const;

  /// Durations, in seconds, of every span called `name` (and, when
  /// `protocol` >= 0, recorded for that protocol).
  [[nodiscard]] std::vector<double> durations(const std::string& name,
                                              int protocol = -1) const;

  /// Writes the spans as Chrome trace-event JSON (loadable in Perfetto);
  /// returns false if the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::int32_t innermost_ = -1;
};

/// RAII span; records nothing when `recorder` is null (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, int protocol = -1)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->open(name, protocol) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  std::int32_t index_;
};

}  // namespace perfbench
