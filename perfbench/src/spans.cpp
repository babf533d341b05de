#include "spans.hpp"

#include <cassert>
#include <cstdio>

namespace perfbench {

std::int32_t SpanRecorder::open(const char* name, int protocol) {
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{name, now_ns(), 0, innermost_, protocol});
  innermost_ = index;
  return index;
}

void SpanRecorder::close(std::int32_t index) {
  assert(index == innermost_);  // ScopedSpan closes spans innermost first
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = now_ns();
  innermost_ = span.parent;
}

std::map<std::string, double> SpanRecorder::self_seconds(
    std::size_t from) const {
  // Children nest strictly inside their parent, so the covered part of a
  // parent is the sum of its direct children's durations.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.duration_ns();
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    out[spans_[i].name] +=
        static_cast<double>(spans_[i].duration_ns() - child_ns[i]) * 1e-9;
  }
  return out;
}

double SpanRecorder::root_seconds(std::size_t from) const {
  std::int64_t total = 0;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    if (spans_[i].parent < 0) total += spans_[i].duration_ns();
  }
  return static_cast<double>(total) * 1e-9;
}

std::vector<double> SpanRecorder::durations(const std::string& name,
                                            int protocol) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name && (protocol < 0 || s.protocol == protocol)) {
      out.push_back(static_cast<double>(s.duration_ns()) * 1e-9);
    }
  }
  return out;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"protocol\":%d}}\n",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.duration_ns()) * 1e-3, i, s.parent,
                 s.protocol);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
