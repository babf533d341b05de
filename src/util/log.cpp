#include "util/log.hpp"

#include <cstdio>

#include "util/env.hpp"

namespace hbh {

thread_local Logger::TimeSource Logger::time_source_;

std::string_view to_string(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kTrace:
      return "TRACE";
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

Logger::Logger() { set_sink(nullptr); }

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

void Logger::set_sink(Sink sink) {
  if (!sink) {
    // Compose the full line first and emit it with a single buffered
    // write: concurrent trial workers never interleave fragments.
    sink = [](LogLevel level, std::string_view message) {
      std::string line;
      line.reserve(message.size() + 10);
      line += '[';
      line += to_string(level);
      line += "] ";
      line += message;
      line += '\n';
      std::fwrite(line.data(), 1, line.size(), stderr);
    };
  }
  std::scoped_lock lock(sink_mu_);
  sink_ = std::move(sink);
}

Logger::TimeSource Logger::set_time_source(TimeSource source) {
  TimeSource previous = std::move(time_source_);
  time_source_ = std::move(source);
  return previous;
}

void Logger::write(LogLevel level, std::string_view message) {
  std::string stamped;
  if (time_source_) {
    std::ostringstream out;
    out << "[t=" << time_source_() << "] " << message;
    stamped = out.str();
    message = stamped;
  }
  std::scoped_lock lock(sink_mu_);
  sink_(level, message);
}

std::optional<LogLevel> log_level_from_string(std::string_view name) {
  if (name == "trace") return LogLevel::kTrace;
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  return std::nullopt;
}

void init_log_level_from_env() {
  if (const auto level = log_level_from_string(env_log_level())) {
    Logger::instance().set_level(*level);
  }
}

LogCapture::LogCapture(LogLevel level)
    : previous_level_(Logger::instance().level()) {
  Logger::instance().set_level(level);
  Logger::instance().set_sink([this](LogLevel, std::string_view message) {
    lines_.emplace_back(message);
  });
}

LogCapture::~LogCapture() {
  Logger::instance().set_sink(nullptr);
  Logger::instance().set_level(previous_level_);
}

bool LogCapture::contains(std::string_view needle) const {
  return count(needle) > 0;
}

std::size_t LogCapture::count(std::string_view needle) const {
  std::size_t hits = 0;
  for (const auto& line : lines_) {
    if (line.find(needle) != std::string::npos) ++hits;
  }
  return hits;
}

}  // namespace hbh
