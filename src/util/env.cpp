#include "util/env.hpp"

#include <charconv>
#include <cstdlib>
#include <initializer_list>
#include <stdexcept>

namespace hbh {
namespace {

/// Stops a run on a malformed knob, naming the variable and what it takes.
[[noreturn]] void reject(std::string_view name, std::string_view value,
                         std::string_view expected) {
  throw std::invalid_argument(std::string{name} + "=" + std::string{value} +
                              ": " + std::string{expected});
}

/// A name-valued knob: `fallback` when unset or empty, else exactly one of
/// `accepted`; any other value throws.
std::string env_choice(std::string_view name,
                       std::initializer_list<std::string_view> accepted,
                       std::string_view fallback) {
  std::string value = env_str_or(name, "");
  if (value.empty()) return std::string{fallback};
  std::string valid;
  for (const std::string_view a : accepted) {
    if (value == a) return value;
    valid.append(valid.empty() ? "" : ", ").append(a);
  }
  reject(name, value, "accepted values are " + valid);
}

}  // namespace

std::optional<std::int64_t> env_int(std::string_view name) {
  const std::string key{name};
  const char* raw = std::getenv(key.c_str());
  if (raw == nullptr || *raw == '\0') return std::nullopt;
  std::int64_t value = 0;
  const char* end = raw;
  while (*end != '\0') ++end;
  auto [next, ec] = std::from_chars(raw, end, value);
  if (ec != std::errc{} || next != end) return std::nullopt;
  return value;
}

std::int64_t env_int_or(std::string_view name, std::int64_t fallback) {
  const std::string raw = env_str_or(name, "");
  if (raw.empty()) return fallback;
  if (const auto value = env_int(name)) return *value;
  reject(name, raw, "expected an integer");
}

double env_double_or(std::string_view name, double fallback) {
  const std::string raw = env_str_or(name, "");
  if (raw.empty()) return fallback;
  char* end = nullptr;
  const double value = std::strtod(raw.c_str(), &end);
  if (end == raw.c_str() || *end != '\0') {
    reject(name, raw, "expected a number");
  }
  return value;
}

std::string env_str_or(std::string_view name, std::string_view fallback) {
  const std::string key{name};
  const char* raw = std::getenv(key.c_str());
  return (raw == nullptr || *raw == '\0') ? std::string{fallback}
                                          : std::string{raw};
}

std::size_t env_trials(std::size_t fallback) {
  const std::int64_t v =
      env_int_or("HBH_TRIALS", static_cast<std::int64_t>(fallback));
  return v > 0 ? static_cast<std::size_t>(v) : fallback;
}

std::uint64_t env_seed(std::uint64_t fallback) {
  return static_cast<std::uint64_t>(
      env_int_or("HBH_SEED", static_cast<std::int64_t>(fallback)));
}

std::size_t env_jobs() {
  const std::int64_t v = env_int_or("HBH_JOBS", 0);
  return v > 0 ? static_cast<std::size_t>(v) : 0;
}

bool env_csv() { return env_int_or("HBH_CSV", 0) != 0; }

std::string env_report_path() { return env_str_or("HBH_REPORT", ""); }

std::string env_trace_out() { return env_str_or("HBH_TRACE_OUT", ""); }

std::string env_prof_out() { return env_str_or("HBH_PROF_OUT", ""); }

std::string env_log_level() {
  return env_choice("HBH_LOG_LEVEL",
                    {"trace", "debug", "info", "warn", "error"}, "");
}

std::size_t env_channels(std::size_t fallback) {
  const std::int64_t v =
      env_int_or("HBH_CHANNELS", static_cast<std::int64_t>(fallback));
  return v > 0 ? static_cast<std::size_t>(v) : fallback;
}

double env_churn_on(double fallback) {
  return env_double_or("HBH_CHURN_ON", fallback);
}

double env_churn_off(double fallback) {
  return env_double_or("HBH_CHURN_OFF", fallback);
}

double env_rate(double fallback) {
  const double v = env_double_or("HBH_RATE", fallback);
  return v >= 0 ? v : fallback;
}

std::size_t env_payload(std::size_t fallback) {
  const std::int64_t v =
      env_int_or("HBH_PAYLOAD", static_cast<std::int64_t>(fallback));
  return v >= 0 ? static_cast<std::size_t>(v) : fallback;
}

std::size_t env_queue_limit(std::size_t fallback) {
  const std::int64_t v =
      env_int_or("HBH_QUEUE_LIMIT", static_cast<std::int64_t>(fallback));
  return v > 0 ? static_cast<std::size_t>(v) : fallback;
}

std::string env_aqm(std::string_view fallback) {
  return env_choice("HBH_AQM", {"droptail", "red"}, fallback);
}

std::string env_audit() {
  std::string v = env_choice("HBH_AUDIT", {"0", "off", "1", "strict"}, "");
  if (v == "0" || v == "off") return "";
  return v;
}

std::string env_audit_out() { return env_str_or("HBH_AUDIT_OUT", ""); }

}  // namespace hbh
