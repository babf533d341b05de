#include "util/env.hpp"

#include <charconv>
#include <cstdlib>

namespace hbh {

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
  return env_int(name).value_or(fallback);
}

double env_double_or(std::string_view name, double fallback) {
  const std::string key{name};
  const char* raw = std::getenv(key.c_str());
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const double value = std::strtod(raw, &end);
  return (end == raw || *end != '\0') ? fallback : value;
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

std::string env_perf_out(std::string_view fallback) {
  return env_str_or("HBH_PERF_OUT", fallback);
}

std::string env_prof_out() { return env_str_or("HBH_PROF_OUT", ""); }

double env_perf_tolerance(double fallback) {
  const double v = env_double_or("HBH_PERF_TOLERANCE", fallback);
  return v > 0 ? v : fallback;
}

std::size_t env_dp_rounds(std::size_t fallback) {
  const std::int64_t v =
      env_int_or("HBH_DP_ROUNDS", static_cast<std::int64_t>(fallback));
  return v > 0 ? static_cast<std::size_t>(v) : fallback;
}

std::size_t env_dp_warmup(std::size_t fallback) {
  const std::int64_t v =
      env_int_or("HBH_DP_WARMUP", static_cast<std::int64_t>(fallback));
  return v >= 0 ? static_cast<std::size_t>(v) : fallback;
}

std::size_t env_dp_burst(std::size_t fallback) {
  const std::int64_t v =
      env_int_or("HBH_DP_BURST", static_cast<std::int64_t>(fallback));
  return v > 0 ? static_cast<std::size_t>(v) : fallback;
}

std::string env_log_level() { return env_str_or("HBH_LOG_LEVEL", ""); }

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
  return env_str_or("HBH_AQM", fallback);
}

std::string env_audit() {
  std::string v = env_str_or("HBH_AUDIT", "");
  if (v == "0" || v == "off") return "";
  return v;
}

std::string env_audit_out() { return env_str_or("HBH_AUDIT_OUT", ""); }

}  // namespace hbh
