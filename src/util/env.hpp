// Environment-variable configuration helpers.
//
// Benches and the harness run unattended (`for b in build/bench/*; do $b;
// done`), so their knobs — trial counts, seeds, worker counts — come from
// the environment rather than argv: e.g. HBH_TRIALS=500 reruns a figure at
// the paper's full trial count.
//
// Every HBH_* knob the repository reads goes through one of the named
// accessors below, so this header doubles as the authoritative knob list
// (mirrored in README "Environment knobs"). Adding a knob means adding an
// accessor here, not sprinkling another getenv call. A name-valued knob
// accepts exactly its documented names and a numeric knob exactly one
// number: any other value throws std::invalid_argument naming the variable
// and what it accepts, so a misspelt knob cannot silently weaken a check or
// change a workload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace hbh {

/// Reads an integer environment variable; nullopt if unset or malformed.
[[nodiscard]] std::optional<std::int64_t> env_int(std::string_view name);

/// Reads an integer environment variable; `fallback` if unset or empty.
/// Throws std::invalid_argument naming the variable if it is set to
/// anything but a whole integer (e.g. "2x", "four").
[[nodiscard]] std::int64_t env_int_or(std::string_view name,
                                      std::int64_t fallback);

/// Reads a floating-point environment variable; `fallback` if unset or
/// empty. Throws std::invalid_argument naming the variable if it is set to
/// anything but one number.
[[nodiscard]] double env_double_or(std::string_view name, double fallback);

/// Reads a string environment variable with a default.
[[nodiscard]] std::string env_str_or(std::string_view name,
                                     std::string_view fallback);

// --- The knob table (README "Environment knobs") -------------------------

/// HBH_TRIALS — trials per sweep point (each bench picks its own default).
[[nodiscard]] std::size_t env_trials(std::size_t fallback);

/// HBH_SEED — base seed for paired trials (default: the SIGCOMM'01 date).
[[nodiscard]] std::uint64_t env_seed(std::uint64_t fallback = 20010827);

/// HBH_JOBS — trial-pool worker count; 0/unset = all hardware cores,
/// 1 = the serial path (docs/PERFORMANCE.md).
[[nodiscard]] std::size_t env_jobs();

/// HBH_CSV — nonzero: benches also print machine-readable CSV.
[[nodiscard]] bool env_csv();

/// HBH_REPORT — path for the hbh.run_report/v3 JSON; empty = no report.
[[nodiscard]] std::string env_report_path();

/// HBH_TRACE_OUT — path for a Perfetto/Chrome trace-event JSON of the
/// observed cell's HBH trial (schema hbh.trace/v1); empty = no trace.
[[nodiscard]] std::string env_trace_out();

/// HBH_PROF_OUT — path for a standalone hbh.perf_profile/v4 phase-profile
/// JSON of the whole process (docs/OBSERVABILITY.md "Phase profiling");
/// empty = no profile file.
[[nodiscard]] std::string env_prof_out();

/// HBH_LOG_LEVEL — trace|debug|info|warn|error; empty = keep default.
[[nodiscard]] std::string env_log_level();

/// HBH_CHANNELS — largest channel count in ablation_state_scaling's sweep.
[[nodiscard]] std::size_t env_channels(std::size_t fallback);

/// HBH_CHURN_ON / HBH_CHURN_OFF — mean subscribed / unsubscribed dwell
/// times (time units) of the churn workload's exponential on/off process.
[[nodiscard]] double env_churn_on(double fallback);
[[nodiscard]] double env_churn_off(double fallback);

/// HBH_RATE — autonomous data emissions per time unit per channel in the
/// congestion workloads (TrafficSpec::rate; 0 keeps the bench default).
[[nodiscard]] double env_rate(double fallback);

/// HBH_PAYLOAD — application payload bytes padded onto every data packet
/// in the congestion workloads (TrafficSpec::payload_bytes).
[[nodiscard]] std::size_t env_payload(std::size_t fallback);

/// HBH_QUEUE_LIMIT — egress queue capacity (packets) applied to
/// capacitated links (LinkSpec::queue_limit).
[[nodiscard]] std::size_t env_queue_limit(std::size_t fallback);

/// HBH_AQM — queue discipline for capacitated links: "droptail" | "red"
/// (net::aqm_from_string).
[[nodiscard]] std::string env_aqm(std::string_view fallback = "droptail");

/// HBH_AUDIT — forwarding-plane invariant auditor mode: unset/"0"/"off" =
/// disabled (returns ""), "1" = anomalies are recorded only, "strict" =
/// anomalies abort the run (docs/OBSERVABILITY.md "Forwarding-plane
/// invariant auditor").
[[nodiscard]] std::string env_audit();

/// HBH_AUDIT_OUT — path for a deterministic NDJSON anomaly-event stream
/// (schema hbh.audit/v1) from the observed cell's four trials; empty = no
/// audit file.
[[nodiscard]] std::string env_audit_out();

}  // namespace hbh
