// hbh_perfbench: the repository's end-to-end benchmark (perfbench/README.md).
//
//   hbh_perfbench --workload sweep_rand50|dataplane_isp|churn_congested
//                 --seed N --seconds S --trace 0|1 [--spans PATH]
//
// Runs one workload on one thread for S seconds and prints its metrics, one
// per line, then a final JSON line {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics; --trace 1 is the
// separate traced run that reports the per-layer metrics the workload
// exercises (and writes its spans to PATH as Chrome trace-event JSON when
// given). BENCHMARK.json is the one list of metric names: run.py checks the
// reported names against it and reports the per-layer metrics a workload
// does not exercise as 0. `correct` is false when a correctness check
// fails; `failed` counts the attempted operations whose simulated outcome
// broke an exact contract, each of which also fails a check
// (perfbench/README.md).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "common.hpp"

extern char** environ;

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Outcome;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: hbh_perfbench --workload "
               "sweep_rand50|dataplane_isp|churn_congested --seed N "
               "--seconds S --trace 0|1 [--spans PATH]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("--seed takes a whole number");
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(o.seconds > 0)) {
        usage("--seconds takes a number > 0");
      }
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      o.trace = value[0] == '1';
    } else if (arg == "--spans") {
      o.spans_path = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

/// Unsets every HBH_* environment variable: the library reads several
/// (Session's constructor among them), and a stray shell setting must not
/// change what is measured. Returns the names cleared.
std::vector<std::string> clear_hbh_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("HBH_", 0) == 0) {
      names.push_back(entry.substr(0, entry.find('=')));
    }
  }
  for (const std::string& n : names) unsetenv(n.c_str());
  return names;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  const std::vector<std::string> cleared = clear_hbh_environment();

  Outcome outcome;
  try {
    if (options.workload == "sweep_rand50") {
      outcome = perfbench::run_sweep_rand50(options);
    } else if (options.workload == "dataplane_isp") {
      outcome = perfbench::run_dataplane_isp(options);
    } else if (options.workload == "churn_congested") {
      outcome = perfbench::run_churn_congested(options);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: workload %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }

  std::printf("workload: %s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::string cleared_list;
  for (const std::string& n : cleared) cleared_list += " " + n;
  std::printf("environment: cleared %zu HBH_* variable(s)%s\n", cleared.size(),
              cleared_list.c_str());
  for (const std::string& note : outcome.notes) {
    std::printf("%s\n", note.c_str());
  }

  for (const Metric& m : outcome.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "error: metric %s is not finite\n", m.name.c_str());
      return 1;
    }
    std::printf("metric %-34s %.9g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& f : outcome.failures) {
    std::printf("check FAILED: %s\n", f.c_str());
  }
  const bool correct = outcome.failures.empty();
  std::printf("correct: %s\n", correct ? "yes" : "no");

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
