# Runs a figure bench with HBH_REPORT set and asserts the JSON artifact
# carries the report's load-bearing sections. Invoked by the
# bench_report_e2e ctest case (see bench/CMakeLists.txt); expects -DBENCH
# (binary path) and -DOUT (report path).
# Optional -DEXTRA_ENV=VAR=value adds one more environment setting (the
# state-scaling check caps its channel sweep this way).
# Optional -DTRACE_OUT=path also sets HBH_TRACE_OUT and schema-checks the
# resulting Perfetto trace (hbh.trace/v1).
set(trace_env "")
if(TRACE_OUT)
  set(trace_env "HBH_TRACE_OUT=${TRACE_OUT}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env HBH_TRIALS=2 "HBH_REPORT=${OUT}"
    ${trace_env} ${EXTRA_ENV} ${BENCH}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE bench_stdout
  ERROR_VARIABLE bench_stderr)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench exited with ${rc}:\n${bench_stdout}\n${bench_stderr}")
endif()

if(NOT EXISTS "${OUT}")
  message(FATAL_ERROR "HBH_REPORT=${OUT} was not written")
endif()
file(READ "${OUT}" doc)

foreach(needle
    "\"schema\"" "hbh.run_report/v3" "\"sweep\"" "\"runs\"" "\"HBH\""
    "\"counters\"" "\"net.tx.tree\"" "\"net.tx_bytes.tree\"" "\"gauges\""
    "\"series\"" "\"state.forwarding_entries\""
    "\"p50\"" "\"p95\"" "\"p99\"" "\"trace\"" "hbh.trace/v1"
    "\"convergence\"" "\"grafts\"" "\"mean_join_to_first_delivery\""
    "\"perf_profile\"" "hbh.perf_profile/v4" "\"phases\"" "\"trial_setup\""
    "\"wall_ns\"" "\"peak_rss_bytes\""
    "\"wall_seconds\"")
  string(FIND "${doc}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "report ${OUT} is missing ${needle}")
  endif()
endforeach()

# hbh.perf_profile/v3 dropped per-phase thread-CPU time, v4 dropped the
# per-phase allocation counters and the alloc_counting flag, and
# hbh.run_report/v3 dropped the message summary (the per-type counts are
# the registry's net.tx.* / net.tx_bytes.* counters); no writer may emit
# any of them again.
foreach(gone "\"cpu_ns\"" "\"allocs\"" "\"alloc_bytes\"" "\"alloc_counting\""
    "\"messages_dropped\"")
  string(FIND "${doc}" "${gone}" pos)
  if(NOT pos EQUAL -1)
    message(FATAL_ERROR "report ${OUT} still carries ${gone}")
  endif()
endforeach()

# Every report carries the forwarding-plane auditor's verdict (written by
# metrics::write_anomalies) — zeros included, so "no anomalies" is an
# assertion, not an absence.
foreach(needle
    "\"anomalies\"" "hbh.anomalies/v1" "\"by_protocol\"" "\"strict\""
    "\"loop\"" "\"duplicate-delivery\"" "\"black-hole\""
    "\"state-misplacement\"" "\"soft-state-leak\"" "\"tree-drift\"")
  string(FIND "${doc}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "report ${OUT} is missing anomaly needle ${needle}")
  endif()
endforeach()

if(CONGESTION)
  foreach(needle
      "\"congestion\"" "\"goodput_ratio\"" "\"queue_delay\""
      "\"queue_limit\"" "\"aqm\"" "\"branching\"" "\"non_branching\""
      "\"rp\"" "\"queued\"")
    string(FIND "${doc}" "${needle}" pos)
    if(pos EQUAL -1)
      message(FATAL_ERROR "report ${OUT} is missing congestion needle ${needle}")
    endif()
  endforeach()
endif()

message(STATUS "report OK: ${OUT}")

if(TRACE_OUT)
  if(NOT EXISTS "${TRACE_OUT}")
    message(FATAL_ERROR "HBH_TRACE_OUT=${TRACE_OUT} was not written")
  endif()
  file(READ "${TRACE_OUT}" trace_doc)
  foreach(needle
      "hbh.trace/v1" "\"traceEvents\"" "\"displayTimeUnit\""
      "\"process_name\"" "\"spans_recorded\"" "\"thread_name\""
      "\"ph\":\"X\"" "\"subscribe\"" "tx:tree")
    string(FIND "${trace_doc}" "${needle}" pos)
    if(pos EQUAL -1)
      message(FATAL_ERROR "trace ${TRACE_OUT} is missing ${needle}")
    endif()
  endforeach()
  message(STATUS "trace OK: ${TRACE_OUT}")
endif()
