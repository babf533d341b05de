# Runs a figure bench with HBH_REPORT set and asserts the JSON artifact
# carries the report's load-bearing sections. Invoked by the
# bench_report_e2e ctest case (see bench/CMakeLists.txt); expects -DBENCH
# (binary path) and -DOUT (report path).
# Optional -DEXTRA_ENV=VAR=value adds one more environment setting (the
# state-scaling check caps its channel sweep this way).
# Optional -DTRACE_OUT=path also sets HBH_TRACE_OUT and schema-checks the
# resulting Perfetto trace (hbh.trace/v1).
# Optional -DGROUP_SIZES=a,b,... and -DAXIS=name assert that the report's
# "spec" names the run the bench made: those group sizes, and a non-empty
# array for the bench's own x-axis (e.g. an ablation's loss rates).
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

# The spec is the run the bench made: the trials asked for above, and the
# group sizes and x-axis it swept.
string(JSON trials ERROR_VARIABLE err GET "${doc}" spec trials)
if(err OR NOT trials EQUAL 2)
  message(FATAL_ERROR "report ${OUT} spec.trials is '${trials}', not 2 ${err}")
endif()
if(GROUP_SIZES)
  set(sizes "")
  string(JSON count ERROR_VARIABLE err LENGTH "${doc}" spec group_sizes)
  if(NOT err AND count GREATER 0)
    math(EXPR last "${count} - 1")
    foreach(i RANGE ${last})
      string(JSON size GET "${doc}" spec group_sizes ${i})
      list(APPEND sizes ${size})
    endforeach()
  endif()
  string(REPLACE ";" "," sizes "${sizes}")
  if(NOT sizes STREQUAL GROUP_SIZES)
    message(FATAL_ERROR
      "report ${OUT} spec.group_sizes is '${sizes}', not ${GROUP_SIZES}")
  endif()
endif()
if(AXIS)
  string(JSON count ERROR_VARIABLE err LENGTH "${doc}" spec ${AXIS})
  if(err OR NOT count GREATER 0)
    message(FATAL_ERROR "report ${OUT} spec lacks the ${AXIS} axis")
  endif()
endif()

if(CONGESTION)
  # The observed cell is a congested one: its registry counts queue drops.
  string(JSON runs ERROR_VARIABLE err GET "${doc}" runs)
  string(FIND "${runs}" "\"net.drops.queue-full\"" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "report ${OUT} runs carry no net.drops.queue-full")
  endif()
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
