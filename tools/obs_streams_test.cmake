# Observability stream routing: "-" for --metrics-out / --trace-out /
# --trace-folded means stderr, never stdout, so piping the result JSON of
# a batch (or the report of a plan) stays clean while artifacts flow to a
# separate descriptor.
#
# Usage: cmake -DCLI=<prcost> -DWORK=<dir> -P obs_streams_test.cmake

function(expect_rc rc want label)
  if(NOT rc EQUAL ${want})
    message(FATAL_ERROR "${label}: exited ${rc}, want ${want}")
  endif()
endfunction()

# --metrics-out -: the JSON artifact goes to stderr; stdout keeps the human
# report (including the "=== metrics ===" summary table).
execute_process(COMMAND ${CLI} plan fir --device xc5vlx110t --metrics-out -
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
expect_rc(${rc} 0 "plan --metrics-out -")
if(out MATCHES "\"counters\"")
  message(FATAL_ERROR "metrics JSON leaked to stdout")
endif()
if(NOT err MATCHES "\"counters\"")
  message(FATAL_ERROR "metrics JSON missing from stderr: ${err}")
endif()
if(NOT out MATCHES "=== metrics ===")
  message(FATAL_ERROR "metrics summary table missing from stdout")
endif()

# --trace-out -: Chrome trace JSON on stderr only.
execute_process(COMMAND ${CLI} plan fir --device xc5vlx110t --trace-out -
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
expect_rc(${rc} 0 "plan --trace-out -")
if(out MATCHES "traceEvents")
  message(FATAL_ERROR "trace JSON leaked to stdout")
endif()
if(NOT err MATCHES "traceEvents")
  message(FATAL_ERROR "trace JSON missing from stderr: ${err}")
endif()

# --trace-folded -: folded stacks ("name;child self_ns") on stderr only.
execute_process(COMMAND ${CLI} plan fir --device xc5vlx110t --trace-folded -
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
expect_rc(${rc} 0 "plan --trace-folded -")
if(NOT err MATCHES "prr_search")
  message(FATAL_ERROR "folded stacks missing from stderr: ${err}")
endif()
if(out MATCHES ";prr_search")
  message(FATAL_ERROR "folded stacks leaked to stdout")
endif()

# No stray file literally named "-" may appear.
if(EXISTS "${WORK}/-")
  message(FATAL_ERROR "a file named '-' was created")
endif()

# Batch with --stats: every result line carries a stats block whose cache
# sub-object has the plan-cache fields; without the flag the output is
# stats-free (byte-identity with the pre-telemetry wire format).
file(WRITE ${WORK}/obs_streams_batch.jsonl
  "{\"op\":\"plan\",\"device\":\"xc5vlx110t\",\"prm\":\"fir\"}\n")
execute_process(COMMAND ${CLI} batch ${WORK}/obs_streams_batch.jsonl --stats
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_QUIET)
expect_rc(${rc} 0 "batch --stats")
if(NOT out MATCHES "\"stats\":{\"wall_ms\"" OR NOT out MATCHES "plan_hits")
  message(FATAL_ERROR "batch --stats: stats block missing: ${out}")
endif()
execute_process(COMMAND ${CLI} batch ${WORK}/obs_streams_batch.jsonl
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_QUIET)
expect_rc(${rc} 0 "batch without --stats")
if(out MATCHES "stats")
  message(FATAL_ERROR "stats leaked into stats-off batch output: ${out}")
endif()

# Batch with an obs flag: the end-of-run summary goes to stderr, so stdout
# stays one JSON object per line.
execute_process(COMMAND ${CLI} batch ${WORK}/obs_streams_batch.jsonl
                --metrics-out ${WORK}/obs_streams_metrics.json
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
expect_rc(${rc} 0 "batch --metrics-out <file>")
if(out MATCHES "=== metrics ===")
  message(FATAL_ERROR "batch metrics summary leaked to stdout: ${out}")
endif()
if(NOT err MATCHES "=== metrics ===")
  message(FATAL_ERROR "batch metrics summary missing from stderr: ${err}")
endif()
string(STRIP "${out}" out)
string(REPLACE "\n" ";" out_lines "${out}")
foreach(line IN LISTS out_lines)
  if(NOT line MATCHES "^\\{.*\\}$")
    message(FATAL_ERROR "batch stdout line is not a JSON object: ${line}")
  endif()
  if(NOT CMAKE_VERSION VERSION_LESS 3.19)
    string(JSON root_type ERROR_VARIABLE json_err TYPE "${line}")
    if(json_err OR NOT root_type STREQUAL "OBJECT")
      message(FATAL_ERROR "batch stdout line is not JSON: ${line}")
    endif()
  endif()
endforeach()

message(STATUS "observability stream routing holds")
