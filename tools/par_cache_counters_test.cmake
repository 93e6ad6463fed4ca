# Deterministic PAR-memo counters: one batch process sends three
# cross-checked plans twice, on one worker. The first pass runs PAR three
# times; the second answers all three from the memo, with the same `par`
# objects byte for byte.
#
# Usage: cmake -DCLI=<prcost> -DWORK=<dir> -P par_cache_counters_test.cmake
set(REQUESTS ${WORK}/par_cache_counters.jsonl)
set(METRICS ${WORK}/par_cache_counters_metrics.json)
set(pass "")
foreach(pair "xc5vlx110t fir" "xc6vlx75t sdram" "xc7k325t uart")
  separate_arguments(pair)
  list(GET pair 0 device)
  list(GET pair 1 prm)
  string(APPEND pass
         "{\"op\":\"plan\",\"device\":\"${device}\",\"prm\":\"${prm}\"}\n")
endforeach()
file(WRITE ${REQUESTS} "${pass}${pass}")

execute_process(COMMAND ${CLI} batch ${REQUESTS} --workers 1
                        --metrics-out ${METRICS}
                OUTPUT_VARIABLE out ERROR_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "batch failed (exit ${rc})")
endif()

file(READ ${METRICS} metrics)
string(JSON par_runs GET ${metrics} counters par.runs)
string(JSON par_hits GET ${metrics} counters par_cache.hits)
if(NOT par_runs EQUAL 3 OR NOT par_hits EQUAL 3)
  message(FATAL_ERROR "want par.runs 3 and par_cache.hits 3, got "
                      "${par_runs} and ${par_hits}")
endif()

string(REGEX MATCHALL "\"par\":{[^}]*}" checks "${out}")
list(LENGTH checks count)
if(NOT count EQUAL 6)
  message(FATAL_ERROR "want 6 par objects, got ${count}:\n${out}")
endif()
foreach(i RANGE 2)
  math(EXPR j "${i} + 3")
  list(GET checks ${i} first)
  list(GET checks ${j} second)
  if(NOT first STREQUAL second)
    message(FATAL_ERROR "pass 2 differs from pass 1:\n${first}\n${second}")
  endif()
endforeach()
message(STATUS "par.runs ${par_runs}, par_cache.hits ${par_hits}")
