# Warm-start smoke: a --cache-dir run must produce byte-identical output
# cold (empty dir), warm (snapshots present), and after snapshot
# corruption (clean cold start, snapshots rewritten).
set(CACHE_DIR ${WORK}/warm_start_cache)
file(REMOVE_RECURSE ${CACHE_DIR})

# Cold run: populates the snapshots.
execute_process(COMMAND ${CLI} plan fir --device xc5vlx110t
                        --cache-dir ${CACHE_DIR}
                OUTPUT_VARIABLE cold RESULT_VARIABLE r1)
if(NOT r1 EQUAL 0)
  message(FATAL_ERROR "cold --cache-dir plan failed")
endif()
if(NOT EXISTS ${CACHE_DIR}/plan_cache.snap)
  message(FATAL_ERROR "plan cache snapshot was not written")
endif()
if(NOT EXISTS ${CACHE_DIR}/bitstream_cache.snap)
  message(FATAL_ERROR "bitstream cache snapshot was not written")
endif()
if(NOT EXISTS ${CACHE_DIR}/par_cache.snap)
  message(FATAL_ERROR "PAR cache snapshot was not written")
endif()

# Warm run: loads the snapshots; output must be byte-identical.
execute_process(COMMAND ${CLI} plan fir --device xc5vlx110t
                        --cache-dir ${CACHE_DIR}
                OUTPUT_VARIABLE warm RESULT_VARIABLE r2)
if(NOT r2 EQUAL 0)
  message(FATAL_ERROR "warm --cache-dir plan failed")
endif()
if(NOT cold STREQUAL warm)
  message(FATAL_ERROR "warm output differs from cold output")
endif()

# A warm plan answers its PAR cross-check from the snapshot: no PAR runs.
set(METRICS ${WORK}/warm_start_metrics.json)
execute_process(COMMAND ${CLI} plan fir --device xc5vlx110t
                        --cache-dir ${CACHE_DIR} --metrics-out ${METRICS}
                OUTPUT_QUIET RESULT_VARIABLE r_par)
if(NOT r_par EQUAL 0)
  message(FATAL_ERROR "warm --cache-dir plan with --metrics-out failed")
endif()
file(READ ${METRICS} metrics)
# A counter never bumped is absent from the registry dump.
string(JSON par_runs ERROR_VARIABLE no_runs GET ${metrics} counters par.runs)
string(JSON par_hits GET ${metrics} counters par_cache.hits)
if(no_runs STREQUAL "NOTFOUND" OR NOT par_hits EQUAL 1)
  message(FATAL_ERROR "warm plan ran PAR (par.runs ${par_runs}, "
                      "par_cache.hits ${par_hits})")
endif()

# Bitstream path, same contract.
execute_process(COMMAND ${CLI} bitstream uart --device xc5vlx110t
                        --cache-dir ${CACHE_DIR}
                OUTPUT_VARIABLE bits_cold RESULT_VARIABLE r3)
execute_process(COMMAND ${CLI} bitstream uart --device xc5vlx110t
                        --cache-dir ${CACHE_DIR}
                OUTPUT_VARIABLE bits_warm RESULT_VARIABLE r4)
if(NOT r3 EQUAL 0 OR NOT r4 EQUAL 0)
  message(FATAL_ERROR "--cache-dir bitstream run failed")
endif()
if(NOT bits_cold STREQUAL bits_warm)
  message(FATAL_ERROR "warm bitstream output differs from cold output")
endif()

# Corrupt both snapshots: the run must cold-start cleanly and still give
# byte-identical output (and exit 0).
file(WRITE ${CACHE_DIR}/plan_cache.snap "garbage, not a snapshot")
file(WRITE ${CACHE_DIR}/bitstream_cache.snap "PRCS truncated")
execute_process(COMMAND ${CLI} plan fir --device xc5vlx110t
                        --cache-dir ${CACHE_DIR}
                OUTPUT_VARIABLE recovered RESULT_VARIABLE r5)
if(NOT r5 EQUAL 0)
  message(FATAL_ERROR "corrupt snapshots must cold-start, not fail")
endif()
if(NOT cold STREQUAL recovered)
  message(FATAL_ERROR "post-corruption output differs from cold output")
endif()
