# End-to-end check of `prcost batch`: feed a 104-request JSONL mix of
# valid, infeasible, unknown-name, malformed, fault-injection and
# over-deep lines and assert the contract - exit 0, exactly one well-formed JSON response
# per input line, in input order, with the documented stable error codes.
#
# Usage: cmake -DCLI=<prcost> -DWORK=<dir> -P batch_test.cmake

set(requests "${WORK}/batch_requests.jsonl")
set(responses "${WORK}/batch_responses.jsonl")

# Five request kinds, cycled to 100 lines. Every JSON line carries its
# index as "id" so the output-order assertion is direct.
set(body "")
foreach(i RANGE 0 99)
  math(EXPR kind "${i} % 5")
  if(kind EQUAL 0)
    string(APPEND body
      "{\"op\":\"plan\",\"device\":\"xc5vlx110t\",\"prm\":\"fir\",\"id\":${i}}\n")
  elseif(kind EQUAL 1)
    string(APPEND body "{\"op\":\"synth\",\"prm\":\"uart\",\"id\":${i}}\n")
  elseif(kind EQUAL 2)
    # matmul's DSP demand cannot fit the LX110T: structured "infeasible".
    string(APPEND body
      "{\"op\":\"plan\",\"device\":\"xc5vlx110t\",\"prm\":\"matmul\",\"id\":${i}}\n")
  elseif(kind EQUAL 3)
    string(APPEND body
      "{\"op\":\"plan\",\"device\":\"xc99\",\"prm\":\"fir\",\"id\":${i}}\n")
  else()
    string(APPEND body "not json at all (line ${i})\n")
  endif()
endforeach()
# Two fault-injection requests: a non-strict run that degrades gracefully
# (an ok envelope even though every transfer fails) and a strict run that
# must surface the stable "fault" error code.
string(APPEND body
  "{\"op\":\"faults\",\"device\":\"xc5vlx110t\",\"prms\":[\"fir\"],"
  "\"tasks\":10,\"fault_rate\":1.0,\"id\":100}\n")
string(APPEND body
  "{\"op\":\"faults\",\"device\":\"xc5vlx110t\",\"prms\":[\"fir\"],"
  "\"tasks\":10,\"fault_rate\":1.0,\"strict\":true,\"id\":101}\n")
# 100 000 nested arrays: past the parser's fixed depth bound the line is
# a "parse" error (not a stack overflow), and the next line still runs.
string(REPEAT "[" 100000 deep_open)
string(REPEAT "]" 100000 deep_close)
string(APPEND body "${deep_open}${deep_close}\n")
string(APPEND body "{\"op\":\"synth\",\"prm\":\"uart\",\"id\":103}\n")
file(WRITE "${requests}" "${body}")

execute_process(COMMAND ${CLI} batch "${requests}" -o "${responses}"
                --workers 4 RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "batch exited ${rc} (want 0): ${err}")
endif()
if(NOT err MATCHES "batch: 104 requests, 42 ok, 62 failed")
  message(FATAL_ERROR "unexpected tally on stderr: ${err}")
endif()

file(STRINGS "${responses}" lines)
list(LENGTH lines count)
if(NOT count EQUAL 104)
  message(FATAL_ERROR "want 104 response lines, got ${count}")
endif()

set(i 0)
foreach(line IN LISTS lines)
  if(NOT line MATCHES "^\\{.*\\}$")
    message(FATAL_ERROR "line ${i} is not a JSON object: ${line}")
  endif()
  if(NOT CMAKE_VERSION VERSION_LESS 3.19)
    string(JSON root_type ERROR_VARIABLE json_err TYPE "${line}")
    if(json_err OR NOT root_type STREQUAL "OBJECT")
      message(FATAL_ERROR "line ${i} is not well-formed JSON: ${line}")
    endif()
  endif()
  if(i EQUAL 100)
    # Non-strict fault run: dropped tasks are data, not an error.
    if(NOT line MATCHES "\"id\":100[,}]" OR NOT line MATCHES "\"result\":"
       OR NOT line MATCHES "\"dropped_tasks\":10")
      message(FATAL_ERROR "line ${i}: want graceful fault result: ${line}")
    endif()
    math(EXPR i "${i} + 1")
    continue()
  endif()
  if(i EQUAL 102)
    if(NOT line MATCHES "\"error\":\\{\"code\":\"parse\""
       OR NOT line MATCHES "nesting deeper than 256")
      message(FATAL_ERROR "line ${i}: want depth parse error: ${line}")
    endif()
    math(EXPR i "${i} + 1")
    continue()
  endif()
  if(i EQUAL 103)
    if(NOT line MATCHES "\"id\":103[,}]" OR NOT line MATCHES "\"result\":")
      message(FATAL_ERROR "line ${i}: want the line after the deep one: ${line}")
    endif()
    math(EXPR i "${i} + 1")
    continue()
  endif()
  if(i EQUAL 101)
    # Strict fault run: permanent failure surfaces the stable "fault" code.
    if(NOT line MATCHES "\"id\":101[,}]"
       OR NOT line MATCHES "\"error\":\\{\"code\":\"fault\"")
      message(FATAL_ERROR "line ${i}: want fault error code: ${line}")
    endif()
    math(EXPR i "${i} + 1")
    continue()
  endif()
  math(EXPR kind "${i} % 5")
  if(kind EQUAL 4)
    # Malformed input has no id to echo; it must map to code "parse".
    if(NOT line MATCHES "\"error\":\\{\"code\":\"parse\"")
      message(FATAL_ERROR "line ${i}: want parse error, got: ${line}")
    endif()
  else()
    # In-order: response line i echoes request id i.
    if(NOT line MATCHES "\"id\":${i}[,}]")
      message(FATAL_ERROR "line ${i}: id out of order: ${line}")
    endif()
    if(kind EQUAL 2)
      if(NOT line MATCHES "\"error\":\\{\"code\":\"infeasible\"")
        message(FATAL_ERROR "line ${i}: want infeasible, got: ${line}")
      endif()
    elseif(kind EQUAL 3)
      if(NOT line MATCHES "\"error\":\\{\"code\":\"not_found\"")
        message(FATAL_ERROR "line ${i}: want not_found, got: ${line}")
      endif()
    else()
      if(NOT line MATCHES "\"result\":")
        message(FATAL_ERROR "line ${i}: want a result envelope: ${line}")
      endif()
    endif()
  endif()
  math(EXPR i "${i} + 1")
endforeach()

message(STATUS "batch contract holds over 104 mixed requests")
