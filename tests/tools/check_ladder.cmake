# Gate test for tools/check_ladder.py, run as:
#   cmake -DPYTHON=<python3> -DCHECK=<check_ladder.py> -P check_ladder.cmake
#
# Feeds the checker canned perfbench result lines: a passing line must
# exit 0; a line failing either gate, or missing a metric a gate
# needs, must exit non-zero and name the gate. A plain CMake script so
# the check needs no extra test dependency.

foreach(var PYTHON CHECK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "pass -D${var}=...")
  endif()
endforeach()

# Runs the checker on one line: want_rc is "pass" or "fail", want_out a
# regex its stdout/stderr must match.
function(check_line label line want_rc want_out)
  set(input "${CMAKE_CURRENT_BINARY_DIR}/check_ladder_${label}.json")
  file(WRITE "${input}" "perfbench report text\n${line}\n")
  execute_process(COMMAND ${PYTHON} ${CHECK} INPUT_FILE "${input}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  file(REMOVE "${input}")
  if(want_rc STREQUAL "pass" AND NOT rc EQUAL 0)
    message(FATAL_ERROR "${label}: expected a pass, got ${rc}: ${out}${err}")
  endif()
  if(want_rc STREQUAL "fail" AND rc EQUAL 0)
    message(FATAL_ERROR "${label}: expected a failure, got 0: ${out}${err}")
  endif()
  if(NOT "${out}${err}" MATCHES "${want_out}")
    message(FATAL_ERROR "${label}: output does not match '${want_out}': ${out}${err}")
  endif()
endfunction()

# A line shaped like run.py's last line, with the four gated metrics.
function(ladder_line out read noverify hit compute)
  set(${out} "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"trace.read_ns\": {\"value\": ${read}, \"unit\": \"ns\"}, \"trace.read_noverify_ns\": {\"value\": ${noverify}, \"unit\": \"ns\"}, \"serve.hit_us\": {\"value\": ${hit}, \"unit\": \"us\"}, \"serve.compute_ms\": {\"value\": ${compute}, \"unit\": \"ms\"}}}" PARENT_SCOPE)
endfunction()

# 1. Clean-run figures: verify 1.4x, memo hit ~200x cheaper.
ladder_line(line 9.8 7.0 40 8.0)
check_line(pass "${line}" pass "ok integrity.*ok memo")

# 2. Each gate failing on its own: verify at 3x (the portable CRC
#    path), and a memo hit that recomputes (hit as slow as a compute).
ladder_line(line 21.0 7.0 40 8.0)
check_line(integrity "${line}" fail "FAIL integrity")
ladder_line(line 9.8 7.0 8000 8.0)
check_line(memo "${line}" fail "FAIL memo")

# 3. A metric each gate needs, missing from the line.
ladder_line(line 9.8 7.0 40 8.0)
string(REPLACE "\"trace.read_noverify_ns\"" "\"trace.read_noverify\""
       line "${line}")
check_line(missing_noverify "${line}" fail "FAIL integrity: missing trace.read_noverify_ns")
ladder_line(line 9.8 7.0 40 8.0)
string(REPLACE "\"serve.compute_ms\"" "\"serve.cold_ms\"" line "${line}")
check_line(missing_compute "${line}" fail "FAIL memo: missing serve.compute_ms")

# 4. Not a result line at all.
check_line(garbage "perfbench: build step failed" fail "not a perfbench result line")
