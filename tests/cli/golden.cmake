# Golden-output test, run as:
#   cmake -DSIM=<cac_sim> -DTRACEGEN=<cac_tracegen> -DGOLDEN=<dir>
#         -DWORK=<scratch dir> -P golden.cmake
#
# The fixed-seed comparison tables are part of the contract: a miss
# ratio, IPC or cycle count that moves (not just a crash) fails here.
# The swim table is checked both loaded and streamed, since chunked
# replay must be invisible in every column, CPU rows included.
# Regenerate tests/golden/ only on an intentional simulator change.

foreach(var SIM TRACEGEN GOLDEN WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "pass -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

function(run_to out_file)
  execute_process(COMMAND ${ARGN}
                  WORKING_DIRECTORY ${WORK}
                  RESULT_VARIABLE rc
                  OUTPUT_FILE ${out_file}
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "'${ARGN}' failed (${rc}): ${err}")
  endif()
endfunction()

function(expect_same golden got)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          ${golden} ${got}
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    file(READ ${got} text)
    message(FATAL_ERROR "${got} differs from ${golden}:\n${text}")
  endif()
endfunction()

# 1. Single-core comparison over the swim proxy (cache, 2lvl and cpu
#    rows), loaded and streamed. The trace path is the CSV's workload
#    column, so it is given relative to ${WORK}.
run_to(${WORK}/tracegen.log ${TRACEGEN} --proxy swim --instructions 200000
       --out swim.trc)
run_to(${WORK}/loaded.csv ${SIM} --trace swim.trc --compare --csv)
expect_same(${GOLDEN}/compare_swim.csv ${WORK}/loaded.csv)
run_to(${WORK}/streamed.csv ${SIM} --trace swim.trc --compare --csv --stream)
expect_same(${GOLDEN}/compare_swim.csv ${WORK}/streamed.csv)

# 2. Two-core system (private L1s, shared L2) over a swim+tomcatv mix.
run_to(${WORK}/mc.csv ${SIM} --scenario mix:swim+tomcatv@q=50k --compare
       --cores 2 --csv --threads 1)
expect_same(${GOLDEN}/mc_swim_tomcatv.csv ${WORK}/mc.csv)

file(REMOVE_RECURSE ${WORK})
message(STATUS "golden comparison tables: all match")
