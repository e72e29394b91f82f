# One scripted example's printed scenario, run by ctest:
#
#   cmake -DEXAMPLE=<example binary> -DGOLDEN=<testdata/<name>.stdout>
#         -DWORK=<scratch dir> -P example_test.cmake
#
# Fails unless the example exits 0 and its stdout is byte-identical to
# GOLDEN. A change that moves an example's output on purpose recaptures the
# file: `./build/examples/<name> > examples/testdata/<name>.stdout`.
cmake_minimum_required(VERSION 3.16)

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
execute_process(COMMAND "${EXAMPLE}" WORKING_DIRECTORY "${WORK}"
                RESULT_VARIABLE rc OUTPUT_FILE "${WORK}/stdout"
                ERROR_VARIABLE stderr)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "${EXAMPLE}: exit ${rc}\n${stderr}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${WORK}/stdout"
                        "${GOLDEN}"
                RESULT_VARIABLE differ)
if(differ)
  file(READ "${WORK}/stdout" got)
  message(FATAL_ERROR "${EXAMPLE}: stdout differs from ${GOLDEN}\n"
          "--- got\n${got}")
endif()
