# Command-line contract of bench_scaling_curve, run by ctest:
#
#   cmake -DSCALING=<bench_scaling_curve binary> -DCASE=<case>
#         -DWORK=<work dir> -P scaling_cli_test.cmake
#
# Cases:
#   BadPopulationExits2  a --ns entry that is not an integer in 1..2^32-1
#                        prints the rule and the usage and exits 2
#   BadKnobExits2        a knob GridConfig::validate() rejects prints the
#                        broken rule and the usage and exits 2 before any
#                        cell runs; a --minutes past 10^9 exits 2 naming
#                        its range
#   UnknownFlagExits2    an unknown flag or a stray argument exits 2
#   SmallCellRuns        one small cell runs and prints its row
cmake_minimum_required(VERSION 3.16)

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# Runs the bench in WORK with the remaining arguments, fails unless it exits
# with `want` and its stdout contains `expect`, and leaves stdout in `out`.
function(run_scaling want expect)
  execute_process(COMMAND "${SCALING}" ${ARGN} WORKING_DIRECTORY "${WORK}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE stdout
                  ERROR_VARIABLE stderr)
  if(NOT rc STREQUAL want)
    message(FATAL_ERROR
            "bench_scaling_curve ${ARGN}: exit ${rc}, want ${want}\n"
            "${stdout}\n${stderr}")
  endif()
  string(FIND "${stdout}" "${expect}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
            "bench_scaling_curve ${ARGN}: stdout lacks '${expect}'\n${stdout}")
  endif()
  set(out "${stdout}" PARENT_SCOPE)
endfunction()

if(CASE STREQUAL "BadPopulationExits2")
  foreach(ns abc -5 0 4294967296 1e5 10000,abc 10000, "")
    run_scaling(2 "need an integer in 1..4294967295" "--ns=${ns}")
    string(FIND "${out}" "--ns=N1,N2" usage)
    if(usage EQUAL -1)
      message(FATAL_ERROR "--ns=${ns}: no usage printed\n${out}")
    endif()
  endforeach()
elseif(CASE STREQUAL "BadKnobExits2")
  run_scaling(2 "need horizon > 0" --ns=300 --minutes=-1)
  run_scaling(2 "need churn.events_per_min >= 0" --ns=300 --churn=-5)
  run_scaling(2 "need requests.rate_per_min >= 0" --ns=300 --rate=-1)
  string(FIND "${out}" "Scaling curve" banner)
  if(NOT banner EQUAL -1)
    message(FATAL_ERROR "a rejected knob still ran the sweep\n${out}")
  endif()
  # A horizon past 10^9 minutes is rejected, naming the flag and its range,
  # before it converts to simulated time (where it would be undefined).
  execute_process(COMMAND "${SCALING}" --ns=300 --minutes=1e15
                  WORKING_DIRECTORY "${WORK}" RESULT_VARIABLE rc
                  OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
  if(NOT rc STREQUAL "2" OR
     NOT stderr MATCHES "--minutes=1e15 is out of range.*<-1e\\+09\\.\\.1e\\+09>")
    message(FATAL_ERROR "--minutes=1e15: exit ${rc}, want 2 and the range\n"
            "${stdout}${stderr}")
  endif()
elseif(CASE STREQUAL "UnknownFlagExits2")
  foreach(stray --bogus=1 extra)
    execute_process(COMMAND "${SCALING}" --ns=300 ${stray}
                    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
    if(NOT rc STREQUAL "2")
      message(FATAL_ERROR "${stray}: exit ${rc}, want 2")
    endif()
  endforeach()
elseif(CASE STREQUAL "SmallCellRuns")
  run_scaling(0 "N=300 " --ns=300 --minutes=1)
else()
  message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()
