# Out-of-range knobs and stray arguments of the front ends that read their
# own flags, run by ctest:
#
#   cmake -DPROGRAM=<binary> -DCASE=<program name> -DWORK=<scratch dir>
#         -P knob_exits2_test.cmake
#
# Each entry passes its knob before the program's cheap defaults (flags are
# first-occurrence-wins) and fails unless the program exits 2 and prints the
# wanted message; a stray argument (no program takes a positional one) is
# one more entry. The exit code is checked first: an aborting program also
# names the broken rule. A run past the timeout fails too (a knob that is
# accepted out of range can run for hours). Then the bounds themselves must
# run.
cmake_minimum_required(VERSION 3.16)

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

if(CASE STREQUAL "churn_resilience")
  set(defaults --minutes=1)
  set(cases
      "--minutes=-1@out-of-range knob: need horizon > 0"
      "--churn=-1@out-of-range knob: need churn.events_per_min >= 0"
      "extra@unknown flag extra")
  set(bounds --churn=0)
elseif(CASE STREQUAL "bench_obs_overhead")
  set(defaults --scale=0.03 --minutes=1 --repeats=1)
  set(cases
      "--minutes=-1@out-of-range knob: need horizon > 0"
      "--trace-sample=-1@--trace-sample=-1 is out of range"
      "--trace-sample=0@--trace-sample=0 is out of range"
      "--trace-sample=4294967296@--trace-sample=4294967296 is out of range"
      "--repeats=0@--repeats=0 is out of range"
      "--scale=1e15@--scale=1e15 is out of range"
      "--scale=1e20@--scale=1e20 is out of range"
      "extra@unknown flag extra")
  set(bounds --trace-sample=4294967295)
elseif(CASE STREQUAL "content_retrieval")
  set(defaults)
  set(cases
      "--requests=4294967297@--requests=4294967297 is out of range"
      "--requests=-5@--requests=-5 is out of range")
  set(bounds --requests=1)
elseif(CASE STREQUAL "quickstart")
  set(defaults)
  set(cases
      "--peers=0@--peers=0 is out of range"
      "--peers=-1@--peers=-1 is out of range")
  set(bounds --peers=1)
elseif(CASE STREQUAL "media_streaming")
  # The scenario takes no flags at all.
  set(defaults)
  set(cases
      "--seed=3@unknown flag --seed"
      "extra@unknown flag extra")
  set(bounds)
else()
  message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()

foreach(entry IN LISTS cases)
  string(REPLACE "@" ";" entry "${entry}")
  list(GET entry 0 knob)
  list(GET entry 1 want)
  execute_process(COMMAND "${PROGRAM}" ${knob} ${defaults}
                  WORKING_DIRECTORY "${WORK}" TIMEOUT 60 RESULT_VARIABLE rc
                  OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "${CASE} ${knob}: exit ${rc}, want 2\n"
            "${stdout}${stderr}")
  endif()
  string(FIND "${stdout}${stderr}" "${want}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${CASE} ${knob}: no '${want}' message\n"
            "${stdout}${stderr}")
  endif()
endforeach()

execute_process(COMMAND "${PROGRAM}" ${bounds} ${defaults}
                WORKING_DIRECTORY "${WORK}" RESULT_VARIABLE rc
                OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "${CASE} ${bounds}: exit ${rc}, want 0\n"
          "${stdout}${stderr}")
endif()
