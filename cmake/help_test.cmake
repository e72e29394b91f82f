# `--help` of a program whose usage util::reject_unknown_flags prints, run by
# ctest:
#
#   cmake -DPROGRAM=<binary> -DWORK=<scratch dir> -P help_test.cmake
#
# Fails unless the program exits 0 and prints its usage and nothing else: a
# `usage:` line and the recognized flags, and no line of a run (no scenario
# line, no `===` header).
cmake_minimum_required(VERSION 3.16)

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
execute_process(COMMAND "${PROGRAM}" --help WORKING_DIRECTORY "${WORK}"
                TIMEOUT 60 RESULT_VARIABLE rc OUTPUT_VARIABLE stdout
                ERROR_VARIABLE stderr)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "${PROGRAM} --help: exit ${rc}, want 0\n"
          "${stdout}${stderr}")
endif()
if(NOT stdout MATCHES "^usage: [^\n]*\nrecognized flags:[^\n]*\n$")
  message(FATAL_ERROR "${PROGRAM} --help printed more than its usage\n"
          "${stdout}")
endif()
