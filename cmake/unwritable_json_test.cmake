# A --json-out report written to a device that takes no byte (/dev/full)
# must exit 1 with 'cannot write' instead of reporting the file written.
# Run by ctest, where /dev/full exists:
#
#   cmake -DPROGRAM=<binary> -DARGS=<cheap run, ;-separated> -DWORK=<dir>
#         -P unwritable_json_test.cmake
cmake_minimum_required(VERSION 3.16)

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

if(EXISTS /dev/full)
  execute_process(COMMAND "${PROGRAM}" ${ARGS} --json-out=/dev/full
                  WORKING_DIRECTORY "${WORK}" RESULT_VARIABLE rc
                  OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
  if(NOT rc STREQUAL "1" OR NOT stderr MATCHES "cannot write --json-out file")
    message(FATAL_ERROR "${PROGRAM} --json-out=/dev/full: exit ${rc}, want 1 "
            "and 'cannot write'\n${stdout}${stderr}")
  endif()
endif()
