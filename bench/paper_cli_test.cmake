# Command-line contract of the paper driver, run by ctest:
#
#   cmake -DPAPER=<paper binary> -DCASE=<case> -DWORK=<scratch dir>
#         -P paper_cli_test.cmake
#
# Cases:
#   ThreadCountInvariant  four cheap studies print byte-identical stdout and
#                         write a byte-identical sidecar at --threads=1 and 4
#   UnknownNameExits2     an unknown study name or flag, or a stray
#                         argument, exits 2
#   UnwritableSidecarFails  a --metrics-out file that cannot be opened
#                         exits 2; one that cannot be written exits 1
#   BadKnobExits2         --scale <= 0 or past a PeerId's population and
#                         --threads outside 0..1024 exit 2 with the range,
#                         before any study runs
cmake_minimum_required(VERSION 3.16)

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# Runs the driver in `dir` with the remaining arguments, fails unless it
# exits with `want`, and leaves its stdout in `out`.
function(run_paper dir want)
  execute_process(COMMAND "${PAPER}" ${ARGN} WORKING_DIRECTORY "${dir}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE stdout
                  ERROR_VARIABLE stderr)
  if(NOT rc STREQUAL want)
    message(FATAL_ERROR "paper ${ARGN}: exit ${rc}, want ${want}\n${stderr}")
  endif()
  set(out "${stdout}" PARENT_SCOPE)
endfunction()

if(CASE STREQUAL "ThreadCountInvariant")
  foreach(threads 1 4)
    file(MAKE_DIRECTORY "${WORK}/t${threads}")
    run_paper("${WORK}/t${threads}" 0 --scale=0.03
              --only=fig7,overlay,recovery,uptime --threads=${threads}
              --metrics-out=paper_metrics.json)
    file(WRITE "${WORK}/t${threads}/stdout.txt" "${out}")
  endforeach()
  foreach(f stdout.txt paper_metrics.json)
    execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                    "${WORK}/t1/${f}" "${WORK}/t4/${f}" RESULT_VARIABLE differ)
    if(differ)
      message(FATAL_ERROR "${f} differs between --threads=1 and --threads=4")
    endif()
  endforeach()
elseif(CASE STREQUAL "UnknownNameExits2")
  run_paper("${WORK}" 2 --only=nope)
  run_paper("${WORK}" 2 --only=fig7,nope)
  run_paper("${WORK}" 2 --only=overlay --minutes=5)
  run_paper("${WORK}" 2 --only=overlay extra)
elseif(CASE STREQUAL "UnwritableSidecarFails")
  # A regular file where the sidecar's directory should be.
  file(WRITE "${WORK}/blocker" "")
  run_paper("${WORK}" 2 --scale=0.03 --only=overlay
            --metrics-out=${WORK}/blocker/paper_metrics.json)
  if(EXISTS /dev/full)
    run_paper("${WORK}" 1 --scale=0.03 --only=overlay --metrics-out=/dev/full)
  endif()
elseif(CASE STREQUAL "BadKnobExits2")
  # Each entry: the knob, '@', and the message wanted. The scale entries
  # come first, so a parser that accepts bad values fails the case before
  # --threads=1025 could start a thread.
  set(cases
      "--scale=0@--scale=0 is out of range"
      "--scale=-1@--scale=-1 is out of range"
      "--scale=1e15@--scale=1e15 is out of range"
      "--scale=1e20@--scale=1e20 is out of range"
      "--threads=-1@--threads=-1 is out of range.*<0\\.\\.1024>"
      "--threads=1025@--threads=1025 is out of range.*<0\\.\\.1024>")
  foreach(entry IN LISTS cases)
    string(REPLACE "@" ";" entry "${entry}")
    list(GET entry 0 knob)
    list(GET entry 1 want)
    execute_process(COMMAND "${PAPER}" ${knob} --only=overlay
                    WORKING_DIRECTORY "${WORK}" TIMEOUT 60 RESULT_VARIABLE rc
                    OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
    if(NOT rc STREQUAL "2")
      message(FATAL_ERROR "${knob}: exit ${rc}, want 2\n${stdout}${stderr}")
    endif()
    if(NOT stderr MATCHES "${want}")
      message(FATAL_ERROR "${knob}: no '${want}' message\n${stderr}")
    endif()
  endforeach()
else()
  message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()
