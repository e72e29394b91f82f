# Command-line contract of the paper driver, run by ctest:
#
#   cmake -DPAPER=<paper binary> -DCASE=<case> -DWORK=<scratch dir>
#         -P paper_cli_test.cmake
#
# Cases:
#   ThreadCountInvariant  four cheap studies print byte-identical stdout and
#                         write a byte-identical sidecar at --threads=1 and 4
#   UnknownNameExits2     an unknown study name or flag exits 2
#   UnwritableSidecarFails  a --metrics-out file that cannot be opened
#                         exits 2; one that cannot be written exits 1
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
elseif(CASE STREQUAL "UnwritableSidecarFails")
  # A regular file where the sidecar's directory should be.
  file(WRITE "${WORK}/blocker" "")
  run_paper("${WORK}" 2 --scale=0.03 --only=overlay
            --metrics-out=${WORK}/blocker/paper_metrics.json)
  if(EXISTS /dev/full)
    run_paper("${WORK}" 1 --scale=0.03 --only=overlay --metrics-out=/dev/full)
  endif()
else()
  message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()
