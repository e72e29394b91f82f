# Command-line contract of grid_cli, run by ctest:
#
#   cmake -DGRID_CLI=<grid_cli binary> -DCASE=<case> -DWORK=<scratch dir>
#         -DDATA=<examples/testdata> -P grid_cli_test.cmake
#
# Cases:
#   Golden                  two runs print the stdout and write the
#                           --metrics-out CSV committed under testdata/
#   ObsZeroPerturbation     --trace-out and --metrics-out leave the printed
#                           accounting unchanged
#   TraceMatchesFailureCounters  per cause, the terminal "fail" spans
#                           outside recovery equal the printed failures:
#                           line and, for the four set-up causes, the
#                           request.fail.<cause> metric (absent = 0)
#   SampledTraceIsSubset    every line of a 1-in-4 trace is a line of the
#                           full trace, and the printed accounting is the same
#   ObsArtifacts            a sampled, windowed run with the flight recorder
#                           writes the series CSV and flight JSONL committed
#                           under testdata/ and a trace of a pinned SHA-256
#   ProbeBudgetRange        --probe-budget outside 1..65535 exits 2 with a
#                           message naming the range; the bounds themselves run
#   KnobRanges              every other out-of-range knob exits 2 with the
#                           GridConfig::validate() rule it breaks (or, for an
#                           unsigned knob, an int knob past int or a time
#                           knob past 10^9 minutes, its range), and so does
#                           a numeric knob whose value is not wholly a
#                           number, a boolean knob whose value is not a
#                           boolean, an artifact flag whose recorder is off
#                           or that is given bare, without a file name, and
#                           a stray argument; the bounds themselves run
#   UnwritableOutputFails   each artifact written to /dev/full (the .csv
#                           metrics through a link to it) exits 1 with
#                           'cannot write', where /dev/full exists
cmake_minimum_required(VERSION 3.16)

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# The golden runs. The dht run reaches the index.*, fault.* and replica.*
# counts (a replica is created and some trips find no host); the directory
# run reaches load.* and the discovery cache.
set(DHT_RUN --peers=50 --rate=80 --minutes=3 --churn=6 --recovery
    --retries=1 --fault-loss=0.05 --replication --discovery=dht --seed=3)
set(DIRECTORY_RUN --peers=300 --rate=30 --minutes=20 --churn=6 --recovery
    --retries=1 --track-load --discovery-cache-ttl=120 --seed=11)
# A cheap run in which every failure cause occurs.
set(CAUSES_RUN --peers=100 --rate=100 --minutes=5 --churn=10 --recovery
    --retries=1 --fault-loss=0.05 --replication --seed=1)

# Runs grid_cli in WORK with the remaining arguments, fails unless it exits
# 0, and leaves its stdout in `out`.
function(run_cli)
  execute_process(COMMAND "${GRID_CLI}" ${ARGN} WORKING_DIRECTORY "${WORK}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE stdout
                  ERROR_VARIABLE stderr)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "grid_cli ${ARGN}: exit ${rc}\n${stderr}")
  endif()
  set(out "${stdout}" PARENT_SCOPE)
endfunction()

# Fails unless files `a` and `b` are byte-identical.
function(expect_same_file a b)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${a}" "${b}"
                  RESULT_VARIABLE differ)
  if(differ)
    message(FATAL_ERROR "${a} differs from ${b}")
  endif()
endfunction()

# The printed accounting of a grid_cli stdout: everything but the lines
# naming the files it wrote.
function(accounting text var)
  string(REGEX REPLACE "(trace|metrics) +-> [^\n]*\n" "" text "${text}")
  set(${var} "${text}" PARENT_SCOPE)
endfunction()

if(CASE STREQUAL "Golden")
  foreach(run dht directory)
    string(TOUPPER "${run}_RUN" args)
    run_cli(${${args}} --metrics-out=${run}.csv)
    file(WRITE "${WORK}/${run}.stdout" "${out}")
    expect_same_file("${WORK}/${run}.stdout" "${DATA}/grid_cli_${run}.stdout")
    expect_same_file("${WORK}/${run}.csv" "${DATA}/grid_cli_${run}.metrics.csv")
  endforeach()
elseif(CASE STREQUAL "ObsZeroPerturbation")
  foreach(args DHT_RUN CAUSES_RUN)
    run_cli(${${args}})
    set(plain "${out}")
    run_cli(${${args}} --trace-out=trace.jsonl --metrics-out=metrics.json)
    accounting("${out}" observed)
    if(NOT observed STREQUAL plain)
      message(FATAL_ERROR "${args}: observing changed the accounting\n"
              "--- plain\n${plain}--- observed\n${observed}")
    endif()
  endforeach()
elseif(CASE STREQUAL "TraceMatchesFailureCounters")
  run_cli(${CAUSES_RUN} --trace-out=trace.jsonl --metrics-out=metrics.csv)
  file(STRINGS "${WORK}/trace.jsonl" fails REGEX "\"status\":\"fail\"")
  list(FILTER fails EXCLUDE REGEX "\"phase\":\"recovery\"")
  file(READ "${WORK}/metrics.csv" metrics)
  foreach(cause discovery composition selection admission departure)
    set(spans "${fails}")
    list(FILTER spans INCLUDE REGEX "\"cause\":\"${cause}\"")
    list(LENGTH spans nspans)
    if(NOT out MATCHES "[ :] ${cause} +([0-9]+)\n")
      message(FATAL_ERROR "no printed failure count for ${cause}\n${out}")
    endif()
    set(printed ${CMAKE_MATCH_1})
    if(printed EQUAL 0)
      message(FATAL_ERROR "the run has no ${cause} failure to check")
    endif()
    if(NOT nspans EQUAL printed)
      message(FATAL_ERROR "${cause}: ${nspans} fail spans, ${printed} printed")
    endif()
    if(cause STREQUAL "departure")
      continue()
    endif()
    set(metric 0)
    if(metrics MATCHES "\ncounter,request\\.fail\\.${cause},value,([0-9]+)\n")
      set(metric ${CMAKE_MATCH_1})
    endif()
    if(NOT metric EQUAL printed)
      message(FATAL_ERROR
              "${cause}: request.fail.${cause} = ${metric}, ${printed} printed")
    endif()
  endforeach()
elseif(CASE STREQUAL "SampledTraceIsSubset")
  run_cli(${CAUSES_RUN} --trace-out=full.jsonl)
  accounting("${out}" full_accounting)
  run_cli(${CAUSES_RUN} --trace-out=sampled.jsonl --trace-sample=4)
  accounting("${out}" sampled_accounting)
  if(NOT sampled_accounting STREQUAL full_accounting)
    message(FATAL_ERROR "sampling changed the accounting\n"
            "--- full\n${full_accounting}--- sampled\n${sampled_accounting}")
  endif()
  # Searched as whole lines: each is matched between two newlines.
  file(READ "${WORK}/full.jsonl" full)
  set(full "\n${full}")
  file(STRINGS "${WORK}/full.jsonl" full_lines)
  file(STRINGS "${WORK}/sampled.jsonl" sampled_lines)
  list(LENGTH full_lines nfull)
  list(LENGTH sampled_lines nsampled)
  if(nsampled EQUAL 0 OR NOT nsampled LESS nfull)
    message(FATAL_ERROR "sampled trace has ${nsampled} of ${nfull} spans")
  endif()
  foreach(line IN LISTS sampled_lines)
    string(FIND "${full}" "\n${line}\n" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "sampled span not in the full trace: ${line}")
    endif()
  endforeach()
elseif(CASE STREQUAL "ObsArtifacts")
  run_cli(${DIRECTORY_RUN} --trace-sample=4 --flight-recorder=4
          --obs-window-ms=120000 --trace-out=trace.jsonl
          --series-out=series.csv --flight-out=flight.jsonl)
  expect_same_file("${WORK}/series.csv" "${DATA}/grid_cli_obs.series.csv")
  expect_same_file("${WORK}/flight.jsonl" "${DATA}/grid_cli_obs.flight.jsonl")
  # The 81 KB trace is pinned by its hash rather than committed.
  file(SHA256 "${WORK}/trace.jsonl" trace_sha)
  set(want_sha
      bb4aa2d9aefd5dd73e85f4e83537673a217f0478dbaed96388b3362047c7d8d6)
  if(NOT trace_sha STREQUAL want_sha)
    message(FATAL_ERROR "trace.jsonl SHA-256 ${trace_sha}, want ${want_sha}")
  endif()
elseif(CASE STREQUAL "ProbeBudgetRange")
  foreach(budget 0 -1 65536 none)
    execute_process(COMMAND "${GRID_CLI}" --peers=20 --minutes=1
                            --probe-budget=${budget}
                    WORKING_DIRECTORY "${WORK}" RESULT_VARIABLE rc
                    OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
    if(NOT rc STREQUAL "2")
      message(FATAL_ERROR "--probe-budget=${budget}: exit ${rc}, want 2\n"
              "${stdout}${stderr}")
    endif()
    if(NOT stderr MATCHES "--probe-budget=.*out of range.*<1\\.\\.65535>")
      message(FATAL_ERROR "--probe-budget=${budget}: no range message\n"
              "${stderr}")
    endif()
  endforeach()
  foreach(budget 1 65535)
    run_cli(--peers=20 --minutes=1 --probe-budget=${budget})
  endforeach()
elseif(CASE STREQUAL "KnobRanges")
  # Each entry: the knobs to pass, separated by '|', then '@' and the
  # message wanted. Flags are first-occurrence-wins, so the knobs go before
  # the defaults.
  set(cases
      "--peers=0@--peers=0 is out of range"
      "--peers=-1@--peers=-1 is out of range"
      "--rate=-5@need requests.rate_per_min >= 0"
      "--churn=-3@need churn.events_per_min >= 0"
      "--minutes=-1@need horizon > 0"
      "--minutes=1e15@--minutes=1e15 is out of range.*<-1e\\+09\\.\\.1e\\+09>"
      "--retries=-2@need admission_retries >= 0"
      "--retries=4294967296@--retries=4294967296 is out of range"
      "--bw-weight=2@need bandwidth_weight <= 1"
      "--fault-loss=1.5@need 0 <= faults.\\*_loss <= 1"
      "--fault-loss=-0.1@need 0 <= faults.\\*_loss <= 1"
      "--fault-retries=-1@need faults.max_retries >= 0"
      "--fault-retries=4294967296@--fault-retries=4294967296 is out of range"
      "--fault-delay-ms=9223372036854775807@--fault-delay-ms=9223372036854775807 is out of range"
      "--replication|--replica-threshold=-1@need replication.threshold > 0"
      "--replication|--max-replicas=-1@need replication.max_replicas >= 0"
      "--replication|--max-replicas=4294967296@--max-replicas=4294967296 is out of range"
      "--replication|--replica-cooldown=1e17@--replica-cooldown=1e17 is out of range"
      "--discovery-cache-ttl=1e17@--discovery-cache-ttl=1e17 is out of range"
      "--trace-sample=0@--trace-sample=0 is out of range"
      "--flight-recorder=-1@--flight-recorder=-1 is out of range"
      "--obs-window-ms=-5@need obs_window >= 0"
      "--seed=abc@--seed=abc is not a 64-bit integer"
      "--rate=30x@--rate=30x is not a finite number"
      "--recovery=ture@--recovery=ture is not a boolean"
      "--trace-out@--trace-out needs a value"
      "--flight-recorder=0|--flight-out=f.jsonl@conflicting knobs: --flight-out needs --flight-recorder >= 1"
      "--obs-window-ms=0|--series-out=s.csv@conflicting knobs: --series-out needs --obs-window-ms >= 1"
      "-seed=3@unknown flag -seed=3")
  foreach(entry IN LISTS cases)
    string(REPLACE "@" ";" entry "${entry}")
    list(GET entry 0 knobs)
    list(GET entry 1 want)
    string(REPLACE "|" ";" knobs "${knobs}")
    execute_process(COMMAND "${GRID_CLI}" ${knobs} --peers=20 --minutes=1
                    WORKING_DIRECTORY "${WORK}" RESULT_VARIABLE rc
                    OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
    if(NOT rc STREQUAL "2")
      message(FATAL_ERROR "${knobs}: exit ${rc}, want 2\n${stdout}${stderr}")
    endif()
    if(NOT "${stdout}${stderr}" MATCHES "${want}")
      message(FATAL_ERROR "${knobs}: no '${want}' message\n${stdout}${stderr}")
    endif()
  endforeach()
  run_cli(--peers=1 --minutes=0.5 --rate=0 --churn=0 --retries=0 --bw-weight=1
          --fault-loss=1 --fault-delay-ms=60000000000000 --fault-retries=0
          --trace-sample=1 --flight-recorder=0 --obs-window-ms=0)
elseif(CASE STREQUAL "UnwritableOutputFails")
  # A device that takes no byte: every artifact's write fails, and the run
  # must say so instead of reporting the file written. CAUSES_RUN fails
  # requests of every cause, so the trace and the flight recorder both
  # have lines to write.
  if(EXISTS /dev/full)
    file(CREATE_LINK /dev/full "${WORK}/full.csv" SYMBOLIC)
    foreach(out --trace-out=/dev/full --series-out=/dev/full
                --flight-out=/dev/full --metrics-out=/dev/full
                --metrics-out=full.csv)
      string(REGEX REPLACE "=.*" "" flag "${out}")
      execute_process(COMMAND "${GRID_CLI}" ${out} ${CAUSES_RUN}
                      WORKING_DIRECTORY "${WORK}" RESULT_VARIABLE rc
                      OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
      if(NOT rc STREQUAL "1" OR NOT stdout MATCHES "cannot write ${flag} file")
        message(FATAL_ERROR "${out}: exit ${rc}, want 1 and 'cannot write "
                "${flag} file'\n${stdout}${stderr}")
      endif()
    endforeach()
  endif()
else()
  message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()
