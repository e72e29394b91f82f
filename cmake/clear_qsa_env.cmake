# Included by the command-line test scripts (examples/*_test.cmake and
# bench/*_test.cmake) before they run a binary. util::Flags reads a flag the
# command line omits from the QSA_<NAME> environment variable, and ctest
# passes its caller's environment through, so an exported QSA_SEED or
# QSA_PEERS would silently change what a golden case runs. This removes every
# QSA_* variable from the script's own environment, which each
# execute_process child inherits.
execute_process(COMMAND "${CMAKE_COMMAND}" -E environment
                OUTPUT_VARIABLE qsa_environment)
string(REGEX MATCHALL "(^|\n)QSA_[A-Za-z0-9_]*=" qsa_names
       "${qsa_environment}")
foreach(qsa_name IN LISTS qsa_names)
  string(REGEX REPLACE "[\n=]" "" qsa_name "${qsa_name}")
  unset(ENV{${qsa_name}})
endforeach()
