# Replay one figure binary from the committed seed cache and compare its
# output byte for byte with the recorded golden files.
#
#   cmake -DBIN=<binary> -DSEED=<smtflex_cache.txt> -DWORK=<scratch dir>
#         -DGOLDEN=<golden dir> -P run_golden.cmake
#
# The binary runs in WORK over a fresh copy of SEED with every SMTFLEX_*
# variable unset, so it sees the study's defaults and the cache's identity.
# Every file in GOLDEN must equal its namesake in WORK: stdout.txt is the
# binary's stdout, any other file one it wrote. A replay that simulates
# anything fails too: it would append a shard segment next to the copy.

foreach(var BIN SEED WORK GOLDEN)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "run_golden.cmake: -D${var}= is required")
    endif()
endforeach()

execute_process(COMMAND ${CMAKE_COMMAND} -E environment
    OUTPUT_VARIABLE environment)
string(REPLACE "\n" ";" environment "${environment}")
foreach(line IN LISTS environment)
    if(line MATCHES "^(SMTFLEX_[A-Za-z0-9_]*)=")
        unset(ENV{${CMAKE_MATCH_1}})
    endif()
endforeach()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
execute_process(COMMAND ${CMAKE_COMMAND} -E copy
    "${SEED}" "${WORK}/smtflex_cache.txt")

execute_process(COMMAND "${BIN}"
    WORKING_DIRECTORY "${WORK}"
    OUTPUT_FILE "${WORK}/stdout.txt"
    ERROR_FILE "${WORK}/stderr.txt"
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    file(READ "${WORK}/stderr.txt" stderr)
    message(FATAL_ERROR "${BIN} exited with ${status}:\n${stderr}")
endif()

file(GLOB shards "${WORK}/smtflex_cache.txt.shard-*")
if(shards)
    message(FATAL_ERROR "${BIN} simulated instead of replaying the seed "
        "cache: it wrote ${shards}")
endif()

file(GLOB expected RELATIVE "${GOLDEN}" "${GOLDEN}/*")
set(mismatches "")
foreach(name IN LISTS expected)
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
        "${GOLDEN}/${name}" "${WORK}/${name}"
        RESULT_VARIABLE differs OUTPUT_QUIET ERROR_QUIET)
    if(NOT differs EQUAL 0)
        list(APPEND mismatches "${name}")
    endif()
endforeach()
if(mismatches)
    message(FATAL_ERROR "${BIN}: output differs from ${GOLDEN} in: "
        "${mismatches} (actual output kept in ${WORK})")
endif()
