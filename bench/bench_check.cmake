# Runs one bench binary under ctest and checks its exit code and stdout.
#
#   cmake -DMODE=usage -P bench_check.cmake -- <bench> <args>...
#     passes when the bench exits 2 and prints its usage message
#   cmake -DMODE=deterministic -P bench_check.cmake -- <bench> <args>...
#     runs the bench twice; passes when both runs exit 0 and their stdouts
#     are byte-identical
set(cmd)
set(seen_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(seen_dashes)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(seen_dashes TRUE)
  endif()
endforeach()

if(MODE STREQUAL "usage")
  execute_process(COMMAND ${cmd} RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT code EQUAL 2 OR NOT err MATCHES "usage: ")
    message(FATAL_ERROR "want exit 2 with usage, got exit ${code}:\n${err}")
  endif()
elseif(MODE STREQUAL "deterministic")
  foreach(run 1 2)
    execute_process(COMMAND ${cmd} RESULT_VARIABLE code OUTPUT_VARIABLE out${run} ERROR_QUIET)
    if(NOT code EQUAL 0)
      message(FATAL_ERROR "run ${run} exited ${code}")
    endif()
  endforeach()
  if(NOT out1 STREQUAL out2)
    message(FATAL_ERROR "stdout differs between two runs:\n--- run 1\n${out1}\n--- run 2\n${out2}")
  endif()
else()
  message(FATAL_ERROR "unknown MODE '${MODE}'")
endif()
