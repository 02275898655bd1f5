# Runs one paper bench and compares its stdout byte for byte with a
# committed golden (cmake -E compare_files, i.e. `cmp`): the paper's
# tables and figures only move in a change that means to move them.
#
# Expects -DBENCH=<binary> -DGOLDEN=<file> -DACTUAL=<output file> and
# optionally -DARGS="<space-separated bench flags>".
if(NOT DEFINED BENCH OR NOT DEFINED GOLDEN OR NOT DEFINED ACTUAL)
  message(FATAL_ERROR "golden_test.cmake needs -DBENCH, -DGOLDEN, -DACTUAL")
endif()
separate_arguments(bench_args UNIX_COMMAND "${ARGS}")
get_filename_component(actual_dir ${ACTUAL} DIRECTORY)
file(MAKE_DIRECTORY ${actual_dir})
execute_process(
  COMMAND ${BENCH} ${bench_args}
  OUTPUT_FILE ${ACTUAL} RESULT_VARIABLE rv)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${ARGS} exited ${rv}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${ACTUAL}
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR
          "${BENCH} ${ARGS}: stdout differs from ${GOLDEN} (got ${ACTUAL})")
endif()
