# A bench's --scale/--seed/--runs/--intervals value that is malformed,
# not finite or (all but --seed) not positive is a usage error: exit 2
# naming the flag, before any work starts. TIMEOUT turns a bench that
# ran anyway into a failure instead of a long wait.
foreach(bad_value
    "--scale;abc" "--scale;nan" "--scale;inf" "--scale;0" "--scale;-0.5"
    "--scale;0.5x" "--runs;0" "--runs;-1" "--runs;2x" "--intervals;abc"
    "--intervals;4294967296" "--seed;x" "--seed;-1")
  list(GET bad_value 0 flag_name)
  execute_process(
    COMMAND ${BENCH} ${bad_value}
    RESULT_VARIABLE rv OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 20)
  if(NOT rv EQUAL 2)
    message(FATAL_ERROR "${bad_value} should exit 2, got ${rv}")
  endif()
  if(NOT err MATCHES "${flag_name}")
    message(FATAL_ERROR "${bad_value} error does not name the flag: ${err}")
  endif()
endforeach()
