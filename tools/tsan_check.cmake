# Configure, build and run the concurrency tests (ThreadPool,
# ShardedDevice's forked interval close, the ndtm report thread) under
# ThreadSanitizer in a nested build tree, then run the flow-memory
# suites under Address- and
# UndefinedBehaviorSanitizer as well — the tag-partitioned probe is
# word-at-a-time pointer arithmetic, exactly what asan/ubsan are for.
# Driven by the `tsan_check` custom target so the instrumented builds
# never slow the tier-1 test pass:
#
#   cmake --build build --target tsan_check
#
# Expects -DSOURCE_DIR=<repo root> -DBUILD_DIR=<scratch build dir>.
if(NOT DEFINED SOURCE_DIR OR NOT DEFINED BUILD_DIR)
  message(FATAL_ERROR "tsan_check.cmake needs -DSOURCE_DIR and -DBUILD_DIR")
endif()

# The concurrency suites plus the tag-layout suites added with the
# cache-conscious flow memory, the CRC-32 tiers, the
# observability plane (HTTP exporter poll loop, lock-free trace ring,
# registry seqlock), the durability layer (spool WAL, crash-recovery journal, on-disk fuzz
# tables, and the kill-level soak over the instrumented ndtm binary), and
# ndtm_pipeline, whose `ndtm measure` runs hand every report from the
# packet thread to the report thread.
set(ND_SANITIZE_TEST_REGEX
    "ndtm_pipeline|ThreadPool|Sharded|MetricsRegistry|Instruments|FaultInjector|ResilientChannel|ShardFailures|Chaos|Checkpoint|TagProbe|TagLayout|FlowMemory|CpuFeatures|Crc32|FrameStream|TcpTransport|Collector|LoopbackFleet|HttpExporter|TraceRecorder|ChromeTrace|FleetAggregator|RegistryGeneration|SpoolWal|Journal|DurabilityFuzz|DurabilitySoak")

# Sanitized binaries run ~10x slower: cap the soak's kill cycles so the
# instrumented pass stays CI-sized (still two real kill/restart cycles).
set(ENV{ND_SOAK_CYCLES} 3)

# The CRC consumers re-run under each forced ND_SIMD value: the env
# override steers crc32's tier, so slice-by-8 and each hardware tier get
# their own sanitized pass (tiers the host lacks clamp to scalar — a
# safe, if redundant, run).
set(ND_SIMD_FORCED_TEST_REGEX "Crc32|FrameStream")

# run_sanitized(<sanitizer> <subdir> <ctest regex>): nested instrumented
# configure + build + ctest, then the forced-dispatch passes.
function(run_sanitized sanitizer subdir regex)
  set(san_build ${BUILD_DIR}/${subdir})
  execute_process(
    COMMAND ${CMAKE_COMMAND} -S ${SOURCE_DIR} -B ${san_build}
            -DND_SANITIZE=${sanitizer} -DCMAKE_BUILD_TYPE=RelWithDebInfo
    RESULT_VARIABLE rv)
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR "tsan_check[${sanitizer}]: configure failed: ${rv}")
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} --build ${san_build} --parallel
            --target common_tests core_tests eval_tests telemetry_tests
            robustness_tests flowmem_tests hash_tests net_tests observability_tests durability_tests soak_tests
    RESULT_VARIABLE rv)
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR "tsan_check[${sanitizer}]: build failed: ${rv}")
  endif()
  execute_process(
    COMMAND ${CMAKE_CTEST_COMMAND} --output-on-failure -R "${regex}"
    WORKING_DIRECTORY ${san_build}
    RESULT_VARIABLE rv)
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR
            "tsan_check[${sanitizer}]: sanitized run failed: ${rv}")
  endif()
  foreach(forced scalar avx2 neon)
    set(ENV{ND_SIMD} ${forced})
    execute_process(
      COMMAND ${CMAKE_CTEST_COMMAND} --output-on-failure
              -R "${ND_SIMD_FORCED_TEST_REGEX}"
      WORKING_DIRECTORY ${san_build}
      RESULT_VARIABLE rv)
    unset(ENV{ND_SIMD})
    if(NOT rv EQUAL 0)
      message(FATAL_ERROR
              "tsan_check[${sanitizer}]: ND_SIMD=${forced} run failed: "
              "${rv}")
    endif()
  endforeach()
  message(STATUS
          "tsan_check[${sanitizer}]: tests clean (native + forced "
          "scalar/avx2/neon CRC tiers)")
endfunction()

# The telemetry label covers the registry's multi-writer hot path and
# the instrumented pool and sharded close; the regex keeps the original
# concurrency suites plus the robustness layer's concurrent paths
# (injector hammering, shard close failures, chaos pipeline) and the
# tag-layout suites. `.` keeps the tsan tree at BUILD_DIR
# itself so existing caches keep working.
run_sanitized(thread . "${ND_SANITIZE_TEST_REGEX}")

# The flow-memory probe again under asan (OOB on the tag array) and
# ubsan (misaligned/overflowing SWAR arithmetic), plus the durability
# formats — wal scan/resync and journal replay are byte-level parsers
# over attacker-shaped input, and the soak exercises the whole
# fork/exec + kill + recover loop under the instrumented runtime.
set(ND_FLOWMEM_TEST_REGEX
    "TagProbe|TagLayout|FlowMemory|CpuFeatures|Crc32|SpoolWal|Journal|DurabilityFuzz|DurabilitySoak")
run_sanitized(address asan-check "${ND_FLOWMEM_TEST_REGEX}")
run_sanitized(undefined ubsan-check "${ND_FLOWMEM_TEST_REGEX}")

# Fallback bit-rot check: a build with the hardware CRC tiers compiled
# out (-DND_DISABLE_SIMD=ON) must still pass the CRC consumers — the
# differential tests then prove slice-by-8 alone against the bitwise
# oracle.
set(nosimd_build ${BUILD_DIR}/nosimd-check)
execute_process(
  COMMAND ${CMAKE_COMMAND} -S ${SOURCE_DIR} -B ${nosimd_build}
          -DND_DISABLE_SIMD=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
  RESULT_VARIABLE rv)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "tsan_check[nosimd]: configure failed: ${rv}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${nosimd_build} --parallel
          --target common_tests net_tests
  RESULT_VARIABLE rv)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "tsan_check[nosimd]: build failed: ${rv}")
endif()
execute_process(
  COMMAND ${CMAKE_CTEST_COMMAND} --output-on-failure
          -R "${ND_SIMD_FORCED_TEST_REGEX}"
  WORKING_DIRECTORY ${nosimd_build}
  RESULT_VARIABLE rv)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "tsan_check[nosimd]: ND_DISABLE_SIMD run failed: ${rv}")
endif()
message(STATUS "tsan_check[nosimd]: scalar-only build clean")

message(STATUS
        "tsan_check: concurrency + flow-memory + CRC tests clean under "
        "thread/address/undefined sanitizers, forced CRC tiers, "
        "and the ND_DISABLE_SIMD slice-by-8-only build")
