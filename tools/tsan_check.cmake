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
# cache-conscious flow memory, the CRC-32 kernels, the
# observability plane (HTTP exporter poll loop, lock-free trace ring,
# registry seqlock), the durability layer (spool WAL, crash-recovery journal, on-disk fuzz
# tables, and the kill-level soak over the instrumented ndtm binary),
# ndtm_pipeline, whose `ndtm measure` runs hand every report from the
# packet thread to the report thread, and the in-process Pipeline suite:
# pipeline::Measure's packet and report threads, pipeline::Collect's
# collector thread and both HTTP threads in one process.
set(ND_SANITIZE_TEST_REGEX
    "ndtm_pipeline|Pipeline|ThreadPool|Sharded|MetricsRegistry|Instruments|FaultInjector|ResilientChannel|ShardFailures|Chaos|Checkpoint|TagProbe|TagLayout|FlowMemory|Crc32|FrameStream|TcpTransport|Collector|LoopbackFleet|HttpExporter|TraceRecorder|ChromeTrace|FleetAggregator|RegistryGeneration|WalRecord|WalWriter|SpoolWal|Journal|DurabilityFuzz|DurabilitySoak")

# Sanitized binaries run ~10x slower: cap the soak's kill cycles so the
# instrumented pass stays CI-sized (still two real kill/restart cycles).
set(ENV{ND_SOAK_CYCLES} 3)

# One build job per logical core: a bare --parallel under the Unix
# Makefiles generator is an unbounded `make -j`.
cmake_host_system_information(RESULT ND_BUILD_JOBS
                              QUERY NUMBER_OF_LOGICAL_CORES)

# run_sanitized(<sanitizer> <subdir> <ctest regex>): nested instrumented
# configure + build + ctest. The Crc32 suite drives both CRC kernels
# directly, so one pass covers slice-by-8 and PCLMULQDQ alike.
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
    COMMAND ${CMAKE_COMMAND} --build ${san_build} --parallel ${ND_BUILD_JOBS}
            --target common_tests core_tests eval_tests telemetry_tests
            robustness_tests flowmem_tests hash_tests net_tests observability_tests durability_tests soak_tests
            packet_tests pcap_tests pipeline_tests
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
  message(STATUS "tsan_check[${sanitizer}]: tests clean")
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
# fork/exec + kill + recover loop under the instrumented runtime — and
# the inline pcap reader and parse_frame, whose memcpy loads read
# record and frame fields at arbitrary buffer offsets.
set(ND_FLOWMEM_TEST_REGEX
    "TagProbe|TagLayout|FlowMemory|Crc32|WalRecord|WalWriter|SpoolWal|Journal|DurabilityFuzz|DurabilitySoak|Pcap|Headers")
run_sanitized(address asan-check "${ND_FLOWMEM_TEST_REGEX}")
run_sanitized(undefined ubsan-check "${ND_FLOWMEM_TEST_REGEX}")

message(STATUS
        "tsan_check: concurrency + flow-memory + CRC tests clean under "
        "thread/address/undefined sanitizers")
