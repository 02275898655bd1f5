# End-to-end CLI pipeline: synthesize a pcap, measure it, export reports.
# These are the process-level checks: golden listings, flag and value
# rejection, exit codes, and one real `collect` + `measure --connect`
# chain over --port-file (the operator path). The networked scenarios
# (determinism, loss, fleet merge, unreachable collectors, spool and
# journal, scrape and traces, graceful stop) drive pipeline::Measure and
# pipeline::Collect in process in tests/pipeline/pipeline_test.cpp.
execute_process(
  COMMAND ${NDTM} synthesize --preset cos --scale 0.2 --intervals 2
          --out ${WORKDIR}/smoke.pcap
  RESULT_VARIABLE rv)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "ndtm synthesize failed: ${rv}")
endif()
execute_process(
  COMMAND ${NDTM} measure --in ${WORKDIR}/smoke.pcap
          --algorithm sample-and-hold --flow-def dstip
          --threshold 100000 --export ${WORKDIR}/smoke_reports.bin
  RESULT_VARIABLE rv OUTPUT_VARIABLE smoke_out)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "ndtm measure failed: ${rv}")
endif()
# Skipped frames get their own line; the synthesizer writes only IPv4.
if(NOT smoke_out MATCHES "\npcap: [1-9][0-9]* records, 0 skipped \\(not IPv4 or headers truncated\\)\ndone: ")
  message(FATAL_ERROR "measure printed no pcap: line before done:")
endif()
if(NOT EXISTS ${WORKDIR}/smoke_reports.bin)
  message(FATAL_ERROR "ndtm measure produced no export")
endif()
# Golden listings: `ndtm measure` stdout on the smoke capture, with
# default flags and with `--shards 4 --shard-usage 1`, must match the
# checked-in files byte for byte, so the per-interval listing (header,
# shard-usage lines, flow lines) cannot drift silently.
foreach(golden "default" "shards4_usage")
  if(golden STREQUAL "default")
    set(golden_flags "")
  else()
    set(golden_flags --shards 4 --shard-usage 1)
  endif()
  execute_process(
    COMMAND ${NDTM} measure --in ${WORKDIR}/smoke.pcap ${golden_flags}
    RESULT_VARIABLE rv OUTPUT_FILE ${WORKDIR}/measure_smoke_${golden}.stdout)
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR "ndtm measure (${golden} golden) failed: ${rv}")
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${CMAKE_CURRENT_LIST_DIR}/testdata/measure_smoke_${golden}.stdout
            ${WORKDIR}/measure_smoke_${golden}.stdout
    RESULT_VARIABLE rv)
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR "ndtm measure stdout (${golden}) differs from "
            "tools/testdata/measure_smoke_${golden}.stdout")
  endif()
endforeach()
# Same capture through the RSS-style sharded pipeline with telemetry on:
# exercises ShardedDevice + ThreadPool + the interval-aligned metrics
# exporter end to end from the CLI.
execute_process(
  COMMAND ${NDTM} measure --in ${WORKDIR}/smoke.pcap
          --algorithm multistage --flow-def dstip --shards 4
          --threshold 100000 --export ${WORKDIR}/smoke_sharded.bin
          --metrics ${WORKDIR}/smoke_metrics.jsonl
  RESULT_VARIABLE rv)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "ndtm measure --shards 4 failed: ${rv}")
endif()
if(NOT EXISTS ${WORKDIR}/smoke_sharded.bin)
  message(FATAL_ERROR "sharded ndtm measure produced no export")
endif()
if(NOT EXISTS ${WORKDIR}/smoke_metrics.jsonl)
  message(FATAL_ERROR "ndtm measure --metrics produced no snapshot file")
endif()
# One JSON-lines snapshot per interval, each carrying per-shard series.
file(STRINGS ${WORKDIR}/smoke_metrics.jsonl metrics_lines)
list(LENGTH metrics_lines metrics_line_count)
if(metrics_line_count LESS 2)
  message(FATAL_ERROR
          "expected one metrics snapshot per interval, got ${metrics_line_count}")
endif()
list(GET metrics_lines 0 first_snapshot)
if(NOT first_snapshot MATCHES "nd_shard_packets_total")
  message(FATAL_ERROR "metrics snapshot is missing per-shard series")
endif()

# ---------------------------------------------------------------------
# Exit-code contract: 2 bad arguments, 3 decode errors, 4 runtime
# faults — each distinct and non-zero so scripts can tell them apart.
# netflow is a baseline of the eval driver, not a measure algorithm.
foreach(bad_algorithm no-such netflow)
  execute_process(
    COMMAND ${NDTM} measure --in ${WORKDIR}/smoke.pcap
            --algorithm ${bad_algorithm}
    RESULT_VARIABLE rv ERROR_QUIET OUTPUT_QUIET)
  if(NOT rv EQUAL 2)
    message(FATAL_ERROR
            "--algorithm ${bad_algorithm} should exit 2, got ${rv}")
  endif()
endforeach()
# A flag the subcommand does not read is a usage error naming the flag,
# never a silent run with defaults: a typo, and removed flags.
foreach(bad_flag "--treshold;1" "--hugepages" "--pin;1" "--watchdog-ms;5000"
                 "--trace-sample;8" "--spool-fsync-batch;4" "--net-jitter;0")
  execute_process(
    COMMAND ${NDTM} measure --in ${WORKDIR}/smoke.pcap ${bad_flag}
    RESULT_VARIABLE rv ERROR_VARIABLE err OUTPUT_QUIET)
  list(GET bad_flag 0 flag_name)
  if(NOT rv EQUAL 2)
    message(FATAL_ERROR "measure ${flag_name} should exit 2, got ${rv}")
  endif()
  if(NOT err MATCHES "${flag_name}")
    message(FATAL_ERROR "measure ${flag_name} error does not name the flag")
  endif()
endforeach()
# A malformed number is a usage error naming the flag, checked before
# any work starts: never a silent 0 (`--interval abc` used to become a
# 1 ns interval), never a truncated port, never a 32-bit count that
# wraps (`--device-id 4294967296` used to run as device 0, and
# `--fleet-size 4294967296` as no fleet at all), never more shards than
# max(1, --entries / 64) (`--shards 4294967295` used to die reserving
# them; 65 exceeds the default 4096 entries' 64-entry floor), never a
# --connect host only the transport rejects (`foo:80` used to build the
# device and session, then exit 1), never a 0/1 switch that reads any
# non-zero value as on (`--adaptive 2`), never a --net-budget above the
# 64 MiB frame payload bound (a report shaped to it could be a frame the
# collector drops as corrupt), never an --interval whose nanoseconds
# overflow (`--interval 10000000000` used to run 1 ns intervals), never
# a netpair length that is not 0-32 in digits (`netpair:abc` used to
# run as /0, `netpair:300` as /32, `netpair:24x` as /24), never a
# collector waiting on 0 devices, never a synthesize value that writes
# a degenerate or unreadable trace (`--scale 0` wrote 2 packets,
# `--scale 2` the scale-1 trace, `--arrivals burst` ran uniform,
# `--snaplen 40` cut every frame's headers), never a bounds/dimension value that prints NaN or a
# meaningless figure (`--oversampling -5`, `--flows -1`, `--depth 0`,
# `--entries 0`). TIMEOUT turns a regression into a failure instead of
# a hang.
foreach(bad_value
    "measure;--interval;abc" "measure;--interval;0" "measure;--interval;"
    "measure;--threshold;1e5" "measure;--shards;-2"
    "measure;--shards;4294967296" "measure;--shards;4294967295"
    "measure;--shards;65" "measure;--entries;4294967296"
    "measure;--device-id;4294967296;--fleet-size;2"
    "measure;--fleet-size;4294967296;--device-id;1"
    "collect;--devices;4294967297"
    "measure;--connect;127.0.0.1:abc" "measure;--connect;127.0.0.1:0"
    "measure;--connect;127.0.0.1:70000" "measure;--connect;foo:80"
    "measure;--connect;256.1.1.1:80" "measure;--adaptive;2"
    "measure;--net-budget;67108865" "measure;--interval;9223372037"
    "measure;--flow-def;netpair:abc" "measure;--flow-def;netpair:"
    "measure;--flow-def;netpair:300" "measure;--flow-def;netpair:24x"
    "collect;--journal-fsync;x" "collect;--listen;70000"
    "collect;--listen;abc" "collect;--http-port;65536"
    "synthesize;--scale;abc" "bounds;--depth;four"
    "dimension;--flows;lots" "collect;--devices;0"
    "synthesize;--scale;0" "synthesize;--scale;-1" "synthesize;--scale;2"
    "synthesize;--arrivals;burst" "synthesize;--snaplen;0"
    "synthesize;--snaplen;40" "synthesize;--snaplen;262145"
    "bounds;--oversampling;-5" "bounds;--flows;-1" "bounds;--depth;0"
    "bounds;--threshold;0" "bounds;--capacity;0" "bounds;--buckets;0"
    "dimension;--oversampling;-1" "dimension;--entries;0"
    "dimension;--traffic;0")
  list(GET bad_value 0 command)
  list(GET bad_value 1 flag_name)
  list(SUBLIST bad_value 1 -1 bad_args)
  if(command STREQUAL "measure")
    list(APPEND bad_args --in ${WORKDIR}/smoke.pcap)
  elseif(command STREQUAL "collect")
    list(APPEND bad_args --timeout-ms 2000)
  elseif(command STREQUAL "synthesize")
    list(APPEND bad_args --out ${WORKDIR}/never_written.pcap)
  endif()
  execute_process(
    COMMAND ${NDTM} ${command} ${bad_args}
    RESULT_VARIABLE rv ERROR_VARIABLE err OUTPUT_QUIET TIMEOUT 20)
  if(NOT rv EQUAL 2)
    message(FATAL_ERROR
            "${command} ${bad_args} should exit 2, got ${rv}")
  endif()
  if(NOT err MATCHES "${flag_name}")
    message(FATAL_ERROR
            "${command} ${bad_args} error does not name ${flag_name}: ${err}")
  endif()
endforeach()
if(EXISTS ${WORKDIR}/never_written.pcap)
  message(FATAL_ERROR "synthesize wrote output despite a bad --scale")
endif()
file(WRITE ${WORKDIR}/garbage.pcap "this is not a capture file at all")
execute_process(
  COMMAND ${NDTM} measure --in ${WORKDIR}/garbage.pcap
  RESULT_VARIABLE rv ERROR_QUIET OUTPUT_QUIET)
if(NOT rv EQUAL 3)
  message(FATAL_ERROR "garbage pcap should exit 3, got ${rv}")
endif()
# Stray bytes after the last record are a cut record header, not a
# clean end of file.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E copy ${WORKDIR}/smoke.pcap
          ${WORKDIR}/stray_tail.pcap)
file(APPEND ${WORKDIR}/stray_tail.pcap "xyz")
execute_process(
  COMMAND ${NDTM} measure --in ${WORKDIR}/stray_tail.pcap
  RESULT_VARIABLE rv ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT rv EQUAL 3 OR NOT err MATCHES "truncated packet header")
  message(FATAL_ERROR "3 stray tail bytes should exit 3, got ${rv}: ${err}")
endif()
# The same cut tail after several closed intervals: still exit 3, and
# every interval closed before the bad record is listed, exactly as in
# the clean run (only the trailing interval, closed at end of stream,
# is missing).
execute_process(
  COMMAND ${NDTM} measure --in ${WORKDIR}/smoke.pcap --interval 1
  RESULT_VARIABLE rv OUTPUT_VARIABLE clean_out)
if(NOT rv EQUAL 0 OR NOT clean_out MATCHES "packet[s]?[^\n]*, ([0-9]+) intervals\n$")
  message(FATAL_ERROR "measure --interval 1 failed: ${rv}")
endif()
math(EXPR last_interval "${CMAKE_MATCH_1} - 1")
if(last_interval LESS 2)
  message(FATAL_ERROR "smoke capture closes too few 1 s intervals")
endif()
string(FIND "${clean_out}" "interval ${last_interval}: " last_at)
string(SUBSTRING "${clean_out}" 0 ${last_at} closed_listings)
execute_process(
  COMMAND ${NDTM} measure --in ${WORKDIR}/stray_tail.pcap --interval 1
  RESULT_VARIABLE rv OUTPUT_VARIABLE stray_out ERROR_VARIABLE err)
if(NOT rv EQUAL 3 OR NOT err MATCHES "truncated packet header")
  message(FATAL_ERROR "cut tail after closed intervals should exit 3, "
          "got ${rv}: ${err}")
endif()
if(NOT stray_out STREQUAL closed_listings)
  message(FATAL_ERROR "a decode error lost closed intervals' listings")
endif()
execute_process(
  COMMAND ${NDTM} measure --in ${WORKDIR}/smoke.pcap --shards 4
          --fault-plan pool.task:throw:at=0
  RESULT_VARIABLE rv ERROR_QUIET OUTPUT_QUIET)
if(NOT rv EQUAL 4)
  message(FATAL_ERROR "injected pool fault should exit 4, got ${rv}")
endif()
# A malformed plan, one naming the removed reorder kind, and one naming
# a site no code consults (the removed shard close stall) are usage
# errors rather than silent no-ops.
foreach(bad_plan "bogus" "channel.reorder:reorder:at=0"
                 "shard.stall:stall:at=0")
  execute_process(
    COMMAND ${NDTM} measure --in ${WORKDIR}/smoke.pcap
            --fault-plan ${bad_plan}
    RESULT_VARIABLE rv ERROR_QUIET OUTPUT_QUIET)
  if(NOT rv EQUAL 2)
    message(FATAL_ERROR "fault plan '${bad_plan}' should exit 2, got ${rv}")
  endif()
endforeach()

# Chaos run that heals: a drop plan on the channel sites is harmless to
# the CLI data path, but the injector's eagerly-registered telemetry
# series must appear in the metrics snapshots, and a checkpoint file
# must land after each interval.
execute_process(
  COMMAND ${NDTM} measure --in ${WORKDIR}/smoke.pcap
          --algorithm multistage --flow-def dstip --shards 4
          --threshold 100000
          --fault-plan channel.drop:drop:p=0.5 --fault-seed 9
          --checkpoint ${WORKDIR}/smoke.ndck
          --metrics ${WORKDIR}/chaos_metrics.jsonl
  RESULT_VARIABLE rv)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "chaos measure run failed: ${rv}")
endif()
if(NOT EXISTS ${WORKDIR}/smoke.ndck)
  message(FATAL_ERROR "--checkpoint produced no checkpoint file")
endif()
file(STRINGS ${WORKDIR}/chaos_metrics.jsonl chaos_lines)
list(GET chaos_lines 0 chaos_snapshot)
if(NOT chaos_snapshot MATCHES "nd_fault_injected_total")
  message(FATAL_ERROR
          "metrics snapshot is missing the fault-injection series")
endif()

# ---------------------------------------------------------------------
# Distributed collection: one collector daemon, two measure processes
# shipping reports over 127.0.0.1, with the HTTP endpoint and trace
# spans on. Backgrounding needs a shell, so the whole scenario runs
# under one bash -c: start `ndtm collect` on an ephemeral port, wait for
# the port and HTTP port files, run the first device, scrape the
# collector's /metrics over loopback (bash's /dev/tcp — no curl
# dependency), run the second device, then wait for the collector's own
# exit code. The two devices run the same flags apart from --device-id
# and their file paths, so they are two identical runs in two processes.
execute_process(
  COMMAND bash -c "\
    set -u; \
    rm -f '${WORKDIR}/collect.port' '${WORKDIR}/collect.http'; \
    '${NDTM}' collect --listen 0 --devices 2 --timeout-ms 30000 \
      --port-file '${WORKDIR}/collect.port' \
      --http-port 0 --http-port-file '${WORKDIR}/collect.http' \
      --trace '${WORKDIR}/collect_trace.json' \
      --export '${WORKDIR}/fleet_merged.bin' \
      --metrics '${WORKDIR}/collect_metrics.jsonl' \
      > '${WORKDIR}/collect.log' 2>&1 & \
    collect_pid=$!; \
    for i in $(seq 1 100); do \
      [ -s '${WORKDIR}/collect.port' ] && [ -s '${WORKDIR}/collect.http' ] \
        && break; sleep 0.1; \
    done; \
    [ -s '${WORKDIR}/collect.port' ] || { echo 'no port file'; exit 90; }; \
    [ -s '${WORKDIR}/collect.http' ] || { echo 'no http port'; exit 90; }; \
    port=$(cat '${WORKDIR}/collect.port'); \
    for device in 0 1; do \
      '${NDTM}' measure --in '${WORKDIR}/smoke.pcap' --interval 1 \
        --algorithm multistage --flow-def dstip --threshold 100000 \
        --connect 127.0.0.1:$port --device-id $device \
        --metrics '${WORKDIR}/device'$device'_metrics.jsonl' \
        --trace '${WORKDIR}/device'$device'_trace.json' \
        > '${WORKDIR}/device'$device'.log' || exit $((91 + device)); \
      [ $device -eq 0 ] || continue; \
      hport=$(cat '${WORKDIR}/collect.http'); \
      exec 3<>/dev/tcp/127.0.0.1/$hport || exit 93; \
      printf 'GET /metrics HTTP/1.0\\r\\n\\r\\n' >&3; \
      cat <&3 > '${WORKDIR}/collect_scrape.txt'; \
      exec 3<&-; \
    done; \
    wait $collect_pid"
  RESULT_VARIABLE rv)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "distributed collect/measure pipeline failed: ${rv}")
endif()
if(NOT EXISTS ${WORKDIR}/fleet_merged.bin)
  message(FATAL_ERROR "ndtm collect produced no merged export")
endif()
if(EXISTS ${WORKDIR}/collect.http)
  message(FATAL_ERROR "collect left its --http-port-file behind at exit")
endif()
file(STRINGS ${WORKDIR}/collect_metrics.jsonl collect_lines)
list(GET collect_lines 0 collect_snapshot)
if(NOT collect_snapshot MATCHES "nd_net_reports_total")
  message(FATAL_ERROR "collector metrics snapshot is missing net series")
endif()
# After the first device, the collector's /metrics must already carry
# that device's series plus the fleet rollup.
file(READ ${WORKDIR}/collect_scrape.txt collect_scrape)
if(NOT collect_scrape MATCHES "HTTP/1.0 200 OK")
  message(FATAL_ERROR "collector /metrics scrape was not a 200")
endif()
if(NOT collect_scrape MATCHES "nd_session_packets_total{device=\"0\"}")
  message(FATAL_ERROR "scrape is missing the per-device series")
endif()
if(NOT collect_scrape MATCHES "device=\"fleet\"")
  message(FATAL_ERROR "scrape is missing the fleet rollup series")
endif()
# Report-stage determinism across processes: the report thread overlaps
# the packet thread, yet the two devices must write the same metrics
# once the timing histograms (*_ns) are stripped — the CRC byte
# counters and the bytes sent (each report's metrics trailer) included.
foreach(device 0 1)
  file(READ ${WORKDIR}/device${device}_metrics.jsonl device${device}_metrics)
  string(REGEX REPLACE
         "{\"name\":\"[a-z0-9_]+_ns\"(,\"labels\":{[^}]*})?[^}]*},?"
         "" device${device}_metrics "${device${device}_metrics}")
endforeach()
if(NOT device0_metrics MATCHES "nd_session_intervals_total" OR
   NOT device0_metrics MATCHES "nd_crc_bytes_total" OR
   NOT device0_metrics MATCHES "nd_net_bytes_sent_total")
  message(FATAL_ERROR "device metrics are missing the compared series")
endif()
if(NOT device0_metrics STREQUAL device1_metrics)
  message(FATAL_ERROR "two identical device runs wrote different metrics")
endif()
# Every trace file is a chrome://tracing JSON array whose spans name
# the two halves of the pipeline.
foreach(device 0 1)
  file(READ ${WORKDIR}/device${device}_trace.json device_trace)
  if(NOT device_trace MATCHES "^\\[")
    message(FATAL_ERROR "device ${device} trace is not a JSON array")
  endif()
  if(NOT device_trace MATCHES "interval.close" OR
     NOT device_trace MATCHES "channel.send")
    message(FATAL_ERROR "device ${device} trace is missing pipeline spans")
  endif()
endforeach()
file(READ ${WORKDIR}/collect_trace.json collect_trace)
if(NOT collect_trace MATCHES "^\\[" OR
   NOT collect_trace MATCHES "frame.decode" OR
   NOT collect_trace MATCHES "fleet.merge")
  message(FATAL_ERROR "collector trace is missing pipeline spans")
endif()
