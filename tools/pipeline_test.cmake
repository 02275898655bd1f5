# End-to-end CLI pipeline: synthesize a pcap, measure it, export reports.
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
execute_process(
  COMMAND ${NDTM} measure --in ${WORKDIR}/smoke.pcap --algorithm no-such
  RESULT_VARIABLE rv ERROR_QUIET OUTPUT_QUIET)
if(NOT rv EQUAL 2)
  message(FATAL_ERROR "bad algorithm should exit 2, got ${rv}")
endif()
# A flag the subcommand does not read is a usage error naming the flag,
# never a silent run with defaults: a typo, and removed flags.
foreach(bad_flag "--treshold;1" "--hugepages" "--pin;1" "--watchdog-ms;5000"
                 "--trace-sample;8")
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
# 1 ns interval), never a truncated port. TIMEOUT turns a regression
# into a failure instead of a hang.
foreach(bad_value
    "measure;--interval;abc" "measure;--interval;0" "measure;--interval;"
    "measure;--threshold;1e5" "measure;--shards;-2"
    "measure;--connect;127.0.0.1:abc" "measure;--connect;127.0.0.1:0"
    "measure;--connect;127.0.0.1:70000" "collect;--listen;70000"
    "collect;--listen;abc" "collect;--http-port;65536"
    "synthesize;--scale;abc" "bounds;--depth;four"
    "dimension;--flows;lots")
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
# shipping reports over 127.0.0.1. Backgrounding needs a shell, so the
# whole scenario runs under one bash -c: start `ndtm collect` on an
# ephemeral port, wait for the port file, run both devices, then wait
# for the collector's own exit code.
execute_process(
  COMMAND bash -c "\
    set -u; \
    rm -f '${WORKDIR}/collect.port'; \
    '${NDTM}' collect --listen 0 --devices 2 --timeout-ms 30000 \
      --port-file '${WORKDIR}/collect.port' \
      --export '${WORKDIR}/fleet_merged.bin' \
      --metrics '${WORKDIR}/collect_metrics.jsonl' \
      > '${WORKDIR}/collect.log' 2>&1 & \
    collect_pid=$!; \
    for i in $(seq 1 100); do \
      [ -s '${WORKDIR}/collect.port' ] && break; sleep 0.1; \
    done; \
    [ -s '${WORKDIR}/collect.port' ] || { echo 'no port file'; exit 90; }; \
    port=$(cat '${WORKDIR}/collect.port'); \
    '${NDTM}' measure --in '${WORKDIR}/smoke.pcap' \
      --algorithm multistage --flow-def dstip --threshold 100000 \
      --connect 127.0.0.1:$port --device-id 0 || exit 91; \
    '${NDTM}' measure --in '${WORKDIR}/smoke.pcap' \
      --algorithm multistage --flow-def dstip --threshold 100000 \
      --connect 127.0.0.1:$port --device-id 1 || exit 92; \
    wait $collect_pid"
  RESULT_VARIABLE rv)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "distributed collect/measure pipeline failed: ${rv}")
endif()
if(NOT EXISTS ${WORKDIR}/fleet_merged.bin)
  message(FATAL_ERROR "ndtm collect produced no merged export")
endif()
file(STRINGS ${WORKDIR}/collect_metrics.jsonl collect_lines)
list(GET collect_lines 0 collect_snapshot)
if(NOT collect_snapshot MATCHES "nd_net_reports_total")
  message(FATAL_ERROR "collector metrics snapshot is missing net series")
endif()

# Report-stage determinism: the report thread overlaps the packet
# thread, yet two identical --connect runs must merge to the same
# export and write the same metrics once the timing histograms (*_ns)
# are stripped, and a --checkpoint run must save a checkpoint after
# every closed interval (one checkpoint.save span per interval.close)
# and merge to the same export as well.
foreach(run a b c)
  set(run_flags "")
  if(run STREQUAL "c")
    file(REMOVE ${WORKDIR}/det_c.ndck)
    set(run_flags "--checkpoint '${WORKDIR}/det_c.ndck' \
      --trace '${WORKDIR}/det_c_trace.json'")
  endif()
  execute_process(
    COMMAND bash -c "\
      set -u; \
      rm -f '${WORKDIR}/det_${run}.port'; \
      '${NDTM}' collect --listen 0 --devices 1 --timeout-ms 30000 \
        --port-file '${WORKDIR}/det_${run}.port' \
        --export '${WORKDIR}/det_${run}_merged.bin' \
        > '${WORKDIR}/det_${run}_collect.log' 2>&1 & \
      collect_pid=$!; \
      for i in $(seq 1 100); do \
        [ -s '${WORKDIR}/det_${run}.port' ] && break; sleep 0.1; \
      done; \
      [ -s '${WORKDIR}/det_${run}.port' ] || { echo 'no port file'; exit 90; }; \
      port=$(cat '${WORKDIR}/det_${run}.port'); \
      '${NDTM}' measure --in '${WORKDIR}/smoke.pcap' --interval 1 \
        --algorithm multistage --flow-def dstip --threshold 100000 \
        --metrics '${WORKDIR}/det_${run}_metrics.jsonl' \
        --connect 127.0.0.1:$port ${run_flags} \
        > '${WORKDIR}/det_${run}_device.log' || exit 91; \
      wait $collect_pid"
    RESULT_VARIABLE rv)
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR "determinism run ${run} failed: ${rv}")
  endif()
endforeach()
foreach(run b c)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORKDIR}/det_a_merged.bin ${WORKDIR}/det_${run}_merged.bin
    RESULT_VARIABLE rv)
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR "determinism run ${run} merged different flows")
  endif()
endforeach()
foreach(run a b)
  file(READ ${WORKDIR}/det_${run}_metrics.jsonl det_${run}_metrics)
  string(REGEX REPLACE
         "{\"name\":\"[a-z0-9_]+_ns\"(,\"labels\":{[^}]*})?[^}]*},?"
         "" det_${run}_metrics "${det_${run}_metrics}")
endforeach()
if(NOT det_a_metrics MATCHES "nd_session_intervals_total")
  message(FATAL_ERROR "determinism run wrote no metrics snapshots")
endif()
if(NOT det_a_metrics STREQUAL det_b_metrics)
  message(FATAL_ERROR "two identical runs wrote different metrics")
endif()
if(NOT EXISTS ${WORKDIR}/det_c.ndck)
  message(FATAL_ERROR "--checkpoint determinism run left no checkpoint")
endif()
file(READ ${WORKDIR}/det_c_trace.json det_trace)
string(REGEX MATCHALL "\"interval\\.close\"" det_closes "${det_trace}")
string(REGEX MATCHALL "\"checkpoint\\.save\"" det_saves "${det_trace}")
list(LENGTH det_closes det_close_count)
list(LENGTH det_saves det_save_count)
if(det_close_count LESS 2 OR NOT det_save_count EQUAL det_close_count)
  message(FATAL_ERROR "expected one checkpoint per closed interval, got "
          "${det_save_count} saves for ${det_close_count} closes")
endif()

# export_records(<path> <intervals_var> <records_var>): split a merged
# export (concatenated v3 reports, no metrics trailer: a 24-byte header
# carrying the shard count at byte 7, the interval at 8 and the flow
# count at 12, then 24-byte flow and 56-byte shard records) into its
# interval indices and its records as hex strings.
function(export_records path intervals_var records_var)
  file(READ ${path} hex HEX)
  string(LENGTH "${hex}" hex_length)
  set(offset 0)
  set(intervals "")
  set(records "")
  while(offset LESS hex_length)
    math(EXPR shards_at "${offset} + 14")
    math(EXPR interval_at "${offset} + 16")
    math(EXPR count_at "${offset} + 24")
    string(SUBSTRING "${hex}" ${shards_at} 2 shards_hex)
    string(SUBSTRING "${hex}" ${interval_at} 8 interval_hex)
    string(SUBSTRING "${hex}" ${count_at} 8 count_hex)
    math(EXPR interval "0x${interval_hex}")
    math(EXPR length
         "2 * (24 + 24 * 0x${count_hex} + 56 * 0x${shards_hex})")
    string(SUBSTRING "${hex}" ${offset} ${length} record)
    list(APPEND intervals ${interval})
    list(APPEND records ${record})
    math(EXPR offset "${offset} + ${length}")
  endwhile()
  set(${intervals_var} "${intervals}" PARENT_SCOPE)
  set(${records_var} "${records}" PARENT_SCOPE)
endfunction()

# A lost report is a loss at the collector too. The device's channel
# drops interval 1's only attempt (--net-attempts 1), so the device
# exits 5 and its bye still counts every interval; the collector must
# exit 5, name the device and the interval, and export every other
# interval exactly as the clean determinism run did.
execute_process(
  COMMAND bash -c "\
    set -u; \
    rm -f '${WORKDIR}/lossy.port'; \
    '${NDTM}' collect --listen 0 --devices 1 --timeout-ms 30000 \
      --port-file '${WORKDIR}/lossy.port' \
      --export '${WORKDIR}/lossy_merged.bin' \
      > '${WORKDIR}/lossy_collect.log' \
      2> '${WORKDIR}/lossy_collect.err' & \
    collect_pid=$!; \
    for i in $(seq 1 100); do \
      [ -s '${WORKDIR}/lossy.port' ] && break; sleep 0.1; \
    done; \
    [ -s '${WORKDIR}/lossy.port' ] || { echo 'no port file'; exit 90; }; \
    port=$(cat '${WORKDIR}/lossy.port'); \
    '${NDTM}' measure --in '${WORKDIR}/smoke.pcap' --interval 1 \
      --algorithm multistage --flow-def dstip --threshold 100000 \
      --fault-plan channel.drop:drop:at=1 --net-attempts 1 \
      --connect 127.0.0.1:$port > '${WORKDIR}/lossy_device.log' 2>&1; \
    [ $? -eq 5 ] || exit 91; \
    wait $collect_pid"
  RESULT_VARIABLE rv)
if(NOT rv EQUAL 5)
  message(FATAL_ERROR "collector that lost an interval should exit 5, "
          "got ${rv}")
endif()
file(READ ${WORKDIR}/lossy_collect.err lossy_err)
if(NOT lossy_err MATCHES "device 0 missing interval 1\n")
  message(FATAL_ERROR "collector did not name the lost interval: "
          "${lossy_err}")
endif()
export_records(${WORKDIR}/det_a_merged.bin clean_intervals clean_records)
export_records(${WORKDIR}/lossy_merged.bin lossy_intervals lossy_records)
list(FIND clean_intervals 1 lost_at)
if(lost_at EQUAL -1)
  message(FATAL_ERROR "the clean export has no interval 1 to lose")
endif()
list(REMOVE_AT clean_intervals ${lost_at})
list(REMOVE_AT clean_records ${lost_at})
if(NOT lossy_intervals STREQUAL clean_intervals OR
   NOT lossy_records STREQUAL clean_records)
  message(FATAL_ERROR "lossy export is not the clean export minus "
          "interval 1: intervals ${lossy_intervals} vs ${clean_intervals}")
endif()

# The distributed system collapses through the CLI: two concurrent
# `--fleet-size 2` members (one paced, so intervals wait for the slower
# member) merge to the very bytes one `--shards 2` process exports.
execute_process(
  COMMAND ${NDTM} measure --in ${WORKDIR}/smoke.pcap --interval 1
          --algorithm multistage --flow-def dstip --threshold 20000
          --shards 2 --export ${WORKDIR}/shards2_reference.bin
  RESULT_VARIABLE rv OUTPUT_QUIET)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "ndtm measure --shards 2 failed: ${rv}")
endif()
execute_process(
  COMMAND bash -c "\
    set -u; \
    rm -f '${WORKDIR}/fleet2.port'; \
    '${NDTM}' collect --listen 0 --devices 2 --timeout-ms 30000 \
      --port-file '${WORKDIR}/fleet2.port' \
      --export '${WORKDIR}/fleet2_merged.bin' \
      > '${WORKDIR}/fleet2_collect.log' 2>&1 & \
    collect_pid=$!; \
    for i in $(seq 1 100); do \
      [ -s '${WORKDIR}/fleet2.port' ] && break; sleep 0.1; \
    done; \
    [ -s '${WORKDIR}/fleet2.port' ] || { echo 'no port file'; exit 90; }; \
    port=$(cat '${WORKDIR}/fleet2.port'); \
    '${NDTM}' measure --in '${WORKDIR}/smoke.pcap' --interval 1 \
      --algorithm multistage --flow-def dstip --threshold 20000 \
      --fleet-size 2 --device-id 0 --connect 127.0.0.1:$port \
      > '${WORKDIR}/fleet2_device0.log' 2>&1 & \
    first_pid=$!; \
    '${NDTM}' measure --in '${WORKDIR}/smoke.pcap' --interval 1 \
      --algorithm multistage --flow-def dstip --threshold 20000 \
      --fleet-size 2 --device-id 1 --pace-ms 20 \
      --connect 127.0.0.1:$port \
      > '${WORKDIR}/fleet2_device1.log' 2>&1 & \
    second_pid=$!; \
    wait $first_pid || exit 91; \
    wait $second_pid || exit 92; \
    wait $collect_pid"
  RESULT_VARIABLE rv)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "--fleet-size 2 collect/measure pipeline failed: ${rv}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORKDIR}/shards2_reference.bin ${WORKDIR}/fleet2_merged.bin
  RESULT_VARIABLE rv)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "--fleet-size 2 merge differs from --shards 2")
endif()
if(EXISTS ${WORKDIR}/fleet2_merged.bin.partial)
  message(FATAL_ERROR "collector left its .partial export behind")
endif()

# Exit-code contract, networked additions: 5 = transport failure.
# A measure pointed at a dead port abandons every report after its
# retry budget and must say so distinctly.
execute_process(
  COMMAND ${NDTM} measure --in ${WORKDIR}/smoke.pcap
          --algorithm multistage --flow-def dstip --threshold 100000
          --connect 127.0.0.1:1 --net-attempts 2 --net-backoff-us 100
  RESULT_VARIABLE rv ERROR_QUIET OUTPUT_QUIET)
if(NOT rv EQUAL 5)
  message(FATAL_ERROR "unreachable collector should exit 5, got ${rv}")
endif()
# A collector whose devices never finish times out with the same code.
execute_process(
  COMMAND ${NDTM} collect --listen 0 --devices 1 --timeout-ms 200
  RESULT_VARIABLE rv ERROR_QUIET OUTPUT_QUIET)
if(NOT rv EQUAL 5)
  message(FATAL_ERROR "collector timeout should exit 5, got ${rv}")
endif()

# ---------------------------------------------------------------------
# Durable store-and-forward: the same dead port with --spool-dir flips
# the contract. Reports wait in the WAL instead of being abandoned, the
# process exits 0 with a pending backlog, and the segments survive on
# disk for the next incarnation. A previous pipeline run's spool and
# journal would short-circuit the whole scenario — start clean.
file(REMOVE_RECURSE ${WORKDIR}/spool)
file(REMOVE ${WORKDIR}/drain.journal)
execute_process(
  COMMAND ${NDTM} measure --in ${WORKDIR}/smoke.pcap
          --algorithm multistage --flow-def dstip --threshold 100000
          --connect 127.0.0.1:1 --net-attempts 2 --net-backoff-us 100
          --spool-dir ${WORKDIR}/spool
  RESULT_VARIABLE rv OUTPUT_VARIABLE spool_out ERROR_QUIET)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR
          "spooled measure at a dead port should exit 0, got ${rv}")
endif()
if(NOT spool_out MATCHES "pending")
  message(FATAL_ERROR "spooled measure did not report a pending backlog")
endif()
file(GLOB spool_segments ${WORKDIR}/spool/wal-*)
list(LENGTH spool_segments spool_segment_count)
if(spool_segment_count EQUAL 0)
  message(FATAL_ERROR "--spool-dir left no WAL segment behind")
endif()

# The (re)connect half: a journaled collector comes up, the device
# re-runs with the same spool — recovered frames drain before the first
# interval closes, the re-measured duplicates are absorbed by
# first-copy-wins dedup, and the run must end with nothing pending.
execute_process(
  COMMAND bash -c "\
    set -u; \
    rm -f '${WORKDIR}/drain.port'; \
    '${NDTM}' collect --listen 0 --devices 1 --timeout-ms 30000 \
      --journal '${WORKDIR}/drain.journal' \
      --port-file '${WORKDIR}/drain.port' \
      --export '${WORKDIR}/drained.bin' \
      > '${WORKDIR}/drain_collect.log' 2>&1 & \
    collect_pid=$!; \
    for i in $(seq 1 100); do \
      [ -s '${WORKDIR}/drain.port' ] && break; sleep 0.1; \
    done; \
    [ -s '${WORKDIR}/drain.port' ] || { echo 'no port file'; exit 90; }; \
    port=$(cat '${WORKDIR}/drain.port'); \
    '${NDTM}' measure --in '${WORKDIR}/smoke.pcap' \
      --algorithm multistage --flow-def dstip --threshold 100000 \
      --connect 127.0.0.1:$port --spool-dir '${WORKDIR}/spool' \
      > '${WORKDIR}/drain_device.log' 2>&1 || exit 91; \
    grep -q 'spool: recovered' '${WORKDIR}/drain_device.log' || exit 94; \
    grep -q '0 pending' '${WORKDIR}/drain_device.log' || exit 95; \
    wait $collect_pid"
  RESULT_VARIABLE rv)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "spool drain pipeline failed: ${rv}")
endif()
if(NOT EXISTS ${WORKDIR}/drained.bin)
  message(FATAL_ERROR "journaled collector produced no merged export")
endif()
file(SIZE ${WORKDIR}/drain.journal drain_journal_bytes)
if(drain_journal_bytes EQUAL 0)
  message(FATAL_ERROR "--journal wrote an empty crash-recovery journal")
endif()
# A restarted collector replays that journal to completion without a
# single connection — the journal alone carries the finished fleet.
execute_process(
  COMMAND ${NDTM} collect --listen 0 --devices 1 --timeout-ms 5000
          --journal ${WORKDIR}/drain.journal
          --export ${WORKDIR}/replayed.bin
  RESULT_VARIABLE rv OUTPUT_VARIABLE replay_out ERROR_QUIET)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "journal-replay collector failed: ${rv}")
endif()
if(NOT replay_out MATCHES "replayed")
  message(FATAL_ERROR "restarted collector did not report a replay")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORKDIR}/drained.bin ${WORKDIR}/replayed.bin
  RESULT_VARIABLE rv)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR
          "journal replay diverged from the live collector's export")
endif()

# ---------------------------------------------------------------------
# Observability plane: the fleet again with the HTTP endpoint and trace
# spans on. After the first device finishes, the collector's /metrics
# is scraped over loopback (bash's /dev/tcp — no curl dependency) and
# must already carry that device's series plus the fleet rollup; both
# processes drop chrome-trace files at exit.
execute_process(
  COMMAND bash -c "\
    set -u; \
    rm -f '${WORKDIR}/obs.port' '${WORKDIR}/obs.http'; \
    '${NDTM}' collect --listen 0 --devices 2 --timeout-ms 30000 \
      --port-file '${WORKDIR}/obs.port' \
      --http-port 0 --http-port-file '${WORKDIR}/obs.http' \
      --trace '${WORKDIR}/collect_trace.json' \
      --export '${WORKDIR}/obs_merged.bin' \
      > '${WORKDIR}/obs_collect.log' 2>&1 & \
    collect_pid=$!; \
    for i in $(seq 1 100); do \
      [ -s '${WORKDIR}/obs.port' ] && [ -s '${WORKDIR}/obs.http' ] && \
        break; sleep 0.1; \
    done; \
    [ -s '${WORKDIR}/obs.port' ] || { echo 'no port file'; exit 90; }; \
    [ -s '${WORKDIR}/obs.http' ] || { echo 'no http port'; exit 90; }; \
    port=$(cat '${WORKDIR}/obs.port'); \
    '${NDTM}' measure --in '${WORKDIR}/smoke.pcap' \
      --algorithm multistage --flow-def dstip --threshold 100000 \
      --connect 127.0.0.1:$port --device-id 0 \
      --metrics '${WORKDIR}/obs_device_metrics.jsonl' \
      --trace '${WORKDIR}/device_trace.json' || exit 91; \
    hport=$(cat '${WORKDIR}/obs.http'); \
    exec 3<>/dev/tcp/127.0.0.1/$hport || exit 93; \
    printf 'GET /metrics HTTP/1.0\\r\\n\\r\\n' >&3; \
    cat <&3 > '${WORKDIR}/obs_scrape.txt'; \
    exec 3<&-; \
    '${NDTM}' measure --in '${WORKDIR}/smoke.pcap' \
      --algorithm multistage --flow-def dstip --threshold 100000 \
      --connect 127.0.0.1:$port --device-id 1 || exit 92; \
    wait $collect_pid"
  RESULT_VARIABLE rv)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "observability pipeline failed: ${rv}")
endif()
file(READ ${WORKDIR}/obs_scrape.txt obs_scrape)
if(NOT obs_scrape MATCHES "HTTP/1.0 200 OK")
  message(FATAL_ERROR "collector /metrics scrape was not a 200")
endif()
if(NOT obs_scrape MATCHES "nd_session_packets_total{device=\"0\"}")
  message(FATAL_ERROR "scrape is missing the per-device series")
endif()
if(NOT obs_scrape MATCHES "device=\"fleet\"")
  message(FATAL_ERROR "scrape is missing the fleet rollup series")
endif()
# Both trace files are chrome://tracing JSON arrays whose spans name
# the two halves of the pipeline.
file(READ ${WORKDIR}/device_trace.json device_trace)
if(NOT device_trace MATCHES "^\\[")
  message(FATAL_ERROR "device trace is not a JSON array")
endif()
if(NOT device_trace MATCHES "interval.close" OR
   NOT device_trace MATCHES "channel.send")
  message(FATAL_ERROR "device trace is missing pipeline spans")
endif()
file(READ ${WORKDIR}/collect_trace.json collect_trace)
if(NOT collect_trace MATCHES "frame.decode" OR
   NOT collect_trace MATCHES "fleet.merge")
  message(FATAL_ERROR "collector trace is missing pipeline spans")
endif()
