// ndtm — the command-line front end to the library.
//
// Every subcommand rejects a flag it does not read (exit code 2, the
// message names the flag), so a typo never runs with a default.
//
//   ndtm synthesize --preset mag --scale 0.1 --intervals 6 --out t.pcap
//       Write a calibrated synthetic trace as a standard pcap file.
//
//   ndtm measure --in t.pcap --algorithm multistage --flow-def dstip
//                --threshold 100000 --interval 5 [--export reports.bin]
//                [--shards N] [--adaptive 1] [--shard-usage 1]
//                [--metrics[=path]] [--fault-plan spec] [--fault-seed N]
//                [--checkpoint path] [--http-port N] [--trace path]
//       Stream a pcap through a measurement device in fixed intervals
//       and print (and optionally export) the heavy hitters per
//       interval, then a `pcap:` line counting the records read and
//       the frames skipped (not IPv4 or headers truncated) and the
//       `done:` summary. Algorithms: sample-and-hold, multistage, netflow.
//       Flow definitions: 5tuple, dstip, netpair:<prefixlen>.
//       --shards N > 1 partitions the flow space RSS-style across N
//       replicas of the device; each packet goes to its shard on the
//       packet thread, and only the interval close forks the shards
//       out to a worker pool. --threshold is only the starting point,
//       not a fixed global value. With --adaptive 1 each shard steers
//       its own threshold toward 90% flow-memory usage (Section 6 run
//       per replica; with one shard a single global adaptor runs
//       instead), and the printed cutoff is the effective — maximum
//       per-shard — threshold. --shard-usage 1
//       dumps each shard's threshold, entries, smoothed usage and
//       traffic (plus max/mean load-imbalance ratios) per interval.
//       --metrics turns the zero-overhead-when-off telemetry layer on
//       and writes one JSON-lines registry snapshot per interval to
//       metrics.jsonl (or the given path); whenever the registry is on
//       (--metrics or --http-port) the same snapshot rides every
//       exported or --connect-shipped report as the v3 metrics trailer,
//       feeding the collector's fleet aggregation. Devices publish
//       their series at interval close, so each snapshot counts exactly
//       the closed intervals.
//       --fault-plan injects deterministic chaos (grammar in
//       robustness/fault.hpp, seeded by --fault-seed) into the pool
//       and pcap reader; --checkpoint writes a crash-safe session
//       checkpoint after every closed interval (resumable via
//       core/checkpoint).
//       The CRC-32 tier that checksums frames, spool records and
//       checkpoints is picked per CPU; ND_SIMD=scalar|neon|avx2 in the
//       environment caps it. Output bytes are identical under every
//       tier.
//
//       --http-port N serves the live observability plane on
//       127.0.0.1:N (0 = ephemeral; --http-port-file publishes the
//       bound port for harnesses): GET /metrics is the Prometheus text
//       rendering of the registry, /healthz and /statusz report
//       liveness; a scrape between closes shows the device series as of
//       the last closed interval. Implies the telemetry layer even
//       without --metrics; with neither flag the packet path carries
//       zero telemetry cost.
//       --trace path records spans (shard merges, interval closes,
//       checkpoint saves, channel send/backoff, transport connects)
//       into a lock-free ring and writes a chrome://tracing /
//       Perfetto JSON file at exit; span args carry device/epoch/
//       interval ids that line up with the collector's --trace spans.
//
//       --connect HOST:PORT ships every interval report to a collector
//       daemon (see `ndtm collect`) through the resilient channel over
//       a real TCP transport: retries with backoff on connect failures
//       and mid-frame disconnects, announces itself with --device-id
//       (default 0), and says bye when the capture ends. Backoff uses
//       decorrelated jitter seeded per device so a fleet reconnecting
//       after a collector restart spreads out (--net-jitter 0 restores
//       the exact base*2^retry ladder). --net-attempts bounds delivery
//       attempts per report, --net-backoff-us sets the base backoff,
//       --net-budget the per-interval byte budget. The net.* fault
//       sites (connect, disconnect, short_write) apply when a
//       --fault-plan names them.
//
//       --spool-dir DIR (requires --connect) turns transport loss into
//       a wait: every shaped report is appended to a CRC-guarded WAL in
//       DIR *before* its first send attempt, recovered frames from a
//       previous incarnation are drained on startup, and a report that
//       outlives the retry budget stays spooled for the next run
//       instead of being abandoned — the process then exits 0, not 5.
//       While the backlog drains, /healthz reports degraded (503); it
//       recovers only once every spooled report has reached the
//       collector. --spool-max-bytes bounds the on-disk log (default
//       64 MiB; over budget: sent frames evicted oldest-first, then
//       smallest flows shed, and only a report that cannot fit at all
//       is dropped — which is the one spool condition that still exits
//       5). --spool-fsync 0 trades crash-durability for speed;
//       --spool-fsync-batch N group-commits instead, fsyncing once per
//       N appends (partial batches flush on rotation and shutdown, so
//       only a power cut mid-batch can lose the last N-1 records — and
//       those are re-sent from memory on drain). The spool.* fault
//       sites (disk_full, torn_record, short_write) apply when a
//       --fault-plan names them.
//
//       --resume (requires --checkpoint) restarts from the checkpoint
//       when the file exists (fresh start otherwise): the device state
//       is restored, the already-accounted pcap records are skipped,
//       and the re-fed tail reproduces the interrupted run's reports
//       bit for bit — duplicates are the collector's first-copy-wins
//       dedup's business.
//
//       --pace-ms N sleeps N milliseconds after each closed interval,
//       throttling the pcap replay to approximate a live capture —
//       chaos harnesses use it so kills land mid-stream instead of
//       after a sub-millisecond replay. Default 0 (full speed); the
//       measured results are identical either way.
//
//       --fleet-size M (with --device-id m < M, incompatible with
//       --shards/--adaptive) runs this process as fleet member m: the
//       flow space is routed with the same seeded math an M-sharded
//       device uses and only slice m is measured, so M such processes
//       shipping to one collector merge bit-identically to a single
//       `--shards M` run.
//
//       SIGINT/SIGTERM stop the capture gracefully: the current
//       position is checkpointed (with --checkpoint), the spool is
//       given a final drain, metrics and trace files are written, no
//       bye is sent (the capture is incomplete), and the process exits
//       0 — a later --resume run continues where it left off.
//
//       Exit codes: 0 success (including "reports still spooled, not
//       yet collected" — durable, not lost), 1 file/IO error, 2 bad
//       arguments, 3 decode error (malformed pcap or report), 4
//       runtime fault (injected fault or shard failure), 5 transport
//       failure — only when the spool is disabled and a report was
//       abandoned after --net-attempts (or the final bye was
//       undeliverable), or when the spool's disk budget dropped a
//       report outright.
//
//   ndtm collect --listen PORT --devices N [--export merged.bin]
//                [--timeout-ms N] [--port-file path] [--metrics[=path]]
//                [--http-port N] [--http-port-file path] [--trace path]
//                [--journal path] [--journal-fsync 0|1]
//                [--journal-fsync-batch N]
//                [--fault-plan spec] [--fault-seed N]
//       The management-station end: accept device connections on
//       127.0.0.1:PORT (0 = ephemeral; --port-file writes the bound
//       port for harnesses), ingest framed reports with per-device
//       sequence/reconnect tracking and first-copy-wins dedup, and
//       when all N devices have said bye, fleet-merge each interval in
//       device-id order — the same bit-deterministic merge a sharded
//       device uses — printing a summary and optionally exporting the
//       merged reports. While running, --http-port N serves the fleet
//       observability plane: /metrics re-exports every member's v3
//       metrics trailer under a device="<id>" label plus device="fleet"
//       rollups (counters/histograms summed, gauges maxed), /healthz
//       answers 200 while the daemon runs, /statusz renders the live
//       device table. --trace path
//       writes the collector-side chrome-trace spans (frame decodes,
//       duplicate drops, fleet merges) at exit.
//       --journal path makes the merge state crash-durable: every
//       first-copy report and bye is appended to a CRC-guarded journal
//       *before* it enters the merge, and a restarted collector
//       replays the journal through the normal ingestion path (dedup
//       included) before accepting connections — so a collector killed
//       mid-interval and restarted merges bit-identically to one that
//       never died. --journal-fsync 0 trades per-record durability for
//       speed; --journal-fsync-batch N group-commits, fsyncing once
//       per N appends (a crash mid-batch loses at most N-1 records,
//       which devices re-send from their spools and dedup absorbs);
//       the journal.torn_record fault site applies when a
//       --fault-plan names it. SIGINT/SIGTERM stop the daemon
//       gracefully: accepted reports are already journaled, and the
//       merged export, metrics and trace files are still written.
//       Exit codes: 0 all devices completed, 1 IO error, 2 bad
//       arguments, 5 timed out (or stopped) first.
//
//   ndtm bounds --threshold 1000000 --capacity 100000000
//                --oversampling 20 --buckets 1000 --depth 4
//                --flows 100000
//       Evaluate the paper's analytical bounds for a configuration.
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>

#include "analysis/dimensioning.hpp"
#include "analysis/multistage_bounds.hpp"
#include "analysis/sample_hold_bounds.hpp"
#include "baseline/sampled_netflow.hpp"
#include "common/crc32.hpp"
#include "common/format.hpp"
#include "common/state_buffer.hpp"
#include "common/thread_pool.hpp"
#include "core/adaptive_device.hpp"
#include "core/checkpoint.hpp"
#include "core/measurement_session.hpp"
#include "core/multistage_filter.hpp"
#include "core/sample_and_hold.hpp"
#include "core/sharded_device.hpp"
#include "eval/metrics.hpp"
#include "net/collector.hpp"
#include "net/fleet.hpp"
#include "net/journal.hpp"
#include "net/transport.hpp"
#include "packet/flow_definition.hpp"
#include "pcap/pcap.hpp"
#include "reporting/record_codec.hpp"
#include "reporting/resilient_channel.hpp"
#include "reporting/spool.hpp"
#include "robustness/fault.hpp"
#include "telemetry/export.hpp"
#include "telemetry/http_exporter.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "trace/presets.hpp"
#include "trace/synthesizer.hpp"

using namespace nd;

namespace {

/// Minimal flag parser; every subcommand shares it. Accepts
/// `--key value`, `--key=value`, and bare `--key` (stored with an empty
/// value — use has() to test presence).
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        std::fprintf(stderr, "bad flag: %s\n", key.c_str());
        std::exit(2);
      }
      key.erase(0, 2);
      if (const auto eq = key.find('='); eq != std::string::npos) {
        values_[key.substr(0, eq)] = key.substr(eq + 1);
      } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";  // bare flag
      }
    }
  }

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }
  [[nodiscard]] std::uint64_t get_u64(const std::string& key,
                                      std::uint64_t fallback) const {
    const auto it = values_.find(key);
    return it == values_.end()
               ? fallback
               : std::strtoull(it->second.c_str(), nullptr, 10);
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return values_.count(key) > 0;
  }
  /// A flag given on the command line that is not in `known`, if any.
  [[nodiscard]] std::optional<std::string> unknown_flag(
      const std::set<std::string>& known) const {
    for (const auto& entry : values_) {
      if (known.count(entry.first) == 0) return entry.first;
    }
    return std::nullopt;
  }

 private:
  std::map<std::string, std::string> values_;
};

/// Trace pid for `ndtm collect` exports — a constant no --device-id can
/// collide with, so a device trace and the collector trace loaded into
/// one viewer land on separate process rows.
inline constexpr std::uint32_t kCollectorTracePid = 0xC011EC7;

/// Graceful SIGINT/SIGTERM: the handler only flips a flag (measure
/// polls it between pcap records) and pokes the collector's self-pipe
/// when one is registered — both async-signal-safe.
volatile std::sig_atomic_t g_stop_requested = 0;
volatile int g_collector_stop_fd = -1;

void handle_stop_signal(int) {
  g_stop_requested = 1;
  const int fd = g_collector_stop_fd;
  if (fd >= 0) {
    const std::uint8_t byte = 1;
    (void)::write(fd, &byte, 1);
  }
}

void install_stop_handlers() {
  struct sigaction action{};
  action.sa_handler = handle_stop_signal;
  sigemptyset(&action.sa_mask);
  // SA_RESTART: file reads and accepts resume; the collector's poll()
  // still wakes via the self-pipe byte the handler wrote.
  action.sa_flags = SA_RESTART;
  (void)::sigaction(SIGINT, &action, nullptr);
  (void)::sigaction(SIGTERM, &action, nullptr);
}

/// Publish a bound port for harnesses (--port-file / --http-port-file).
/// tmp+rename, so a poller never reads a half-written port.
bool write_port_file(const std::string& path, std::uint16_t port) {
  if (path.empty()) return true;
  const std::string tmp = path + ".tmp";
  {
    std::ofstream stream(tmp, std::ios::trunc);
    if (!stream) {
      std::fprintf(stderr, "cannot open %s for writing\n", tmp.c_str());
      return false;
    }
    stream << port << "\n";
    if (!stream.good()) {
      std::error_code cleanup;
      std::filesystem::remove(tmp, cleanup);
      std::fprintf(stderr, "short write to %s\n", tmp.c_str());
      return false;
    }
  }
  std::error_code error;
  std::filesystem::rename(tmp, path, error);
  if (error) {
    std::error_code cleanup;
    std::filesystem::remove(tmp, cleanup);
    std::fprintf(stderr, "cannot rename %s into place: %s\n", tmp.c_str(),
                 error.message().c_str());
    return false;
  }
  return true;
}

/// Removes a published port file when the process leaves the scope that
/// wrote it — normal return or exception unwind alike — so harnesses
/// never pick up a stale port from a dead incarnation.
class PortFileGuard {
 public:
  PortFileGuard() = default;
  ~PortFileGuard() {
    if (path_.empty()) return;
    std::error_code discard;
    std::filesystem::remove(path_, discard);
  }
  PortFileGuard(const PortFileGuard&) = delete;
  PortFileGuard& operator=(const PortFileGuard&) = delete;
  void arm(std::string path) { path_ = std::move(path); }

 private:
  std::string path_;
};

/// --trace=path: drain the recorder into a chrome://tracing JSON file.
bool write_trace_file(const std::string& path,
                      const telemetry::TraceRecorder& recorder,
                      std::uint32_t pid) {
  std::ofstream stream(path, std::ios::binary | std::ios::trunc);
  if (!stream) {
    std::fprintf(stderr, "cannot open %s for trace\n", path.c_str());
    return false;
  }
  const std::vector<telemetry::TraceEvent> events = recorder.events();
  stream << telemetry::to_chrome_trace(events, pid);
  std::printf("trace: %zu spans (%llu dropped) -> %s\n", events.size(),
              static_cast<unsigned long long>(recorder.dropped()),
              path.c_str());
  return stream.good();
}

/// Serve the observability endpoint; exits with code 1 on a bind
/// failure (the port is an operator input, same class as a bad path).
std::unique_ptr<telemetry::HttpExporter> start_http_exporter(
    const Args& args, telemetry::HttpExporterConfig config,
    const char* command) {
  config.port = static_cast<std::uint16_t>(args.get_u64("http-port", 0));
  std::unique_ptr<telemetry::HttpExporter> http;
  try {
    http = std::make_unique<telemetry::HttpExporter>(std::move(config));
  } catch (const net::NetError& error) {
    std::fprintf(stderr, "%s: --http-port: %s\n", command, error.what());
    return nullptr;
  }
  http->start();
  if (!write_port_file(args.get("http-port-file", ""), http->port())) {
    return nullptr;
  }
  std::printf("%s: observability http on 127.0.0.1:%u\n", command,
              http->port());
  std::fflush(stdout);
  return http;
}

trace::TraceConfig preset_by_name(const std::string& name,
                                  std::uint64_t seed) {
  if (name == "mag") return trace::Presets::mag(seed);
  if (name == "mag+") return trace::Presets::mag_plus(seed);
  if (name == "ind") return trace::Presets::ind(seed);
  if (name == "cos") return trace::Presets::cos(seed);
  std::fprintf(stderr, "unknown preset: %s (mag, mag+, ind, cos)\n",
               name.c_str());
  std::exit(2);
}

int cmd_synthesize(const Args& args) {
  const std::string out = args.get("out", "trace.pcap");
  auto config = preset_by_name(args.get("preset", "cos"),
                               args.get_u64("seed", 42));
  config.num_intervals =
      static_cast<std::uint32_t>(args.get_u64("intervals", 6));
  const double scale = args.get_double("scale", 0.1);
  if (scale < 1.0) config = trace::scaled(config, scale);
  if (args.get("arrivals", "uniform") == "bursty") {
    config.arrival_model = trace::TraceConfig::ArrivalModel::kBursty;
  }

  std::ofstream stream(out, std::ios::binary);
  if (!stream) {
    std::fprintf(stderr, "cannot open %s for writing\n", out.c_str());
    return 1;
  }
  pcap::PcapWriter writer(
      stream, static_cast<std::uint32_t>(args.get_u64("snaplen", 96)));
  trace::TraceSynthesizer synth(config);
  common::ByteCount bytes = 0;
  for (;;) {
    const auto packets = synth.next_interval();
    if (packets.empty()) break;
    for (const auto& packet : packets) {
      writer.write(packet);
      bytes += packet.size_bytes;
    }
  }
  std::printf("%s: %llu packets, %s across %u intervals -> %s\n",
              config.name.c_str(),
              static_cast<unsigned long long>(writer.packets_written()),
              common::format_bytes(bytes).c_str(), config.num_intervals,
              out.c_str());
  return 0;
}

packet::FlowDefinition flow_def_by_name(const std::string& name) {
  if (name == "5tuple") return packet::FlowDefinition::five_tuple();
  if (name == "dstip") return packet::FlowDefinition::destination_ip();
  if (name.rfind("netpair:", 0) == 0) {
    return packet::FlowDefinition::network_pair(
        static_cast<std::uint8_t>(std::atoi(name.c_str() + 8)));
  }
  std::fprintf(stderr,
               "unknown flow definition: %s (5tuple, dstip, "
               "netpair:<len>)\n",
               name.c_str());
  std::exit(2);
}

std::unique_ptr<core::MeasurementDevice> device_by_name(
    const std::string& name, common::ByteCount threshold,
    std::size_t entries, std::uint64_t seed,
    telemetry::MetricsRegistry* metrics = nullptr,
    telemetry::Labels metric_labels = {}) {
  if (name == "sample-and-hold") {
    core::SampleAndHoldConfig config;
    config.flow_memory_entries = entries;
    config.threshold = threshold;
    config.oversampling = 4.0;
    config.preserve = flowmem::PreservePolicy::kEarlyRemoval;
    config.seed = seed;
    config.metrics = metrics;
    config.metric_labels = std::move(metric_labels);
    return std::make_unique<core::SampleAndHold>(config);
  }
  if (name == "multistage") {
    core::MultistageFilterConfig config;
    config.flow_memory_entries = entries;
    config.depth = 4;
    config.buckets_per_stage =
        static_cast<std::uint32_t>(std::max<std::size_t>(entries, 64));
    config.threshold = threshold;
    config.preserve = flowmem::PreservePolicy::kPreserve;
    config.seed = seed;
    config.metrics = metrics;
    config.metric_labels = std::move(metric_labels);
    return std::make_unique<core::MultistageFilter>(config);
  }
  if (name == "netflow") {
    baseline::SampledNetFlowConfig config;
    config.sampling_divisor = 16;
    config.seed = seed;
    return std::make_unique<baseline::SampledNetFlow>(config);
  }
  std::fprintf(stderr,
               "unknown algorithm: %s (sample-and-hold, multistage, "
               "netflow)\n",
               name.c_str());
  std::exit(2);
}

/// `--shard-usage` lines of one interval's listing: one per shard,
///   "  shard S: T=<bytes, 12 columns> entries=U/C usage=P% pkts=N bytes=B"
/// then the packet and byte max/mean imbalance when the report has
/// shards.
void append_shard_usage(std::string& out, const core::Report& report) {
  for (std::size_t s = 0; s < report.shards.size(); ++s) {
    const core::ShardStatus& status = report.shards[s];
    out.append("  shard ");
    common::append_uint(out, s);
    out.append(": T=");
    const std::size_t threshold_start = out.size();
    common::append_bytes(out, status.threshold);
    const std::size_t threshold_width = out.size() - threshold_start;
    if (threshold_width < 12) out.append(12 - threshold_width, ' ');
    out.append(" entries=");
    common::append_uint(out, status.entries_used);
    out.push_back('/');
    common::append_uint(out, status.capacity);
    out.append(" usage=");
    common::append_fixed(out, 100.0 * status.smoothed_usage, 1);
    out.append("% pkts=");
    common::append_uint(out, status.packets);
    out.append(" bytes=");
    common::append_bytes(out, status.bytes);
    out.push_back('\n');
  }
  const eval::ShardUsageSummary balance = eval::summarize_shards(report);
  if (balance.shard_count > 0) {
    out.append("  shard balance: packet max/mean=");
    common::append_fixed(out, balance.packet_imbalance, 2);
    out.append(" byte max/mean=");
    common::append_fixed(out, balance.byte_imbalance, 2);
    out.push_back('\n');
  }
}

int cmd_measure(const Args& args) {
  const std::string in = args.get("in", "");
  if (in.empty()) {
    std::fprintf(stderr, "measure: --in <file.pcap> is required\n");
    return 2;
  }
  const common::ByteCount threshold = args.get_u64("threshold", 100'000);
  const auto definition = flow_def_by_name(args.get("flow-def", "5tuple"));
  const std::string algorithm = args.get("algorithm", "multistage");
  const std::size_t entries = args.get_u64("entries", 4096);
  const std::uint64_t seed = args.get_u64("seed", 1);
  const auto shards =
      static_cast<std::uint32_t>(std::max<std::uint64_t>(
          args.get_u64("shards", 1), 1));
  const bool adaptive = args.get_u64("adaptive", 0) != 0;
  const bool shard_usage_dump = args.get_u64("shard-usage", 0) != 0;
  if (adaptive && algorithm == "netflow") {
    std::fprintf(stderr,
                 "measure: --adaptive needs a thresholded algorithm "
                 "(sample-and-hold, multistage)\n");
    return 2;
  }
  const auto device_id =
      static_cast<std::uint32_t>(args.get_u64("device-id", 0));
  const auto fleet_size =
      static_cast<std::uint32_t>(args.get_u64("fleet-size", 0));
  if (fleet_size > 0) {
    if (device_id >= fleet_size) {
      std::fprintf(stderr,
                   "measure: --device-id %u is outside --fleet-size %u\n",
                   device_id, fleet_size);
      return 2;
    }
    if (shards > 1) {
      std::fprintf(stderr,
                   "measure: --fleet-size is one member of a fleet; it "
                   "cannot combine with --shards\n");
      return 2;
    }
    if (adaptive) {
      std::fprintf(stderr,
                   "measure: --fleet-size does not combine with "
                   "--adaptive (members cannot see fleet-wide usage)\n");
      return 2;
    }
  }
  const std::string connect = args.get("connect", "");
  const std::string spool_dir = args.get("spool-dir", "");
  if (!spool_dir.empty() && connect.empty()) {
    std::fprintf(stderr,
                 "measure: --spool-dir spools reports for a collector; "
                 "it needs --connect\n");
    return 2;
  }
  const core::ThresholdAdaptorConfig adaptor_config =
      algorithm == "sample-and-hold" ? core::sample_and_hold_adaptor()
                                     : core::multistage_adaptor();

  // --metrics / --metrics=path / --metrics path: turn the telemetry
  // layer on. --http-port implies it (a scrape endpoint over an empty
  // registry would be useless). With neither flag the devices are
  // built with a null registry and the packet path carries zero
  // telemetry cost.
  const bool metrics_on = args.has("metrics");
  const bool http_on = args.has("http-port");
  const std::string metrics_arg = args.get("metrics", "");
  const std::string metrics_path =
      metrics_arg.empty() ? "metrics.jsonl" : metrics_arg;
  telemetry::MetricsRegistry registry;
  telemetry::MetricsRegistry* metrics =
      metrics_on || http_on ? &registry : nullptr;
  std::ofstream metrics_stream;
  std::unique_ptr<telemetry::JsonLinesExporter> metrics_exporter;
  if (metrics_on) {
    metrics_stream.open(metrics_path);
    if (!metrics_stream) {
      std::fprintf(stderr, "cannot open %s for metrics\n",
                   metrics_path.c_str());
      return 1;
    }
    metrics_exporter =
        std::make_unique<telemetry::JsonLinesExporter>(metrics_stream);
  }
  // Declared ahead of the HTTP exporter so /healthz can watch the
  // spool backlog: a device still draining spooled reports is live but
  // degraded, and the flag clears only once the backlog empties.
  std::unique_ptr<net::TcpTransport> transport;
  std::unique_ptr<reporting::SpoolWal> spool;
  std::unique_ptr<reporting::ResilientChannel> channel;
  std::unique_ptr<telemetry::HttpExporter> http;
  PortFileGuard http_port_guard;
  if (http_on) {
    telemetry::HttpExporterConfig http_config;
    http_config.metrics_text = [&registry] {
      // Fold the process-global CRC byte counters into this scrape —
      // nd_crc_bytes_total{impl=...} shows which kernel tier is live.
      common::sync_crc32_metrics(registry);
      return telemetry::to_prometheus(registry.snapshot());
    };
    http_config.healthy = [&spool] {
      return spool == nullptr || !spool->draining();
    };
    http = start_http_exporter(args, std::move(http_config), "measure");
    if (http == nullptr) return 1;
    http_port_guard.arm(args.get("http-port-file", ""));
  }

  // --trace path: span recording. Off (the default) every instrumented
  // site holds a null recorder — one branch, no clock reads.
  const std::string trace_path = args.get("trace", "");
  if (args.has("trace") && trace_path.empty()) {
    std::fprintf(stderr, "measure: --trace needs a file path\n");
    return 2;
  }
  std::unique_ptr<telemetry::TraceRecorder> tracer;
  if (!trace_path.empty()) {
    tracer = std::make_unique<telemetry::TraceRecorder>();
  }

  // --fault-plan: deterministic chaos across the pipeline (grammar in
  // robustness/fault.hpp). Parsed up front so a malformed spec is a
  // usage error, not a mid-run surprise.
  std::unique_ptr<robustness::FaultInjector> faults;
  if (args.has("fault-plan")) {
    try {
      faults = std::make_unique<robustness::FaultInjector>(
          robustness::parse_fault_plan(args.get("fault-plan", ""),
                                       args.get_u64("fault-seed", 1)));
    } catch (const std::invalid_argument& error) {
      std::fprintf(stderr, "measure: bad --fault-plan: %s\n",
                   error.what());
      return 2;
    }
    faults->attach_telemetry(metrics);
  }
  const std::string checkpoint_path = args.get("checkpoint", "");
  const bool resume_requested = args.has("resume");
  if (resume_requested && checkpoint_path.empty()) {
    std::fprintf(stderr,
                 "measure: --resume restarts from a checkpoint; it "
                 "needs --checkpoint\n");
    return 2;
  }

  std::unique_ptr<common::ThreadPool> pool;  // outlives the session
  std::unique_ptr<core::MeasurementDevice> device;
  if (shards > 1) {
    common::ThreadPoolConfig pool_config;
    pool_config.threads = std::min<std::size_t>(
        shards - 1, common::ThreadPool::default_thread_count());
    pool = std::make_unique<common::ThreadPool>(pool_config);
    pool->attach_telemetry(metrics);
    pool->attach_fault_injector(faults.get());
    core::ShardedDeviceConfig sharded;
    sharded.shards = shards;
    sharded.seed = seed;
    sharded.pool = pool.get();
    sharded.metrics = metrics;
    sharded.trace = tracer.get();
    if (adaptive) sharded.adaptor = adaptor_config;
    // Split the memory budget across shards (>= 64 entries each).
    const std::size_t per_shard =
        std::max<std::size_t>(entries / shards, 64);
    device = std::make_unique<core::ShardedDevice>(
        sharded, [&](std::uint32_t shard, std::uint64_t shard_seed_value) {
          return device_by_name(
              algorithm, threshold, per_shard, shard_seed_value, metrics,
              telemetry::Labels{{"shard", std::to_string(shard)}});
        });
  } else if (fleet_size > 0) {
    // One member of a --fleet-size fleet: the inner replica is built
    // with the exact per-shard seed and memory split an M-sharded
    // device would hand shard `device_id`, and the decorator routes the
    // flow space with the same seeded math — so M such processes merge
    // bit-identically to one `--shards M` run at the collector.
    const std::size_t per_member =
        std::max<std::size_t>(entries / fleet_size, 64);
    device = std::make_unique<net::FleetSliceDevice>(
        device_id, fleet_size, seed,
        device_by_name(algorithm, threshold, per_member,
                       core::shard_seed(seed, device_id), metrics));
  } else {
    device = device_by_name(algorithm, threshold, entries, seed, metrics);
    if (adaptive) {
      device = std::make_unique<core::AdaptiveDevice>(std::move(device),
                                                      adaptor_config);
    }
  }
  const auto interval = std::chrono::seconds(
      static_cast<long>(args.get_u64("interval", 5)));
  const packet::FlowKeyKind key_kind = definition.kind();

  // --resume: when the checkpoint file exists, restore the session
  // (device state, interval clock, tallies) and remember how many pcap
  // records it already accounted for; a missing file is a fresh start,
  // so a restart loop needs no first-run special case.
  std::uint64_t skip_records = 0;
  bool resumed = false;
  std::optional<core::MeasurementSession> session_storage;
  if (resume_requested && std::filesystem::exists(checkpoint_path)) {
    try {
      const core::SessionCheckpoint loaded =
          core::load_checkpoint_file(checkpoint_path);
      skip_records = loaded.packets;
      session_storage.emplace(core::MeasurementSession::resume(
          loaded, std::move(device), definition));
      resumed = true;
      std::printf(
          "resume: %s at %llu packets, %u intervals closed\n",
          checkpoint_path.c_str(),
          static_cast<unsigned long long>(loaded.packets),
          loaded.intervals_closed);
    } catch (const common::StateError& error) {
      std::fprintf(stderr, "measure: --resume: %s\n", error.what());
      return 1;
    }
  } else {
    session_storage.emplace(std::move(device), definition, interval);
  }
  core::MeasurementSession& session = *session_storage;
  session.attach_telemetry(metrics);
  session.attach_trace(tracer.get());

  std::ifstream stream(in, std::ios::binary);
  if (!stream) {
    std::fprintf(stderr, "cannot open %s\n", in.c_str());
    return 1;
  }

  std::ofstream export_stream;
  const std::string export_path = args.get("export", "");
  if (!export_path.empty()) {
    export_stream.open(export_path, std::ios::binary);
    if (!export_stream) {
      std::fprintf(stderr, "cannot open %s for export\n",
                   export_path.c_str());
      return 1;
    }
  }

  // --connect HOST:PORT: ship every interval report to a collector
  // daemon through the resilient channel over a real TCP transport. The
  // channel keeps its retry/backoff/shed policy; the transport owns the
  // socket and reconnects (with a bumped epoch) after any disconnect.
  std::uint64_t net_reports_abandoned = 0;
  if (!connect.empty()) {
    const auto colon = connect.rfind(':');
    if (colon == std::string::npos || colon + 1 == connect.size()) {
      std::fprintf(stderr, "measure: --connect expects HOST:PORT\n");
      return 2;
    }
    net::TcpTransportConfig transport_config;
    transport_config.host = connect.substr(0, colon);
    transport_config.port = static_cast<std::uint16_t>(
        std::strtoul(connect.c_str() + colon + 1, nullptr, 10));
    transport_config.device_id = device_id;
    transport_config.faults = faults.get();
    transport_config.metrics = metrics;
    transport_config.trace = tracer.get();
    transport = std::make_unique<net::TcpTransport>(transport_config);
    if (!spool_dir.empty()) {
      reporting::SpoolWalConfig spool_config;
      spool_config.directory = spool_dir;
      spool_config.max_total_bytes =
          args.get_u64("spool-max-bytes", 1ULL << 26);
      spool_config.fsync = args.get_u64("spool-fsync", 1) != 0;
      spool_config.fsync_batch = static_cast<std::uint32_t>(
          args.get_u64("spool-fsync-batch", 1));
      spool_config.faults = faults.get();
      spool_config.metrics = metrics;
      spool_config.trace = tracer.get();
      spool_config.trace_device = static_cast<std::int64_t>(device_id);
      try {
        spool = std::make_unique<reporting::SpoolWal>(spool_config);
      } catch (const reporting::SpoolError& error) {
        std::fprintf(stderr, "measure: --spool-dir: %s\n", error.what());
        return 1;
      }
      const reporting::SpoolWalStats& recovered = spool->stats();
      if (recovered.recovered > 0 || recovered.torn_records > 0) {
        std::printf(
            "spool: recovered %llu frames (%llu torn records skipped) "
            "from %s\n",
            static_cast<unsigned long long>(recovered.recovered),
            static_cast<unsigned long long>(recovered.torn_records),
            spool_dir.c_str());
      }
    }
    reporting::ResilientChannelConfig channel_config;
    channel_config.bytes_per_interval =
        args.get_u64("net-budget", 1ULL << 22);
    channel_config.max_attempts =
        static_cast<std::uint32_t>(args.get_u64("net-attempts", 4));
    channel_config.backoff_base =
        std::chrono::microseconds(args.get_u64("net-backoff-us", 1000));
    channel_config.sleep_on_backoff = true;
    channel_config.transport = transport.get();
    channel_config.spool = spool.get();
    // Decorrelated jitter by default: a fleet reconnecting after a
    // collector restart must not thunder in lockstep. Seeded per device
    // so every schedule is still exactly reproducible.
    channel_config.jitter = args.get_u64("net-jitter", 1) != 0;
    channel_config.jitter_seed =
        seed ^ (0x9E3779B97F4A7C15ULL * (device_id + 1));
    channel_config.faults = faults.get();
    channel_config.metrics = metrics;
    channel_config.trace = tracer.get();
    channel_config.trace_device = static_cast<std::int64_t>(device_id);
    channel =
        std::make_unique<reporting::ResilientChannel>(channel_config);
    // Drain whatever a previous incarnation left spooled before the
    // first interval even closes — the (re)connect half of
    // store-and-forward. Failure is fine: the frames stay on disk and
    // every later send() retries the backlog.
    if (spool && spool->backlog() > 0) (void)channel->drain_spool();
  }

  // Each interval's listing (header, --shard-usage lines, one line per
  // flow at or above the cutoff) is rendered into one reused buffer and
  // handed to stdout with a single fwrite, which keeps it in order with
  // the printf lines around it.
  std::string listing;
  // The report stage never calls into the device, which belongs to the
  // packet thread; the capacity it stamps on shipped reports is fixed at
  // construction.
  const std::size_t memory_capacity =
      session.device().flow_memory_capacity();
  auto handle_reports = [&](std::vector<core::Report>& reports) {
    for (auto& report : reports) {
      core::sort_by_size(report);
      // Under adaptation the operative cutoff is the report's effective
      // (max per-shard) threshold, not the CLI starting value.
      const common::ByteCount cutoff =
          adaptive ? std::max<common::ByteCount>(
                         core::effective_threshold(report), 1)
                   : threshold;
      listing.clear();
      listing.append("interval ");
      common::append_uint(listing, report.interval);
      listing.append(": ");
      common::append_uint(listing, report.flows.size());
      listing.append(" flows tracked\n");
      if (shard_usage_dump) append_shard_usage(listing, report);
      for (const auto& flow : report.flows) {
        if (flow.estimated_bytes < cutoff) break;
        core::append_flow_line(listing, flow);
      }
      std::fwrite(listing.data(), 1, listing.size(), stdout);
      // One interval-aligned registry snapshot per report: a JSON line
      // in the metrics file, and the same line riding every exported or
      // shipped report as the v3 metrics trailer — whichever flag
      // turned the registry on, the collector's fleet plane gets fed.
      std::string metrics_line;
      if (metrics != nullptr) common::sync_crc32_metrics(registry);
      if (metrics_exporter) {
        metrics_line = telemetry::to_json_line(
            metrics_exporter->write(registry, report.interval));
      } else if (metrics != nullptr) {
        metrics_line =
            telemetry::to_json_line(registry.snapshot(report.interval));
      }
      if (export_stream.is_open()) {
        const auto encoded =
            reporting::encode(report, key_kind, metrics_line);
        export_stream.write(
            reinterpret_cast<const char*>(encoded.data()),
            static_cast<std::streamsize>(encoded.size()));
      }
      if (channel) {
        // The collector merges member ShardStatus entries; an unsharded
        // device ships one synthesized status (exactly what a fleet
        // member attaches) so thresholds and occupancy survive the
        // merge. Sharded reports already carry theirs. The report is
        // not read after this, so it moves into the channel uncopied.
        if (report.shards.empty()) {
          report.shards.assign(
              1, core::make_shard_status(report, memory_capacity, 0, 0));
        }
        const reporting::DeliveryOutcome outcome =
            channel->send(std::move(report), metrics_line);
        // In spool mode an undelivered report is waiting, not lost —
        // the only permanent spool loss is a budget drop, accounted
        // from the spool's own stats at exit.
        if (!spool && !outcome.delivered) ++net_reports_abandoned;
      }
    }
  };

  // The report stage: one worker runs handle_reports for interval k
  // while this thread reads interval k+1's packets, with at most one
  // report task in flight. Declared after everything the task touches,
  // so its destructor joins the task before any of that is destroyed.
  // await_reports() joins it and rethrows its exception here, inside the
  // try below, so exit codes keep their meaning. It is called before
  // anything that can close an interval (devices and the session publish
  // telemetry at close; each report's snapshot must not see the next
  // close), before a checkpoint (it must not precede the delivery or
  // spooling of its report) and before any line printed after the
  // listings.
  common::ThreadPool report_stage(1);
  std::future<void> report_done;
  const auto await_reports = [&report_done] {
    if (report_done.valid()) report_done.get();
  };

  // Checkpoint after every closed interval: the reports are already
  // drained, so a resume replays from the exact interval boundary.
  // --pace-ms then throttles the replay to a live-capture cadence —
  // after the checkpoint, so a kill during the sleep loses nothing.
  const auto pace =
      std::chrono::milliseconds(args.get_u64("pace-ms", 0));
  auto process = [&](std::vector<core::Report> reports) {
    if (reports.empty()) return;
    report_done = report_stage.submit(
        [&handle_reports, reports = std::move(reports)]() mutable {
          handle_reports(reports);
        });
    if (!checkpoint_path.empty()) {
      await_reports();
      core::save_checkpoint_file(checkpoint_path, session.checkpoint(),
                                 tracer.get());
    }
    if (pace.count() > 0) std::this_thread::sleep_for(pace);
  };

  install_stop_handlers();
  bool fed_any = false;
  bool stopped = false;
  std::uint64_t pcap_records = 0;
  std::uint64_t pcap_skipped = 0;
  try {
    try {
      pcap::PcapReader reader(stream);
      reader.attach_fault_injector(faults.get());
      // --resume: fast-forward past the records the checkpoint already
      // accounted for (checkpoint.packets counts every observed record).
      for (std::uint64_t skipped = 0; skipped < skip_records; ++skipped) {
        if (!reader.next_record()) break;
      }
      while (!(stopped = g_stop_requested != 0)) {
        const auto record = reader.next_record();
        if (!record) break;
        if (session.closes_interval(*record)) await_reports();
        session.observe(*record);
        fed_any = true;
        process(session.drain_reports());
      }
      pcap_records = reader.records_read();
      pcap_skipped = reader.frames_skipped();
      await_reports();
      if (stopped) {
        // Graceful SIGINT/SIGTERM: do not close the in-progress interval
        // (that would fabricate an interval boundary mid-stream) —
        // checkpoint the exact position instead, so a --resume run
        // continues bit-identically.
        if (!checkpoint_path.empty()) {
          core::save_checkpoint_file(checkpoint_path, session.checkpoint(),
                                     tracer.get());
        }
        std::printf(
            "measure: stop signal at %llu packets, %u intervals closed%s\n",
            static_cast<unsigned long long>(session.packets_observed()),
            session.intervals_closed(),
            checkpoint_path.empty() ? "" : " (checkpointed)");
      } else if (fed_any || !resumed) {
        // A resumed run that found nothing left to feed must not re-close
        // the trailing interval: the previous incarnation's reports are
        // already spooled or delivered, and a fabricated empty close
        // would disagree with them.
        process(session.finish());
        await_reports();
      }
    } catch (...) {
      // Every closed interval is reported before the process exits; a
      // report-stage failure, being the earlier one, wins over this one.
      await_reports();
      throw;
    }
  } catch (const pcap::PcapError& error) {
    std::fprintf(stderr, "decode error: %s\n", error.what());
    return 3;
  } catch (const reporting::CodecError& error) {
    std::fprintf(stderr, "decode error: %s\n", error.what());
    return 3;
  } catch (const robustness::FaultInjectedError& error) {
    std::fprintf(stderr, "runtime fault: %s\n", error.what());
    return 4;
  } catch (const core::ShardError& error) {
    std::fprintf(stderr, "runtime fault: %s\n", error.what());
    return 4;
  } catch (const common::StateError& error) {
    // Only the checkpoint path raises StateError here (e.g. the device
    // cannot checkpoint) — a usage problem, not a runtime fault.
    std::fprintf(stderr, "measure: --checkpoint: %s\n", error.what());
    return 2;
  }
  if (faults) {
    for (const auto& entry : faults->plan().sites()) {
      const std::string& site = entry.first;
      std::printf("fault %s: fired %llu of %llu occurrences\n",
                  site.c_str(),
                  static_cast<unsigned long long>(faults->fires(site)),
                  static_cast<unsigned long long>(
                      faults->occurrences(site)));
    }
  }
  if (metrics_exporter) {
    std::printf("metrics: %llu snapshots (%zu series) -> %s\n",
                static_cast<unsigned long long>(
                    metrics_exporter->lines_written()),
                registry.size(), metrics_path.c_str());
  }
  std::printf("pcap: %llu records, %llu skipped (not IPv4 or headers "
              "truncated)\n",
              static_cast<unsigned long long>(pcap_records),
              static_cast<unsigned long long>(pcap_skipped));
  std::printf(
      "done: %llu packets (%llu unmatched by the flow pattern), %u "
      "intervals\n",
      static_cast<unsigned long long>(session.packets_observed()),
      static_cast<unsigned long long>(session.packets_unclassified()),
      session.intervals_closed());
  int exit_code = 0;
  if (channel) {
    // Final spool drain: a collector that came back late gets the
    // backlog now; whatever stays is durable on disk for the next run.
    if (spool && spool->backlog() > 0) (void)channel->drain_spool();
    // No bye after a stop signal — the capture is incomplete and the
    // collector must keep waiting for this device's resumed run.
    bool bye_ok = true;
    if (!stopped) bye_ok = transport->send_bye(session.intervals_closed());
    const net::TcpTransportStats& tstats = transport->stats();
    const reporting::ResilientChannelStats& cstats = channel->stats();
    std::printf(
        "transport: %llu connects (%llu refused), %llu frames, %llu "
        "disconnects, %llu reports abandoned\n",
        static_cast<unsigned long long>(tstats.connects),
        static_cast<unsigned long long>(tstats.connect_failures),
        static_cast<unsigned long long>(tstats.frames_sent),
        static_cast<unsigned long long>(tstats.disconnects),
        static_cast<unsigned long long>(cstats.reports_abandoned));
    if (spool) {
      const reporting::SpoolWalStats& sstats = spool->stats();
      std::printf(
          "spool: %llu appended (%llu recovered), %llu acked, %llu "
          "flows shed, %llu dropped, %zu pending -> %s\n",
          static_cast<unsigned long long>(sstats.appended),
          static_cast<unsigned long long>(sstats.recovered),
          static_cast<unsigned long long>(sstats.acked),
          static_cast<unsigned long long>(sstats.records_shed),
          static_cast<unsigned long long>(sstats.dropped),
          spool->backlog(), spool->directory().c_str());
      if (spool->backlog() > 0) {
        std::fprintf(stderr,
                     "measure: %zu reports spooled awaiting the "
                     "collector (durable; the next run drains them)\n",
                     spool->backlog());
      }
      if (sstats.dropped > 0) {
        // The one loss a spool cannot prevent: the disk budget refused
        // the report outright. Surface it with the transport-failure
        // code — it is the same "report gone" contract.
        std::fprintf(stderr,
                     "measure: spool budget dropped %llu reports\n",
                     static_cast<unsigned long long>(sstats.dropped));
        exit_code = 5;
      }
    } else if (net_reports_abandoned > 0 || (!stopped && !bye_ok)) {
      std::fprintf(stderr,
                   "measure: transport failure after retries exhausted "
                   "(%llu reports undelivered%s)\n",
                   static_cast<unsigned long long>(net_reports_abandoned),
                   bye_ok ? "" : ", bye undeliverable");
      exit_code = 5;
    }
  }
  // The trace is written even on a transport failure — that run is
  // exactly the one worth loading into a viewer.
  if (tracer && !write_trace_file(trace_path, *tracer, device_id)) {
    if (exit_code == 0) exit_code = 1;
  }
  return exit_code;
}

int cmd_collect(const Args& args) {
  net::CollectorConfig config;
  config.port = static_cast<std::uint16_t>(args.get_u64("listen", 0));
  config.expected_devices =
      static_cast<std::uint32_t>(args.get_u64("devices", 1));
  config.timeout =
      std::chrono::milliseconds(args.get_u64("timeout-ms", 0));
  if (config.expected_devices == 0 && config.timeout.count() == 0) {
    std::fprintf(stderr,
                 "collect: --devices 0 needs --timeout-ms (nothing "
                 "would ever stop the daemon)\n");
    return 2;
  }
  // --journal: crash-durable merge state. Existing records replay
  // through the normal ingestion path (dedup included) inside the
  // Collector constructor, before the listener accepts anything.
  config.journal_path = args.get("journal", "");
  config.journal_fsync = args.get_u64("journal-fsync", 1) != 0;
  config.journal_fsync_batch = static_cast<std::uint32_t>(
      args.get_u64("journal-fsync-batch", 1));
  std::unique_ptr<robustness::FaultInjector> faults;
  if (args.has("fault-plan")) {
    try {
      faults = std::make_unique<robustness::FaultInjector>(
          robustness::parse_fault_plan(args.get("fault-plan", ""),
                                       args.get_u64("fault-seed", 1)));
    } catch (const std::invalid_argument& error) {
      std::fprintf(stderr, "collect: bad --fault-plan: %s\n",
                   error.what());
      return 2;
    }
  }
  config.faults = faults.get();

  const bool metrics_on = args.has("metrics");
  const bool http_on = args.has("http-port");
  const std::string metrics_arg = args.get("metrics", "");
  const std::string metrics_path =
      metrics_arg.empty() ? "collect_metrics.jsonl" : metrics_arg;
  telemetry::MetricsRegistry registry;
  // Either flag turns fleet aggregation on: every member's v3 metrics
  // trailer lands in this registry under a device="<id>" label plus
  // device="fleet" rollups.
  config.metrics = metrics_on || http_on ? &registry : nullptr;

  const std::string trace_path = args.get("trace", "");
  if (args.has("trace") && trace_path.empty()) {
    std::fprintf(stderr, "collect: --trace needs a file path\n");
    return 2;
  }
  std::unique_ptr<telemetry::TraceRecorder> tracer;
  if (!trace_path.empty()) {
    tracer = std::make_unique<telemetry::TraceRecorder>();
  }
  config.trace = tracer.get();

  std::unique_ptr<net::Collector> collector;
  try {
    collector = std::make_unique<net::Collector>(config);
  } catch (const net::NetError& error) {
    std::fprintf(stderr, "collect: %s\n", error.what());
    return 1;
  } catch (const net::JournalError& error) {
    std::fprintf(stderr, "collect: --journal: %s\n", error.what());
    return 1;
  }
  if (!config.journal_path.empty()) {
    const net::CollectorStats replayed = collector->stats();
    if (replayed.journal_replayed > 0 ||
        replayed.journal_torn_records > 0) {
      std::printf(
          "journal: replayed %llu records (%llu torn skipped) from %s\n",
          static_cast<unsigned long long>(replayed.journal_replayed),
          static_cast<unsigned long long>(replayed.journal_torn_records),
          config.journal_path.c_str());
    }
  }

  // SIGINT/SIGTERM write one byte to the collector's self-pipe — the
  // graceful stop() path — so the merged export, metrics and trace
  // below still run.
  g_collector_stop_fd = collector->stop_fd();
  install_stop_handlers();

  // --port-file: publish the bound port (essential with --listen 0) so
  // a harness can hand it to the measure processes; removed at exit so
  // a later poller never dials a dead incarnation's port.
  const std::string port_file = args.get("port-file", "");
  PortFileGuard port_guard;
  if (!port_file.empty()) {
    if (!write_port_file(port_file, collector->port())) return 1;
    port_guard.arm(port_file);
  }
  std::printf("collect: listening on 127.0.0.1:%u for %u devices\n",
              collector->port(), config.expected_devices);
  std::fflush(stdout);

  // The observability plane serves scrapes from its own thread for as
  // long as the daemon runs; destroyed (joined) before the collector.
  std::unique_ptr<telemetry::HttpExporter> http;
  PortFileGuard http_port_guard;
  if (http_on) {
    telemetry::HttpExporterConfig http_config;
    http_config.metrics_text = [&registry] {
      common::sync_crc32_metrics(registry);
      return telemetry::to_prometheus(registry.snapshot());
    };
    http_config.status_text = [daemon = collector.get()] {
      return daemon->status_text();
    };
    http = start_http_exporter(args, std::move(http_config), "collect");
    if (http == nullptr) return 1;
    http_port_guard.arm(args.get("http-port-file", ""));
  }

  const bool complete = collector->run();
  const net::CollectorStats stats = collector->stats();
  std::vector<core::Report> merged = collector->merged_reports();

  std::ofstream export_stream;
  const std::string export_path = args.get("export", "");
  if (!export_path.empty()) {
    export_stream.open(export_path, std::ios::binary);
    if (!export_stream) {
      std::fprintf(stderr, "cannot open %s for export\n",
                   export_path.c_str());
      return 1;
    }
  }
  for (core::Report& report : merged) {
    // Same largest-first order a measure export writes, so a merged
    // export is byte-comparable against a single-process --shards run.
    core::sort_by_size(report);
    std::printf("interval %u: %zu members, %zu flows, %zu entries\n",
                report.interval, report.shards.size(),
                report.flows.size(), report.entries_used);
    if (export_stream.is_open() && !report.flows.empty()) {
      const auto encoded =
          reporting::encode(report, report.flows.front().key.kind());
      export_stream.write(reinterpret_cast<const char*>(encoded.data()),
                          static_cast<std::streamsize>(encoded.size()));
    }
  }
  std::printf(
      "collect: %llu connections, %llu frames (%llu resyncs, %llu "
      "decode errors), %llu reports (%llu duplicates), %llu "
      "reconnects, %u/%u devices done\n",
      static_cast<unsigned long long>(stats.connections_accepted),
      static_cast<unsigned long long>(stats.frames_received),
      static_cast<unsigned long long>(stats.resyncs),
      static_cast<unsigned long long>(stats.decode_errors),
      static_cast<unsigned long long>(stats.reports_ingested),
      static_cast<unsigned long long>(stats.duplicate_reports),
      static_cast<unsigned long long>(stats.reconnects),
      collector->devices_done(), config.expected_devices);
  if (!config.journal_path.empty()) {
    std::printf(
        "journal: %llu appended, %llu replayed (%llu torn, %llu write "
        "errors) -> %s\n",
        static_cast<unsigned long long>(stats.journal_records),
        static_cast<unsigned long long>(stats.journal_replayed),
        static_cast<unsigned long long>(stats.journal_torn_records),
        static_cast<unsigned long long>(stats.journal_write_errors),
        config.journal_path.c_str());
  }
  if (metrics_on) {
    std::ofstream metrics_stream(metrics_path);
    if (!metrics_stream) {
      std::fprintf(stderr, "cannot open %s for metrics\n",
                   metrics_path.c_str());
      return 1;
    }
    telemetry::JsonLinesExporter exporter(metrics_stream);
    common::sync_crc32_metrics(registry);
    (void)exporter.write(registry, merged.empty()
                                       ? 0
                                       : merged.back().interval);
    std::printf("metrics: %zu series -> %s\n", registry.size(),
                metrics_path.c_str());
  }
  int exit_code = 0;
  if (!complete) {
    std::fprintf(stderr,
                 "collect: gave up before all devices completed\n");
    exit_code = 5;
  }
  if (tracer &&
      !write_trace_file(trace_path, *tracer, kCollectorTracePid)) {
    if (exit_code == 0) exit_code = 1;
  }
  return exit_code;
}

int cmd_bounds(const Args& args) {
  analysis::SampleHoldParams sh;
  sh.oversampling = args.get_double("oversampling", 20.0);
  sh.threshold = args.get_u64("threshold", 1'000'000);
  sh.capacity = args.get_u64("capacity", 100'000'000);

  std::printf("sample and hold (O=%.1f, T=%s, C=%s):\n", sh.oversampling,
              common::format_bytes(sh.threshold).c_str(),
              common::format_bytes(sh.capacity).c_str());
  std::printf("  P[miss at threshold]      = %s\n",
              common::format_scientific(
                  analysis::miss_probability(sh, sh.threshold))
                  .c_str());
  std::printf("  relative error at T       = %s\n",
              common::format_percent(
                  analysis::relative_error_at_threshold(sh), 2)
                  .c_str());
  std::printf("  expected entries          = %.0f\n",
              analysis::expected_entries(sh));
  std::printf("  entries bound @99.9%%      = %.0f\n",
              analysis::entries_bound(sh, 0.001));

  analysis::MultistageParams msf;
  msf.buckets =
      static_cast<std::uint32_t>(args.get_u64("buckets", 1000));
  msf.depth = static_cast<std::uint32_t>(args.get_u64("depth", 4));
  msf.flows = args.get_double("flows", 100'000);
  msf.capacity = sh.capacity;
  msf.threshold = sh.threshold;
  std::printf(
      "multistage filter (d=%u, b=%u, n=%.0f, k=%.2f):\n", msf.depth,
      msf.buckets, msf.flows, analysis::stage_strength(msf));
  std::printf("  E[flows passing] (Thm 3)  = %.1f\n",
              analysis::expected_flows_passing(msf));
  std::printf("  flows passing @99.9%%      = %.0f\n",
              analysis::flows_passing_bound(msf, 0.001));
  std::printf("  P[T/10 flow passes]       = %s\n",
              common::format_scientific(analysis::pass_probability_bound(
                  msf, msf.threshold / 10))
                  .c_str());
  return 0;
}

int cmd_dimension(const Args& args) {
  analysis::DimensioningInput input;
  input.total_entries = args.get_u64("entries", 4096);
  input.expected_flows = args.get_double("flows", 100'000);
  input.traffic_per_interval = args.get_u64("traffic", 256'000'000);
  input.oversampling = args.get_double("oversampling", 4.0);

  const auto sh = analysis::dimension_sample_and_hold(input);
  const auto msf = analysis::dimension_multistage(input);
  std::printf(
      "budget: %zu entries, %.0f flows, %s traffic per interval\n\n",
      input.total_entries, input.expected_flows,
      common::format_bytes(input.traffic_per_interval).c_str());
  std::printf("sample and hold:\n");
  std::printf("  flow memory entries     = %zu\n",
              sh.flow_memory_entries);
  std::printf("  initial threshold       = %s (oversampling %.1f, early "
              "removal R=0.15T)\n",
              common::format_bytes(sh.threshold).c_str(),
              sh.oversampling);
  std::printf("multistage filter:\n");
  std::printf("  stages                  = %u\n", msf.depth);
  std::printf("  counters per stage      = %u\n", msf.buckets_per_stage);
  std::printf("  flow memory entries     = %zu\n",
              msf.flow_memory_entries);
  std::printf("  initial threshold       = %s (conservative update + "
              "shielding + preserve)\n",
              common::format_bytes(msf.threshold).c_str());
  return 0;
}

/// A subcommand and every flag it reads; main() rejects any other flag
/// before the subcommand runs.
struct Command {
  const char* name;
  int (*run)(const Args&);
  std::set<std::string> flags;
};

const Command kCommands[] = {
    {"synthesize", cmd_synthesize,
     {"arrivals", "intervals", "out", "preset", "scale", "seed", "snaplen"}},
    {"measure", cmd_measure,
     {"adaptive", "algorithm", "checkpoint", "connect", "device-id",
      "entries", "export", "fault-plan", "fault-seed", "fleet-size",
      "flow-def", "http-port", "http-port-file", "in", "interval",
      "metrics", "net-attempts", "net-backoff-us", "net-budget",
      "net-jitter", "pace-ms", "resume", "seed", "shard-usage", "shards",
      "spool-dir", "spool-fsync", "spool-fsync-batch", "spool-max-bytes",
      "threshold", "trace"}},
    {"collect", cmd_collect,
     {"devices", "export", "fault-plan", "fault-seed", "http-port",
      "http-port-file", "journal", "journal-fsync", "journal-fsync-batch",
      "listen", "metrics", "port-file", "timeout-ms", "trace"}},
    {"bounds", cmd_bounds,
     {"buckets", "capacity", "depth", "flows", "oversampling",
      "threshold"}},
    {"dimension", cmd_dimension,
     {"entries", "flows", "oversampling", "traffic"}},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: ndtm <synthesize|measure|collect|bounds|"
                 "dimension> [--flags]\n"
                 "see the header of tools/ndtm.cpp for details\n");
    return 2;
  }
  const Args args(argc, argv, 2);
  const std::string command = argv[1];
  for (const Command& candidate : kCommands) {
    if (command != candidate.name) continue;
    if (const auto flag = args.unknown_flag(candidate.flags)) {
      std::fprintf(stderr, "%s: unknown flag --%s\n", candidate.name,
                   flag->c_str());
      return 2;
    }
    return candidate.run(args);
  }
  std::fprintf(stderr, "unknown command: %s\n", command.c_str());
  return 2;
}
