// ndtm — the command-line front end to the library. `measure` and
// `collect` translate their flags into a pipeline::MeasureConfig /
// pipeline::CollectConfig and run the composition root in
// src/pipeline/; their exit codes are the pipeline::Exit contract
// (src/pipeline/exit.hpp: 0 ok, 1 IO, 2 usage, 3 decode, 4 runtime
// fault, 5 transport).
//
// Every subcommand rejects a flag it does not read (exit code 2, the
// message names the flag), so a typo never runs with a default. Numeric
// flags are checked before the subcommand starts: a value that is not
// a whole number (or, for --scale/--oversampling/--flows, a number
// > 0), --interval 0 or above 9223372036 (the nanosecond interval clock's
// range), a count above 4294967295 for a 32-bit flag (--buckets,
// --depth, --device-id, --devices, --entries, --fleet-size,
// --intervals, --journal-fsync, --net-attempts, --shards, --snaplen,
// --spool-fsync), a 0/1 switch (--adaptive, --shard-usage) set to
// anything but 0 or 1, a --net-budget above the 67108864-byte frame
// payload bound, a --flow-def netpair length that is not 0-32 in
// digits, a --connect that is not a numeric IPv4
// HOST:PORT with the port in 1-65535, a --listen / --http-port outside
// 0-65535 (0 = ephemeral), or a --trace without a path also exits 2
// naming the flag. So do the values a subcommand has no meaning for:
// `collect --devices 0`; `synthesize` with a --scale above 1 (a preset
// is the full-size trace, so --scale only shrinks it), an --arrivals
// other than uniform or bursty, or a --snaplen outside 54-262144 (54
// bytes hold the Ethernet, IPv4 and TCP headers `measure` parses); and 0 for
// --threshold, --capacity, --buckets or --depth on `bounds` and for
// --entries or --traffic on `dimension`.
//
//   ndtm synthesize --preset mag --scale 0.1 --intervals 6 --out t.pcap
//       Write a calibrated synthetic trace as a standard pcap file.
//
//   ndtm measure --in t.pcap --algorithm multistage --flow-def dstip
//                --threshold 100000 --interval 5 [--export reports.bin]
//                [--shards N] [--adaptive 0|1] [--shard-usage 0|1]
//                [--metrics[=path]] [--fault-plan spec] [--fault-seed N]
//                [--checkpoint path] [--http-port N] [--trace path]
//       Stream a pcap through a measurement device in fixed intervals
//       and print (and optionally export) the heavy hitters per
//       interval, then a `pcap:` line counting the records read and
//       the frames skipped (not IPv4 or headers truncated) and the
//       `done:` summary. Algorithms: sample-and-hold, multistage.
//       Flow definitions: 5tuple, dstip, netpair:<prefixlen> (0-32).
//       --shards N > 1 (at most max(1, --entries / 64), since every
//       shard keeps at least 64 entries) partitions the flow space
//       RSS-style across N replicas of the device; each packet goes to
//       its shard on the packet thread, and only the interval close
//       forks the shards out to a worker pool. --threshold is only the
//       starting point, not a fixed global value. With --adaptive 1
//       each shard steers its own threshold toward 90% flow-memory
//       usage (Section 6 run per replica; with one shard a single
//       global adaptor runs instead), and the printed cutoff is the
//       effective — maximum per-shard — threshold. --shard-usage 1
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
//       The CRC-32 that checksums frames, spool records and
//       checkpoints folds with PCLMULQDQ where the CPU has it and runs
//       slice-by-8 elsewhere; the output bytes are the same either way.
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
//       --connect IPV4:PORT ships every interval report to a collector
//       daemon (see `ndtm collect`) through the resilient channel over
//       a real TCP transport: retries with backoff on connect failures
//       and mid-frame disconnects, announces itself with --device-id
//       (default 0), and says bye when the capture ends. Backoff uses
//       decorrelated jitter seeded per device so a fleet reconnecting
//       after a collector restart spreads out.
//       --net-attempts bounds delivery attempts per report,
//       --net-backoff-us sets the base backoff, --net-budget the
//       per-interval byte budget (default 4194304, at most 67108864:
//       the largest frame payload a collector accepts). The net.*
//       fault sites (connect, disconnect, short_write) apply when a
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
//       5). --spool-fsync N (default 1) fsyncs once every N appends:
//       1 fsyncs each interval's report, 0 never fsyncs (trading
//       crash-durability for speed), and N > 1 group-commits (partial
//       batches flush on rotation and shutdown, so only a power cut
//       mid-batch can lose the last N-1 records — and those are re-sent
//       from memory on drain). The spool.* fault sites (disk_full,
//       torn_record, short_write) apply when a --fault-plan names them.
//
//       --resume (requires --checkpoint) restarts from the checkpoint
//       when the file exists (fresh start otherwise): the device state
//       is restored, the already-accounted pcap records are skipped,
//       --export is cut back to the whole reports of the intervals the
//       checkpoint closed and appended to (every checkpoint flushes
//       it first), and the re-fed tail reproduces the interrupted run's
//       reports bit for bit — duplicates are the collector's first-copy-wins
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
//       SIGINT/SIGTERM call pipeline::Measure::stop(): the capture
//       stops gracefully, the current position is checkpointed (with
//       --checkpoint), the spool is given a final drain, metrics and
//       trace files are written, no bye is sent (the capture is
//       incomplete), and the process exits 0 — a later --resume run
//       continues where it left off.
//
//   ndtm collect --listen PORT --devices N [--export merged.bin]
//                [--timeout-ms N] [--port-file path] [--metrics[=path]]
//                [--http-port N] [--http-port-file path] [--trace path]
//                [--journal path] [--journal-fsync N]
//                [--fault-plan spec] [--fault-seed N]
//       The management-station end: accept device connections on
//       127.0.0.1:PORT (0 = ephemeral; --port-file writes the bound
//       port for harnesses), ingest framed reports with per-device
//       sequence/reconnect tracking and first-copy-wins dedup (a report
//       whose flow records are not the bytes the encoder writes is a
//       decode error), and fleet-merge each interval in device-id
//       order — spliced from the reports' bytes, byte for byte the
//       merge a sharded device makes — as soon as all
//       N (default 1, at least 1) devices are known and each has
//       reported it or said bye,
//       printing its `interval N:` line and appending it to the
//       --export file (written as path.partial, renamed into place at
//       exit); the collector only holds intervals still open. A bye
//       whose interval count covers intervals that never arrived is a
//       loss: one stderr line per gap names the device and intervals.
//       While running, --http-port N serves the fleet
//       observability plane: /metrics re-exports every member's v3
//       metrics trailer under a device="<id>" label plus device="fleet"
//       rollups (counters/histograms summed, gauges maxed), /healthz
//       answers 200 while the daemon runs, /statusz renders the live
//       device table. --trace path
//       writes the collector-side chrome-trace spans (frame decodes,
//       duplicate drops, fleet merges, export writes) at exit.
//       --journal path makes the merge state crash-durable: every
//       first-copy report and bye is appended to a CRC-guarded journal
//       *before* it enters the merge, and a restarted collector
//       replays the journal through the normal ingestion path (dedup
//       included) before accepting connections — so a collector killed
//       mid-interval and restarted merges bit-identically to one that
//       never died. The journal is written through the same append
//       writer as the device spool, one CRC-guarded record per report
//       or bye. --journal-fsync N (default 1) fsyncs once every N
//       appends: 1 fsyncs each record, 0 never fsyncs (trading
//       per-record durability for speed), and N > 1 group-commits (a
//       crash mid-batch loses at most N-1 records, which devices
//       re-send from their spools and dedup absorbs). The journal.*
//       fault sites (disk_full, torn_record, short_write) apply when a
//       --fault-plan names them. SIGINT/SIGTERM call
//       pipeline::Collect::stop(): accepted reports are already
//       journaled, the merged export, metrics and trace files are still
//       written, and the exit code is 5 (not every device finished).
//
//   ndtm bounds --threshold 1000000 --capacity 100000000
//                --oversampling 20 --buckets 1000 --depth 4
//                --flows 100000
//       Evaluate the paper's analytical bounds for a configuration.
#include <arpa/inet.h>
#include <signal.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "analysis/dimensioning.hpp"
#include "analysis/multistage_bounds.hpp"
#include "analysis/sample_hold_bounds.hpp"
#include "common/format.hpp"
#include "pcap/pcap.hpp"
#include "pipeline/collect.hpp"
#include "pipeline/measure.hpp"
#include "trace/presets.hpp"
#include "trace/synthesizer.hpp"

using namespace nd;

namespace {

/// What a flag's value must look like. Flags not in kValueKinds take
/// any text (paths, names, specs), empty included.
enum class ValueKind {
  kWhole,     // a whole number
  kWhole32,   // a whole number that fits in 32 bits
  kPositive,  // a whole number >= 1
  kReal,      // a finite number > 0
  kSwitch,    // 0 or 1
  kPort,      // a whole number in 0..65535 (0 = ephemeral)
  kEndpoint,  // IPV4:PORT, a numeric IPv4 host and PORT in 1..65535
  kPath,      // a non-empty file path
};

/// Every numeric flag of every subcommand (and --trace) and what its
/// value must be; a name means the same thing wherever it appears.
const std::map<std::string, ValueKind> kValueKinds = [] {
  std::map<std::string, ValueKind> kinds;
  for (const char* flag :
       {"capacity", "fault-seed", "net-backoff-us", "net-budget",
        "pace-ms", "seed", "spool-max-bytes", "threshold", "timeout-ms",
        "traffic"}) {
    kinds[flag] = ValueKind::kWhole;
  }
  for (const char* flag : {"adaptive", "shard-usage"}) {
    kinds[flag] = ValueKind::kSwitch;
  }
  // Read into 32-bit fields: a larger value would silently wrap.
  for (const char* flag :
       {"buckets", "depth", "device-id", "devices", "entries",
        "fleet-size", "intervals", "journal-fsync", "net-attempts",
        "shards", "snaplen", "spool-fsync"}) {
    kinds[flag] = ValueKind::kWhole32;
  }
  for (const char* flag : {"flows", "oversampling", "scale"}) {
    kinds[flag] = ValueKind::kReal;
  }
  kinds["interval"] = ValueKind::kPositive;
  kinds["http-port"] = ValueKind::kPort;
  kinds["listen"] = ValueKind::kPort;
  kinds["connect"] = ValueKind::kEndpoint;
  kinds["trace"] = ValueKind::kPath;
  return kinds;
}();

/// `text` as a whole number: digits only, fitting in 64 bits.
std::optional<std::uint64_t> parse_whole(const std::string& text) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  errno = 0;
  const std::uint64_t value = std::strtoull(text.c_str(), nullptr, 10);
  if (errno == ERANGE) return std::nullopt;
  return value;
}

/// What `value` should have been, or nullopt when it fits `kind`.
std::optional<std::string> value_error(ValueKind kind,
                                       const std::string& value) {
  switch (kind) {
    case ValueKind::kWhole:
      if (parse_whole(value)) return std::nullopt;
      return "a whole number";
    case ValueKind::kWhole32:
      if (parse_whole(value).value_or(1ULL << 32) <= 0xFFFFFFFFULL) {
        return std::nullopt;
      }
      return "a whole number in 0-4294967295";
    case ValueKind::kPositive:
      if (parse_whole(value).value_or(0) >= 1) return std::nullopt;
      return "a whole number >= 1";
    case ValueKind::kReal: {
      char* end = nullptr;
      const double number = std::strtod(value.c_str(), &end);
      if (!value.empty() && *end == '\0' && std::isfinite(number) &&
          number > 0) {
        return std::nullopt;
      }
      return "a number > 0";
    }
    case ValueKind::kSwitch:
      if (value == "0" || value == "1") return std::nullopt;
      return "0 or 1";
    case ValueKind::kPort:
      if (parse_whole(value).value_or(65536) <= 65535) return std::nullopt;
      return "a port in 0-65535";
    case ValueKind::kEndpoint: {
      const auto colon = value.rfind(':');
      const auto port = colon == std::string::npos
                            ? std::nullopt
                            : parse_whole(value.substr(colon + 1));
      in_addr host{};
      if (port && *port >= 1 && *port <= 65535 &&
          ::inet_pton(AF_INET, value.substr(0, colon).c_str(), &host) == 1) {
        return std::nullopt;
      }
      return "IPV4:PORT with a numeric IPv4 host and a port in 1-65535";
    }
    case ValueKind::kPath:
      if (!value.empty()) return std::nullopt;
      return "a file path";
  }
  return std::nullopt;
}

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
  /// "--flag expects ..., got '...'" for the first flag whose value
  /// does not fit its kValueKinds entry, or is 0 while named in
  /// `at_least_one`, if any.
  [[nodiscard]] std::optional<std::string> invalid_value(
      const std::set<std::string>& at_least_one) const {
    for (const auto& [key, value] : values_) {
      const auto kind = kValueKinds.find(key);
      if (kind == kValueKinds.end()) continue;
      std::optional<std::string> expected = value_error(kind->second, value);
      if (!expected && at_least_one.count(key) > 0 &&
          parse_whole(value) == 0ULL) {
        expected = "a whole number >= 1";
      }
      if (expected) return bad_value(key, *expected);
    }
    return std::nullopt;
  }
  /// "--flag expects <expected>, got '<value>'".
  [[nodiscard]] std::string bad_value(const std::string& key,
                                      const std::string& expected) const {
    return "--" + key + " expects " + expected + ", got '" + get(key, "") +
           "'";
  }

 private:
  std::map<std::string, std::string> values_;
};

/// SIGINT/SIGTERM call the running pipeline's async-signal-safe stop()
/// for as long as this guard lives. The handler stays installed after,
/// so a signal that lands as the run finishes does nothing and the
/// run's own exit code stands.
template <typename Pipeline>
class StopOnSignal {
 public:
  explicit StopOnSignal(Pipeline& pipeline) {
    running_.store(&pipeline);
    struct sigaction action{};
    action.sa_handler = [](int) {
      if (Pipeline* const running = running_.load()) running->stop();
    };
    sigemptyset(&action.sa_mask);
    // SA_RESTART: file reads and accepts resume; the collector's poll()
    // still wakes via the self-pipe byte stop() writes.
    action.sa_flags = SA_RESTART;
    (void)::sigaction(SIGINT, &action, nullptr);
    (void)::sigaction(SIGTERM, &action, nullptr);
  }
  ~StopOnSignal() { running_.store(nullptr); }
  StopOnSignal(const StopOnSignal&) = delete;
  StopOnSignal& operator=(const StopOnSignal&) = delete;

 private:
  static_assert(std::atomic<Pipeline*>::is_always_lock_free);
  static inline std::atomic<Pipeline*> running_{nullptr};
};

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

/// The smallest --snaplen whose frames `measure` can parse: the
/// Ethernet, IPv4 and TCP headers the synthesizer writes.
constexpr std::uint64_t kMinSnapLen = 14 + 20 + 20;

int cmd_synthesize(const Args& args) {
  const std::string out = args.get("out", "trace.pcap");
  const std::string arrivals = args.get("arrivals", "uniform");
  if (arrivals != "uniform" && arrivals != "bursty") {
    std::fprintf(stderr, "synthesize: %s\n",
                 args.bad_value("arrivals", "uniform or bursty").c_str());
    return 2;
  }
  const std::uint64_t snaplen = args.get_u64("snaplen", 96);
  if (snaplen < kMinSnapLen || snaplen > pcap::kMaxSnapLen) {
    std::fprintf(stderr, "synthesize: %s\n",
                 args.bad_value("snaplen", "a length in 54-262144").c_str());
    return 2;
  }
  auto config = preset_by_name(args.get("preset", "cos"),
                               args.get_u64("seed", 42));
  config.num_intervals =
      static_cast<std::uint32_t>(args.get_u64("intervals", 6));
  // A preset is the full-size trace; --scale only shrinks it.
  const double scale = args.get_double("scale", 0.1);
  if (scale > 1.0) {
    std::fprintf(stderr, "synthesize: %s\n",
                 args.bad_value("scale", "a number in (0, 1]").c_str());
    return 2;
  }
  if (scale < 1.0) config = trace::scaled(config, scale);
  if (arrivals == "bursty") {
    config.arrival_model = trace::TraceConfig::ArrivalModel::kBursty;
  }

  std::ofstream stream(out, std::ios::binary);
  if (!stream) {
    std::fprintf(stderr, "cannot open %s for writing\n", out.c_str());
    return 1;
  }
  pcap::PcapWriter writer(stream, static_cast<std::uint32_t>(snaplen));
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

std::uint32_t get_u32(const Args& args, const std::string& key,
                      std::uint32_t fallback) {
  // kWhole32 flags: main() already rejected values above 32 bits.
  return static_cast<std::uint32_t>(args.get_u64(key, fallback));
}

/// The observability and chaos flags both pipelines read.
/// `default_metrics_path` is where a bare --metrics writes.
pipeline::ObservabilityConfig observability_flags(
    const Args& args, const char* default_metrics_path) {
  pipeline::ObservabilityConfig config;
  if (args.has("metrics")) {
    config.metrics_path = args.get("metrics", "");
    if (config.metrics_path.empty()) config.metrics_path = default_metrics_path;
  }
  if (args.has("http-port")) {
    config.http_port = static_cast<std::uint16_t>(args.get_u64("http-port", 0));
  }
  config.http_port_file = args.get("http-port-file", "");
  config.trace_path = args.get("trace", "");
  if (args.has("fault-plan")) config.fault_plan = args.get("fault-plan", "");
  config.fault_seed = args.get_u64("fault-seed", config.fault_seed);
  return config;
}

int cmd_measure(const Args& args) {
  pipeline::MeasureConfig config;
  config.input = args.get("in", "");
  config.algorithm = args.get("algorithm", config.algorithm);
  config.flow_def = args.get("flow-def", config.flow_def);
  config.threshold = args.get_u64("threshold", config.threshold);
  config.entries = args.get_u64("entries", config.entries);
  config.seed = args.get_u64("seed", config.seed);
  config.shards = get_u32(args, "shards", config.shards);
  config.adaptive = args.get_u64("adaptive", config.adaptive) != 0;
  config.shard_usage =
      args.get_u64("shard-usage", config.shard_usage) != 0;
  config.fleet_size = get_u32(args, "fleet-size", config.fleet_size);
  config.interval = std::chrono::seconds(static_cast<long>(args.get_u64(
      "interval", static_cast<std::uint64_t>(config.interval.count()))));
  config.checkpoint_path = args.get("checkpoint", "");
  config.resume = args.has("resume");
  config.export_path = args.get("export", "");
  config.pace = std::chrono::milliseconds(args.get_u64("pace-ms", 0));
  config.observability = observability_flags(args, "metrics.jsonl");
  if (args.has("connect")) {
    const std::string connect = args.get("connect", "");
    const auto colon = connect.rfind(':');
    config.transport.host = connect.substr(0, colon);
    config.transport.port = static_cast<std::uint16_t>(
        std::strtoul(connect.c_str() + colon + 1, nullptr, 10));
  }
  config.transport.device_id = get_u32(args, "device-id", 0);
  config.spool.directory = args.get("spool-dir", "");
  config.spool.max_total_bytes =
      args.get_u64("spool-max-bytes", config.spool.max_total_bytes);
  config.spool.fsync_every =
      get_u32(args, "spool-fsync", config.spool.fsync_every);
  config.channel.bytes_per_interval =
      args.get_u64("net-budget", config.channel.bytes_per_interval);
  config.channel.max_attempts =
      get_u32(args, "net-attempts", config.channel.max_attempts);
  config.channel.backoff_base = std::chrono::microseconds(args.get_u64(
      "net-backoff-us",
      static_cast<std::uint64_t>(config.channel.backoff_base.count())));

  pipeline::Measure measure(std::move(config));
  const StopOnSignal stop_on_signal(measure);
  return static_cast<int>(measure.run());
}

int cmd_collect(const Args& args) {
  pipeline::CollectConfig config;
  net::CollectorConfig& collector = config.collector;
  collector.port = static_cast<std::uint16_t>(args.get_u64("listen", 0));
  collector.expected_devices =
      get_u32(args, "devices", collector.expected_devices);
  collector.timeout =
      std::chrono::milliseconds(args.get_u64("timeout-ms", 0));
  collector.journal_path = args.get("journal", "");
  collector.journal_fsync_every =
      get_u32(args, "journal-fsync", collector.journal_fsync_every);
  config.export_path = args.get("export", "");
  config.port_file = args.get("port-file", "");
  config.observability = observability_flags(args, "collect_metrics.jsonl");

  pipeline::Collect collect(std::move(config));
  const StopOnSignal stop_on_signal(collect);
  return static_cast<int>(collect.run());
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
  /// Flags this subcommand also refuses 0 for: sizes and counts its
  /// formulas divide by or take as a population.
  std::set<std::string> at_least_one{};
};

const Command kCommands[] = {
    {"synthesize", cmd_synthesize,
     {"arrivals", "intervals", "out", "preset", "scale", "seed", "snaplen"}},
    {"measure", cmd_measure,
     {"adaptive", "algorithm", "checkpoint", "connect", "device-id",
      "entries", "export", "fault-plan", "fault-seed", "fleet-size",
      "flow-def", "http-port", "http-port-file", "in", "interval",
      "metrics", "net-attempts", "net-backoff-us", "net-budget", "pace-ms",
      "resume", "seed", "shard-usage", "shards", "spool-dir", "spool-fsync",
      "spool-max-bytes", "threshold", "trace"}},
    {"collect", cmd_collect,
     {"devices", "export", "fault-plan", "fault-seed", "http-port",
      "http-port-file", "journal", "journal-fsync", "listen", "metrics",
      "port-file", "timeout-ms", "trace"}},
    {"bounds", cmd_bounds,
     {"buckets", "capacity", "depth", "flows", "oversampling", "threshold"},
     {"buckets", "capacity", "depth", "threshold"}},
    {"dimension", cmd_dimension,
     {"entries", "flows", "oversampling", "traffic"},
     {"entries", "traffic"}},
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
    if (const auto error = args.invalid_value(candidate.at_least_one)) {
      std::fprintf(stderr, "%s: %s\n", candidate.name, error->c_str());
      return 2;
    }
    return candidate.run(args);
  }
  std::fprintf(stderr, "unknown command: %s\n", command.c_str());
  return 2;
}
