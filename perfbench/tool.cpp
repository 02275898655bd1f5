// perfbench_tool — the end-to-end benchmark's helper binary (driven by
// run.py; see README.md next to this file).
//
//   perfbench_tool gen --preset mag|cos --scale S --intervals N --seed X
//                      --out t.pcap
//       Synthesize a calibrated trace (TraceSynthesizer + PcapWriter,
//       snaplen 96 like `ndtm synthesize`) and print its packet count.
//
//   perfbench_tool chain --ndtm path --in t.pcap --work dir --capture 0|1
//                        --timeout S -- <ndtm measure flags>
//       One timed chain of the deployed path: spawn `ndtm collect`, wait
//       for its port file, spawn `ndtm measure --connect` and reap both
//       with wait4. Prints wall time from spawning measure until both
//       exited, the set-up wall from spawning collect, user+sys CPU and
//       peak RSS of each process. This small process is the parent, not
//       run.py's Python, because a child's ru_maxrss starts from its
//       parent's peak RSS at exec.
//
//   perfbench_tool reference --in t.pcap
//       A fixed pass over the pcap shaped like the device's front end,
//       timed in-process. Its code is the benchmark's, not the
//       repository's, so its time moves only with the host's speed;
//       run.py scales chain times by it to cancel host drift.
//
//   perfbench_tool check --in t.pcap --flow-def F --interval I
//                        --threshold T --export merged.bin
//       The correctness gate's ground truth: replay the pcap through the
//       session's interval clock into baseline::ExactOracle, decode the
//       collector's merged export and score it (missed flows >= T,
//       overcounts, relative error, packets accounted).
//
//   perfbench_tool traced --in t.pcap --algorithm A --flow-def F
//                         --threshold T --entries E --interval I
//                         [--shards N] [--metrics path] --seed X
//                         --export merged.bin --spans spans.json
//       The traced run: the same public calls `ndtm measure --connect`
//       plus `ndtm collect` make, in the same order and in one process
//       (collector on a loopback thread), with every layer call timed
//       from outside per chunk of packets or per interval. Prints the
//       per-layer metrics as one JSON object and writes the spans as a
//       chrome-trace file.
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "alloc_count.hpp"
#include "baseline/exact_oracle.hpp"
#include "common/crc32.hpp"
#include "common/format.hpp"
#include "common/thread_pool.hpp"
#include "core/multistage_filter.hpp"
#include "core/sample_and_hold.hpp"
#include "core/sharded_device.hpp"
#include "eval/metrics.hpp"
#include "net/collector.hpp"
#include "net/transport.hpp"
#include "packet/flow_definition.hpp"
#include "packet/headers.hpp"
#include "pcap/pcap.hpp"
#include "reporting/record_codec.hpp"
#include "reporting/resilient_channel.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "trace/presets.hpp"
#include "trace/synthesizer.hpp"

extern char** environ;

using namespace nd;

namespace {

/// `--key value` flags; everything after a bare `--` is kept verbatim
/// (the `ndtm measure` flags of a chain). A missing required flag is a
/// usage error.
class Args {
 public:
  Args(int argc, char** argv) {
    int i = 2;
    for (; i < argc && std::strcmp(argv[i], "--") != 0; i += 2) {
      if (i + 1 >= argc || std::strncmp(argv[i], "--", 2) != 0) {
        usage(argv[i]);
      }
      values_[argv[i] + 2] = argv[i + 1];
    }
    for (++i; i < argc; ++i) rest_.emplace_back(argv[i]);
  }
  [[nodiscard]] std::string get(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) usage(("--" + key + " missing").c_str());
    return it->second;
  }
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  [[nodiscard]] std::uint64_t u64(const std::string& key) const {
    return std::strtoull(get(key).c_str(), nullptr, 10);
  }
  [[nodiscard]] std::uint64_t u64(const std::string& key,
                                  std::uint64_t fallback) const {
    return values_.count(key) ? u64(key) : fallback;
  }
  [[nodiscard]] const std::vector<std::string>& rest() const { return rest_; }

 private:
  [[noreturn]] static void usage(const char* what) {
    std::fprintf(stderr, "perfbench_tool: bad arguments (%s)\n", what);
    std::exit(2);
  }
  std::map<std::string, std::string> values_;
  std::vector<std::string> rest_;
};

packet::FlowDefinition flow_def_by_name(const std::string& name) {
  if (name == "5tuple") return packet::FlowDefinition::five_tuple();
  if (name == "dstip") return packet::FlowDefinition::destination_ip();
  std::fprintf(stderr, "perfbench_tool: unknown flow definition %s\n",
               name.c_str());
  std::exit(2);
}

/// The devices `ndtm measure` builds for these algorithm names, with the
/// same configuration (tools/ndtm.cpp device_by_name).
std::unique_ptr<core::MeasurementDevice> device_by_name(
    const std::string& name, common::ByteCount threshold,
    std::size_t entries, std::uint64_t seed,
    telemetry::MetricsRegistry* metrics, telemetry::Labels labels = {}) {
  if (name == "sample-and-hold") {
    core::SampleAndHoldConfig config;
    config.flow_memory_entries = entries;
    config.threshold = threshold;
    config.oversampling = 4.0;
    config.preserve = flowmem::PreservePolicy::kEarlyRemoval;
    config.seed = seed;
    config.metrics = metrics;
    config.metric_labels = std::move(labels);
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
    config.metric_labels = std::move(labels);
    return std::make_unique<core::MultistageFilter>(config);
  }
  std::fprintf(stderr, "perfbench_tool: unknown algorithm %s\n",
               name.c_str());
  std::exit(2);
}

/// The session's interval clock (core/measurement_session.cpp):
/// boundaries anchored at multiples of the interval, and a packet past
/// several boundaries closes every interval in between, empty ones too.
class IntervalClock {
 public:
  explicit IntervalClock(std::uint64_t interval_ns)
      : interval_ns_(std::max<std::uint64_t>(interval_ns, 1)) {}

  /// Intervals to close before a packet stamped `ts` is observed.
  std::uint32_t closes_before(common::TimestampNs ts) {
    if (!started_) {
      started_ = true;
      end_ns_ = (ts / interval_ns_ + 1) * interval_ns_;
    }
    std::uint32_t closes = 0;
    while (ts >= end_ns_) {
      ++closes;
      end_ns_ += interval_ns_;
    }
    return closes;
  }
  [[nodiscard]] bool started() const { return started_; }

 private:
  std::uint64_t interval_ns_;
  common::TimestampNs end_ns_{0};
  bool started_{false};
};

std::uint64_t interval_ns(const Args& args) {
  return args.u64("interval") * 1'000'000'000ULL;
}

/// Split a collector export (concatenated unframed reports) back into
/// reports.
std::vector<core::Report> read_export(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::vector<core::Report> reports;
  std::size_t offset = 0;
  auto be32 = [&](std::size_t at) {
    return (std::uint32_t{bytes[at]} << 24) | (std::uint32_t{bytes[at + 1]} << 16) |
           (std::uint32_t{bytes[at + 2]} << 8) | std::uint32_t{bytes[at + 3]};
  };
  while (offset < bytes.size()) {
    if (bytes.size() - offset < reporting::kHeaderBytes) {
      throw reporting::CodecError("export: truncated report header");
    }
    const std::size_t size = reporting::kHeaderBytes +
                             be32(offset + 12) * reporting::kRecordBytes +
                             bytes[offset + 7] * reporting::kShardRecordBytes;
    if (bytes.size() - offset < size) {
      throw reporting::CodecError("export: truncated report");
    }
    reports.push_back(reporting::decode(
        std::span<const std::uint8_t>(bytes).subspan(offset, size)));
    offset += size;
  }
  return reports;
}

/// What `ndtm collect --export` does after the merge: the per-interval
/// summary line on stdout (`console`) and the export file.
void write_export(const std::string& path, std::vector<core::Report>& merged,
                  std::FILE* console) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (core::Report& report : merged) {
    core::sort_by_size(report);
    std::fprintf(console, "interval %u: %zu members, %zu flows, %zu entries\n",
                 report.interval, report.shards.size(), report.flows.size(),
                 report.entries_used);
    if (report.flows.empty()) continue;
    const auto encoded =
        reporting::encode(report, report.flows.front().key.kind());
    out.write(reinterpret_cast<const char*>(encoded.data()),
              static_cast<std::streamsize>(encoded.size()));
  }
}

int cmd_gen(const Args& args) {
  const std::string preset = args.get("preset");
  const std::uint64_t seed = args.u64("seed");
  if (preset != "mag" && preset != "cos") {
    std::fprintf(stderr, "perfbench_tool: unknown preset %s\n",
                 preset.c_str());
    return 2;
  }
  trace::TraceConfig config = preset == "mag" ? trace::Presets::mag(seed)
                                              : trace::Presets::cos(seed);
  config.num_intervals = static_cast<std::uint32_t>(args.u64("intervals"));
  const double scale = std::atof(args.get("scale", "1").c_str());
  if (scale < 1.0) config = trace::scaled(config, scale);

  const std::string out = args.get("out");
  const std::string tmp = out + ".tmp";
  std::uint64_t packets = 0;
  common::ByteCount bytes = 0;
  {
    std::ofstream stream(tmp, std::ios::binary | std::ios::trunc);
    pcap::PcapWriter writer(stream, 96);
    trace::TraceSynthesizer synth(config);
    for (auto batch = synth.next_interval(); !batch.empty();
         batch = synth.next_interval()) {
      for (const packet::PacketRecord& record : batch) {
        writer.write(record);
        bytes += record.size_bytes;
      }
    }
    packets = writer.packets_written();
    if (!stream.flush()) {
      std::fprintf(stderr, "perfbench_tool: cannot write %s\n", tmp.c_str());
      return 1;
    }
  }
  std::filesystem::rename(tmp, out);
  std::printf("{\"packets\": %llu, \"bytes\": %llu}\n",
              static_cast<unsigned long long>(packets),
              static_cast<unsigned long long>(bytes));
  return 0;
}

/// The running chain's children; the watchdog alarm kills them.
volatile pid_t g_children[2] = {-1, -1};

void kill_children(int) {
  for (const pid_t pid : g_children) {
    if (pid > 0) ::kill(pid, SIGKILL);
  }
}

pid_t spawn(const std::vector<std::string>& argv,
            const std::string& stdout_path) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 1, stdout_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<char*> raw;
  for (const std::string& arg : argv) raw.push_back(const_cast<char*>(arg.c_str()));
  raw.push_back(nullptr);
  pid_t pid = -1;
  const int error =
      posix_spawn(&pid, raw[0], &actions, nullptr, raw.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (error != 0) {
    throw std::runtime_error("cannot spawn " + argv[0] + ": " +
                             std::strerror(error));
  }
  return pid;
}

int exit_code(int status) {
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

double seconds(const rusage& usage) {
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

int cmd_chain(const Args& args) {
  const std::string ndtm = args.get("ndtm");
  const std::string work = args.get("work");
  const std::uint64_t timeout_s = args.u64("timeout");
  auto out = [&](const char* name) {
    return args.u64("capture") != 0 ? work + "/" + name + ".out"
                                    : std::string("/dev/null");
  };
  const std::string port_file = work + "/port";
  const std::string export_path = work + "/merged.bin";
  std::filesystem::remove(port_file);
  std::filesystem::remove(export_path);
  std::signal(SIGALRM, kill_children);
  ::alarm(static_cast<unsigned>(timeout_s));

  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  g_children[0] = spawn(
      {ndtm, "collect", "--listen", "0", "--devices", "1", "--timeout-ms",
       std::to_string(timeout_s * 1000), "--port-file", port_file,
       "--export", export_path},
      out("collect"));
  std::string port;
  for (;;) {
    // The collector publishes the port with tmp + rename: no torn reads.
    if (std::ifstream in(port_file); in >> port) break;
    int status = 0;
    if (::waitpid(g_children[0], &status, WNOHANG) != 0) {
      std::fprintf(stderr, "chain: collect exited before listening\n");
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const Clock::time_point spawned = Clock::now();
  std::vector<std::string> measure = {ndtm, "measure", "--in", args.get("in")};
  measure.insert(measure.end(), args.rest().begin(), args.rest().end());
  measure.push_back("--connect");
  measure.push_back("127.0.0.1:" + port);
  g_children[1] = spawn(measure, out("measure"));
  int measure_status = 0;
  int collect_status = 0;
  rusage measure_usage{};
  rusage collect_usage{};
  ::wait4(g_children[1], &measure_status, 0, &measure_usage);
  // A device that failed never says bye; stop the collector now instead
  // of waiting out its timeout.
  if (exit_code(measure_status) != 0) ::kill(g_children[0], SIGTERM);
  ::wait4(g_children[0], &collect_status, 0, &collect_usage);
  const Clock::time_point end = Clock::now();
  ::alarm(0);
  auto span_s = [](Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
  };
  std::printf(
      "{\"wall_s\": %.9f, \"setup_wall_s\": %.9f, \"cpu_s\": %.6f, "
      "\"measure_rss_mb\": %.4f, \"collect_rss_mb\": %.4f, "
      "\"measure_code\": %d, \"collect_code\": %d}\n",
      span_s(spawned, end), span_s(start, end),
      seconds(measure_usage) + seconds(collect_usage),
      static_cast<double>(measure_usage.ru_maxrss) / 1024.0,
      static_cast<double>(collect_usage.ru_maxrss) / 1024.0,
      exit_code(measure_status), exit_code(collect_status));
  return 0;
}

int cmd_reference(const Args& args) {
  const auto start = std::chrono::steady_clock::now();
  std::ifstream in(args.get("in"), std::ios::binary);
  char global_header[24];
  if (!in.read(global_header, sizeof global_header)) {
    throw std::runtime_error("reference: no pcap header");
  }
  // One istream read and one heap buffer per record, the IPv4 5-tuple
  // hashed into four rows of 4096 byte counters.
  std::vector<std::uint64_t> counters(4 * 4096);
  std::uint64_t packets = 0;
  for (std::uint32_t record[4];
       in.read(reinterpret_cast<char*>(record), sizeof record);) {
    if (record[2] > pcap::kMaxSnapLen) {
      throw std::runtime_error("reference: implausible capture length");
    }
    std::vector<std::uint8_t> frame(record[2]);
    if (!in.read(reinterpret_cast<char*>(frame.data()),
                 static_cast<std::streamsize>(frame.size()))) {
      throw std::runtime_error("reference: truncated record");
    }
    ++packets;
    if (frame.size() < packet::kEthernetHeaderSize + 24) continue;
    const std::uint8_t* ip = frame.data() + packet::kEthernetHeaderSize;
    std::uint64_t hash = 1469598103934665603ULL;
    for (int i = 12; i < 24; ++i) hash = (hash ^ ip[i]) * 1099511628211ULL;
    const std::uint64_t size = (std::uint64_t{ip[2]} << 8) | ip[3];
    for (std::uint64_t row = 0; row < 4; ++row) {
      counters[row * 4096 + ((hash >> (12 * row)) & 4095)] += size;
    }
  }
  std::uint64_t checksum = 0;
  for (const std::uint64_t counter : counters) checksum += counter;
  std::printf("{\"seconds\": %.9f, \"packets\": %llu, \"checksum\": %llu}\n",
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count(),
              static_cast<unsigned long long>(packets),
              static_cast<unsigned long long>(checksum));
  return 0;
}

int cmd_check(const Args& args) {
  const packet::FlowDefinition definition =
      flow_def_by_name(args.get("flow-def"));
  const common::ByteCount threshold = args.u64("threshold");

  // Ground truth: the pcap through the session's clock into the oracle.
  using Sizes = std::unordered_map<packet::FlowKey, common::ByteCount,
                                   packet::FlowKeyHasher>;
  std::vector<Sizes> truth;
  baseline::ExactOracle oracle;
  auto close = [&] {
    Sizes sizes;
    for (const core::ReportedFlow& flow : oracle.end_interval().flows) {
      sizes.emplace(flow.key, flow.estimated_bytes);
    }
    truth.push_back(std::move(sizes));
  };
  IntervalClock clock(interval_ns(args));
  std::uint64_t records = 0;
  std::uint64_t classified = 0;
  {
    std::ifstream stream(args.get("in"), std::ios::binary);
    pcap::PcapReader reader(stream);
    while (const auto record = reader.next_record()) {
      for (auto n = clock.closes_before(record->timestamp_ns); n > 0; --n) {
        close();
      }
      ++records;
      if (const auto key = definition.classify(*record)) {
        oracle.observe(*key, record->size_bytes);
        ++classified;
      }
    }
    if (clock.started()) close();
  }

  const std::vector<core::Report> merged = read_export(args.get("export"));
  std::uint64_t overcounted = 0;
  std::uint64_t missed = 0;
  std::uint64_t above = 0;
  std::uint64_t scored = 0;
  double error_sum = 0.0;
  double heavy_bytes = 0.0;
  double heavy_accounted = 0.0;
  std::uint64_t shard_packets = 0;
  std::vector<const core::Report*> by_interval(truth.size(), nullptr);
  for (const core::Report& report : merged) {
    if (report.interval >= truth.size() ||
        by_interval[report.interval] != nullptr) {
      std::fprintf(stderr, "check: unexpected report for interval %u\n",
                   report.interval);
      return 1;
    }
    by_interval[report.interval] = &report;
    for (const core::ShardStatus& shard : report.shards) {
      shard_packets += shard.packets;
    }
  }
  for (std::size_t i = 0; i < truth.size(); ++i) {
    std::unordered_set<packet::FlowKey, packet::FlowKeyHasher> reported;
    if (by_interval[i] != nullptr) {
      for (const core::ReportedFlow& flow : by_interval[i]->flows) {
        reported.insert(flow.key);
        const auto it = truth[i].find(flow.key);
        const common::ByteCount exact = it == truth[i].end() ? 0 : it->second;
        if (flow.estimated_bytes > exact) ++overcounted;
        if (exact >= threshold) {
          ++scored;
          heavy_accounted += static_cast<double>(
              std::min(flow.estimated_bytes, exact));
          error_sum += std::fabs(static_cast<double>(flow.estimated_bytes) -
                                 static_cast<double>(exact)) /
                       static_cast<double>(exact);
        }
      }
    }
    for (const auto& [key, bytes] : truth[i]) {
      if (bytes < threshold) continue;
      ++above;
      heavy_bytes += static_cast<double>(bytes);
      if (reported.count(key) == 0) ++missed;
    }
  }
  std::printf(
      "{\"records\": %llu, \"classified\": %llu, \"intervals\": %zu, "
      "\"reports\": %zu, \"flows_above_t\": %llu, \"missed_above_t\": %llu, "
      "\"overcounted_flows\": %llu, \"scored_flows\": %llu, "
      "\"avg_rel_error_pct\": %.9g, \"hh_bytes_accounted_pct\": %.9g, "
      "\"shard_packets\": %llu}\n",
      static_cast<unsigned long long>(records),
      static_cast<unsigned long long>(classified), truth.size(),
      merged.size(), static_cast<unsigned long long>(above),
      static_cast<unsigned long long>(missed),
      static_cast<unsigned long long>(overcounted),
      static_cast<unsigned long long>(scored),
      scored == 0 ? 0.0 : 100.0 * error_sum / static_cast<double>(scored),
      heavy_bytes == 0.0 ? 0.0 : 100.0 * heavy_accounted / heavy_bytes,
      static_cast<unsigned long long>(shard_packets));
  return 0;
}

/// One layer of the traced split: its span name (the metric name, or
/// its stem for per-report metrics), the per-chunk or per-call samples,
/// busy time, and the calling thread's allocations inside its spans.
struct Layer {
  const char* name;
  std::vector<double> samples{};
  std::uint64_t busy_ns{0};
  std::uint64_t allocations{0};
  std::uint64_t packets{0};
};

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double value : values) sum += value;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

int cmd_traced(const Args& args) {
  const std::string algorithm = args.get("algorithm");
  const packet::FlowDefinition definition =
      flow_def_by_name(args.get("flow-def"));
  const packet::FlowKeyKind key_kind = definition.kind();
  const common::ByteCount threshold = args.u64("threshold");
  const std::size_t entries = args.u64("entries");
  const std::uint64_t seed = args.u64("seed");
  const auto shards = static_cast<std::uint32_t>(args.u64("shards", 1));
  const std::string metrics_path = args.get("metrics", "");
  // Packet layers are timed per chunk, so two clock reads amortize over
  // 256 packets of 20-100 ns work.
  constexpr std::size_t kChunk = 256;

  telemetry::TraceRecorder recorder(1 << 18);
  auto now = [&recorder] { return recorder.now_ns(); };
  const std::uint64_t wall_start = now();

  Layer pcap_layer{"pcap.next_ns"};
  Layer parse_layer{"packet.parse_ns"};
  Layer classify_layer{"packet.classify_ns"};
  Layer observe_layer{"core.observe_ns"};
  Layer close_layer{"core.end_interval_us"};
  Layer snapshot_layer{"telemetry.snapshot_us"};
  Layer encode_layer{"reporting.encode_us"};
  Layer send_layer{"net.send_us"};
  Layer tail_layer{"net.collector_tail_ms"};
  Layer merge_layer{"net.merge_ms"};
  // Time `body` as one span of `layer`; returns its duration in ns.
  auto timed = [&](Layer& layer, auto&& body) {
    const std::uint64_t allocs = perfbench::thread_allocations();
    const std::uint64_t start = now();
    body();
    const std::uint64_t elapsed = now() - start;
    layer.allocations += perfbench::thread_allocations() - allocs;
    layer.busy_ns += elapsed;
    recorder.complete(layer.name, "perfbench", start, elapsed);
    return elapsed;
  };
  // One per-report call, sampled in units of `unit_ns`.
  auto timed_call = [&](Layer& layer, double unit_ns, auto&& body) {
    layer.samples.push_back(static_cast<double>(timed(layer, body)) / unit_ns);
  };
  // One chunk's busy time, sampled as ns per packet.
  auto add_chunk = [](Layer& layer, std::uint64_t busy_ns,
                      std::size_t packets) {
    if (packets == 0) return;
    layer.packets += packets;
    layer.samples.push_back(static_cast<double>(busy_ns) /
                            static_cast<double>(packets));
  };

  // Wiring, in cmd_collect's and cmd_measure's order.
  net::CollectorConfig collector_config;
  collector_config.expected_devices = 1;
  collector_config.timeout = std::chrono::milliseconds(120'000);
  net::Collector collector(collector_config);
  collector.start();

  telemetry::MetricsRegistry registry;
  telemetry::MetricsRegistry* metrics =
      metrics_path.empty() ? nullptr : &registry;
  std::ofstream metrics_stream;
  std::optional<telemetry::JsonLinesExporter> metrics_exporter;
  if (metrics != nullptr) {
    metrics_stream.open(metrics_path, std::ios::trunc);
    metrics_exporter.emplace(metrics_stream);
  }
  std::unique_ptr<common::ThreadPool> pool;
  std::unique_ptr<core::MeasurementDevice> device;
  if (shards > 1) {
    common::ThreadPoolConfig pool_config;
    pool_config.threads = std::min<std::size_t>(
        shards - 1, common::ThreadPool::default_thread_count());
    pool = std::make_unique<common::ThreadPool>(pool_config);
    pool->attach_telemetry(metrics);
    core::ShardedDeviceConfig sharded;
    sharded.shards = shards;
    sharded.seed = seed;
    sharded.pool = pool.get();
    sharded.metrics = metrics;
    const std::size_t per_shard =
        std::max<std::size_t>(entries / shards, 64);
    device = std::make_unique<core::ShardedDevice>(
        sharded, [&](std::uint32_t shard, std::uint64_t shard_seed) {
          return device_by_name(
              algorithm, threshold, per_shard, shard_seed, metrics,
              telemetry::Labels{{"shard", std::to_string(shard)}});
        });
  } else {
    device = device_by_name(algorithm, threshold, entries, seed, metrics);
  }
  const std::size_t capacity = device->flow_memory_capacity();

  net::TcpTransportConfig transport_config;
  transport_config.port = collector.port();
  transport_config.metrics = metrics;
  net::TcpTransport transport(transport_config);
  reporting::ResilientChannelConfig channel_config;
  channel_config.bytes_per_interval = 1ULL << 22;
  channel_config.max_attempts = 4;
  channel_config.backoff_base = std::chrono::microseconds(1000);
  channel_config.sleep_on_backoff = true;
  channel_config.transport = &transport;
  channel_config.jitter = true;
  channel_config.jitter_seed = seed ^ 0x9E3779B97F4A7C15ULL;
  channel_config.metrics = metrics;
  reporting::ResilientChannel channel(channel_config);

  std::vector<double> entries_used_pct;
  std::vector<double> imbalance;
  std::uint64_t reports_closed = 0;
  std::uint64_t abandoned = 0;
  std::uint64_t report_bytes = 0;
  std::vector<std::uint8_t> scratch;
  // cmd_measure's per-report handling, printing included: `ndtm` runs
  // with stdout on /dev/null, and so does this console.
  std::FILE* console = std::fopen("/dev/null", "w");
  if (console == nullptr) throw std::runtime_error("cannot open /dev/null");
  auto close_interval = [&] {
    core::Report report;
    timed_call(close_layer, 1e3, [&] { report = device->end_interval(); });
    ++reports_closed;
    core::sort_by_size(report);
    std::fprintf(console, "interval %u: %zu flows tracked\n", report.interval,
                 report.flows.size());
    for (const core::ReportedFlow& flow : report.flows) {
      if (flow.estimated_bytes < threshold) break;
      std::fprintf(console, "  %-45s %14s%s\n", flow.key.to_string().c_str(),
                   common::format_bytes(flow.estimated_bytes).c_str(),
                   flow.exact ? "  (exact)" : "");
    }
    entries_used_pct.push_back(100.0 *
                               static_cast<double>(report.entries_used) /
                               static_cast<double>(capacity));
    const eval::ShardUsageSummary balance = eval::summarize_shards(report);
    imbalance.push_back(balance.shard_count > 0 ? balance.packet_imbalance
                                                : 1.0);
    std::string metrics_line;
    timed_call(snapshot_layer, 1e3, [&] {
      if (metrics == nullptr) return;
      common::sync_crc32_metrics(registry);
      metrics_line = telemetry::to_json_line(
          metrics_exporter->write(registry, report.interval));
    });
    core::Report shipped = report;
    if (shipped.shards.empty()) {
      shipped.shards.assign(1,
                            core::make_shard_status(shipped, capacity, 0, 0));
    }
    timed_call(encode_layer, 1e3, [&] {
      reporting::encode_into(scratch, shipped, key_kind, metrics_line);
      report_bytes += reporting::frame_header(scratch).size() + scratch.size();
    });
    timed_call(send_layer, 1e3, [&] {
      if (!channel.send(shipped, metrics_line).delivered) ++abandoned;
    });
  };

  IntervalClock clock(interval_ns(args));
  std::uint64_t read = 0;
  std::uint64_t observed = 0;
  {
    std::ifstream stream(args.get("in"), std::ios::binary);
    pcap::PcapReader reader(stream);
    std::vector<pcap::PcapPacket> raw;
    std::vector<packet::PacketRecord> records;
    std::vector<std::optional<packet::FlowKey>> keys;
    raw.reserve(kChunk);
    records.reserve(kChunk);
    keys.reserve(kChunk);
    for (bool more = true; more;) {
      add_chunk(pcap_layer, timed(pcap_layer, [&] {
                  raw.clear();
                  while (raw.size() < kChunk) {
                    auto packet = reader.next();
                    if (!packet) {
                      more = false;
                      break;
                    }
                    raw.push_back(std::move(*packet));
                  }
                }),
                raw.size());
      read += raw.size();
      add_chunk(parse_layer, timed(parse_layer, [&] {
                  records.clear();
                  for (const pcap::PcapPacket& packet : raw) {
                    if (auto record = packet::parse_frame(
                            packet.data, packet.timestamp_ns)) {
                      records.push_back(*record);
                    }
                  }
                }),
                raw.size());
      add_chunk(classify_layer, timed(classify_layer, [&] {
                  keys.clear();
                  for (const packet::PacketRecord& record : records) {
                    keys.push_back(definition.classify(record));
                  }
                }),
                records.size());
      // Observe in runs between interval boundaries: the packets before
      // a boundary, then the closes, then the rest — the session's order.
      std::uint64_t chunk_ns = 0;
      std::size_t chunk_observed = 0;
      std::size_t first = 0;
      auto observe_run = [&](std::size_t end) {
        if (end == first) return;
        chunk_ns += timed(observe_layer, [&] {
          for (std::size_t i = first; i < end; ++i) {
            if (!keys[i]) continue;
            device->observe(*keys[i], records[i].size_bytes);
            ++chunk_observed;
          }
        });
        first = end;
      };
      for (std::size_t i = 0; i < records.size(); ++i) {
        const std::uint32_t closes =
            clock.closes_before(records[i].timestamp_ns);
        if (closes == 0) continue;
        observe_run(i);
        for (std::uint32_t n = 0; n < closes; ++n) close_interval();
      }
      observe_run(records.size());
      add_chunk(observe_layer, chunk_ns, chunk_observed);
      observed += chunk_observed;
    }
  }
  if (clock.started()) close_interval();
  bool complete = false;
  timed_call(tail_layer, 1e6, [&] {
    if (!transport.send_bye(static_cast<std::uint32_t>(reports_closed))) {
      ++abandoned;
    }
    complete = collector.wait();
  });
  std::vector<core::Report> merged;
  timed_call(merge_layer, 1e6, [&] { merged = collector.merged_reports(); });
  write_export(args.get("export"), merged, console);
  std::fclose(console);
  const std::uint64_t wall_ns = now() - wall_start;

  std::ofstream spans(args.get("spans"), std::ios::binary | std::ios::trunc);
  spans << telemetry::to_chrome_trace(recorder.events(), 0);

  std::uint64_t span_ns = 0;
  for (const Layer* layer :
       {&pcap_layer, &parse_layer, &classify_layer, &observe_layer,
        &close_layer, &snapshot_layer, &encode_layer, &send_layer,
        &tail_layer, &merge_layer}) {
    span_ns += layer->busy_ns;
  }
  const auto front_end_ns = static_cast<double>(
      pcap_layer.busy_ns + parse_layer.busy_ns + classify_layer.busy_ns);
  auto allocs_per_packet = [](const Layer& layer) {
    return ratio(static_cast<double>(layer.allocations),
                 static_cast<double>(layer.packets));
  };
  const std::vector<std::pair<const char*, double>> layer_metrics = {
      {"pcap.next_ns", percentile(pcap_layer.samples, 50)},
      {"pcap.next_ns_p99", percentile(pcap_layer.samples, 99)},
      {"pcap.allocs_per_pkt", allocs_per_packet(pcap_layer)},
      {"packet.parse_ns", percentile(parse_layer.samples, 50)},
      {"packet.parse_ns_p99", percentile(parse_layer.samples, 99)},
      {"packet.classify_ns", percentile(classify_layer.samples, 50)},
      {"packet.classify_ns_p99", percentile(classify_layer.samples, 99)},
      {"packet.skipped_pct",
       100.0 * ratio(static_cast<double>(read - observed),
                     static_cast<double>(read))},
      {"packet.allocs_per_pkt",
       ratio(static_cast<double>(parse_layer.allocations +
                                 classify_layer.allocations),
             static_cast<double>(read))},
      {"core.observe_ns", percentile(observe_layer.samples, 50)},
      {"core.observe_ns_p99", percentile(observe_layer.samples, 99)},
      {"core.mem_accesses_per_pkt",
       ratio(static_cast<double>(device->memory_accesses()),
             static_cast<double>(device->packets_processed()))},
      {"core.shard_imbalance", mean(imbalance)},
      {"core.entries_used_pct", mean(entries_used_pct)},
      {"core.end_interval_us_p50", percentile(close_layer.samples, 50)},
      {"core.end_interval_us_p99", percentile(close_layer.samples, 99)},
      {"core.allocs_per_pkt", allocs_per_packet(observe_layer)},
      {"core.reports", static_cast<double>(reports_closed)},
      {"telemetry.snapshot_us_p50", percentile(snapshot_layer.samples, 50)},
      {"reporting.encode_us_p50", percentile(encode_layer.samples, 50)},
      {"reporting.bytes_per_report",
       ratio(static_cast<double>(report_bytes),
             static_cast<double>(reports_closed))},
      {"net.send_us_p50", percentile(send_layer.samples, 50)},
      {"net.send_us_p99", percentile(send_layer.samples, 99)},
      {"net.retries", static_cast<double>(channel.stats().retries)},
      {"net.collector_tail_ms", tail_layer.samples.front()},
      {"net.merge_ms", merge_layer.samples.front()},
      {"trace.unattributed_pct",
       100.0 * ratio(static_cast<double>(wall_ns - std::min(span_ns, wall_ns)),
                     static_cast<double>(wall_ns))},
      {"trace.front_end_pct",
       100.0 * ratio(front_end_ns,
                     front_end_ns + static_cast<double>(observe_layer.busy_ns))},
  };
  std::printf(
      "{\"complete\": %s, \"abandoned\": %llu, \"recorder_dropped\": %llu, "
      "\"packets_read\": %llu, \"wall_ns\": %llu, \"metrics\": {",
      complete ? "true" : "false", static_cast<unsigned long long>(abandoned),
      static_cast<unsigned long long>(recorder.dropped()),
      static_cast<unsigned long long>(read),
      static_cast<unsigned long long>(wall_ns));
  const char* separator = "";
  for (const auto& [name, value] : layer_metrics) {
    std::printf("%s\"%s\": %.17g", separator, name, value);
    separator = ", ";
  }
  std::printf("}}\n");
  return complete && abandoned == 0 ? 0 : 5;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_tool <gen|chain|reference|check|traced> "
                 "[--flags]\n");
    return 2;
  }
  const Args args(argc, argv);
  const std::string command = argv[1];
  try {
    if (command == "gen") return cmd_gen(args);
    if (command == "chain") return cmd_chain(args);
    if (command == "reference") return cmd_reference(args);
    if (command == "check") return cmd_check(args);
    if (command == "traced") return cmd_traced(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_tool %s: %s\n", command.c_str(),
                 error.what());
    return 1;
  }
  std::fprintf(stderr, "perfbench_tool: unknown command %s\n",
               command.c_str());
  return 2;
}
