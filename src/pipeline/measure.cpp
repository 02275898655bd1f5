#include "pipeline/measure.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/format.hpp"
#include "common/thread_pool.hpp"
#include "core/adaptive_device.hpp"
#include "core/checkpoint.hpp"
#include "core/measurement_session.hpp"
#include "core/multistage_filter.hpp"
#include "core/sample_and_hold.hpp"
#include "core/sharded_device.hpp"
#include "eval/metrics.hpp"
#include "net/fleet.hpp"
#include "packet/flow_definition.hpp"
#include "pcap/pcap.hpp"
#include "reporting/record_codec.hpp"
#include "reporting/wal.hpp"

namespace nd::pipeline {

namespace {

Error usage(const std::string& message) {
  return Error(Exit::kUsage, "measure: " + message);
}

/// The configuration contradictions, each a usage error naming its
/// flags.
void validate(const MeasureConfig& config) {
  if (config.input.empty()) throw usage("--in <file.pcap> is required");
  if (config.interval.count() <= 0) {
    throw usage("--interval must be at least 1 second");
  }
  // The session clocks intervals in nanoseconds; a longer interval
  // would overflow the conversion.
  constexpr auto kMaxInterval =
      std::chrono::duration_cast<std::chrono::seconds>(
          common::IntervalDuration::max());
  if (config.interval > kMaxInterval) {
    throw usage("--interval " + std::to_string(config.interval.count()) +
                " exceeds " + std::to_string(kMaxInterval.count()) +
                " seconds");
  }
  // Past this point the 64-entry floor per shard already exceeds the
  // --entries budget (and a huge count would die reserving shards).
  const std::uint64_t max_shards =
      std::max<std::uint64_t>(1, config.entries / 64);
  if (config.shards > max_shards) {
    throw usage("--shards " + std::to_string(config.shards) +
                " exceeds max(1, --entries / 64) = " +
                std::to_string(max_shards));
  }
  const std::uint32_t device_id = config.transport.device_id;
  if (config.fleet_size > 0) {
    if (device_id >= config.fleet_size) {
      throw usage("--device-id " + std::to_string(device_id) +
                  " is outside --fleet-size " +
                  std::to_string(config.fleet_size));
    }
    if (config.shards > 1) {
      throw usage(
          "--fleet-size is one member of a fleet; it cannot combine with "
          "--shards");
    }
    if (config.adaptive) {
      throw usage(
          "--fleet-size does not combine with --adaptive (members cannot "
          "see fleet-wide usage)");
    }
  }
  if (config.channel.bytes_per_interval > reporting::wal::kMaxPayloadBytes) {
    throw usage("--net-budget " +
                std::to_string(config.channel.bytes_per_interval) +
                " exceeds the " +
                std::to_string(reporting::wal::kMaxPayloadBytes) +
                "-byte frame payload bound");
  }
  if (!config.spool.directory.empty() && config.transport.port == 0) {
    throw usage("--spool-dir spools reports for a collector; it needs "
                "--connect");
  }
  if (config.resume && config.checkpoint_path.empty()) {
    throw usage("--resume restarts from a checkpoint; it needs "
                "--checkpoint");
  }
}

enum class Algorithm { kSampleAndHold, kMultistage };

Algorithm algorithm_by_name(const std::string& name) {
  if (name == "sample-and-hold") return Algorithm::kSampleAndHold;
  if (name == "multistage") return Algorithm::kMultistage;
  throw Error(Exit::kUsage, "unknown algorithm: " + name +
                                " (sample-and-hold, multistage)");
}

packet::FlowDefinition flow_def_by_name(const std::string& name) {
  if (name == "5tuple") return packet::FlowDefinition::five_tuple();
  if (name == "dstip") return packet::FlowDefinition::destination_ip();
  if (name.rfind("netpair:", 0) == 0) {
    const char* first = name.data() + 8;
    const char* last = name.data() + name.size();
    unsigned prefix_len = 0;
    const auto [end, error] = std::from_chars(first, last, prefix_len);
    if (error == std::errc{} && end == last && prefix_len <= 32) {
      return packet::FlowDefinition::network_pair(
          static_cast<std::uint8_t>(prefix_len));
    }
  }
  throw usage("--flow-def " + name +
              " is not one of 5tuple, dstip, netpair:<0-32>");
}

std::unique_ptr<core::MeasurementDevice> device_by_algorithm(
    Algorithm algorithm, common::ByteCount threshold, std::size_t entries,
    std::uint64_t seed, telemetry::MetricsRegistry* metrics,
    telemetry::Labels metric_labels = {}) {
  switch (algorithm) {
    case Algorithm::kSampleAndHold: {
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
    case Algorithm::kMultistage: {
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
  }
  return nullptr;
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

/// One run's wiring. Members are declared in lifetime order: each is
/// built from the ones above it and destroyed before them.
class MeasureRun {
 public:
  MeasureRun(const MeasureConfig& config,
             const std::atomic<bool>& stop_requested);
  MeasureRun(const MeasureRun&) = delete;
  MeasureRun& operator=(const MeasureRun&) = delete;

  Exit run();

 private:
  std::unique_ptr<common::ThreadPool> make_pool();
  std::unique_ptr<core::MeasurementDevice> make_device();
  core::MeasurementSession open_session();
  std::ifstream open_input() const;
  std::ofstream open_export();
  std::unique_ptr<net::TcpTransport> make_transport();
  std::unique_ptr<reporting::SpoolWal> open_spool();
  std::unique_ptr<reporting::ResilientChannel> make_channel();
  telemetry::HttpExporterConfig health_endpoint();

  void report(std::vector<core::Report>& reports);
  void process(std::vector<core::Report> reports);
  void await_reports();
  void save_checkpoint();
  Exit finish(bool stopped, std::uint64_t pcap_records,
              std::uint64_t pcap_skipped);

  const MeasureConfig& config_;
  const std::atomic<bool>& stop_requested_;
  const Algorithm algorithm_;
  const packet::FlowDefinition flow_def_;
  Observability obs_;
  /// The shards' interval-close pool (--shards > 1); the device holds
  /// it, so it outlives the session.
  std::unique_ptr<common::ThreadPool> pool_;
  /// --resume: the pcap records the checkpoint already accounted for.
  std::uint64_t skip_records_{0};
  bool resumed_{false};
  core::MeasurementSession session_;
  /// The capacity the report stage stamps on shipped reports, read once:
  /// the device belongs to the packet thread.
  const std::size_t memory_capacity_;
  std::ifstream input_;
  std::ofstream export_;
  std::unique_ptr<net::TcpTransport> transport_;
  std::unique_ptr<reporting::SpoolWal> spool_;
  std::unique_ptr<reporting::ResilientChannel> channel_;
  /// /healthz watches the spool backlog: a device still draining
  /// spooled reports is live but degraded.
  HttpServer http_;
  /// The report stage: one worker runs report() for interval k while
  /// the packet thread reads interval k+1, with at most one task in
  /// flight (report_done_). Declared last, so its destructor joins the
  /// task before anything the task touches is destroyed.
  common::ThreadPool report_stage_{1};
  std::future<void> report_done_;
};

MeasureRun::MeasureRun(const MeasureConfig& config,
                       const std::atomic<bool>& stop_requested)
    : config_(config),
      stop_requested_(stop_requested),
      algorithm_(algorithm_by_name(config.algorithm)),
      flow_def_(flow_def_by_name(config.flow_def)),
      obs_(config.observability, "measure"),
      pool_(make_pool()),
      session_(open_session()),
      memory_capacity_(session_.device().flow_memory_capacity()),
      input_(open_input()),
      export_(open_export()),
      transport_(make_transport()),
      spool_(open_spool()),
      channel_(make_channel()),
      http_(obs_.serve_http(health_endpoint())) {
  // Drain whatever a previous incarnation left spooled before the first
  // interval even closes — the (re)connect half of store-and-forward.
  // Failure is fine: the frames stay on disk and every later send()
  // retries the backlog.
  if (spool_ && spool_->backlog() > 0) (void)channel_->drain_spool();
}

std::unique_ptr<common::ThreadPool> MeasureRun::make_pool() {
  if (config_.shards <= 1) return nullptr;
  common::ThreadPoolConfig pool_config;
  pool_config.threads = std::min<std::size_t>(
      config_.shards - 1, common::ThreadPool::default_thread_count());
  auto pool = std::make_unique<common::ThreadPool>(pool_config);
  pool->attach_telemetry(obs_.metrics());
  pool->attach_fault_injector(obs_.faults());
  return pool;
}

std::unique_ptr<core::MeasurementDevice> MeasureRun::make_device() {
  telemetry::MetricsRegistry* metrics = obs_.metrics();
  const common::ByteCount threshold = config_.threshold;
  const core::ThresholdAdaptorConfig adaptor_config =
      algorithm_ == Algorithm::kSampleAndHold
          ? core::sample_and_hold_adaptor()
          : core::multistage_adaptor();
  if (config_.shards > 1) {
    core::ShardedDeviceConfig sharded;
    sharded.shards = config_.shards;
    sharded.seed = config_.seed;
    sharded.pool = pool_.get();
    sharded.metrics = metrics;
    sharded.trace = obs_.trace();
    if (config_.adaptive) sharded.adaptor = adaptor_config;
    // Split the memory budget across shards (>= 64 entries each).
    const std::size_t per_shard =
        std::max<std::size_t>(config_.entries / config_.shards, 64);
    return std::make_unique<core::ShardedDevice>(
        sharded, [&](std::uint32_t shard, std::uint64_t shard_seed_value) {
          return device_by_algorithm(
              algorithm_, threshold, per_shard, shard_seed_value, metrics,
              telemetry::Labels{{"shard", std::to_string(shard)}});
        });
  }
  if (config_.fleet_size > 0) {
    // One member of a fleet: the inner replica is built with the exact
    // per-shard seed and memory split an M-sharded device would hand
    // shard `device_id`, and the decorator routes the flow space with
    // the same seeded math — so M such processes merge bit-identically
    // to one `--shards M` run at the collector.
    const std::uint32_t member = config_.transport.device_id;
    const std::size_t per_member =
        std::max<std::size_t>(config_.entries / config_.fleet_size, 64);
    return std::make_unique<net::FleetSliceDevice>(
        member, config_.fleet_size, config_.seed,
        device_by_algorithm(algorithm_, threshold, per_member,
                            core::shard_seed(config_.seed, member),
                            metrics));
  }
  auto device = device_by_algorithm(algorithm_, threshold,
                                    config_.entries, config_.seed, metrics);
  if (config_.adaptive) {
    device = std::make_unique<core::AdaptiveDevice>(std::move(device),
                                                    adaptor_config);
  }
  return device;
}

core::MeasurementSession MeasureRun::open_session() {
  // --resume: when the checkpoint file exists, restore the session
  // (device state, interval clock, tallies) and remember how many pcap
  // records it already accounted for; a missing file is a fresh start,
  // so a restart loop needs no first-run special case.
  auto session = [&] {
    if (!config_.resume ||
        !std::filesystem::exists(config_.checkpoint_path)) {
      return core::MeasurementSession(make_device(), flow_def_,
                                      config_.interval);
    }
    try {
      const core::SessionCheckpoint loaded =
          core::load_checkpoint_file(config_.checkpoint_path);
      core::MeasurementSession resumed =
          core::MeasurementSession::resume(loaded, make_device(), flow_def_);
      skip_records_ = loaded.packets;
      resumed_ = true;
      std::printf("resume: %s at %llu packets, %u intervals closed\n",
                  config_.checkpoint_path.c_str(),
                  static_cast<unsigned long long>(loaded.packets),
                  loaded.intervals_closed);
      return resumed;
    } catch (const common::StateError& error) {
      throw Error(Exit::kIo,
                  std::string("measure: --resume: ") + error.what());
    }
  }();
  session.attach_telemetry(obs_.metrics());
  session.attach_trace(obs_.trace());
  return session;
}

std::ifstream MeasureRun::open_input() const {
  std::ifstream stream(config_.input, std::ios::binary);
  if (!stream) throw Error(Exit::kIo, "cannot open " + config_.input);
  return stream;
}

std::ofstream MeasureRun::open_export() {
  std::ofstream stream;
  if (config_.export_path.empty()) return stream;
  std::ios::openmode mode = std::ios::binary;
  if (resumed_) {
    // The interrupted run flushed its export before every checkpoint:
    // keep its whole reports below the checkpoint's interval count and
    // append the resumed intervals after them. Every report carries a
    // trailer exactly when the registry is on, as when it was written.
    std::ifstream previous(config_.export_path, std::ios::binary);
    const std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(previous)),
        std::istreambuf_iterator<char>());
    if (previous.is_open()) {
      previous.close();
      std::error_code error;
      std::filesystem::resize_file(
          config_.export_path,
          reporting::export_prefix(bytes, obs_.metrics() != nullptr,
                                   session_.intervals_closed()),
          error);
      if (error) {
        throw Error(Exit::kIo, "cannot cut " + config_.export_path +
                                   " back to the checkpoint: " +
                                   error.message());
      }
    }
    mode |= std::ios::app;
  }
  stream.open(config_.export_path, mode);
  if (!stream) {
    throw Error(Exit::kIo,
                "cannot open " + config_.export_path + " for export");
  }
  return stream;
}

std::unique_ptr<net::TcpTransport> MeasureRun::make_transport() {
  if (config_.transport.port == 0) return nullptr;
  net::TcpTransportConfig transport = config_.transport;
  transport.faults = obs_.faults();
  transport.metrics = obs_.metrics();
  transport.trace = obs_.trace();
  return std::make_unique<net::TcpTransport>(transport);
}

std::unique_ptr<reporting::SpoolWal> MeasureRun::open_spool() {
  if (config_.spool.directory.empty()) return nullptr;
  reporting::SpoolWalConfig spool_config = config_.spool;
  spool_config.faults = obs_.faults();
  spool_config.metrics = obs_.metrics();
  spool_config.trace = obs_.trace();
  spool_config.trace_device =
      static_cast<std::int64_t>(config_.transport.device_id);
  auto spool = std::make_unique<reporting::SpoolWal>(spool_config);
  const reporting::SpoolWalStats& recovered = spool->stats();
  if (recovered.recovered > 0 || recovered.torn_records > 0) {
    std::printf(
        "spool: recovered %llu frames (%llu torn records skipped) from "
        "%s\n",
        static_cast<unsigned long long>(recovered.recovered),
        static_cast<unsigned long long>(recovered.torn_records),
        spool_config.directory.c_str());
  }
  return spool;
}

std::unique_ptr<reporting::ResilientChannel> MeasureRun::make_channel() {
  if (!transport_) return nullptr;
  const std::uint32_t device_id = config_.transport.device_id;
  reporting::ResilientChannelConfig channel = config_.channel;
  channel.transport = transport_.get();
  channel.spool = spool_.get();
  // Jitter seeded per device, so a fleet reconnecting after a collector
  // restart spreads out while every schedule stays reproducible.
  channel.jitter_seed =
      config_.seed ^ (0x9E3779B97F4A7C15ULL * (device_id + 1));
  channel.faults = obs_.faults();
  channel.metrics = obs_.metrics();
  channel.trace = obs_.trace();
  channel.trace_device = static_cast<std::int64_t>(device_id);
  return std::make_unique<reporting::ResilientChannel>(channel);
}

telemetry::HttpExporterConfig MeasureRun::health_endpoint() {
  telemetry::HttpExporterConfig endpoint;
  endpoint.healthy = [this] {
    return spool_ == nullptr || !spool_->draining();
  };
  return endpoint;
}

void MeasureRun::report(std::vector<core::Report>& reports) {
  // Each interval's listing (header, --shard-usage lines, one line per
  // flow at or above the cutoff) is rendered into one reused buffer,
  // handed to stdout with fwrite (which keeps it in order with the
  // printf lines around it) each time it reaches kListingChunk bytes and
  // at the listing's end. So the buffer holds one chunk, not a whole
  // listing (~140 KB on a cos-interval-churn interval), and each write
  // still carries hundreds of lines. The buffer belongs to the report
  // thread: in the packet thread's frame its header shared a cache line
  // with the packet loop's per-packet temporaries, and that false
  // sharing cost up to a quarter more CPU on cos-interval-churn.
  constexpr std::size_t kListingChunk = 16 * 1024;
  thread_local std::string listing;
  for (auto& report : reports) {
    const telemetry::TraceArgs trace_args{
        static_cast<std::int64_t>(config_.transport.device_id), -1,
        static_cast<std::int64_t>(report.interval),
        static_cast<std::int64_t>(report.flows.size())};
    {
      const telemetry::ScopedTraceSpan span(obs_.trace(), "report.sort",
                                            "report", trace_args, "flows");
      core::sort_by_size(report);
    }
    {
      const telemetry::ScopedTraceSpan span(obs_.trace(), "report.render",
                                            "report", trace_args, "flows");
      // Under adaptation the operative cutoff is the report's effective
      // (max per-shard) threshold, not the configured starting value.
      const common::ByteCount cutoff =
          config_.adaptive
              ? std::max<common::ByteCount>(core::effective_threshold(report),
                                            1)
              : config_.threshold;
      listing.clear();
      listing.append("interval ");
      common::append_uint(listing, report.interval);
      listing.append(": ");
      common::append_uint(listing, report.flows.size());
      listing.append(" flows tracked\n");
      if (config_.shard_usage) append_shard_usage(listing, report);
      for (const auto& flow : report.flows) {
        if (flow.estimated_bytes < cutoff) break;
        core::append_flow_line(listing, flow);
        if (listing.size() >= kListingChunk) {
          std::fwrite(listing.data(), 1, listing.size(), stdout);
          listing.clear();
        }
      }
      std::fwrite(listing.data(), 1, listing.size(), stdout);
    }
    // One interval-aligned registry snapshot per report: a JSON line in
    // the metrics file, and the same line riding every exported or
    // shipped report as the v3 metrics trailer — whichever switch turned
    // the registry on, the collector's fleet plane gets fed.
    const std::string metrics_line = obs_.snapshot(report.interval);
    if (export_.is_open()) {
      const auto encoded =
          reporting::encode(report, flow_def_.kind(), metrics_line);
      export_.write(reinterpret_cast<const char*>(encoded.data()),
                    static_cast<std::streamsize>(encoded.size()));
    }
    if (channel_) {
      // The collector merges member ShardStatus entries; an unsharded
      // device ships one synthesized status (exactly what a fleet member
      // attaches) so thresholds and occupancy survive the merge. Sharded
      // reports already carry theirs. The report is not read after
      // this, so it moves into the channel uncopied.
      if (report.shards.empty()) {
        report.shards.assign(
            1, core::make_shard_status(report, memory_capacity_, 0, 0));
      }
      // In spool mode an undelivered report is waiting, not lost — the
      // only permanent spool loss is a budget drop, accounted from the
      // spool's own stats at exit.
      (void)channel_->send(std::move(report), metrics_line,
                           flow_def_.kind());
    }
  }
}

// The packet thread waits for the report stage to go idle before
// anything that can close an interval (devices and the session publish
// telemetry at close; each report's snapshot must not see the next
// close), before a checkpoint (it must not precede the delivery or
// spooling of its report) and before any line printed after the
// listings. get() also rethrows a report-stage exception here.
void MeasureRun::await_reports() {
  if (report_done_.valid()) report_done_.get();
}

void MeasureRun::save_checkpoint() {
  // The report stage is idle: everything exported so far reaches the
  // file before the checkpoint that a resume cuts the export back to.
  if (export_.is_open()) export_.flush();
  core::save_checkpoint_file(config_.checkpoint_path, session_.checkpoint(),
                             obs_.trace());
}

void MeasureRun::process(std::vector<core::Report> reports) {
  if (reports.empty()) return;
  report_done_ = report_stage_.submit(
      [this, reports = std::move(reports)]() mutable { report(reports); });
  // Checkpoint after every closed interval: the reports are already
  // delivered or spooled, so a resume replays from the exact interval
  // boundary. Pacing comes after the checkpoint, so a kill during the
  // sleep loses nothing.
  if (!config_.checkpoint_path.empty()) {
    await_reports();
    save_checkpoint();
  }
  if (config_.pace.count() > 0) std::this_thread::sleep_for(config_.pace);
}

Exit MeasureRun::run() {
  bool fed_any = false;
  bool stopped = false;
  std::uint64_t pcap_records = 0;
  std::uint64_t pcap_skipped = 0;
  try {
    pcap::PcapReader reader(input_);
    reader.attach_fault_injector(obs_.faults());
    // --resume: fast-forward past the records the checkpoint already
    // accounted for (checkpoint.packets counts every observed record).
    for (std::uint64_t skipped = 0; skipped < skip_records_; ++skipped) {
      if (!reader.next_record()) break;
    }
    core::MeasurementSession& session = session_;
    const std::atomic<bool>& stop_requested = stop_requested_;
    while (!(stopped = stop_requested.load())) {
      const auto record = reader.next_record();
      if (!record) break;
      // Only a packet that closes an interval leaves reports behind.
      const bool closes = session.closes_interval(*record);
      if (closes) await_reports();
      session.observe(*record);
      fed_any = true;
      if (closes) process(session.drain_reports());
    }
    pcap_records = reader.records_read();
    pcap_skipped = reader.frames_skipped();
    await_reports();
    if (stopped) {
      // Do not close the in-progress interval (that would fabricate an
      // interval boundary mid-stream) — checkpoint the exact position
      // instead, so a resume run continues bit-identically.
      if (!config_.checkpoint_path.empty()) save_checkpoint();
      std::printf(
          "measure: stop signal at %llu packets, %u intervals closed%s\n",
          static_cast<unsigned long long>(session_.packets_observed()),
          session_.intervals_closed(),
          config_.checkpoint_path.empty() ? "" : " (checkpointed)");
    } else if (fed_any || !resumed_) {
      // A resumed run that found nothing left to feed must not re-close
      // the trailing interval: the previous incarnation's reports are
      // already spooled or delivered, and a fabricated empty close would
      // disagree with them.
      process(session_.finish());
      await_reports();
    }
  } catch (...) {
    // Every closed interval is reported before the run ends; a
    // report-stage failure, being the earlier one, wins over this one.
    await_reports();
    throw;
  }
  return finish(stopped, pcap_records, pcap_skipped);
}

Exit MeasureRun::finish(bool stopped, std::uint64_t pcap_records,
                        std::uint64_t pcap_skipped) {
  obs_.print_fault_summary();
  if (obs_.writes_metrics_file()) {
    std::printf("metrics: %llu snapshots (%zu series) -> %s\n",
                static_cast<unsigned long long>(obs_.snapshots_written()),
                obs_.series(), config_.observability.metrics_path.c_str());
  }
  std::printf("pcap: %llu records, %llu skipped (not IPv4 or headers "
              "truncated)\n",
              static_cast<unsigned long long>(pcap_records),
              static_cast<unsigned long long>(pcap_skipped));
  std::printf(
      "done: %llu packets (%llu unmatched by the flow pattern), %u "
      "intervals\n",
      static_cast<unsigned long long>(session_.packets_observed()),
      static_cast<unsigned long long>(session_.packets_unclassified()),
      session_.intervals_closed());
  Exit exit = Exit::kOk;
  if (channel_) {
    // Final spool drain: a collector that came back late gets the
    // backlog now; whatever stays is durable on disk for the next run.
    if (spool_ && spool_->backlog() > 0) (void)channel_->drain_spool();
    // No bye after stop() — the capture is incomplete and the collector
    // must keep waiting for this device's resumed run.
    bool bye_ok = true;
    if (!stopped) bye_ok = transport_->send_bye(session_.intervals_closed());
    const net::TcpTransportStats& tstats = transport_->stats();
    const reporting::ResilientChannelStats& cstats = channel_->stats();
    std::printf(
        "transport: %llu connects (%llu refused), %llu frames, %llu "
        "disconnects, %llu reports abandoned\n",
        static_cast<unsigned long long>(tstats.connects),
        static_cast<unsigned long long>(tstats.connect_failures),
        static_cast<unsigned long long>(tstats.frames_sent),
        static_cast<unsigned long long>(tstats.disconnects),
        static_cast<unsigned long long>(cstats.reports_abandoned));
    if (spool_) {
      const reporting::SpoolWalStats& sstats = spool_->stats();
      std::printf(
          "spool: %llu appended (%llu recovered), %llu acked, %llu flows "
          "shed, %llu dropped, %zu pending -> %s\n",
          static_cast<unsigned long long>(sstats.appended),
          static_cast<unsigned long long>(sstats.recovered),
          static_cast<unsigned long long>(sstats.acked),
          static_cast<unsigned long long>(sstats.records_shed),
          static_cast<unsigned long long>(sstats.dropped),
          spool_->backlog(), spool_->directory().c_str());
      if (spool_->backlog() > 0) {
        std::fprintf(stderr,
                     "measure: %zu reports spooled awaiting the collector "
                     "(durable; the next run drains them)\n",
                     spool_->backlog());
      }
      if (sstats.dropped > 0) {
        // The one loss a spool cannot prevent: the disk budget refused
        // the report outright — the same "report gone" contract.
        std::fprintf(stderr, "measure: spool budget dropped %llu reports\n",
                     static_cast<unsigned long long>(sstats.dropped));
        exit = Exit::kTransport;
      }
    } else if (cstats.reports_abandoned > 0 || !bye_ok) {
      std::fprintf(stderr,
                   "measure: transport failure after retries exhausted "
                   "(%llu reports undelivered%s)\n",
                   static_cast<unsigned long long>(cstats.reports_abandoned),
                   bye_ok ? "" : ", bye undeliverable");
      exit = Exit::kTransport;
    }
  }
  // The trace is written even on a transport failure — that run is
  // exactly the one worth loading into a viewer.
  if (!obs_.write_trace(config_.transport.device_id) && exit == Exit::kOk) {
    exit = Exit::kIo;
  }
  return exit;
}

}  // namespace

Exit Measure::run() {
  try {
    validate(config_);
    // On the heap, not in this frame: the report thread writes members
    // of the run (export stream, registry), and none of them may share
    // a cache line with the packet loop's stack temporaries.
    const auto wiring = std::make_unique<MeasureRun>(config_, stop_requested_);
    return wiring->run();
  } catch (...) {
    return exit_for_current_exception("measure");
  }
}

}  // namespace nd::pipeline
