// The composition root driven in process: pipeline::Collect runs on a
// thread with an ephemeral port and pipeline::Measure instances point at
// it over 127.0.0.1. These are the networked end-to-end scenarios of the
// deployed system — determinism across runs, a lost report, a fleet
// merging to the sharded bytes, unreachable and timed-out collectors,
// spool and journal drain and replay, the HTTP scrape and the trace
// files — plus the graceful stop and the IO-failure exit codes.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "../support/pipeline_testing.hpp"
#include "core/checkpoint.hpp"
#include "net/socket.hpp"
#include "pcap/pcap.hpp"
#include "pipeline/collect.hpp"
#include "pipeline/measure.hpp"
#include "telemetry/export.hpp"
#include "trace/presets.hpp"
#include "trace/synthesizer.hpp"

namespace nd::pipeline {
namespace {

namespace fs = std::filesystem;
using std::chrono::milliseconds;
using std::chrono::seconds;
using nd::testing::await_port_file;
using nd::testing::captured_stdout;
using nd::testing::CollectorThread;
using nd::testing::read_file;

/// A fresh directory named after the running test.
fs::path scratch_dir() {
  const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("nd_pipeline_" + std::string(test->name()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// The capture `ndtm synthesize --preset cos --scale 0.2 --intervals 2`
/// writes: about ten one-second intervals of IPv4 traffic. One file per
/// process, since ctest runs the tests as concurrent processes; removed
/// when the process exits.
const std::string& smoke_pcap() {
  struct RemovedAtExit {
    std::string path;
    ~RemovedAtExit() {
      std::error_code discard;
      fs::remove(path, discard);
    }
  };
  static const RemovedAtExit capture{[] {
    const fs::path file =
        fs::path(::testing::TempDir()) /
        ("nd_pipeline_smoke_" + std::to_string(::getpid()) + ".pcap");
    trace::TraceConfig config = trace::Presets::cos(42);
    config.num_intervals = 2;
    config = trace::scaled(config, 0.2);
    std::ofstream stream(file, std::ios::binary | std::ios::trunc);
    pcap::PcapWriter writer(stream, 96);
    trace::TraceSynthesizer synth(config);
    for (auto packets = synth.next_interval(); !packets.empty();
         packets = synth.next_interval()) {
      for (const auto& packet : packets) writer.write(packet);
    }
    return file.string();
  }()};
  return capture.path;
}

std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t count = 0;
  for (auto at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

/// `measure --in smoke.pcap --algorithm multistage --flow-def dstip
/// --threshold 100000`, the device every networked scenario runs.
MeasureConfig smoke_measure() {
  MeasureConfig config;
  config.input = smoke_pcap();
  config.algorithm = "multistage";
  config.flow_def = "dstip";
  config.threshold = 100'000;
  return config;
}

CollectConfig collect_config(std::uint32_t devices,
                             const fs::path& export_path) {
  CollectConfig config;
  config.collector.expected_devices = devices;
  config.collector.timeout = milliseconds(30'000);
  config.export_path = export_path.string();
  return config;
}

Exit run_measure(const MeasureConfig& config) { return Measure(config).run(); }

/// A merged export split into (interval, record bytes). The records are
/// concatenated v3 reports without a metrics trailer: a 24-byte header
/// carrying the shard count at byte 7, the interval at 8 and the flow
/// count at 12 (big-endian), then 24-byte flow and 56-byte shard records.
std::vector<std::pair<std::uint32_t, std::string>> export_records(
    const std::string& bytes) {
  const auto u32_at = [&](std::size_t at) {
    std::uint32_t value = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      value = (value << 8) | static_cast<std::uint8_t>(bytes[at + i]);
    }
    return value;
  };
  std::vector<std::pair<std::uint32_t, std::string>> records;
  std::size_t offset = 0;
  while (offset + 24 <= bytes.size()) {
    const std::size_t shards = static_cast<std::uint8_t>(bytes[offset + 7]);
    const std::size_t flows = u32_at(offset + 12);
    const std::size_t length = 24 + 24 * flows + 56 * shards;
    records.emplace_back(u32_at(offset + 8), bytes.substr(offset, length));
    offset += length;
  }
  EXPECT_EQ(offset, bytes.size()) << "export is not a sequence of reports";
  return records;
}

std::vector<std::uint32_t> exported_intervals(const std::string& bytes) {
  std::vector<std::uint32_t> intervals;
  for (const auto& record : export_records(bytes)) {
    intervals.push_back(record.first);
  }
  return intervals;
}

/// The intervals below `end` in a device export: the ones a collector
/// export of that device's reports holds, flowless ones included.
std::vector<std::uint32_t> intervals_below(const std::string& device_export,
                                           std::uint32_t end) {
  std::vector<std::uint32_t> intervals;
  for (const auto& record : export_records(device_export)) {
    if (record.first < end) intervals.push_back(record.first);
  }
  return intervals;
}

/// Every snapshot of a metrics file without the series that differ
/// between two identical runs in one process: the timing histograms
/// (*_ns), the process-wide CRC byte counters (nd_crc_bytes_total, which
/// keep counting across every pipeline the process ran) and the bytes
/// sent, which include those counters' digits in each report's metrics
/// trailer. The ndtm_pipeline test compares two device processes with
/// only the *_ns series stripped, so those two series are checked there.
std::string deterministic_metrics(const fs::path& path) {
  std::istringstream lines(read_file(path));
  std::string out;
  for (std::string line; std::getline(lines, line);) {
    telemetry::Snapshot snapshot = telemetry::from_json_line(line);
    std::erase_if(snapshot.samples, [](const telemetry::Snapshot::Sample& s) {
      return s.name.ends_with("_ns") || s.name == "nd_crc_bytes_total" ||
             s.name == "nd_net_bytes_sent_total";
    });
    out += telemetry::to_json_line(snapshot) + "\n";
  }
  return out;
}

/// Minimal scrape client: one request, read to EOF (the server closes).
std::string http_get(std::uint16_t port, const std::string& path) {
  net::Socket socket = net::tcp_connect("127.0.0.1", port);
  EXPECT_TRUE(socket.valid());
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(request.data());
  EXPECT_TRUE(net::write_all(socket.fd(), {bytes, request.size()}));
  std::string response;
  std::uint8_t buffer[4096];
  for (;;) {
    const ssize_t n = net::read_some(socket.fd(), buffer, sizeof(buffer));
    if (n <= 0) break;
    response.append(reinterpret_cast<const char*>(buffer),
                    static_cast<std::size_t>(n));
  }
  return response;
}

std::string captured_stderr() {
  std::fflush(stderr);
  return ::testing::internal::GetCapturedStderr();
}

// The report thread overlaps the packet thread, yet two identical
// connected runs must merge to the same export and write the same
// metrics once the run-dependent series are stripped, and a checkpoint
// run must save a checkpoint after every closed interval (one
// checkpoint.save span per interval.close) and merge alike as well.
TEST(Pipeline, ConnectedRunsMergeAndSnapshotDeterministically) {
  const fs::path dir = scratch_dir();
  for (const std::string run : {"a", "b", "c"}) {
    CollectorThread collector(collect_config(1, dir / (run + "_merged.bin")),
                              dir);
    MeasureConfig config = smoke_measure();
    config.interval = seconds(1);
    config.observability.metrics_path =
        (dir / (run + "_metrics.jsonl")).string();
    config.transport.port = collector.port();
    if (run == "c") {
      config.checkpoint_path = (dir / "c.ndck").string();
      config.observability.trace_path = (dir / "c_trace.json").string();
    }
    EXPECT_EQ(run_measure(config), Exit::kOk) << "run " << run;
    EXPECT_EQ(collector.join(), Exit::kOk) << "run " << run;
  }
  const std::string merged = read_file(dir / "a_merged.bin");
  EXPECT_FALSE(merged.empty());
  EXPECT_EQ(read_file(dir / "b_merged.bin"), merged);
  EXPECT_EQ(read_file(dir / "c_merged.bin"), merged);

  const std::string metrics = deterministic_metrics(dir / "a_metrics.jsonl");
  EXPECT_NE(metrics.find("nd_session_intervals_total"), std::string::npos);
  EXPECT_EQ(deterministic_metrics(dir / "b_metrics.jsonl"), metrics);

  EXPECT_TRUE(fs::exists(dir / "c.ndck"));
  const std::string trace = read_file(dir / "c_trace.json");
  const std::size_t closes = count_of(trace, "\"interval.close\"");
  EXPECT_GE(closes, 2U);
  EXPECT_EQ(count_of(trace, "\"checkpoint.save\""), closes);
  EXPECT_EQ(count_of(trace, "\"report.sort\""), closes);
  EXPECT_EQ(count_of(trace, "\"report.render\""), closes);
}

// A lost report is a loss at the collector too. The channel drops
// interval 1's only attempt, so the device exits 5 and its bye still
// counts every interval; the collector must exit 5, name the device and
// the interval, and export every other interval exactly as a clean run.
TEST(Pipeline, LostReportIsALossAtTheCollector) {
  const fs::path dir = scratch_dir();
  MeasureConfig config = smoke_measure();
  config.interval = seconds(1);
  {
    CollectorThread collector(collect_config(1, dir / "clean.bin"), dir);
    config.transport.port = collector.port();
    EXPECT_EQ(run_measure(config), Exit::kOk);
    EXPECT_EQ(collector.join(), Exit::kOk);
  }
  CollectorThread collector(collect_config(1, dir / "lossy.bin"), dir);
  config.transport.port = collector.port();
  config.observability.fault_plan = "channel.drop:drop:at=1";
  config.channel.max_attempts = 1;
  ::testing::internal::CaptureStderr();
  const Exit device = run_measure(config);
  const Exit daemon = collector.join();
  const std::string err = captured_stderr();
  EXPECT_EQ(device, Exit::kTransport);
  EXPECT_EQ(daemon, Exit::kTransport);
  EXPECT_NE(err.find("collect: device 0 missing interval 1\n"),
            std::string::npos)
      << err;

  auto clean = export_records(read_file(dir / "clean.bin"));
  const auto lost =
      std::find_if(clean.begin(), clean.end(),
                   [](const auto& record) { return record.first == 1; });
  ASSERT_NE(lost, clean.end()) << "the clean export has no interval 1 to lose";
  clean.erase(lost);
  EXPECT_EQ(export_records(read_file(dir / "lossy.bin")), clean);
}

// The distributed system collapses: two concurrent fleet members (one
// paced, so intervals wait for the slower member) merge to the very
// bytes one two-shard device exports.
/// `config` run as a two-member --fleet-size chain into one collector;
/// returns the collector's merged export.
std::string fleet_of_two_export(MeasureConfig config, const fs::path& dir) {
  CollectorThread collector(collect_config(2, dir / "fleet2.bin"), dir);
  config.fleet_size = 2;
  config.transport.port = collector.port();
  MeasureConfig first = config;
  first.transport.device_id = 0;
  MeasureConfig second = config;
  second.transport.device_id = 1;
  second.pace = milliseconds(20);
  Exit first_exit = Exit::kFault;
  std::thread member([&] { first_exit = run_measure(first); });
  EXPECT_EQ(run_measure(second), Exit::kOk);
  member.join();
  EXPECT_EQ(first_exit, Exit::kOk);
  EXPECT_EQ(collector.join(), Exit::kOk);
  EXPECT_FALSE(fs::exists(dir / "fleet2.bin.partial"))
      << "collector left its .partial export behind";
  return read_file(dir / "fleet2.bin");
}

TEST(Pipeline, FleetOfTwoMergesToTheTwoShardExport) {
  const fs::path dir = scratch_dir();
  MeasureConfig config = smoke_measure();
  config.interval = seconds(1);
  config.threshold = 20'000;
  MeasureConfig reference = config;
  reference.shards = 2;
  reference.export_path = (dir / "shards2.bin").string();
  ASSERT_EQ(run_measure(reference), Exit::kOk);
  EXPECT_EQ(fleet_of_two_export(config, dir), read_file(dir / "shards2.bin"));
}

// An interval with no flows is merged and exported like any other: the
// collector takes the flow-key kind from the members' report headers.
TEST(Pipeline, FleetMergesIntervalsWithNoFlows) {
  const fs::path dir = scratch_dir();
  MeasureConfig config = smoke_measure();
  config.algorithm = "sample-and-hold";
  config.threshold = 2'000'000'000;
  MeasureConfig reference = config;
  reference.shards = 2;
  reference.export_path = (dir / "shards2.bin").string();
  ASSERT_EQ(run_measure(reference), Exit::kOk);
  const std::string shards2 = read_file(dir / "shards2.bin");
  const auto records = export_records(shards2);
  ASSERT_FALSE(records.empty());
  for (const auto& [interval, record] : records) {
    EXPECT_EQ(record.size(), 24U + 2 * 56U)
        << "interval " << interval << " has flows";
  }
  EXPECT_EQ(fleet_of_two_export(config, dir), shards2);
}

// 5 = transport failure: a device pointed at a dead port abandons every
// report after its retry budget, and a collector whose devices never
// finish times out with the same code.
TEST(Pipeline, UnreachableAndTimedOutCollectorsAreTransportFailures) {
  MeasureConfig config = smoke_measure();
  config.transport.port = 1;
  config.channel.max_attempts = 2;
  config.channel.backoff_base = std::chrono::microseconds(100);
  EXPECT_EQ(run_measure(config), Exit::kTransport);

  CollectConfig collect;
  collect.collector.expected_devices = 1;
  collect.collector.timeout = milliseconds(200);
  EXPECT_EQ(Collect(collect).run(), Exit::kTransport);
}

// Durable store-and-forward: the dead port with a spool exits 0 with a
// pending backlog on disk; a journaled collector then receives the
// drained backlog (re-measured duplicates are absorbed by dedup) and the
// device ends with nothing pending; and a restarted collector replays
// that journal, without a single connection, to the same export.
TEST(Pipeline, SpoolDrainsIntoAJournalThatReplaysIdentically) {
  const fs::path dir = scratch_dir();
  MeasureConfig config = smoke_measure();
  config.transport.port = 1;
  config.channel.max_attempts = 2;
  config.channel.backoff_base = std::chrono::microseconds(100);
  config.spool.directory = (dir / "spool").string();
  ::testing::internal::CaptureStdout();
  const Exit spooled = run_measure(config);
  const std::string spooled_out = captured_stdout();
  EXPECT_EQ(spooled, Exit::kOk);
  EXPECT_NE(spooled_out.find("pending"), std::string::npos) << spooled_out;
  std::size_t segments = 0;
  for (const auto& entry : fs::directory_iterator(dir / "spool")) {
    if (entry.path().filename().string().starts_with("wal-")) ++segments;
  }
  EXPECT_GT(segments, 0U) << "the spool left no WAL segment behind";

  const fs::path journal = dir / "drain.journal";
  CollectConfig live = collect_config(1, dir / "drained.bin");
  live.collector.journal_path = journal.string();
  {
    CollectorThread collector(live, dir);
    config.transport.port = collector.port();
    ::testing::internal::CaptureStdout();
    const Exit drained = run_measure(config);
    const std::string drained_out = captured_stdout();
    EXPECT_EQ(drained, Exit::kOk);
    EXPECT_NE(drained_out.find("spool: recovered"), std::string::npos)
        << drained_out;
    EXPECT_NE(drained_out.find("0 pending"), std::string::npos) << drained_out;
    EXPECT_EQ(collector.join(), Exit::kOk);
  }
  ASSERT_TRUE(fs::exists(dir / "drained.bin"));
  EXPECT_GT(fs::file_size(journal), 0U);

  CollectConfig replay = collect_config(1, dir / "replayed.bin");
  replay.collector.timeout = milliseconds(5000);
  replay.collector.journal_path = journal.string();
  ::testing::internal::CaptureStdout();
  const Exit replayed = Collect(replay).run();
  const std::string replay_out = captured_stdout();
  EXPECT_EQ(replayed, Exit::kOk);
  EXPECT_NE(replay_out.find("replayed"), std::string::npos) << replay_out;
  EXPECT_EQ(read_file(dir / "replayed.bin"), read_file(dir / "drained.bin"));
}

// The observability plane: after the first device finishes, the
// collector's /metrics already carries that device's series plus the
// fleet rollup, and both ends write chrome-trace files whose spans name
// the two halves of the pipeline.
TEST(Pipeline, FleetScrapeAndTraceFilesNameBothHalves) {
  const fs::path dir = scratch_dir();
  CollectConfig collect = collect_config(2, dir / "merged.bin");
  collect.observability.http_port = 0;
  collect.observability.http_port_file = (dir / "collect.http").string();
  collect.observability.trace_path = (dir / "collect_trace.json").string();
  CollectorThread collector(collect, dir);
  const std::uint16_t http_port = await_port_file(dir / "collect.http");
  ASSERT_NE(http_port, 0);

  MeasureConfig config = smoke_measure();
  config.transport.port = collector.port();
  MeasureConfig first = config;
  first.observability.metrics_path = (dir / "device_metrics.jsonl").string();
  first.observability.trace_path = (dir / "device_trace.json").string();
  EXPECT_EQ(run_measure(first), Exit::kOk);
  const std::string scrape = http_get(http_port, "/metrics");
  config.transport.device_id = 1;
  EXPECT_EQ(run_measure(config), Exit::kOk);
  EXPECT_EQ(collector.join(), Exit::kOk);

  EXPECT_NE(scrape.find("HTTP/1.0 200 OK"), std::string::npos) << scrape;
  EXPECT_NE(scrape.find("nd_session_packets_total{device=\"0\"}"),
            std::string::npos);
  EXPECT_NE(scrape.find("device=\"fleet\""), std::string::npos);
  const std::string device_trace = read_file(dir / "device_trace.json");
  EXPECT_TRUE(device_trace.starts_with("["))
      << "device trace is not a JSON array";
  EXPECT_NE(device_trace.find("interval.close"), std::string::npos);
  EXPECT_NE(device_trace.find("channel.send"), std::string::npos);
  const std::string collect_trace = read_file(dir / "collect_trace.json");
  EXPECT_NE(collect_trace.find("frame.decode"), std::string::npos);
  EXPECT_NE(collect_trace.find("fleet.merge"), std::string::npos);
}

// Graceful stop end to end. Measure::stop() mid-run returns 0, prints
// the stop line, checkpoints the exact packet position and sends no bye:
// the journaled collector, stopped in turn, returns 5 with 0/1 devices
// done and still renames its export, which holds the intervals merged so
// far. A resumed device against the restarted collector then completes
// the run: the first export followed by the resumed one is the export of
// an uninterrupted run, byte for byte.
TEST(Pipeline, StopCheckpointsThePositionAndResumeCompletesTheRun) {
  const fs::path dir = scratch_dir();
  MeasureConfig config = smoke_measure();
  config.interval = seconds(1);
  MeasureConfig uninterrupted = config;
  uninterrupted.export_path = (dir / "whole.bin").string();
  ASSERT_EQ(run_measure(uninterrupted), Exit::kOk);
  const std::string whole = read_file(dir / "whole.bin");
  const auto intervals =
      static_cast<std::uint32_t>(export_records(whole).size());

  const fs::path checkpoint = dir / "device.ndck";
  const fs::path journal = dir / "collect.journal";
  CollectConfig collect = collect_config(1, dir / "stopped_merged.bin");
  collect.collector.journal_path = journal.string();
  auto collector = std::make_unique<CollectorThread>(collect, dir);
  config.transport.port = collector->port();
  config.checkpoint_path = checkpoint.string();
  MeasureConfig first = config;
  first.export_path = (dir / "first.bin").string();
  first.pace = milliseconds(200);
  Measure measure(first);
  // Stop once the first interval is checkpointed, during its pacing.
  std::thread stopper([&] {
    for (int i = 0; i < 2000 && !fs::exists(checkpoint); ++i) {
      std::this_thread::sleep_for(milliseconds(5));
    }
    measure.stop();
  });
  ::testing::internal::CaptureStdout();
  const Exit stopped = measure.run();
  stopper.join();
  collector->stop();
  const Exit stopped_collector = collector->join();
  const std::string out = captured_stdout();
  collector.reset();
  EXPECT_EQ(stopped, Exit::kOk);
  std::smatch stop_line;
  ASSERT_TRUE(std::regex_search(
      out, stop_line,
      std::regex("measure: stop signal at ([0-9]+) packets, ([0-9]+) "
                 "intervals closed \\(checkpointed\\)\n")))
      << out;
  const std::uint64_t packets = std::stoull(stop_line[1]);
  const auto closed = static_cast<std::uint32_t>(std::stoul(stop_line[2]));
  EXPECT_GE(closed, 1U);
  EXPECT_LT(closed, intervals) << "the stop landed after the capture ended";
  const core::SessionCheckpoint saved =
      core::load_checkpoint_file(checkpoint.string());
  EXPECT_EQ(saved.packets, packets);
  EXPECT_EQ(saved.intervals_closed, closed);

  // No bye reached the collector, so stop() ends it as a transport
  // failure — with the export renamed into place all the same.
  EXPECT_EQ(stopped_collector, Exit::kTransport);
  EXPECT_NE(out.find("0/1 devices done"), std::string::npos) << out;
  EXPECT_FALSE(fs::exists(dir / "stopped_merged.bin.partial"));
  const std::string stopped_merged = read_file(dir / "stopped_merged.bin");
  EXPECT_EQ(exported_intervals(stopped_merged),
            intervals_below(whole, closed));

  CollectConfig restart = collect_config(1, dir / "resumed_merged.bin");
  restart.collector.journal_path = journal.string();
  CollectorThread restarted(restart, dir);
  MeasureConfig second = config;
  second.transport.port = restarted.port();
  second.resume = true;
  second.export_path = (dir / "second.bin").string();
  ::testing::internal::CaptureStdout();
  const Exit resumed = run_measure(second);
  const Exit resumed_collector = restarted.join();
  const std::string resumed_out = captured_stdout();
  EXPECT_EQ(resumed, Exit::kOk);
  EXPECT_EQ(resumed_collector, Exit::kOk);
  EXPECT_NE(resumed_out.find("resume: " + checkpoint.string() + " at " +
                             std::to_string(packets) + " packets"),
            std::string::npos)
      << resumed_out;
  EXPECT_EQ(read_file(dir / "first.bin") + read_file(dir / "second.bin"),
            whole);
  const std::string resumed_merged = read_file(dir / "resumed_merged.bin");
  EXPECT_EQ(resumed_merged.substr(0, stopped_merged.size()), stopped_merged);
  EXPECT_EQ(exported_intervals(resumed_merged),
            intervals_below(whole, intervals));
}

// --resume continues the interrupted run's --export: cut back to the
// whole reports below the checkpoint's interval count (a kill can leave
// a report, or part of one, past it), then appended to, it equals the
// export of a run that was never stopped.
TEST(Pipeline, ResumedExportMatchesAnUninterruptedRun) {
  const fs::path dir = scratch_dir();
  MeasureConfig config = smoke_measure();
  config.interval = seconds(1);
  MeasureConfig uninterrupted = config;
  uninterrupted.export_path = (dir / "whole.bin").string();
  ASSERT_EQ(run_measure(uninterrupted), Exit::kOk);
  const std::string whole = read_file(dir / "whole.bin");

  const fs::path checkpoint = dir / "device.ndck";
  const fs::path part = dir / "part.bin";
  config.export_path = part.string();
  config.checkpoint_path = checkpoint.string();
  MeasureConfig first = config;
  first.pace = milliseconds(200);
  Measure measure(first);
  std::thread stopper([&] {
    for (int i = 0; i < 2000 && !fs::exists(checkpoint); ++i) {
      std::this_thread::sleep_for(milliseconds(5));
    }
    measure.stop();
  });
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(measure.run(), Exit::kOk);
  stopper.join();
  const std::string stopped_out = captured_stdout();
  ASSERT_NE(stopped_out.find("intervals closed (checkpointed)"),
            std::string::npos)
      << stopped_out;
  const std::uint32_t closed =
      core::load_checkpoint_file(checkpoint.string()).intervals_closed;
  const auto records = export_records(whole);
  ASSERT_LT(closed, records.size()) << "the stop landed after the capture";
  ASSERT_EQ(export_records(read_file(part)).size(), closed);
  {
    // What a kill after the next report's write leaves past the
    // checkpoint: that whole report and a torn one.
    std::ofstream tail(part, std::ios::binary | std::ios::app);
    tail << records[closed].second << records[closed].second.substr(0, 30);
  }

  MeasureConfig second = config;
  second.resume = true;
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(run_measure(second), Exit::kOk);
  (void)captured_stdout();
  EXPECT_EQ(read_file(part), whole);
}

// 1 = IO: an input that cannot be read, an output that cannot be
// written, a listen port that is already bound.
TEST(Pipeline, IoFailuresExitOne) {
  const fs::path dir = scratch_dir();
  MeasureConfig missing = smoke_measure();
  missing.input = (dir / "no_such.pcap").string();
  EXPECT_EQ(run_measure(missing), Exit::kIo);

  MeasureConfig bad_export = smoke_measure();
  bad_export.export_path = (dir / "no_such_dir" / "reports.bin").string();
  EXPECT_EQ(run_measure(bad_export), Exit::kIo);

  MeasureConfig bad_metrics = smoke_measure();
  bad_metrics.observability.metrics_path =
      (dir / "no_such_dir" / "metrics.jsonl").string();
  EXPECT_EQ(run_measure(bad_metrics), Exit::kIo);

  std::uint16_t taken = 0;
  const net::Socket holder = net::tcp_listen(0, &taken);
  CollectConfig collect = collect_config(1, dir / "merged.bin");
  collect.collector.port = taken;
  EXPECT_EQ(Collect(collect).run(), Exit::kIo);
  EXPECT_FALSE(fs::exists(dir / "merged.bin.partial"));
}

// A stop() that arrives before the collector is even listening still
// ends its run.
TEST(Pipeline, CollectStopBeforeRunEndsIt) {
  Collect collect(collect_config(1, {}));
  collect.stop();
  EXPECT_EQ(collect.run(), Exit::kTransport);
}

}  // namespace
}  // namespace nd::pipeline
