// Byte identity across versions. Small seeded MAG and COS traces run
// through pipeline::Measure and pipeline::Collect in process: `measure
// --export` files, final `--checkpoint` files, a `measure` stdout, the
// export of a `--resume` run, a --connect chain, 2- and 3-member fleets
// and a collector restarted from its journal. Each output's length and CRC-32
// must equal its row in tools/testdata/identity.txt, so a change that
// moves one byte of an export, a merged export or the collector's
// `interval N:` lines fails here instead of in a hand-run `cmp`.
//
// A change that means to change bytes regenerates the table by running
// the suite in one process with ND_IDENTITY_WRITE set to the table's
// path (`ND_IDENTITY_WRITE=$PWD/tools/testdata/identity.txt
// build/tests/identity_tests`), after emptying the file.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "../support/pipeline_testing.hpp"
#include "common/crc32.hpp"
#include "pcap/pcap.hpp"
#include "pipeline/collect.hpp"
#include "pipeline/measure.hpp"
#include "trace/presets.hpp"
#include "trace/synthesizer.hpp"

namespace nd::pipeline {
namespace {

namespace fs = std::filesystem;
using nd::testing::captured_stdout;
using nd::testing::CollectorThread;
using nd::testing::read_file;
using std::chrono::milliseconds;
using std::chrono::seconds;

/// A fresh directory named after the running test.
fs::path scratch_dir() {
  const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("nd_identity_" + std::to_string(::getpid()) + "_" +
                        test->name());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// `config`'s trace written as a pcap (snaplen 96, as `ndtm synthesize`).
void write_pcap(const trace::TraceConfig& config, const fs::path& path) {
  std::ofstream stream(path, std::ios::binary | std::ios::trunc);
  pcap::PcapWriter writer(stream, 96);
  trace::TraceSynthesizer synth(config);
  for (auto packets = synth.next_interval(); !packets.empty();
       packets = synth.next_interval()) {
    for (const auto& packet : packets) writer.write(packet);
  }
}

/// `ndtm synthesize --preset cos --scale 0.2 --intervals 2` (seed 42).
fs::path cos_pcap(const fs::path& dir) {
  trace::TraceConfig config = trace::Presets::cos(42);
  config.num_intervals = 2;
  const fs::path path = dir / "cos.pcap";
  write_pcap(trace::scaled(config, 0.2), path);
  return path;
}

/// `ndtm synthesize --preset mag --scale 0.01 --intervals 2 --seed 7`.
fs::path mag_pcap(const fs::path& dir) {
  trace::TraceConfig config = trace::Presets::mag(7);
  config.num_intervals = 2;
  const fs::path path = dir / "mag.pcap";
  write_pcap(trace::scaled(config, 0.01), path);
  return path;
}

MeasureConfig measure_config(const fs::path& pcap, const std::string& algorithm,
                             const std::string& flow_def,
                             common::ByteCount threshold) {
  MeasureConfig config;
  config.input = pcap.string();
  config.algorithm = algorithm;
  config.flow_def = flow_def;
  config.threshold = threshold;
  config.interval = seconds(1);
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

/// The collector's `interval N: ... members, ...` lines in captured
/// stdout; the devices that share the process print other lines.
std::string collector_lines(const std::string& out) {
  std::istringstream lines(out);
  std::string kept;
  for (std::string line; std::getline(lines, line);) {
    if (line.starts_with("interval ") &&
        line.find(" members, ") != std::string::npos) {
      kept += line + "\n";
    }
  }
  return kept;
}

/// "<bytes> <crc32 in hex>" of `bytes`.
std::string fingerprint(const std::string& bytes) {
  const std::uint32_t crc = common::crc32(
      {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()});
  char hex[16];
  std::snprintf(hex, sizeof hex, "%08x", crc);
  return std::to_string(bytes.size()) + " " + hex;
}

/// tools/testdata/identity.txt: "<name> <bytes> <crc32>" per line.
const std::map<std::string, std::string>& table() {
  static const std::map<std::string, std::string> rows = [] {
    std::map<std::string, std::string> parsed;
    std::ifstream in(ND_IDENTITY_TABLE);
    for (std::string line; std::getline(in, line);) {
      if (line.empty() || line.starts_with("#")) continue;
      const std::size_t space = line.find(' ');
      parsed[line.substr(0, space)] = line.substr(space + 1);
    }
    return parsed;
  }();
  return rows;
}

/// Checks `bytes` against the table row `name` — or, with
/// ND_IDENTITY_WRITE set, appends that row to the named file instead.
void expect_identity(const std::string& name, const std::string& bytes) {
  EXPECT_FALSE(bytes.empty()) << name << " is empty";
  const std::string actual = fingerprint(bytes);
  if (const char* out = std::getenv("ND_IDENTITY_WRITE")) {
    std::ofstream(out, std::ios::app) << name << ' ' << actual << '\n';
    return;
  }
  const auto row = table().find(name);
  ASSERT_NE(row, table().end()) << "no table row " << name << " " << actual;
  EXPECT_EQ(actual, row->second) << "row " << name << " changed bytes";
}

/// Runs `config` with --export and checks the file against row `name`.
void expect_export_identity(const std::string& name, MeasureConfig config,
                            const fs::path& dir) {
  config.export_path = (dir / (name + ".bin")).string();
  ASSERT_EQ(Measure(config).run(), Exit::kOk) << name;
  expect_identity(name, read_file(config.export_path));
}

TEST(Identity, MeasureExports) {
  const fs::path dir = scratch_dir();
  const fs::path cos = cos_pcap(dir);
  const fs::path mag = mag_pcap(dir);
  ::testing::internal::CaptureStdout();
  MeasureConfig config = measure_config(cos, "multistage", "dstip", 100'000);
  expect_export_identity("measure.cos.multistage.dstip", config, dir);
  config.adaptive = true;
  expect_export_identity("measure.cos.multistage.dstip.adaptive", config, dir);
  config = measure_config(cos, "sample-and-hold", "5tuple", 20'000);
  config.adaptive = true;
  expect_export_identity("measure.cos.sample-and-hold.5tuple.adaptive", config,
                         dir);
  config = measure_config(mag, "multistage", "5tuple", 100'000);
  config.shards = 3;
  config.adaptive = true;
  expect_export_identity("measure.mag.multistage.5tuple.shards3.adaptive",
                         config, dir);
  config = measure_config(mag, "sample-and-hold", "netpair:24", 100'000);
  expect_export_identity("measure.mag.sample-and-hold.netpair24", config, dir);
  (void)captured_stdout();
}

/// Runs `config` with --checkpoint and checks the checkpoint it leaves
/// at exit (the whole device state after the last close) against row
/// `name`.
void expect_checkpoint_identity(const std::string& name, MeasureConfig config,
                                const fs::path& dir) {
  config.checkpoint_path = (dir / (name + ".ndck")).string();
  ASSERT_EQ(Measure(config).run(), Exit::kOk) << name;
  expect_identity(name, read_file(config.checkpoint_path));
}

TEST(Identity, FinalCheckpoints) {
  const fs::path dir = scratch_dir();
  const fs::path cos = cos_pcap(dir);
  ::testing::internal::CaptureStdout();
  expect_checkpoint_identity(
      "checkpoint.cos.sample-and-hold.5tuple",
      measure_config(cos, "sample-and-hold", "5tuple", 20'000), dir);
  MeasureConfig config = measure_config(mag_pcap(dir), "multistage", "5tuple",
                                        100'000);
  config.shards = 3;
  config.adaptive = true;
  expect_checkpoint_identity(
      "checkpoint.mag.multistage.5tuple.shards3.adaptive", config, dir);
  // 64 entries in 128 slots, kept full: probe runs wrap past the last
  // slot into slot 0 at the closes.
  config = measure_config(cos, "sample-and-hold", "dstip", 20'000);
  config.entries = 64;
  expect_checkpoint_identity("checkpoint.cos.sample-and-hold.dstip.entries64",
                             config, dir);
  (void)captured_stdout();
}

// Every line `measure` prints. At this cutoff each 5 s interval lists
// ~1,000 flows, ~70 KB, so a listing spans several stdout writes.
TEST(Identity, MeasureStdout) {
  const fs::path dir = scratch_dir();
  MeasureConfig config =
      measure_config(cos_pcap(dir), "sample-and-hold", "5tuple", 200);
  config.interval = seconds(5);
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(Measure(config).run(), Exit::kOk);
  expect_identity("measure.cos.sample-and-hold.5tuple.stdout",
                  captured_stdout());
}

// A run stopped after its first checkpoint, then resumed from it: the
// restored flow memory closes the remaining intervals. Wherever the stop
// lands, the resumed export is the whole run's, so the row is stable.
TEST(Identity, ResumedExport) {
  const fs::path dir = scratch_dir();
  MeasureConfig config =
      measure_config(cos_pcap(dir), "sample-and-hold", "5tuple", 20'000);
  config.checkpoint_path = (dir / "device.ndck").string();
  config.export_path = (dir / "resumed.bin").string();
  MeasureConfig first = config;
  first.pace = milliseconds(200);
  Measure measure(first);
  std::thread stopper([&] {
    for (int i = 0; i < 2000 && !fs::exists(config.checkpoint_path); ++i) {
      std::this_thread::sleep_for(milliseconds(5));
    }
    measure.stop();
  });
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(measure.run(), Exit::kOk);
  stopper.join();
  MeasureConfig second = config;
  second.resume = true;
  EXPECT_EQ(Measure(second).run(), Exit::kOk);
  const std::string out = captured_stdout();
  EXPECT_NE(out.find("resume: "), std::string::npos) << out;
  expect_identity("resume.cos.sample-and-hold.5tuple.export",
                  read_file(config.export_path));
}

TEST(Identity, ConnectChain) {
  const fs::path dir = scratch_dir();
  const fs::path cos = cos_pcap(dir);
  ::testing::internal::CaptureStdout();
  {
    CollectorThread collector(collect_config(1, dir / "merged.bin"), dir);
    MeasureConfig config = measure_config(cos, "multistage", "5tuple", 2'000);
    config.transport.port = collector.port();
    EXPECT_EQ(Measure(config).run(), Exit::kOk);
    EXPECT_EQ(collector.join(), Exit::kOk);
  }
  const std::string lines = collector_lines(captured_stdout());
  expect_identity("connect.cos.export", read_file(dir / "merged.bin"));
  expect_identity("connect.cos.stdout", lines);
}

/// `members` devices of `config` as one --fleet-size fleet into one
/// collector (the last member paced, so intervals wait for it); returns
/// the collector's `interval N:` lines.
std::string run_fleet(MeasureConfig config, std::uint32_t members,
                      const fs::path& export_path, const fs::path& dir) {
  ::testing::internal::CaptureStdout();
  {
    CollectorThread collector(collect_config(members, export_path), dir);
    config.fleet_size = members;
    config.transport.port = collector.port();
    std::vector<Exit> exits(members, Exit::kFault);
    std::vector<std::thread> threads;
    for (std::uint32_t id = 0; id < members; ++id) {
      MeasureConfig member = config;
      member.transport.device_id = id;
      if (id + 1 == members) member.pace = milliseconds(10);
      threads.emplace_back([&exits, id, member] {
        exits[id] = Measure(member).run();
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (const Exit exit : exits) EXPECT_EQ(exit, Exit::kOk);
    EXPECT_EQ(collector.join(), Exit::kOk);
  }
  return collector_lines(captured_stdout());
}

TEST(Identity, FleetOfTwo) {
  const fs::path dir = scratch_dir();
  const std::string lines = run_fleet(
      measure_config(cos_pcap(dir), "multistage", "dstip", 2'000), 2,
      dir / "fleet2.bin", dir);
  expect_identity("fleet2.cos.export", read_file(dir / "fleet2.bin"));
  expect_identity("fleet2.cos.stdout", lines);
}

TEST(Identity, FleetOfThree) {
  const fs::path dir = scratch_dir();
  const std::string lines = run_fleet(
      measure_config(mag_pcap(dir), "sample-and-hold", "5tuple", 2'000), 3,
      dir / "fleet3.bin", dir);
  expect_identity("fleet3.mag.export", read_file(dir / "fleet3.bin"));
  expect_identity("fleet3.mag.stdout", lines);
}

TEST(Identity, JournalRestart) {
  const fs::path dir = scratch_dir();
  const fs::path journal = dir / "collect.journal";
  ::testing::internal::CaptureStdout();
  {
    CollectConfig live = collect_config(1, dir / "live.bin");
    live.collector.journal_path = journal.string();
    CollectorThread collector(live, dir);
    MeasureConfig config =
        measure_config(cos_pcap(dir), "multistage", "5tuple", 2'000);
    config.shards = 2;
    config.transport.port = collector.port();
    EXPECT_EQ(Measure(config).run(), Exit::kOk);
    EXPECT_EQ(collector.join(), Exit::kOk);
  }
  const std::string live_lines = collector_lines(captured_stdout());
  // A second collector rebuilds the export from the journal alone.
  CollectConfig restart = collect_config(1, dir / "replayed.bin");
  restart.collector.timeout = milliseconds(5000);
  restart.collector.journal_path = journal.string();
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(Collect(restart).run(), Exit::kOk);
  const std::string replay_lines = collector_lines(captured_stdout());
  const std::string live = read_file(dir / "live.bin");
  EXPECT_EQ(read_file(dir / "replayed.bin"), live);
  EXPECT_EQ(replay_lines, live_lines);
  expect_identity("journal.cos.live.export", live);
  expect_identity("journal.cos.replay.stdout", replay_lines);
}

}  // namespace
}  // namespace nd::pipeline
