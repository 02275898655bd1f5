// Checkpoint/resume suite: the crash-safety half of the chaos story.
//
// The load-bearing property is kill-and-resume bit-identity: checkpoint
// a session at an arbitrary mid-stream packet, destroy it, rebuild from
// the serialized bytes with a freshly constructed device, replay the
// remaining packets — every subsequent per-interval report must be
// bit-identical to an uninterrupted run. That requires the checkpoint
// to capture flow-memory slot placement, RNG stream position, per-shard
// thresholds and adaptor history exactly, which is what these tests
// pin down for each device family.
#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "../support/report_testing.hpp"
#include "baseline/sampled_netflow.hpp"
#include "common/state_buffer.hpp"
#include "common/thread_pool.hpp"
#include "core/adaptive_device.hpp"
#include "core/measurement_session.hpp"
#include "core/multistage_filter.hpp"
#include "core/sample_and_hold.hpp"
#include "core/sharded_device.hpp"
#include "core/threshold_adaptor.hpp"
#include "trace/presets.hpp"
#include "trace/synthesizer.hpp"

namespace nd::core {
namespace {

using DeviceFactory = std::function<std::unique_ptr<MeasurementDevice>()>;

std::vector<packet::PacketRecord> test_trace() {
  auto config = trace::scaled(trace::Presets::cos(23), 0.02);
  config.num_intervals = 5;
  trace::TraceSynthesizer synthesizer(config);
  std::vector<packet::PacketRecord> packets;
  for (;;) {
    const auto interval = synthesizer.next_interval();
    if (interval.empty()) break;
    packets.insert(packets.end(), interval.begin(), interval.end());
  }
  return packets;
}

DeviceFactory sample_and_hold_factory() {
  return [] {
    SampleAndHoldConfig config;
    config.flow_memory_entries = 512;
    config.threshold = 40'000;
    config.oversampling = 4.0;
    config.preserve = flowmem::PreservePolicy::kEarlyRemoval;
    config.seed = 5;
    return std::make_unique<SampleAndHold>(config);
  };
}

DeviceFactory multistage_factory() {
  return [] {
    MultistageFilterConfig config;
    config.flow_memory_entries = 512;
    config.depth = 3;
    config.buckets_per_stage = 256;
    config.threshold = 40'000;
    config.preserve = flowmem::PreservePolicy::kPreserve;
    config.seed = 5;
    return std::make_unique<MultistageFilter>(config);
  };
}

DeviceFactory sharded_adaptive_factory(common::ThreadPool* pool) {
  return [pool] {
    ShardedDeviceConfig config;
    config.shards = 4;
    config.seed = 9;
    config.pool = pool;
    config.adaptor = multistage_adaptor();
    return std::make_unique<ShardedDevice>(
        config, [](std::uint32_t, std::uint64_t shard_seed) {
          MultistageFilterConfig inner;
          inner.flow_memory_entries = 128;
          inner.depth = 2;
          inner.buckets_per_stage = 128;
          inner.threshold = 40'000;
          inner.preserve = flowmem::PreservePolicy::kPreserve;
          inner.seed = shard_seed;
          return std::make_unique<MultistageFilter>(inner);
        });
  };
}

/// One global adaptor over an unsharded device: the checkpoint carries
/// the adaptor's steering state ahead of the device's own.
DeviceFactory adaptive_factory(const DeviceFactory& inner,
                               const ThresholdAdaptorConfig& adaptor) {
  return [inner, adaptor] {
    return std::make_unique<AdaptiveDevice>(inner(), adaptor);
  };
}

constexpr auto kInterval = std::chrono::seconds(5);

std::vector<Report> run_uninterrupted(
    const DeviceFactory& factory,
    const std::vector<packet::PacketRecord>& packets) {
  MeasurementSession session(factory(),
                             packet::FlowDefinition::five_tuple(),
                             kInterval);
  std::vector<Report> reports;
  for (const auto& packet : packets) {
    session.observe(packet);
    auto drained = session.drain_reports();
    reports.insert(reports.end(),
                   std::make_move_iterator(drained.begin()),
                   std::make_move_iterator(drained.end()));
  }
  auto rest = session.finish();
  reports.insert(reports.end(), std::make_move_iterator(rest.begin()),
                 std::make_move_iterator(rest.end()));
  return reports;
}

/// Run to `split`, checkpoint through an encode/decode round trip (the
/// "crash"), resume on a freshly built device, replay the rest.
std::vector<Report> run_killed_and_resumed(
    const DeviceFactory& factory,
    const std::vector<packet::PacketRecord>& packets, std::size_t split) {
  std::vector<Report> reports;
  std::vector<std::uint8_t> frozen;
  {
    MeasurementSession session(factory(),
                               packet::FlowDefinition::five_tuple(),
                               kInterval);
    for (std::size_t i = 0; i < split; ++i) {
      session.observe(packets[i]);
      auto drained = session.drain_reports();
      reports.insert(reports.end(),
                     std::make_move_iterator(drained.begin()),
                     std::make_move_iterator(drained.end()));
    }
    frozen = encode_checkpoint(session.checkpoint());
  }  // session destroyed: the process "died" here

  MeasurementSession resumed = MeasurementSession::resume(
      decode_checkpoint(frozen), factory(),
      packet::FlowDefinition::five_tuple());
  for (std::size_t i = split; i < packets.size(); ++i) {
    resumed.observe(packets[i]);
    auto drained = resumed.drain_reports();
    reports.insert(reports.end(),
                   std::make_move_iterator(drained.begin()),
                   std::make_move_iterator(drained.end()));
  }
  auto rest = resumed.finish();
  reports.insert(reports.end(), std::make_move_iterator(rest.begin()),
                 std::make_move_iterator(rest.end()));
  return reports;
}

void expect_kill_and_resume_identity(const DeviceFactory& factory) {
  const auto packets = test_trace();
  ASSERT_GT(packets.size(), 100u);
  const auto baseline = run_uninterrupted(factory, packets);
  // Mid-stream split, deliberately not on an interval boundary.
  const std::size_t split = packets.size() * 3 / 5 + 1;
  const auto resumed = run_killed_and_resumed(factory, packets, split);
  ASSERT_EQ(resumed.size(), baseline.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    Report a = baseline[i];
    Report b = resumed[i];
    sort_by_size(a);
    sort_by_size(b);
    testing::expect_reports_equal(a, b);
  }
}

TEST(Checkpoint, EncodeDecodeRoundTripsEveryField) {
  SessionCheckpoint checkpoint;
  checkpoint.interval_ns = 5'000'000'000ULL;
  checkpoint.current_end_ns = 15'000'000'000ULL;
  checkpoint.started = true;
  checkpoint.packets = 123'456;
  checkpoint.unclassified = 7;
  checkpoint.intervals_closed = 2;
  checkpoint.device_name = "multistage(d=3)";
  checkpoint.device_state = {1, 2, 3, 250, 0, 99};

  const auto decoded = decode_checkpoint(encode_checkpoint(checkpoint));
  EXPECT_EQ(decoded.interval_ns, checkpoint.interval_ns);
  EXPECT_EQ(decoded.current_end_ns, checkpoint.current_end_ns);
  EXPECT_EQ(decoded.started, checkpoint.started);
  EXPECT_EQ(decoded.packets, checkpoint.packets);
  EXPECT_EQ(decoded.unclassified, checkpoint.unclassified);
  EXPECT_EQ(decoded.intervals_closed, checkpoint.intervals_closed);
  EXPECT_EQ(decoded.device_name, checkpoint.device_name);
  EXPECT_EQ(decoded.device_state, checkpoint.device_state);
}

TEST(Checkpoint, EveryByteFlipIsDetected) {
  SessionCheckpoint checkpoint;
  checkpoint.interval_ns = 5'000'000'000ULL;
  checkpoint.device_name = "x";
  checkpoint.device_state = {9, 8, 7};
  const auto bytes = encode_checkpoint(checkpoint);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto corrupt = bytes;
    corrupt[i] ^= 0x40;
    EXPECT_THROW((void)decode_checkpoint(corrupt), common::StateError)
        << "flip at byte " << i << " not detected";
  }
}

TEST(Checkpoint, TruncationIsDetected) {
  SessionCheckpoint checkpoint;
  checkpoint.device_name = "x";
  checkpoint.device_state = {1, 2, 3, 4};
  const auto bytes = encode_checkpoint(checkpoint);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> cut(
        bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)decode_checkpoint(cut), common::StateError)
        << "prefix of " << len << " bytes accepted";
  }
}

TEST(Checkpoint, FileSaveLoadRoundTripsAtomically) {
  const std::string path =
      ::testing::TempDir() + "nd_checkpoint_test.ndck";
  SessionCheckpoint checkpoint;
  checkpoint.packets = 42;
  checkpoint.device_name = "device";
  checkpoint.device_state = {5, 4, 3};
  save_checkpoint_file(path, checkpoint);
  const auto loaded = load_checkpoint_file(path);
  EXPECT_EQ(loaded.packets, 42u);
  EXPECT_EQ(loaded.device_name, "device");
  EXPECT_EQ(loaded.device_state, checkpoint.device_state);
  // The temp file was renamed into place, not left behind.
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);
  std::remove(path.c_str());
}

TEST(Checkpoint, KillAndResumeIsBitIdenticalForSampleAndHold) {
  expect_kill_and_resume_identity(sample_and_hold_factory());
}

TEST(Checkpoint, KillAndResumeIsBitIdenticalForMultistage) {
  expect_kill_and_resume_identity(multistage_factory());
}

TEST(Checkpoint, KillAndResumeIsBitIdenticalForShardedAdaptive) {
  common::ThreadPool pool(3);
  expect_kill_and_resume_identity(sharded_adaptive_factory(&pool));
}

TEST(Checkpoint, KillAndResumeIsBitIdenticalForAdaptive) {
  const std::vector<std::pair<std::string, DeviceFactory>> devices = {
      {"sample and hold", adaptive_factory(sample_and_hold_factory(),
                                           sample_and_hold_adaptor())},
      {"multistage",
       adaptive_factory(multistage_factory(), multistage_adaptor())},
  };
  for (const auto& [name, factory] : devices) {
    SCOPED_TRACE(name);
    // The adaptor must actually steer on this trace, or its state would
    // not need to survive the resume.
    const auto reports = run_uninterrupted(factory, test_trace());
    ASSERT_FALSE(reports.empty());
    EXPECT_TRUE(std::any_of(reports.begin(), reports.end(),
                            [&](const Report& report) {
                              return report.threshold !=
                                     reports.front().threshold;
                            }));
    expect_kill_and_resume_identity(factory);
  }
  // The layout keeps the retired per-shard delegation flag (byte 1):
  // written 0, and a 1 is refused.
  const auto device =
      adaptive_factory(multistage_factory(), multistage_adaptor())();
  common::StateWriter out;
  device->save_state(out);
  std::vector<std::uint8_t> bytes = out.take();
  ASSERT_GT(bytes.size(), 2u);
  EXPECT_EQ(bytes[1], 0u);
  bytes[1] = 1;
  common::StateReader in(bytes);
  EXPECT_THROW(
      adaptive_factory(multistage_factory(), multistage_adaptor())()
          ->restore_state(in),
      common::StateError);
}

TEST(Checkpoint, PendingReportsBlockCheckpointUntilDrained) {
  const auto packets = test_trace();
  MeasurementSession session(multistage_factory()(),
                             packet::FlowDefinition::five_tuple(),
                             kInterval);
  for (const auto& packet : packets) {
    session.observe(packet);  // never drained: closed reports pile up
  }
  ASSERT_GT(session.intervals_closed(), 0u);
  EXPECT_THROW((void)session.checkpoint(), common::StateError);
  (void)session.drain_reports();
  EXPECT_NO_THROW((void)session.checkpoint());
}

TEST(Checkpoint, ResumeRejectsAMismatchedDevice) {
  const auto packets = test_trace();
  MeasurementSession session(sample_and_hold_factory()(),
                             packet::FlowDefinition::five_tuple(),
                             kInterval);
  for (std::size_t i = 0; i < 50; ++i) session.observe(packets[i]);
  (void)session.drain_reports();
  const SessionCheckpoint checkpoint = session.checkpoint();
  // Resuming a sample-and-hold checkpoint on a multistage device fails
  // on the device-name guard before any state is deserialized.
  EXPECT_THROW((void)MeasurementSession::resume(
                   checkpoint, multistage_factory()(),
                   packet::FlowDefinition::five_tuple()),
               common::StateError);
}

TEST(Checkpoint, ShardedRestoreRejectsWrongShardCount) {
  common::ThreadPool pool(2);
  const auto packets = test_trace();
  MeasurementSession session(sharded_adaptive_factory(&pool)(),
                             packet::FlowDefinition::five_tuple(),
                             kInterval);
  for (std::size_t i = 0; i < 50; ++i) session.observe(packets[i]);
  (void)session.drain_reports();
  const SessionCheckpoint checkpoint = session.checkpoint();

  auto two_shards = [&pool] {
    ShardedDeviceConfig config;
    config.shards = 2;
    config.seed = 9;
    config.pool = &pool;
    config.adaptor = multistage_adaptor();
    return std::make_unique<ShardedDevice>(
        config, [](std::uint32_t, std::uint64_t shard_seed) {
          MultistageFilterConfig inner;
          inner.flow_memory_entries = 128;
          inner.depth = 2;
          inner.buckets_per_stage = 128;
          inner.threshold = 40'000;
          inner.seed = shard_seed;
          return std::make_unique<MultistageFilter>(inner);
        });
  };
  EXPECT_THROW((void)MeasurementSession::resume(
                   checkpoint, two_shards(),
                   packet::FlowDefinition::five_tuple()),
               common::StateError);
}

TEST(Checkpoint, NetflowDeclinesCheckpointing) {
  baseline::SampledNetFlowConfig config;
  config.sampling_divisor = 16;
  config.seed = 3;
  MeasurementSession session(
      std::make_unique<baseline::SampledNetFlow>(config),
      packet::FlowDefinition::five_tuple(), kInterval);
  EXPECT_FALSE(session.device().can_checkpoint());
  EXPECT_THROW((void)session.checkpoint(), common::StateError);
}

}  // namespace
}  // namespace nd::core
