// Cross-component consistency properties that only hold if the pieces
// compose correctly end to end.
#include <gtest/gtest.h>

#include <memory>
#include <unordered_map>

#include "baseline/exact_oracle.hpp"
#include "core/measurement_session.hpp"
#include "core/multistage_filter.hpp"
#include "eval/driver.hpp"
#include "pcap/pcap.hpp"
#include "reporting/record_codec.hpp"
#include "trace/presets.hpp"
#include "trace/stats.hpp"

namespace nd {
namespace {

trace::TraceConfig tiny_trace(std::uint64_t seed = 77) {
  auto config = trace::scaled(trace::Presets::cos(), 0.2);
  config.num_intervals = 3;
  config.seed = seed;
  return config;
}

TEST(CrossComponent, SerialEqualsParallelAtDepthOne) {
  // With one stage there is nothing to chain: the serial and parallel
  // filters must produce identical reports given identical seeds.
  core::MultistageFilterConfig base;
  base.flow_memory_entries = 1u << 16;
  base.depth = 1;
  base.buckets_per_stage = 256;
  base.threshold = 20'000;
  base.conservative_update = false;
  base.shielding = false;
  base.seed = 5;

  core::MultistageFilter parallel(base);
  base.serial = true;
  core::MultistageFilter serial(base);

  trace::TraceSynthesizer synth(tiny_trace());
  const auto packets = synth.next_interval();
  const auto definition = packet::FlowDefinition::five_tuple();
  for (const auto& packet : packets) {
    const auto key = *definition.classify(packet);
    parallel.observe(key, packet.size_bytes);
    serial.observe(key, packet.size_bytes);
  }
  auto pr = parallel.end_interval();
  auto sr = serial.end_interval();
  core::sort_by_size(pr);
  core::sort_by_size(sr);
  ASSERT_EQ(pr.flows.size(), sr.flows.size());
  for (std::size_t i = 0; i < pr.flows.size(); ++i) {
    EXPECT_EQ(pr.flows[i].key, sr.flows[i].key);
    EXPECT_EQ(pr.flows[i].estimated_bytes, sr.flows[i].estimated_bytes);
  }
}

TEST(CrossComponent, AggregatedOracleMatchesNativeDefinition) {
  // Summing an exact 5-tuple report by destination IP must equal an
  // oracle run natively at destination-IP granularity.
  trace::TraceSynthesizer synth(tiny_trace());
  const auto packets = synth.next_interval();

  baseline::ExactOracle five_tuple_oracle;
  baseline::ExactOracle dst_oracle;
  const auto def5 = packet::FlowDefinition::five_tuple();
  const auto defd = packet::FlowDefinition::destination_ip();
  for (const auto& packet : packets) {
    five_tuple_oracle.observe(*def5.classify(packet), packet.size_bytes);
    dst_oracle.observe(*defd.classify(packet), packet.size_bytes);
  }
  std::unordered_map<packet::FlowKey, common::ByteCount,
                     packet::FlowKeyHasher>
      aggregated;
  for (const auto& flow : five_tuple_oracle.end_interval().flows) {
    aggregated[packet::FlowKey::destination_ip(flow.key.dst_ip())] +=
        flow.estimated_bytes;
  }
  const auto native = dst_oracle.end_interval();

  ASSERT_EQ(aggregated.size(), native.flows.size());
  for (const auto& [key, bytes] : aggregated) {
    const auto* match = core::find_flow(native, key);
    ASSERT_NE(match, nullptr) << key.to_string();
    EXPECT_EQ(bytes, match->estimated_bytes);
  }
}

TEST(CrossComponent, SessionOverPcapMatchesDirectDrive) {
  // pcap round trip + MeasurementSession must reproduce exactly the
  // reports of driving the device directly on the in-memory packets.
  const auto config = tiny_trace(91);
  const auto intervals = trace::synthesize_all(config);

  // Path A: direct drive.
  core::MultistageFilterConfig filter_config;
  filter_config.flow_memory_entries = 1u << 14;
  filter_config.depth = 3;
  filter_config.buckets_per_stage = 512;
  filter_config.threshold = 50'000;
  filter_config.seed = 9;
  core::MultistageFilter direct(filter_config);
  const auto definition = packet::FlowDefinition::five_tuple();
  std::vector<core::Report> direct_reports;
  for (const auto& interval : intervals) {
    for (const auto& packet : interval) {
      direct.observe(*definition.classify(packet), packet.size_bytes);
    }
    direct_reports.push_back(direct.end_interval());
  }

  // Path B: pcap bytes -> reader -> session.
  std::stringstream pcap_stream;
  {
    pcap::PcapWriter writer(pcap_stream, 128);
    for (const auto& interval : intervals) {
      for (const auto& packet : interval) {
        writer.write(packet);
      }
    }
  }
  core::MeasurementSession session(
      std::make_unique<core::MultistageFilter>(filter_config), definition,
      config.interval_duration);
  pcap::PcapReader reader(pcap_stream);
  std::vector<core::Report> session_reports;
  while (const auto record = reader.next_record()) {
    session.observe(*record);
    for (auto& report : session.drain_reports()) {
      session_reports.push_back(std::move(report));
    }
  }
  for (auto& report : session.finish()) {
    session_reports.push_back(std::move(report));
  }

  ASSERT_EQ(session_reports.size(), direct_reports.size());
  for (std::size_t i = 0; i < direct_reports.size(); ++i) {
    auto a = direct_reports[i];
    auto b = session_reports[i];
    core::sort_by_size(a);
    core::sort_by_size(b);
    ASSERT_EQ(a.flows.size(), b.flows.size()) << "interval " << i;
    for (std::size_t f = 0; f < a.flows.size(); ++f) {
      EXPECT_EQ(a.flows[f].key, b.flows[f].key);
      EXPECT_EQ(a.flows[f].estimated_bytes, b.flows[f].estimated_bytes);
    }
  }
}

TEST(CrossComponent, CodecRoundTripPreservesMetrics) {
  // Metrics computed from a decoded report equal those from the
  // original: the export path loses nothing the evaluation needs.
  trace::TraceSynthesizer synth(tiny_trace(33));
  const auto packets = synth.next_interval();
  const auto definition = packet::FlowDefinition::destination_ip();

  baseline::ExactOracle oracle;
  eval::TruthMap truth;
  for (const auto& packet : packets) {
    const auto key = *definition.classify(packet);
    oracle.observe(key, packet.size_bytes);
    truth[key] += packet.size_bytes;
  }
  const auto report = oracle.end_interval();
  const auto decoded = reporting::decode(
      reporting::encode(report, packet::FlowKeyKind::kDestinationIp));

  const auto original =
      eval::threshold_metrics(report, truth, 10'000);
  const auto after =
      eval::threshold_metrics(decoded, truth, 10'000);
  EXPECT_EQ(original.true_large_flows, after.true_large_flows);
  EXPECT_EQ(original.identified_large_flows,
            after.identified_large_flows);
  EXPECT_EQ(original.false_positives, after.false_positives);
  EXPECT_DOUBLE_EQ(original.avg_error_large, after.avg_error_large);
}

}  // namespace
}  // namespace nd
