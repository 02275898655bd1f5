// The loopback integration suite: M in-process device threads, each a
// FleetMember shipping interval reports through a real ResilientChannel
// + TcpTransport over 127.0.0.1, against one collector daemon. The
// acceptance bar is the collapse-the-distributed-system guarantee: the
// collector's fleet merge is bit-identical to a single-process
// ShardedDevice with the same shard count, seed, and factory — and it
// stays bit-identical when a seeded fault plan cuts a member's
// connection mid-frame and forces a reconnect + re-send.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "../support/report_testing.hpp"
#include "core/multistage_filter.hpp"
#include "core/sharded_device.hpp"
#include "net/collector.hpp"
#include "net/fleet.hpp"
#include "net/transport.hpp"
#include "packet/flow_definition.hpp"
#include "reporting/record_codec.hpp"
#include "reporting/resilient_channel.hpp"
#include "robustness/fault.hpp"
#include "telemetry/export.hpp"
#include "telemetry/http_exporter.hpp"
#include "telemetry/metrics.hpp"

namespace nd::net {
namespace {

using nd::testing::classify_trace;
using nd::testing::expect_reports_equal;

constexpr std::uint32_t kFleetSize = 4;
constexpr std::uint64_t kSeed = 7;

trace::TraceConfig fleet_trace() {
  trace::TraceConfig config;
  config.flow_count = 500;
  config.bytes_per_interval = 2'500'000;
  config.num_intervals = 3;
  config.seed = 123;
  return config;
}

core::MultistageFilterConfig filter_config(std::uint64_t seed) {
  core::MultistageFilterConfig config;
  config.flow_memory_entries = 128;
  config.depth = 3;
  config.buckets_per_stage = 64;
  config.threshold = 40'000;
  config.seed = seed;
  return config;
}

/// The single-process reference: one M-sharded device over the same
/// trace, same seed, same per-shard factory.
std::vector<core::Report> sharded_reference(
    const std::vector<std::vector<packet::ClassifiedPacket>>& intervals) {
  core::ShardedDeviceConfig config;
  config.shards = kFleetSize;
  config.seed = kSeed;
  core::ShardedDevice device(
      config, [](std::uint32_t, std::uint64_t shard_seed) {
        return std::make_unique<core::MultistageFilter>(
            filter_config(shard_seed));
      });
  std::vector<core::Report> reports;
  for (const auto& interval : intervals) {
    device.observe_batch(interval);
    reports.push_back(device.end_interval());
  }
  return reports;
}

/// One device thread: a FleetMember over the full stream, shipping each
/// interval through ResilientChannel + TcpTransport. `faults` may carry
/// a per-member chaos plan (null = clean run).
void run_member(std::uint32_t member, std::uint16_t port,
                const std::vector<std::vector<packet::ClassifiedPacket>>&
                    intervals,
                robustness::FaultInjector* faults) {
  FleetMember fleet_member(
      member, kFleetSize, kSeed,
      std::make_unique<core::MultistageFilter>(
          filter_config(core::shard_seed(kSeed, member))));

  TcpTransportConfig transport_config;
  transport_config.port = port;
  transport_config.device_id = member;
  transport_config.faults = faults;
  TcpTransport transport(transport_config);

  common::FakeClock clock;
  reporting::ResilientChannelConfig channel_config;
  channel_config.bytes_per_interval = 1ULL << 24;  // no shedding here
  channel_config.sleep_on_backoff = true;
  channel_config.clock = &clock;
  channel_config.transport = &transport;
  reporting::ResilientChannel channel(channel_config);

  for (const auto& interval : intervals) {
    fleet_member.observe_batch(interval);
    const core::Report report = fleet_member.end_interval();
    EXPECT_TRUE(channel.send(report).delivered)
        << "member " << member << " interval " << report.interval;
  }
  EXPECT_TRUE(transport.send_bye(
      static_cast<std::uint32_t>(intervals.size())))
      << "member " << member;
}

/// Bit-identity in the strongest form: the encoded bytes match. Flow
/// order inside an interval differs benignly between the two paths (the
/// channel ships each member's flows largest-first), so both sides are
/// put in size order — a stable sort, so ties keep member order and the
/// comparison stays exact.
void expect_bit_identical(std::vector<core::Report> fleet,
                          std::vector<core::Report> single) {
  ASSERT_EQ(fleet.size(), single.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    core::sort_by_size(fleet[i]);
    core::sort_by_size(single[i]);
    expect_reports_equal(fleet[i], single[i]);
    ASSERT_EQ(fleet[i].shards.size(), single[i].shards.size())
        << "interval " << i;
    EXPECT_EQ(
        reporting::encode(fleet[i], packet::FlowKeyKind::kFiveTuple),
        reporting::encode(single[i], packet::FlowKeyKind::kFiveTuple))
        << "interval " << i << ": encoded bytes differ";
  }
}

TEST(LoopbackFleet, FourDevicesMergeBitIdenticalToShardedDevice) {
  const auto intervals = classify_trace(
      fleet_trace(), packet::FlowDefinition::five_tuple());
  const std::vector<core::Report> reference = sharded_reference(intervals);

  telemetry::MetricsRegistry registry;
  CollectorConfig config;
  config.expected_devices = kFleetSize;
  config.timeout = std::chrono::milliseconds(30'000);  // hang guard
  config.metrics = &registry;
  Collector collector(config);
  collector.start();

  std::vector<std::thread> members;
  for (std::uint32_t m = 0; m < kFleetSize; ++m) {
    members.emplace_back(
        [m, port = collector.port(), &intervals] {
          run_member(m, port, intervals, nullptr);
        });
  }
  for (std::thread& member : members) member.join();
  ASSERT_TRUE(collector.wait());

  const CollectorStats stats = collector.stats();
  EXPECT_EQ(stats.hellos, kFleetSize);
  EXPECT_EQ(stats.byes, kFleetSize);
  EXPECT_EQ(stats.reports_ingested, kFleetSize * intervals.size());
  EXPECT_EQ(stats.resyncs, 0u);
  EXPECT_EQ(stats.duplicate_reports, 0u);
  EXPECT_EQ(registry.counter("nd_net_reports_total").value(),
            stats.reports_ingested);

  expect_bit_identical(collector.merged_reports(), reference);
}

/// Scrape client for the observability-plane tests: one GET, read to
/// EOF (the exporter closes after each response).
std::string http_get(std::uint16_t port, const std::string& path) {
  Socket socket = tcp_connect("127.0.0.1", port);
  EXPECT_TRUE(socket.valid());
  const std::string raw = "GET " + path + " HTTP/1.0\r\n\r\n";
  EXPECT_TRUE(write_all(
      socket.fd(),
      {reinterpret_cast<const std::uint8_t*>(raw.data()), raw.size()}));
  std::string response;
  std::uint8_t buffer[8192];
  for (;;) {
    const ssize_t n = read_some(socket.fd(), buffer, sizeof(buffer));
    if (n <= 0) break;
    response.append(reinterpret_cast<const char*>(buffer),
                    static_cast<std::size_t>(n));
  }
  return response;
}

/// A member that also keeps a device-side registry and ships each
/// interval snapshot as the v3 metrics trailer — the fleet-aggregation
/// ingest path.
void run_member_with_metrics(
    std::uint32_t member, std::uint16_t port,
    const std::vector<std::vector<packet::ClassifiedPacket>>& intervals) {
  FleetMember fleet_member(
      member, kFleetSize, kSeed,
      std::make_unique<core::MultistageFilter>(
          filter_config(core::shard_seed(kSeed, member))));

  TcpTransportConfig transport_config;
  transport_config.port = port;
  transport_config.device_id = member;
  TcpTransport transport(transport_config);

  common::FakeClock clock;
  reporting::ResilientChannelConfig channel_config;
  channel_config.bytes_per_interval = 1ULL << 24;
  channel_config.sleep_on_backoff = true;
  channel_config.clock = &clock;
  channel_config.transport = &transport;
  reporting::ResilientChannel channel(channel_config);

  telemetry::MetricsRegistry registry;
  telemetry::Counter& packets =
      registry.counter("nd_member_packets_total");
  telemetry::Gauge& entries = registry.gauge("nd_member_entries");
  telemetry::Histogram& flows =
      registry.histogram("nd_member_report_flows");
  for (const auto& interval : intervals) {
    fleet_member.observe_batch(interval);
    const core::Report report = fleet_member.end_interval();
    packets.add(report.shards.front().packets);
    entries.set(
        static_cast<double>(report.shards.front().entries_used));
    flows.record(report.flows.size());
    const std::string trailer =
        telemetry::to_json_line(registry.snapshot(report.interval));
    EXPECT_TRUE(channel.send(report, trailer).delivered)
        << "member " << member << " interval " << report.interval;
  }
  EXPECT_TRUE(transport.send_bye(
      static_cast<std::uint32_t>(intervals.size())));
}

TEST(LoopbackFleet, MetricsTrailersAggregateAndServeOverHttp) {
  // Every member ships per-interval registry snapshots in the metrics
  // trailer; the collector re-registers them under device="<id>" plus
  // device="fleet" rollups, all scrapeable over the HTTP plane — and
  // the rollups must equal what the single-process ShardedDevice
  // reference reports for the same trace.
  const auto intervals = classify_trace(
      fleet_trace(), packet::FlowDefinition::five_tuple());
  const std::vector<core::Report> reference = sharded_reference(intervals);

  telemetry::MetricsRegistry registry;
  CollectorConfig config;
  config.expected_devices = kFleetSize;
  config.timeout = std::chrono::milliseconds(30'000);  // hang guard
  config.metrics = &registry;
  Collector collector(config);

  telemetry::HttpExporterConfig http_config;
  http_config.metrics_text = [&registry] {
    return telemetry::to_prometheus(registry.snapshot());
  };
  http_config.status_text = [&collector] {
    return collector.status_text();
  };
  telemetry::HttpExporter http(std::move(http_config));
  http.start();

  collector.start();
  std::vector<std::thread> members;
  for (std::uint32_t m = 0; m < kFleetSize; ++m) {
    members.emplace_back([m, port = collector.port(), &intervals] {
      run_member_with_metrics(m, port, intervals);
    });
  }
  for (std::thread& member : members) member.join();
  ASSERT_TRUE(collector.wait());

  // Per-device series match the reference shard statuses exactly: the
  // member's packet counter accumulates what ShardedDevice routed to
  // that shard, its entries gauge is the shard's last entries_used.
  std::uint64_t total_packets = 0;
  std::size_t max_entries = 0;
  for (std::uint32_t m = 0; m < kFleetSize; ++m) {
    std::uint64_t shard_packets = 0;
    for (const core::Report& report : reference) {
      shard_packets += report.shards[m].packets;
    }
    total_packets += shard_packets;
    const telemetry::Labels labels{{"device", std::to_string(m)}};
    EXPECT_EQ(
        registry.counter("nd_member_packets_total", labels).value(),
        shard_packets)
        << "device " << m;
    const auto entries = reference.back().shards[m].entries_used;
    max_entries = std::max(max_entries, entries);
    EXPECT_DOUBLE_EQ(
        registry.gauge("nd_member_entries", labels).value(),
        static_cast<double>(entries))
        << "device " << m;
  }
  // Fleet rollups: counters sum, gauges take the worst member.
  const telemetry::Labels fleet{{"device", "fleet"}};
  EXPECT_EQ(registry.counter("nd_member_packets_total", fleet).value(),
            total_packets);
  EXPECT_DOUBLE_EQ(registry.gauge("nd_member_entries", fleet).value(),
                   static_cast<double>(max_entries));
  EXPECT_EQ(
      registry.histogram("nd_member_report_flows", fleet).count(),
      static_cast<std::uint64_t>(kFleetSize * intervals.size()));

  // The same values over a real HTTP scrape.
  const std::string scrape = http_get(http.port(), "/metrics");
  EXPECT_NE(scrape.find("HTTP/1.0 200 OK"), std::string::npos);
  for (std::uint32_t m = 0; m < kFleetSize; ++m) {
    EXPECT_NE(scrape.find("nd_member_packets_total{device=\"" +
                          std::to_string(m) + "\"} "),
              std::string::npos)
        << "device " << m << " series missing from scrape";
  }
  EXPECT_NE(scrape.find("nd_member_packets_total{device=\"fleet\"} " +
                        std::to_string(total_packets) + "\n"),
            std::string::npos)
      << scrape.substr(0, 2000);
  // /healthz 200, /statusz shows every device done.
  EXPECT_NE(http_get(http.port(), "/healthz").find("200 OK"),
            std::string::npos);
  const std::string status = http_get(http.port(), "/statusz");
  EXPECT_NE(status.find("device 0: epoch 0, 3 reports, bye"),
            std::string::npos)
      << status;
}

TEST(LoopbackFleet, MergeSurvivesMidIntervalDisconnectBitIdentical) {
  // Same fleet, but two members get their connection cut mid-frame by
  // a seeded net.disconnect plan. The transport reconnects with a
  // bumped epoch, the channel re-sends the interval, the collector
  // drops the partial frame and dedups — and the merged output must
  // still match the single-process device bit for bit.
  const auto intervals = classify_trace(
      fleet_trace(), packet::FlowDefinition::five_tuple());
  const std::vector<core::Report> reference = sharded_reference(intervals);

  CollectorConfig config;
  config.expected_devices = kFleetSize;
  config.timeout = std::chrono::milliseconds(30'000);  // hang guard
  Collector collector(config);
  collector.start();

  // Per-member injectors (consulted on the member's own thread, so the
  // cross-thread determinism contract holds). Members 1 and 3 each lose
  // their second data frame mid-write.
  robustness::FaultSpec cut;
  cut.kind = robustness::FaultKind::kDrop;
  cut.schedule = {1};
  std::vector<std::unique_ptr<robustness::FaultInjector>> injectors(
      kFleetSize);
  injectors[1] = std::make_unique<robustness::FaultInjector>(
      robustness::FaultPlan(31).inject("net.disconnect", cut));
  injectors[3] = std::make_unique<robustness::FaultInjector>(
      robustness::FaultPlan(33).inject("net.disconnect", cut));

  std::vector<std::thread> members;
  for (std::uint32_t m = 0; m < kFleetSize; ++m) {
    members.emplace_back(
        [m, port = collector.port(), &intervals, &injectors] {
          run_member(m, port, intervals, injectors[m].get());
        });
  }
  for (std::thread& member : members) member.join();
  ASSERT_TRUE(collector.wait());

  const CollectorStats stats = collector.stats();
  // Both cut members dialed again with epoch 1 and the collector saw
  // their truncated frames die on the old connections.
  EXPECT_EQ(stats.reconnects, 2u);
  EXPECT_EQ(stats.partial_frames_dropped, 2u);
  EXPECT_EQ(stats.hellos, kFleetSize + 2);
  // The cut frame never completed, so the re-send is the first copy:
  // no duplicates, nothing lost.
  EXPECT_EQ(stats.duplicate_reports, 0u);
  EXPECT_EQ(stats.reports_ingested, kFleetSize * intervals.size());

  expect_bit_identical(collector.merged_reports(), reference);
}

}  // namespace
}  // namespace nd::net
