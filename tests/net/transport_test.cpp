// TcpTransport + Collector unit suite, on deterministic seams: the
// socket-pair seam proves wire behaviour (hello framing, fault sites,
// partial-write loops) without a listener, the FakeClock seam pins
// retry/backoff schedules exactly with zero wall-clock sleeps, and a
// live loopback Collector pins per-device sequencing (dedup, orphan
// frames, resync telemetry, reconnect epochs).
#include "net/transport.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "core/device.hpp"
#include "net/collector.hpp"
#include "net/frame_stream.hpp"
#include "net/socket.hpp"
#include "packet/flow_key.hpp"
#include "reporting/record_codec.hpp"
#include "reporting/resilient_channel.hpp"
#include "robustness/fault.hpp"
#include "telemetry/metrics.hpp"

namespace nd::net {
namespace {

core::Report make_report(common::IntervalIndex interval,
                         std::size_t flows) {
  core::Report report;
  report.interval = interval;
  report.threshold = 25'000;
  for (std::size_t i = 0; i < flows; ++i) {
    core::ReportedFlow flow;
    flow.key = packet::FlowKey::five_tuple(
        0x0A000001 + static_cast<std::uint32_t>(i), 0x0A0000FE,
        static_cast<std::uint16_t>(3000 + i), 22,
        packet::IpProtocol::kTcp);
    flow.estimated_bytes = 60'000 + 1'000 * i;
    report.flows.push_back(flow);
  }
  return report;
}

std::vector<std::uint8_t> framed(common::IntervalIndex interval,
                                 std::size_t flows) {
  return reporting::frame_payload(reporting::encode(
      make_report(interval, flows), packet::FlowKeyKind::kFiveTuple));
}

/// Read from `fd` until `n` bytes arrived (the peer is in-process, so
/// this never blocks long).
std::vector<std::uint8_t> read_exact(int fd, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  std::size_t off = 0;
  while (off < n) {
    const ssize_t got = read_some(fd, out.data() + off, n - off);
    if (got <= 0) break;
    off += static_cast<std::size_t>(got);
  }
  out.resize(off);
  return out;
}

struct CountingEvents final : FrameStreamParser::Events {
  std::vector<Hello> hellos;
  std::vector<Bye> byes;
  std::size_t reports{0};
  std::size_t resyncs{0};

  void on_hello(const Hello& hello) override { hellos.push_back(hello); }
  void on_bye(const Bye& bye) override { byes.push_back(bye); }
  void on_report_frame(std::span<const std::uint8_t>) override {
    ++reports;
  }
  void on_resync(std::size_t) override { ++resyncs; }
};

/// Spin until `predicate` holds (bounded); the collector loop runs on
/// its own thread, so tests that need "the EOF was serviced" ordering
/// wait on the stats snapshot instead of sleeping blind.
template <typename Predicate>
void wait_until(Predicate predicate) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!predicate() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(predicate());
}

robustness::FaultPlan site_schedule(const std::string& site,
                                    std::vector<std::uint64_t> schedule) {
  robustness::FaultSpec spec;
  spec.kind = robustness::FaultKind::kDrop;
  spec.schedule = std::move(schedule);
  return robustness::FaultPlan(5).inject(site, spec);
}

TEST(TcpTransport, HelloPrecedesFirstFrameOnAdoptedSocket) {
  auto [ours, theirs] = socket_pair();
  TcpTransportConfig config;
  config.device_id = 7;
  TcpTransport transport(config, std::move(ours));

  const std::vector<std::uint8_t> frame = framed(0, 2);
  ASSERT_TRUE(transport.send_frame(frame));
  ASSERT_TRUE(transport.send_bye(1));

  const std::vector<std::uint8_t> wire = read_exact(
      theirs.fd(), 2 * kControlFrameBytes + frame.size());
  FrameStreamParser parser;
  CountingEvents events;
  parser.feed(wire, events);

  ASSERT_EQ(events.hellos.size(), 1u);
  EXPECT_EQ(events.hellos[0].device_id, 7u);
  EXPECT_EQ(events.hellos[0].epoch, 0u);
  EXPECT_EQ(events.reports, 1u);
  ASSERT_EQ(events.byes.size(), 1u);
  EXPECT_EQ(events.byes[0].intervals, 1u);
  EXPECT_EQ(events.resyncs, 0u);

  EXPECT_EQ(transport.stats().connects, 1u);
  EXPECT_EQ(transport.stats().frames_sent, 1u);
}

TEST(TcpTransport, ShortWriteFaultStillDeliversWholeFrame) {
  robustness::FaultInjector faults(
      site_schedule("net.short_write", {0}));
  auto [ours, theirs] = socket_pair();
  TcpTransportConfig config;
  config.device_id = 1;
  config.faults = &faults;
  TcpTransport transport(config, std::move(ours));

  const std::vector<std::uint8_t> frame = framed(0, 3);
  ASSERT_TRUE(transport.send_frame(frame));
  EXPECT_EQ(transport.stats().short_writes, 1u);

  // TCP short writes must be invisible above the socket layer: the
  // frame arrives whole and verifies.
  const std::vector<std::uint8_t> wire =
      read_exact(theirs.fd(), kControlFrameBytes + frame.size());
  FrameStreamParser parser;
  CountingEvents events;
  parser.feed(wire, events);
  EXPECT_EQ(events.reports, 1u);
  EXPECT_EQ(events.resyncs, 0u);
}

TEST(TcpTransport, SendFramePartsDeliversHeaderPlusPayloadWhole) {
  // The zero-copy path: a 12-byte header span plus the payload span go
  // out in one scatter-gather write, and the receiver cannot tell the
  // difference from a contiguous frame.
  auto [ours, theirs] = socket_pair();
  TcpTransportConfig config;
  config.device_id = 12;
  TcpTransport transport(config, std::move(ours));

  const core::Report report = make_report(3, 4);
  std::vector<std::uint8_t> payload;
  reporting::encode_into(payload, report, packet::FlowKeyKind::kFiveTuple);
  const auto header = reporting::frame_header(payload);
  ASSERT_TRUE(transport.send_frame_parts(header, payload));
  EXPECT_EQ(transport.stats().frames_sent, 1u);
  // bytes_sent covers the connect-time hello too.
  EXPECT_EQ(transport.stats().bytes_sent,
            kControlFrameBytes + header.size() + payload.size());

  const std::vector<std::uint8_t> wire = read_exact(
      theirs.fd(), kControlFrameBytes + header.size() + payload.size());
  FrameStreamParser parser;
  CountingEvents events;
  parser.feed(wire, events);
  EXPECT_EQ(events.hellos.size(), 1u);
  EXPECT_EQ(events.reports, 1u);
  EXPECT_EQ(events.resyncs, 0u);

  // And the parts must be byte-identical to the assembled encoding —
  // the wire format does not depend on which send path was taken.
  std::vector<std::uint8_t> assembled = reporting::frame_payload(
      reporting::encode(report, packet::FlowKeyKind::kFiveTuple));
  std::vector<std::uint8_t> parts(header.begin(), header.end());
  parts.insert(parts.end(), payload.begin(), payload.end());
  EXPECT_EQ(parts, assembled);
}

TEST(TcpTransport, SendFramePartsShortWriteStillDeliversWhole) {
  robustness::FaultInjector faults(
      site_schedule("net.short_write", {0}));
  auto [ours, theirs] = socket_pair();
  TcpTransportConfig config;
  config.device_id = 13;
  config.faults = &faults;
  TcpTransport transport(config, std::move(ours));

  std::vector<std::uint8_t> payload;
  reporting::encode_into(payload, make_report(0, 3),
                         packet::FlowKeyKind::kFiveTuple);
  const auto header = reporting::frame_header(payload);
  ASSERT_TRUE(transport.send_frame_parts(header, payload));
  EXPECT_EQ(transport.stats().short_writes, 1u);

  const std::vector<std::uint8_t> wire = read_exact(
      theirs.fd(), kControlFrameBytes + header.size() + payload.size());
  FrameStreamParser parser;
  CountingEvents events;
  parser.feed(wire, events);
  EXPECT_EQ(events.reports, 1u);
  EXPECT_EQ(events.resyncs, 0u);
}

TEST(TcpTransport, SendFramePartsDisconnectCutsAcrossBothParts) {
  robustness::FaultInjector faults(
      site_schedule("net.disconnect", {0}));
  auto [ours, theirs] = socket_pair();
  TcpTransportConfig config;
  config.device_id = 14;
  config.faults = &faults;
  TcpTransport transport(config, std::move(ours));

  std::vector<std::uint8_t> payload;
  reporting::encode_into(payload, make_report(0, 3),
                         packet::FlowKeyKind::kFiveTuple);
  const auto header = reporting::frame_header(payload);
  EXPECT_FALSE(transport.send_frame_parts(header, payload));
  EXPECT_FALSE(transport.connected());
  EXPECT_EQ(transport.stats().disconnects, 1u);

  // Strict prefix of header+payload on the wire, then EOF — the same
  // contract the contiguous path honors.
  const std::vector<std::uint8_t> wire = read_exact(
      theirs.fd(), kControlFrameBytes + header.size() + payload.size());
  EXPECT_GE(wire.size(), kControlFrameBytes);
  EXPECT_LT(wire.size(),
            kControlFrameBytes + header.size() + payload.size());
}

TEST(TcpTransport, DisconnectFaultCutsMidFrameAndReportsFailure) {
  robustness::FaultInjector faults(
      site_schedule("net.disconnect", {0}));
  auto [ours, theirs] = socket_pair();
  TcpTransportConfig config;
  config.device_id = 2;
  config.faults = &faults;
  TcpTransport transport(config, std::move(ours));

  const std::vector<std::uint8_t> frame = framed(0, 3);
  EXPECT_FALSE(transport.send_frame(frame));
  EXPECT_FALSE(transport.connected());
  EXPECT_EQ(transport.stats().disconnects, 1u);
  EXPECT_EQ(transport.stats().frames_sent, 0u);

  // The receiver holds the hello plus a strict prefix of the frame,
  // then EOF — exactly the partial-frame case the collector's reset()
  // path drops.
  const std::vector<std::uint8_t> wire =
      read_exact(theirs.fd(), kControlFrameBytes + frame.size());
  EXPECT_GE(wire.size(), kControlFrameBytes);
  EXPECT_LT(wire.size(), kControlFrameBytes + frame.size());
}

TEST(TcpTransport, ConnectFaultThenRecoveryWithExactBackoffSchedule) {
  // One injected connect refusal, then a live collector: the channel's
  // retry policy drives the real socket and the FakeClock records the
  // exact backoff schedule — no wall-clock sleeps anywhere.
  CollectorConfig collector_config;
  collector_config.expected_devices = 1;
  Collector collector(collector_config);
  collector.start();

  robustness::FaultInjector faults(site_schedule("net.connect", {0}));
  TcpTransportConfig transport_config;
  transport_config.port = collector.port();
  transport_config.device_id = 4;
  transport_config.faults = &faults;
  TcpTransport transport(transport_config);

  common::FakeClock clock;
  reporting::ResilientChannelConfig channel_config;
  channel_config.max_attempts = 3;
  channel_config.backoff_base = std::chrono::microseconds(500);
  channel_config.sleep_on_backoff = true;
  channel_config.clock = &clock;
  channel_config.transport = &transport;
  reporting::ResilientChannel channel(channel_config);

  const reporting::DeliveryOutcome outcome =
      channel.send(make_report(0, 2));
  EXPECT_TRUE(outcome.delivered);
  EXPECT_EQ(outcome.attempts, 2u);
  EXPECT_EQ(channel.stats().transport_failures, 1u);
  ASSERT_EQ(clock.sleep_count(), 1u);
  EXPECT_EQ(clock.sleeps()[0], std::chrono::microseconds(500));
  EXPECT_EQ(transport.stats().connect_failures, 1u);
  EXPECT_EQ(transport.stats().connects, 1u);

  ASSERT_TRUE(transport.send_bye(1));
  EXPECT_TRUE(collector.wait());
  EXPECT_EQ(collector.stats().reports_ingested, 1u);
}

TEST(TcpTransport, ExhaustedRetriesAbandonWithFullBackoffSchedule) {
  // Every connect refused: the report is abandoned after max_attempts
  // and the recorded schedule is exactly base * (1, 2, 4, 8).
  robustness::FaultInjector faults(
      site_schedule("net.connect", {0, 1, 2, 3}));
  TcpTransportConfig transport_config;
  transport_config.port = 1;  // nothing listens there either
  transport_config.device_id = 5;
  transport_config.faults = &faults;
  TcpTransport transport(transport_config);

  common::FakeClock clock;
  reporting::ResilientChannelConfig channel_config;
  channel_config.max_attempts = 4;
  channel_config.backoff_base = std::chrono::microseconds(250);
  channel_config.sleep_on_backoff = true;
  channel_config.clock = &clock;
  channel_config.transport = &transport;
  reporting::ResilientChannel channel(channel_config);

  const reporting::DeliveryOutcome outcome =
      channel.send(make_report(0, 1));
  EXPECT_FALSE(outcome.delivered);
  EXPECT_EQ(channel.stats().reports_abandoned, 1u);
  EXPECT_EQ(channel.stats().transport_failures, 4u);
  ASSERT_EQ(clock.sleep_count(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(clock.sleeps()[i],
              std::chrono::microseconds(250) * (1 << i))
        << "retry " << i;
  }
  EXPECT_EQ(clock.elapsed(), std::chrono::microseconds(250 * 15));
}

TEST(Collector, DeduplicatesReshippedIntervalsFirstCopyWins) {
  CollectorConfig config;
  config.expected_devices = 1;
  Collector collector(config);
  collector.start();

  Socket conn = tcp_connect("127.0.0.1", collector.port());
  ASSERT_TRUE(conn.valid());
  const std::vector<std::uint8_t> hello = encode_hello(Hello{11, 0});
  const std::vector<std::uint8_t> frame = framed(0, 2);
  const std::vector<std::uint8_t> bye = encode_bye(Bye{11, 1});
  ASSERT_TRUE(write_all(conn.fd(), hello));
  ASSERT_TRUE(write_all(conn.fd(), frame));
  ASSERT_TRUE(write_all(conn.fd(), frame));  // re-shipped interval
  ASSERT_TRUE(write_all(conn.fd(), bye));
  EXPECT_TRUE(collector.wait());

  const CollectorStats stats = collector.stats();
  EXPECT_EQ(stats.frames_received, 2u);
  EXPECT_EQ(stats.reports_ingested, 1u);
  EXPECT_EQ(stats.duplicate_reports, 1u);
  const std::vector<core::Report> merged = collector.merged_reports();
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].flows.size(), 2u);
}

TEST(Collector, OrphanFramesAndGarbageAreCountedNeverFatal) {
  telemetry::MetricsRegistry registry;
  CollectorConfig config;
  config.expected_devices = 1;
  config.metrics = &registry;
  Collector collector(config);
  collector.start();

  Socket conn = tcp_connect("127.0.0.1", collector.port());
  ASSERT_TRUE(conn.valid());
  const std::vector<std::uint8_t> frame = framed(0, 1);
  // Report before hello: counted, dropped, connection survives.
  ASSERT_TRUE(write_all(conn.fd(), frame));
  // Mid-stream garbage: the parser resyncs to the next real frame.
  const std::vector<std::uint8_t> garbage(21, 0x5A);
  ASSERT_TRUE(write_all(conn.fd(), garbage));
  ASSERT_TRUE(write_all(conn.fd(), encode_hello(Hello{3, 0})));
  ASSERT_TRUE(write_all(conn.fd(), frame));
  ASSERT_TRUE(write_all(conn.fd(), encode_bye(Bye{3, 1})));
  EXPECT_TRUE(collector.wait());

  const CollectorStats stats = collector.stats();
  EXPECT_EQ(stats.decode_errors, 1u);  // the orphan
  EXPECT_GE(stats.resyncs, 1u);        // the garbage
  EXPECT_EQ(stats.reports_ingested, 1u);
  EXPECT_EQ(registry.counter("nd_net_resync_total").value(),
            stats.resyncs);
  EXPECT_EQ(registry.counter("nd_net_frames_total").value(),
            stats.frames_received);
}

TEST(Collector, ReconnectEpochsAreTracked) {
  CollectorConfig config;
  config.expected_devices = 1;
  Collector collector(config);
  collector.start();

  {
    // First connection dies mid-frame (no bye).
    Socket conn = tcp_connect("127.0.0.1", collector.port());
    ASSERT_TRUE(conn.valid());
    ASSERT_TRUE(write_all(conn.fd(), encode_hello(Hello{8, 0})));
    const std::vector<std::uint8_t> frame = framed(0, 2);
    ASSERT_TRUE(
        write_all(conn.fd(), {frame.data(), frame.size() / 2}));
  }
  wait_until([&] { return collector.stats().connections_closed == 1; });
  {
    // The device dials again with a bumped epoch and re-ships.
    Socket conn = tcp_connect("127.0.0.1", collector.port());
    ASSERT_TRUE(conn.valid());
    ASSERT_TRUE(write_all(conn.fd(), encode_hello(Hello{8, 1})));
    const std::vector<std::uint8_t> frame = framed(0, 2);
    ASSERT_TRUE(write_all(conn.fd(), frame));
    ASSERT_TRUE(write_all(conn.fd(), encode_bye(Bye{8, 1})));
    EXPECT_TRUE(collector.wait());
  }

  const CollectorStats stats = collector.stats();
  EXPECT_EQ(stats.hellos, 2u);
  EXPECT_EQ(stats.reconnects, 1u);
  EXPECT_EQ(stats.partial_frames_dropped, 1u);
  EXPECT_EQ(stats.reports_ingested, 1u);
  EXPECT_EQ(stats.duplicate_reports, 0u);
}

TEST(Collector, BurstDrainFairnessCapYieldsWithoutLoss) {
  // A device blasting a large backlog must trip the per-wake drain cap
  // (so peers are not starved) and still lose nothing: the capped
  // bytes stay queued in the kernel for the next poll wake.
  CollectorConfig config;
  config.expected_devices = 1;
  config.max_drain_bytes_per_wake = 16 * 1024;
  Collector collector(config);  // already listening

  Socket conn = tcp_connect("127.0.0.1", collector.port());
  ASSERT_TRUE(conn.valid());
  ASSERT_TRUE(write_all(conn.fd(), encode_hello(Hello{21, 0})));
  constexpr std::size_t kBurst = 64;
  // Queue at least two caps' worth (~16 KiB per frame) before the
  // collector thread exists: its first read of this connection returns
  // more than the per-wake budget, so the cap trips however the writer
  // and the collector are scheduled afterwards. The prefix stays well
  // inside the loopback receive window, so no write here blocks.
  std::size_t i = 0;
  for (std::size_t queued = 0;
       queued < 2 * config.max_drain_bytes_per_wake; ++i) {
    const std::vector<std::uint8_t> frame =
        framed(static_cast<common::IntervalIndex>(i), 600);
    ASSERT_TRUE(write_all(conn.fd(), frame));
    queued += frame.size();
  }
  collector.start();
  for (; i < kBurst; ++i) {
    ASSERT_TRUE(write_all(
        conn.fd(), framed(static_cast<common::IntervalIndex>(i), 600)));
  }
  ASSERT_TRUE(write_all(conn.fd(), encode_bye(Bye{21, kBurst})));
  EXPECT_TRUE(collector.wait());

  const CollectorStats stats = collector.stats();
  EXPECT_EQ(stats.reports_ingested, kBurst);
  EXPECT_EQ(stats.resyncs, 0u);
  EXPECT_EQ(stats.partial_frames_dropped, 0u);
  EXPECT_GE(stats.drain_cap_hits, 1u);
}

TEST(Collector, TimeoutReturnsFalseWhenDevicesNeverFinish) {
  CollectorConfig config;
  config.expected_devices = 1;
  config.timeout = std::chrono::milliseconds(50);
  Collector collector(config);
  EXPECT_FALSE(collector.run());
  EXPECT_EQ(collector.devices_done(), 0u);
}

TEST(Collector, StopInterruptsRunPromptly) {
  CollectorConfig config;
  config.expected_devices = 1;
  Collector collector(config);
  collector.start();
  collector.stop();
  EXPECT_FALSE(collector.wait());
}

TEST(Collector, ChaosPlanOverRealTransportNeverCrashes) {
  // The seeded chaos drill end to end: drops before framing, payload
  // corruption on the wire (the collector must resync, not crash),
  // tiny-chunk stalls, and a mid-stream disconnect — all while real
  // frames keep flowing. Every loss is visible in the stats.
  telemetry::MetricsRegistry registry;
  robustness::FaultSpec corrupt;
  corrupt.kind = robustness::FaultKind::kCorrupt;
  corrupt.schedule = {1, 4};
  robustness::FaultSpec drop;
  drop.kind = robustness::FaultKind::kDrop;
  drop.schedule = {2};
  robustness::FaultSpec cut;
  cut.kind = robustness::FaultKind::kDrop;
  cut.schedule = {3};
  robustness::FaultSpec trickle;
  trickle.kind = robustness::FaultKind::kDrop;
  trickle.schedule = {5};
  robustness::FaultInjector faults(robustness::FaultPlan(99)
                                       .inject("channel.corrupt", corrupt)
                                       .inject("channel.drop", drop)
                                       .inject("net.disconnect", cut)
                                       .inject("net.short_write", trickle));

  CollectorConfig collector_config;
  collector_config.expected_devices = 1;
  collector_config.timeout = std::chrono::milliseconds(5000);
  collector_config.metrics = &registry;
  Collector collector(collector_config);
  collector.start();

  TcpTransportConfig transport_config;
  transport_config.port = collector.port();
  transport_config.device_id = 6;
  transport_config.faults = &faults;
  TcpTransport transport(transport_config);

  common::FakeClock clock;
  reporting::ResilientChannelConfig channel_config;
  channel_config.max_attempts = 4;
  channel_config.sleep_on_backoff = true;
  channel_config.clock = &clock;
  channel_config.transport = &transport;
  channel_config.faults = &faults;
  reporting::ResilientChannel channel(channel_config);

  constexpr std::size_t kReports = 8;
  std::size_t delivered = 0;
  for (std::size_t i = 0; i < kReports; ++i) {
    if (channel.send(make_report(static_cast<common::IntervalIndex>(i), 3))
            .delivered) {
      ++delivered;
    }
  }
  ASSERT_TRUE(transport.send_bye(kReports));
  EXPECT_TRUE(collector.wait());

  const CollectorStats stats = collector.stats();
  // A corrupted frame is "delivered" from the channel's point of view
  // (the wire accepted it) but the collector's CRC rejects it; that is
  // the on-the-wire loss model, and it must show up as resyncs — the
  // required nd_net_resync_total series — never as a crash.
  EXPECT_EQ(delivered, kReports);
  EXPECT_GE(stats.resyncs, 1u);
  EXPECT_GE(registry.counter("nd_net_resync_total").value(), 1u);
  EXPECT_EQ(stats.reports_ingested + corrupt.schedule.size(), kReports);
  EXPECT_GE(stats.reconnects, 1u);
  EXPECT_EQ(transport.stats().disconnects, 1u);
  EXPECT_EQ(transport.stats().short_writes, 1u);
  EXPECT_EQ(channel.stats().drops, 1u);
  // Ingested reports decode into exactly the intervals that survived.
  const std::vector<core::Report> merged = collector.merged_reports();
  EXPECT_EQ(merged.size(), stats.reports_ingested);
}

}  // namespace
}  // namespace nd::net
