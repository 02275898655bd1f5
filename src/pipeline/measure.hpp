// pipeline::Measure — the device end of the deployed system: replay a
// pcap through a measurement device in fixed intervals, list (and
// optionally export, checkpoint and ship) each interval's heavy hitters.
// `ndtm measure` is this class behind a flag parser; its header comment
// documents each flag the fields below mirror.
//
// run() drives two threads with one fixed order between them (DESIGN.md,
// "`ndtm measure`: a packet thread and a report thread"): the calling
// thread reads, classifies and observes packets, closes intervals and
// writes checkpoints; one report worker renders the listing, the metrics
// line, the export record and the channel send of interval k while the
// packet thread reads interval k+1.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>

#include "common/types.hpp"
#include "net/transport.hpp"
#include "pipeline/exit.hpp"
#include "pipeline/observability.hpp"
#include "reporting/resilient_channel.hpp"
#include "reporting/spool.hpp"

namespace nd::pipeline {

struct MeasureConfig {
  /// The pcap to replay (`--in`, required).
  std::string input{};
  /// sample-and-hold or multistage (`--algorithm`).
  std::string algorithm{"multistage"};
  /// 5tuple, dstip or netpair:<prefixlen> (`--flow-def`).
  std::string flow_def{"5tuple"};
  /// The listing cutoff and the devices' starting threshold.
  common::ByteCount threshold{100'000};
  /// Flow-memory budget, split across shards or fleet members with a
  /// floor of 64 entries each.
  std::uint64_t entries{4096};
  std::uint64_t seed{1};
  /// RSS-style replicas of the device (0 and 1 both mean one); at most
  /// max(1, entries / 64).
  std::uint32_t shards{1};
  /// Steer each shard's threshold toward 90% flow-memory usage.
  bool adaptive{false};
  /// Add each shard's status lines to every interval's listing.
  bool shard_usage{false};
  /// Run as member transport.device_id of a fleet of this many
  /// processes (0 = not a fleet member).
  std::uint32_t fleet_size{0};
  std::chrono::seconds interval{5};
  /// Save a session checkpoint after every closed interval and on
  /// stop(); empty saves none.
  std::string checkpoint_path{};
  /// Restart from checkpoint_path when the file exists.
  bool resume{false};
  /// Append every interval's encoded report here; empty exports none.
  std::string export_path{};
  /// Sleep this long after each closed interval (live-capture pacing).
  std::chrono::milliseconds pace{0};
  ObservabilityConfig observability{};
  /// The collector to ship reports to (`--connect`; port 0 ships
  /// nothing) and this device's id (`--device-id`, also the fleet
  /// member index and trace pid). The pipeline fills in the faults,
  /// metrics and trace pointers.
  net::TcpTransportConfig transport{};
  /// The store-and-forward log (`--spool-dir`; an empty directory
  /// spools nothing). The pipeline fills in faults, metrics and trace.
  reporting::SpoolWalConfig spool{};
  /// Delivery policy per report. The pipeline fills in the transport,
  /// spool, faults, metrics and trace pointers and the per-device
  /// jitter seed.
  reporting::ResilientChannelConfig channel{.bytes_per_interval = 1ULL << 22,
                                            .sleep_on_backoff = true,
                                            .jitter = true};
};

class Measure {
 public:
  explicit Measure(MeasureConfig config) : config_(std::move(config)) {}
  Measure(const Measure&) = delete;
  Measure& operator=(const Measure&) = delete;

  /// Replay the whole capture (or up to stop()) and return how it ended.
  /// Every line goes to stdout or stderr, as `ndtm measure` prints it.
  [[nodiscard]] Exit run();

  /// Graceful stop, async-signal-safe and callable from any thread: the
  /// packet loop ends before its next record, the in-progress interval
  /// stays open, the exact position is checkpointed (with
  /// checkpoint_path), the spool gets a final drain, metrics and trace
  /// files are written, no bye is sent (the capture is incomplete) and
  /// run() returns kOk — a later resume run continues where this one
  /// left off.
  void stop() noexcept { stop_requested_.store(true); }

 private:
  static_assert(std::atomic<bool>::is_always_lock_free);

  MeasureConfig config_;
  std::atomic<bool> stop_requested_{false};
};

}  // namespace nd::pipeline
