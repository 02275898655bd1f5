// FleetMember: one process's slice of a measurement fleet.
//
// A fleet of M separate devices reproduces one M-sharded device
// (core::ShardedDevice) over the wire: every member applies the same
// seeded flow->member routing (core::shard_route — identical math to
// ShardedDevice::shard_of), runs an inner replica built from the same
// factory and per-member seed (core::shard_seed), and annotates each
// interval report with the same ShardStatus an in-process shard
// would carry (core::make_shard_status). The collector daemon then
// merges member reports in member order with core::merge_member_reports
// — the function ShardedDevice::end_interval itself uses — so the
// fleet's merged report is bit-identical to the single-process merge by
// construction, not by coincidence. The loopback integration suite
// (tests/net/loopback_fleet_test.cpp) holds this equality, including
// across injected disconnect/reconnect faults.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/device.hpp"
#include "core/sharded_device.hpp"
#include "packet/classified_packet.hpp"

namespace nd::net {

class FleetMember {
 public:
  /// `member` in [0, fleet_size); `device` is the inner replica, built
  /// by the caller from factory(member, core::shard_seed(seed, member))
  /// — the exact arguments ShardedDevice hands its factory for shard
  /// `member`.
  FleetMember(std::uint32_t member, std::uint32_t fleet_size,
              std::uint64_t seed,
              std::unique_ptr<core::MeasurementDevice> device)
      : member_(member),
        fleet_size_(fleet_size),
        seed_(seed),
        device_(std::move(device)),
        capacity_(device_->flow_memory_capacity()) {}

  /// Whether this member's slice of the flow space owns `fingerprint`.
  [[nodiscard]] bool owns(std::uint64_t fingerprint) const {
    return core::shard_route(seed_, fleet_size_, fingerprint) == member_;
  }

  /// Feed the full packet stream; the member keeps only its own flows,
  /// in arrival order — exactly the sub-batch ShardedDevice would have
  /// partitioned out for shard `member`.
  void observe_batch(std::span<const packet::ClassifiedPacket> batch) {
    owned_.clear();
    for (const packet::ClassifiedPacket& packet : batch) {
      if (!owns(packet.fingerprint)) continue;
      ++interval_packets_;
      interval_bytes_ += packet.bytes;
      owned_.push_back(packet);
    }
    device_->observe_batch(owned_);
  }

  /// Close the interval and annotate the report with this member's
  /// ShardStatus — the report is ready to frame and ship.
  [[nodiscard]] core::Report end_interval() {
    core::Report report = device_->end_interval();
    report.shards.assign(
        1, core::make_shard_status(report, capacity_, interval_packets_,
                                   interval_bytes_));
    interval_packets_ = 0;
    interval_bytes_ = 0;
    return report;
  }

  [[nodiscard]] std::uint32_t member() const { return member_; }
  [[nodiscard]] const core::MeasurementDevice& device() const {
    return *device_;
  }

 private:
  std::uint32_t member_;
  std::uint32_t fleet_size_;
  std::uint64_t seed_;
  std::unique_ptr<core::MeasurementDevice> device_;
  std::size_t capacity_;
  std::uint64_t interval_packets_{0};
  common::ByteCount interval_bytes_{0};
  /// This member's sub-batch, reused across observe_batch calls.
  std::vector<packet::ClassifiedPacket> owned_;
};

/// FleetMember's routing-and-annotation, as a MeasurementDevice
/// decorator — the shape `ndtm measure --fleet-size M --device-id m`
/// needs: a MeasurementSession drives it like any other device, it
/// silently ignores every flow another member owns, and each interval
/// report leaves annotated with this member's ShardStatus, ready for
/// the collector's fleet merge. M such sessions over TCP therefore
/// merge bit-identically to one `--shards M` run — the soak harness's
/// reference equality.
///
/// Checkpoint support forwards to the inner device and adds the
/// decorator's own interval tallies, so a member killed mid-interval
/// resumes bit-identically. The name embeds member/fleet_size; a resume
/// with a different slicing fails MeasurementSession's name check
/// loudly instead of merging garbage.
class FleetSliceDevice final : public core::MeasurementDevice {
 public:
  FleetSliceDevice(std::uint32_t member, std::uint32_t fleet_size,
                   std::uint64_t seed,
                   std::unique_ptr<core::MeasurementDevice> inner)
      : member_(member),
        fleet_size_(fleet_size),
        seed_(seed),
        inner_(std::move(inner)),
        capacity_(inner_->flow_memory_capacity()) {}

  [[nodiscard]] bool owns(std::uint64_t fingerprint) const {
    return core::shard_route(seed_, fleet_size_, fingerprint) == member_;
  }

  void observe(const packet::FlowKey& key, std::uint32_t bytes) override {
    if (!owns(key.fingerprint())) return;
    ++interval_packets_;
    interval_bytes_ += bytes;
    inner_->observe(key, bytes);
  }

  void observe_batch(
      std::span<const packet::ClassifiedPacket> batch) override {
    owned_.clear();
    for (const packet::ClassifiedPacket& packet : batch) {
      if (!owns(packet.fingerprint)) continue;
      ++interval_packets_;
      interval_bytes_ += packet.bytes;
      owned_.push_back(packet);
    }
    inner_->observe_batch(owned_);
  }

  [[nodiscard]] core::Report end_interval() override {
    core::Report report = inner_->end_interval();
    report.shards.assign(
        1, core::make_shard_status(report, capacity_, interval_packets_,
                                   interval_bytes_));
    interval_packets_ = 0;
    interval_bytes_ = 0;
    return report;
  }

  [[nodiscard]] std::string name() const override {
    return "fleet:" + std::to_string(member_) + "/" +
           std::to_string(fleet_size_) + ":" + inner_->name();
  }

  [[nodiscard]] common::ByteCount threshold() const override {
    return inner_->threshold();
  }
  void set_threshold(common::ByteCount threshold) override {
    inner_->set_threshold(threshold);
  }
  [[nodiscard]] std::size_t flow_memory_capacity() const override {
    return capacity_;
  }
  [[nodiscard]] std::uint64_t memory_accesses() const override {
    return inner_->memory_accesses();
  }
  [[nodiscard]] std::uint64_t packets_processed() const override {
    return inner_->packets_processed();
  }

  [[nodiscard]] bool can_checkpoint() const override {
    return inner_->can_checkpoint();
  }
  void save_state(common::StateWriter& out) const override {
    out.put_u64(interval_packets_);
    out.put_u64(interval_bytes_);
    inner_->save_state(out);
  }
  void restore_state(common::StateReader& in) override {
    interval_packets_ = in.u64();
    interval_bytes_ = in.u64();
    inner_->restore_state(in);
  }

  [[nodiscard]] std::uint32_t member() const { return member_; }
  [[nodiscard]] const core::MeasurementDevice& inner() const {
    return *inner_;
  }

 private:
  std::uint32_t member_;
  std::uint32_t fleet_size_;
  std::uint64_t seed_;
  std::unique_ptr<core::MeasurementDevice> inner_;
  std::size_t capacity_;
  std::uint64_t interval_packets_{0};
  common::ByteCount interval_bytes_{0};
  std::vector<packet::ClassifiedPacket> owned_;
};

}  // namespace nd::net
