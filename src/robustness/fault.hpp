// Deterministic fault injection for the measurement pipeline.
//
// The paper's setting is measurement that must survive hostile
// conditions — Section 2 cites NetFlow collection loss rates "up to
// 90%". This layer lets tests (and the ndtm CLI) inject those
// conditions on purpose: a stalled or throwing pool task, a dropped
// or bit-corrupted report, a truncated capture. Every
// recovery path in the repo is exercised against it by the chaos
// differential suite in tests/robustness/.
//
// Design mirrors the telemetry layer's zero-overhead-when-off pattern:
// components hold a `FaultInjector*` that is null by default, and the
// only cost an un-faulted pipeline pays is a pointer test at batch or
// interval granularity — never on a per-packet path.
//
// Determinism contract: a FaultInjector is a pure function of
// (plan seed, site name, occurrence index). Two injectors built from
// the same plan fire at exactly the same occurrences with the same
// salts, regardless of wall clock or thread interleaving — callers on
// concurrent paths (ThreadPool) consult the injector on the submitting
// thread, in a fixed order, so chaos runs replay.
//
// The sites some component consults are listed in kFaultSites below.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/metrics.hpp"

namespace nd::robustness {

/// Every fault site a component consults; parse_fault_plan rejects any
/// other name, so a typo or a retired site is a usage error instead of
/// a plan that silently never fires.
inline constexpr std::array<std::string_view, 12> kFaultSites = {
    "pool.task",            // common::ThreadPool — task throws/stalls
    "channel.drop",         // reporting::ResilientChannel — attempt lost
    "channel.corrupt",      // reporting::ResilientChannel — byte flipped
    "pcap.truncate",        // pcap::PcapReader — captured bytes truncated
    "pcap.corrupt",         // pcap::PcapReader — captured byte flipped
    "net.connect",          // net::TcpTransport — connect refused
    "net.disconnect",       // net::TcpTransport — dropped mid-frame
    "net.short_write",      // net::TcpTransport — sends shrunk to chunks
    "spool.disk_full",      // reporting::SpoolWal — append writes nothing
    "spool.torn_record",    // reporting::SpoolWal — record cut mid-write
    "spool.short_write",    // reporting::SpoolWal — 1-byte writes
    "journal.torn_record",  // net::JournalWriter — record cut mid-write
};

enum class FaultKind : std::uint8_t {
  kThrow,     // raise FaultInjectedError at a compute site
  kStall,     // sleep at a compute site
  kDrop,      // lose a payload entirely
  kCorrupt,   // flip a payload byte
  kTruncate,  // shorten a payload
};

[[nodiscard]] const char* fault_kind_name(FaultKind kind);

/// The error a kThrow fault raises; distinct from organic failures so
/// tests and the CLI can tell injected chaos from real bugs.
class FaultInjectedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct FaultSpec {
  FaultKind kind{FaultKind::kDrop};
  /// Chance a consulted occurrence fires, drawn deterministically from
  /// (seed, site, occurrence). Ignored when `schedule` is non-empty.
  double probability{1.0};
  /// Explicit 0-based occurrence indices that fire (exact-replay mode).
  std::vector<std::uint64_t> schedule;
  /// Sleep duration for kStall decisions.
  std::chrono::milliseconds stall{20};
  /// Cap on total fires at this site (0 = unlimited).
  std::uint64_t max_fires{0};
};

/// A named set of fault sites; the injector's immutable configuration.
class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(std::uint64_t seed) : seed_(seed) {}

  /// Chainable: plan.inject("channel.drop", spec).inject(...).
  FaultPlan& inject(std::string site, FaultSpec spec) {
    sites_[std::move(site)] = std::move(spec);
    return *this;
  }

  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] const std::map<std::string, FaultSpec, std::less<>>& sites()
      const {
    return sites_;
  }
  [[nodiscard]] bool empty() const { return sites_.empty(); }

 private:
  std::uint64_t seed_{1};
  std::map<std::string, FaultSpec, std::less<>> sites_;
};

/// Parse a CLI fault-plan spec. Grammar (comma-separated entries):
///   <site>:<kind>[:p=<prob>][:at=<i+j+k>][:stall=<ms>][:max=<n>]
/// e.g. "channel.drop:drop:p=0.3,pool.task:stall:at=1:stall=50".
/// Sites: kFaultSites. Kinds: throw, stall, drop, corrupt, truncate.
/// Throws std::invalid_argument on a malformed spec or an unknown site.
[[nodiscard]] FaultPlan parse_fault_plan(std::string_view text,
                                         std::uint64_t seed = 1);

/// What a firing site should do; `salt` varies deterministically per
/// occurrence so corruption/truncation positions differ across fires.
struct FaultDecision {
  FaultKind kind{FaultKind::kDrop};
  std::chrono::milliseconds stall{0};
  std::uint64_t occurrence{0};
  std::uint64_t salt{0};
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// Consult the plan for the next occurrence at `site`. Returns the
  /// decision when this occurrence fires, nullopt otherwise (including
  /// for sites the plan never mentions). Thread-safe; occurrence
  /// indices advance per call, so callers that need cross-thread
  /// determinism must consult in a fixed order on one thread.
  [[nodiscard]] std::optional<FaultDecision> next(std::string_view site);

  /// next() plus the compute-site behaviours applied in place: kThrow
  /// raises FaultInjectedError, kStall sleeps. Data-path kinds are
  /// returned for the caller to apply.
  std::optional<FaultDecision> act(std::string_view site);

  /// Total times `site` fired / was consulted.
  [[nodiscard]] std::uint64_t fires(std::string_view site) const;
  [[nodiscard]] std::uint64_t occurrences(std::string_view site) const;

  /// Register one nd_fault_injected_total{site,kind} counter per plan
  /// site (eagerly, so the series exist at zero) and count fires into
  /// them. Not owned; null detaches.
  void attach_telemetry(telemetry::MetricsRegistry* registry,
                        telemetry::Labels labels = {});

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

 private:
  struct SiteState {
    FaultSpec spec;
    std::uint64_t site_hash{0};
    std::uint64_t occurrences{0};
    std::uint64_t fires{0};
    telemetry::Counter* tm_fires{nullptr};
  };

  FaultPlan plan_;
  mutable std::mutex mutex_;
  std::map<std::string, SiteState, std::less<>> states_;
};

/// Apply a compute-site decision: kThrow raises FaultInjectedError
/// mentioning `site`, kStall sleeps for decision.stall; other kinds are
/// data-path faults and are ignored here.
void apply_compute_fault(const FaultDecision& decision,
                         std::string_view site);

/// Deterministically flip one byte of `bytes` (position and XOR pattern
/// derived from `salt`; the pattern is never zero). No-op when empty.
void corrupt_bytes(std::span<std::uint8_t> bytes, std::uint64_t salt);

/// A deterministic strictly-smaller size for truncation faults
/// (salt % size; 0 for empty input).
[[nodiscard]] std::size_t truncated_size(std::size_t size,
                                         std::uint64_t salt);

}  // namespace nd::robustness
