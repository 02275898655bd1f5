// Collection-channel model: the constrained path from the router to the
// management station.
//
// Section 2: "[9] reports loss rates of up to 90% using basic NetFlow";
// the collection server or its network connection is the bottleneck.
// CollectionChannel models a per-interval byte budget: a report is
// truncated record by record once the budget is exhausted (records are
// delivered in report order, so devices should report largest-first if
// they want the heavy hitters to survive truncation).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "core/device.hpp"
#include "reporting/record_codec.hpp"

namespace nd::reporting {

struct ChannelStats {
  std::uint64_t reports_offered{0};
  std::uint64_t records_offered{0};
  std::uint64_t records_delivered{0};
  std::uint64_t bytes_offered{0};
  std::uint64_t bytes_delivered{0};

  [[nodiscard]] double record_loss_rate() const {
    return records_offered == 0
               ? 0.0
               : 1.0 - static_cast<double>(records_delivered) /
                           static_cast<double>(records_offered);
  }
};

/// What of a report fits `budget` encoded bytes under the one
/// largest-first-keep policy the channel and the spool share: the
/// metrics trailer travels only if the whole payload fits; the header
/// and the shard records always travel; the flows get what is left, in
/// kRecordBytes records. Keeping the first `flows` records keeps the
/// heavy hitters only when the report is sorted largest-first.
struct BudgetFit {
  /// The whole payload, trailer included, fits.
  bool trailer_fits{false};
  /// The header and the shard records fit (the spool drops a report
  /// whose fixed part does not; the channel sends it without flows).
  bool fixed_fits{false};
  /// Flow records kept: all of them when the report without its
  /// trailer fits.
  std::size_t flows{0};
};
[[nodiscard]] BudgetFit fit_to_budget(const core::Report& report,
                                      std::size_t metrics_json_bytes,
                                      std::uint64_t budget);

/// Budget shaping only: transit faults and retries belong to
/// ResilientChannel, which shapes each report here once before its
/// first delivery attempt.
///
/// deliver() takes the report by value and truncates it in place: a
/// caller that is done with its report moves it in and no flow is
/// copied; a caller that keeps its report passes an lvalue and pays
/// for exactly one copy.
class CollectionChannel {
 public:
  /// `bytes_per_interval` is the channel's per-interval capacity.
  explicit CollectionChannel(std::uint64_t bytes_per_interval)
      : budget_(bytes_per_interval) {}

  /// Offer one interval's report; returns what actually arrives at the
  /// management station (a prefix of the report's records).
  core::Report deliver(core::Report report);

  /// Offer a report plus a v3 metrics trailer. The trailer is the first
  /// thing dropped under pressure — flow records keep priority on the
  /// constrained link — so `metrics_delivered` is true only when the
  /// whole offered payload (records and trailer) fits the interval
  /// budget.
  struct Delivered {
    core::Report report;
    bool metrics_delivered{false};
  };
  Delivered deliver(core::Report report, std::string_view metrics_json);

  [[nodiscard]] const ChannelStats& stats() const { return stats_; }

 private:
  std::uint64_t budget_;
  ChannelStats stats_;
};

}  // namespace nd::reporting
