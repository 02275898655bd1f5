#include "reporting/collector.hpp"

#include <algorithm>
#include <utility>

namespace nd::reporting {

BudgetFit fit_to_budget(const core::Report& report,
                        std::size_t metrics_json_bytes, std::uint64_t budget) {
  BudgetFit fit;
  fit.trailer_fits = encoded_size(report, metrics_json_bytes) <= budget;
  const std::uint64_t fixed_bytes =
      kHeaderBytes + report.shards.size() * kShardRecordBytes;
  fit.fixed_fits = fixed_bytes <= budget;
  fit.flows = report.flows.size();
  if (encoded_size(report) > budget) {
    const std::uint64_t record_budget =
        fit.fixed_fits ? (budget - fixed_bytes) / kRecordBytes : 0;
    fit.flows = static_cast<std::size_t>(
        std::min<std::uint64_t>(fit.flows, record_budget));
  }
  return fit;
}

core::Report CollectionChannel::deliver(core::Report report) {
  return deliver(std::move(report), {}).report;
}

CollectionChannel::Delivered CollectionChannel::deliver(
    core::Report report, std::string_view metrics_json) {
  // Decided on the offered report, before it is truncated in place.
  const BudgetFit fit = fit_to_budget(report, metrics_json.size(), budget_);
  ++stats_.reports_offered;
  stats_.records_offered += report.flows.size();
  stats_.bytes_offered += encoded_size(report);
  report.flows.resize(fit.flows);
  stats_.records_delivered += report.flows.size();
  stats_.bytes_delivered += encoded_size(report);
  Delivered out{std::move(report), false};
  if (metrics_json.empty()) return out;
  const std::uint64_t trailer_bytes =
      kTrailerLengthBytes + metrics_json.size();
  stats_.bytes_offered += trailer_bytes;
  out.metrics_delivered = fit.trailer_fits;
  if (out.metrics_delivered) stats_.bytes_delivered += trailer_bytes;
  return out;
}

}  // namespace nd::reporting
