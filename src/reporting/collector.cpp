#include "reporting/collector.hpp"

#include <algorithm>
#include <utility>

namespace nd::reporting {

core::Report CollectionChannel::deliver(core::Report report) {
  ++stats_.reports_offered;
  stats_.records_offered += report.flows.size();
  const std::size_t offered_bytes = encoded_size(report);
  stats_.bytes_offered += offered_bytes;

  if (offered_bytes > budget_) {
    const std::uint64_t record_budget =
        budget_ > kHeaderBytes ? (budget_ - kHeaderBytes) / kRecordBytes
                               : 0;
    report.flows.resize(
        std::min<std::uint64_t>(report.flows.size(), record_budget));
  }
  stats_.records_delivered += report.flows.size();
  stats_.bytes_delivered += encoded_size(report);
  return report;
}

CollectionChannel::Delivered CollectionChannel::deliver(
    core::Report report, std::string_view metrics_json) {
  // The trailer travels only when the whole offered payload fits; under
  // budget pressure it is dropped before any flow record is. Decided
  // before shaping truncates the report in place.
  const bool trailer_fits =
      encoded_size(report, metrics_json.size()) <= budget_;
  Delivered out;
  out.report = deliver(std::move(report));
  if (metrics_json.empty()) return out;
  const std::uint64_t trailer_bytes =
      kTrailerLengthBytes + metrics_json.size();
  stats_.bytes_offered += trailer_bytes;
  out.metrics_delivered = trailer_fits;
  if (out.metrics_delivered) stats_.bytes_delivered += trailer_bytes;
  return out;
}

}  // namespace nd::reporting
