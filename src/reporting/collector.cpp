#include "reporting/collector.hpp"

#include <algorithm>

namespace nd::reporting {

core::Report CollectionChannel::deliver(const core::Report& report) {
  ++stats_.reports_offered;
  stats_.records_offered += report.flows.size();
  stats_.bytes_offered += encoded_size(report);

  core::Report delivered = report;
  if (encoded_size(report) > budget_) {
    const std::uint64_t record_budget =
        budget_ > kHeaderBytes ? (budget_ - kHeaderBytes) / kRecordBytes
                               : 0;
    delivered.flows.resize(std::min<std::uint64_t>(
        delivered.flows.size(), record_budget));
  }
  stats_.records_delivered += delivered.flows.size();
  stats_.bytes_delivered += encoded_size(delivered);
  return delivered;
}

CollectionChannel::Delivered CollectionChannel::deliver(
    const core::Report& report, std::string_view metrics_json) {
  Delivered out;
  out.report = deliver(report);
  if (metrics_json.empty()) return out;
  // The trailer travels only when the whole payload fits; under budget
  // pressure it is dropped before any flow record is.
  const std::uint64_t trailer_bytes =
      kTrailerLengthBytes + metrics_json.size();
  stats_.bytes_offered += trailer_bytes;
  out.metrics_delivered =
      encoded_size(report, metrics_json.size()) <= budget_;
  if (out.metrics_delivered) stats_.bytes_delivered += trailer_bytes;
  return out;
}

}  // namespace nd::reporting
