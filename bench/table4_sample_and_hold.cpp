// Regenerates Table 4: summary of sample and hold measurements for a
// threshold of 0.025% of the link and an oversampling of 4 — maximum
// memory usage (entries) and average error (relative to the threshold)
// for the general bound, the Zipf bound, the basic algorithm, preserving
// entries, and early removal; across the paper's five trace/flow-
// definition columns.
#include <cstdio>
#include <memory>
#include <vector>

#include "analysis/sample_hold_bounds.hpp"
#include "analysis/zipf_bounds.hpp"
#include "bench_common.hpp"
#include "common/format.hpp"
#include "core/sample_and_hold.hpp"
#include "eval/driver.hpp"
#include "eval/table.hpp"
#include "packet/flow_definition.hpp"
#include "trace/presets.hpp"
#include "trace/stats.hpp"

using namespace nd;

namespace {

struct Column {
  std::string label;
  trace::TraceConfig config;
  packet::FlowKeyKind kind;
};

struct Measured {
  std::size_t max_memory{0};
  double avg_error_sum{0.0};
  std::uint32_t observations{0};

  [[nodiscard]] std::string cell(common::ByteCount /*threshold*/) const {
    const double avg =
        observations ? avg_error_sum / observations : 0.0;
    return common::format_count(max_memory) + " / " +
           common::format_percent(avg, 2);
  }
};

}  // namespace

int main(int argc, char** argv) {
  const auto options =
      bench::parse_options(argc, argv, bench::Options{0.08, 42, 2, 10});
  bench::print_header(
      "Table 4: sample and hold, threshold 0.025% of link, oversampling 4",
      options);

  std::vector<Column> columns;
  auto add = [&](const std::string& label, trace::TraceConfig config,
                 packet::FlowKeyKind kind) {
    config.num_intervals = options.intervals;
    if (options.scale < 1.0) config = trace::scaled(config, options.scale);
    columns.push_back(Column{label, std::move(config), kind});
  };
  add("MAG 5-tuple", trace::Presets::mag(), packet::FlowKeyKind::kFiveTuple);
  add("MAG dst-IP", trace::Presets::mag(),
      packet::FlowKeyKind::kDestinationIp);
  add("MAG AS-pair", trace::Presets::mag(), packet::FlowKeyKind::kAsPair);
  add("IND 5-tuple", trace::Presets::ind(), packet::FlowKeyKind::kFiveTuple);
  add("COS 5-tuple", trace::Presets::cos(), packet::FlowKeyKind::kFiveTuple);

  std::vector<std::string> general_row{"General bound"};
  std::vector<std::string> zipf_row{"Zipf bound"};
  std::vector<std::string> basic_row{"Sample and hold"};
  std::vector<std::string> preserve_row{"+ preserve entries"};
  std::vector<std::string> early_row{"+ early removal"};

  for (const auto& column : columns) {
    const common::ByteCount threshold = common::LinkFraction::from_percent(
        0.025).of(column.config.link_capacity_per_interval);

    // Analytical rows. Expected relative error is 1/O = 25%; memory is
    // the 99.9% bound.
    analysis::SampleHoldParams params;
    params.oversampling = 4.0;
    params.threshold = threshold;
    params.capacity = column.config.link_capacity_per_interval;
    general_row.push_back(
        common::format_count(static_cast<std::uint64_t>(
            analysis::entries_bound(params, 0.001))) +
        " / 25%");

    Measured basic, preserve, early;
    for (std::uint32_t run = 0; run < options.runs; ++run) {
      auto config = column.config;
      config.seed = options.seed + run;

      core::SampleAndHoldConfig base;
      base.flow_memory_entries = bench::unbounded_entries(config);
      base.threshold = threshold;
      base.oversampling = 4.0;
      base.seed = options.seed * 977 + run;

      core::SampleAndHold device_basic(base);
      base.preserve = flowmem::PreservePolicy::kPreserve;
      core::SampleAndHold device_preserve(base);
      base.preserve = flowmem::PreservePolicy::kEarlyRemoval;
      base.early_removal_fraction = 0.15;
      base.oversampling = 4.7;  // compensates early removal's misses
      core::SampleAndHold device_early(base);

      trace::TraceSynthesizer synth(config);
      eval::DriverOptions driver_options;
      driver_options.metric_threshold = threshold;
      eval::Driver driver(
          column.kind == packet::FlowKeyKind::kFiveTuple
              ? packet::FlowDefinition::five_tuple()
          : column.kind == packet::FlowKeyKind::kDestinationIp
              ? packet::FlowDefinition::destination_ip()
              : packet::FlowDefinition::as_pair(synth.as_resolver()),
          driver_options);
      driver.add_device("basic", device_basic);
      driver.add_device("preserve", device_preserve);
      driver.add_device("early", device_early);
      driver.run(synth);

      const auto results = driver.results();
      auto fold = [](Measured& m, const eval::DeviceResult& r) {
        m.max_memory = std::max(m.max_memory, r.max_entries_used);
        m.avg_error_sum += r.avg_error_over_threshold.value();
        ++m.observations;
      };
      fold(basic, results[0]);
      fold(preserve, results[1]);
      fold(early, results[2]);
    }

    // Zipf bound uses the column's flow count under its own definition;
    // approximate with the 5-tuple flow count scaled by the definition's
    // typical aggregation (measured once from the first interval).
    {
      auto config = column.config;
      config.seed = options.seed;
      config.num_intervals = 1;
      trace::TraceSynthesizer synth(config);
      const auto packets = synth.next_interval();
      const auto definition =
          column.kind == packet::FlowKeyKind::kFiveTuple
              ? packet::FlowDefinition::five_tuple()
          : column.kind == packet::FlowKeyKind::kDestinationIp
              ? packet::FlowDefinition::destination_ip()
              : packet::FlowDefinition::as_pair(synth.as_resolver());
      const auto flows = trace::exact_flow_sizes(packets, definition);
      const auto sizes = analysis::zipf_flow_sizes(
          flows.size(), column.config.zipf_alpha,
          column.config.bytes_per_interval);
      zipf_row.push_back(
          common::format_count(static_cast<std::uint64_t>(
              analysis::sample_hold_entries_zipf(params, sizes, false,
                                                 0.001))) +
          " / 25%");
    }

    basic_row.push_back(basic.cell(threshold));
    preserve_row.push_back(preserve.cell(threshold));
    early_row.push_back(early.cell(threshold));
  }

  std::vector<std::string> header{"Algorithm"};
  for (const auto& column : columns) header.push_back(column.label);
  eval::TextTable table(header);
  table.add_row(general_row);
  table.add_row(zipf_row);
  table.add_row(basic_row);
  table.add_row(preserve_row);
  table.add_row(early_row);
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "\nCells: maximum memory usage (entries) / average error relative "
      "to the threshold.\nExpected orderings (Table 4): general >= Zipf "
      ">= measured memory; preserving entries cuts the error sharply;\n"
      "early removal keeps the error low while reducing memory vs "
      "preserve.\n");
  return 0;
}
