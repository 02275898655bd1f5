// Ablation bench for the Section 3.3 optimizations (the design choices
// DESIGN.md calls out):
//   sample and hold:   basic -> +preserve entries -> +early removal
//   multistage filter: plain parallel -> +conservative update ->
//                      +shielding -> serial variant
// reporting average error, false positives, and memory high-water on a
// scaled MAG trace with a fixed threshold.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "common/format.hpp"
#include "core/multistage_filter.hpp"
#include "core/sample_and_hold.hpp"
#include "eval/driver.hpp"
#include "eval/table.hpp"
#include "packet/flow_definition.hpp"
#include "trace/presets.hpp"

using namespace nd;

namespace {

struct Row {
  std::string label;
  double avg_error{0.0};
  double false_positive_pct{0.0};
  double false_negative_pct{0.0};
  std::size_t max_memory{0};
};

Row measure(const std::string& label, core::MeasurementDevice& device,
            const trace::TraceConfig& config,
            common::ByteCount threshold) {
  eval::DriverOptions options;
  options.metric_threshold = threshold;
  const auto result = eval::run_single(
      device, config, packet::FlowDefinition::five_tuple(), options);
  return Row{label, result.avg_error_over_threshold.value(),
             result.false_positive_percentage.value(),
             result.false_negative_fraction.value() * 100.0,
             result.max_entries_used};
}

}  // namespace

int main(int argc, char** argv) {
  const auto options =
      bench::parse_options(argc, argv, bench::Options{0.08, 42, 1, 10});
  bench::print_header(
      "Ablation: Section 3.3 optimizations on MAG (5-tuple flows)",
      options);

  auto config = trace::Presets::mag(options.seed);
  config.num_intervals = options.intervals;
  if (options.scale < 1.0) config = trace::scaled(config, options.scale);
  const common::ByteCount threshold = common::LinkFraction::from_percent(
      0.025).of(config.link_capacity_per_interval);

  std::vector<Row> rows;

  {
    core::SampleAndHoldConfig sh;
    sh.flow_memory_entries = bench::unbounded_entries(config);
    sh.threshold = threshold;
    sh.oversampling = 4.0;
    sh.seed = options.seed;

    core::SampleAndHold basic(sh);
    rows.push_back(measure("S&H basic", basic, config, threshold));

    sh.preserve = flowmem::PreservePolicy::kPreserve;
    core::SampleAndHold preserve(sh);
    rows.push_back(
        measure("S&H + preserve entries", preserve, config, threshold));

    sh.preserve = flowmem::PreservePolicy::kEarlyRemoval;
    sh.early_removal_fraction = 0.15;
    sh.oversampling = 4.7;
    core::SampleAndHold early(sh);
    rows.push_back(
        measure("S&H + early removal (R=0.15T)", early, config, threshold));
  }
  {
    core::MultistageFilterConfig msf;
    msf.flow_memory_entries = bench::unbounded_entries(config);
    msf.depth = 4;
    // Deliberately weak stages (k ~ 1.5 over the actual traffic) so the
    // effect of conservative update and shielding is visible.
    msf.buckets_per_stage = 1024;
    msf.threshold = threshold;
    msf.conservative_update = false;
    msf.shielding = false;
    msf.seed = options.seed;

    core::MultistageFilter plain(msf);
    rows.push_back(
        measure("MSF parallel, plain update", plain, config, threshold));

    msf.conservative_update = true;
    core::MultistageFilter conservative(msf);
    rows.push_back(measure("MSF + conservative update", conservative,
                           config, threshold));

    msf.shielding = true;
    msf.preserve = flowmem::PreservePolicy::kPreserve;
    core::MultistageFilter shielded(msf);
    rows.push_back(measure("MSF + shielding + preserve", shielded, config,
                           threshold));

    msf.serial = true;
    msf.conservative_update = false;
    msf.shielding = false;
    msf.preserve = flowmem::PreservePolicy::kClear;
    core::MultistageFilter serial(msf);
    rows.push_back(measure("MSF serial, plain update", serial, config,
                           threshold));
  }

  eval::TextTable table({"Configuration", "Avg error (of T)",
                         "False positives (% small flows)",
                         "False negatives (%)", "Max memory (entries)"});
  for (const auto& row : rows) {
    table.add_row({row.label, common::format_percent(row.avg_error, 2),
                   common::format_fixed(row.false_positive_pct, 4) + "%",
                   common::format_fixed(row.false_negative_pct, 3) + "%",
                   common::format_count(row.max_memory)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "\nExpected: preserving entries cuts S&H error 70-95%% at 40-70%% "
      "more memory; early removal claws back 20-30%% of the memory;\n"
      "multistage filters have 0%% false negatives in every variant; "
      "conservative update cuts false positives by up to ~an order of "
      "magnitude;\nshielding reduces them further across intervals.\n");
  return 0;
}
