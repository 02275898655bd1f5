// Ablation: packet arrival burstiness.
//
// Within one measurement interval both algorithms are driven only by
// per-flow byte totals and (for the filter) the interleaving of flows
// across shared counters. This bench shows that replacing uniform
// packet scattering with TCP-like packet trains leaves the headline
// metrics essentially unchanged — the guarantees do not depend on a
// friendly arrival process. (The serial filter, whose stage occupancy
// is order-dependent, moves the most.)
#include <cstdio>

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

struct Metrics {
  double fn_pct;
  double fp_pct;
  double error_pct;
};

Metrics run(core::MeasurementDevice& device,
            const trace::TraceConfig& config,
            common::ByteCount threshold) {
  eval::DriverOptions options;
  options.metric_threshold = threshold;
  const auto result = eval::run_single(
      device, config, packet::FlowDefinition::five_tuple(), options);
  return Metrics{result.false_negative_fraction.value() * 100.0,
                 result.false_positive_percentage.value(),
                 result.avg_error_over_threshold.value() * 100.0};
}

}  // namespace

int main(int argc, char** argv) {
  const auto options =
      bench::parse_options(argc, argv, bench::Options{0.08, 42, 1, 6});
  bench::print_header("Ablation: uniform vs bursty packet arrivals",
                      options);

  auto base = trace::Presets::mag(options.seed);
  base.num_intervals = options.intervals;
  if (options.scale < 1.0) base = trace::scaled(base, options.scale);
  const common::ByteCount threshold =
      common::LinkFraction::from_percent(0.025)
          .of(base.link_capacity_per_interval);

  auto bursty = base;
  bursty.arrival_model = trace::TraceConfig::ArrivalModel::kBursty;
  bursty.burst_mean_packets = 30.0;
  bursty.burst_spread = 0.005;

  eval::TextTable table({"Device / arrivals", "False negatives",
                         "False positives (% small)", "Avg error (of T)"});

  auto row = [&](const char* label, const trace::TraceConfig& config,
                 bool serial) {
    if (serial) {
      core::MultistageFilterConfig msf;
      msf.flow_memory_entries = bench::unbounded_entries(config);
      msf.depth = 4;
      msf.buckets_per_stage = 3 * 4096;
      msf.threshold = threshold;
      msf.serial = true;
      msf.conservative_update = false;
      msf.seed = options.seed;
      core::MultistageFilter device(msf);
      const auto m = run(device, config, threshold);
      table.add_row({label, common::format_fixed(m.fn_pct, 3) + "%",
                     common::format_fixed(m.fp_pct, 4) + "%",
                     common::format_fixed(m.error_pct, 2) + "%"});
      return;
    }
    {
      core::SampleAndHoldConfig sh;
      sh.flow_memory_entries = bench::unbounded_entries(config);
      sh.threshold = threshold;
      sh.oversampling = 4.0;
      sh.seed = options.seed;
      core::SampleAndHold device(sh);
      const auto m = run(device, config, threshold);
      table.add_row({(std::string("S&H ") + label).c_str(),
                     common::format_fixed(m.fn_pct, 3) + "%",
                     common::format_fixed(m.fp_pct, 4) + "%",
                     common::format_fixed(m.error_pct, 2) + "%"});
    }
    {
      core::MultistageFilterConfig msf;
      msf.flow_memory_entries = bench::unbounded_entries(config);
      msf.depth = 4;
      msf.buckets_per_stage = 3 * 4096;
      msf.threshold = threshold;
      msf.conservative_update = true;
      msf.seed = options.seed;
      core::MultistageFilter device(msf);
      const auto m = run(device, config, threshold);
      table.add_row({(std::string("MSF ") + label).c_str(),
                     common::format_fixed(m.fn_pct, 3) + "%",
                     common::format_fixed(m.fp_pct, 4) + "%",
                     common::format_fixed(m.error_pct, 2) + "%"});
    }
  };

  row("uniform arrivals", base, false);
  row("bursty arrivals", bursty, false);
  row("MSF-serial uniform", base, true);
  row("MSF-serial bursty", bursty, true);

  std::printf("%s", table.to_string().c_str());
  std::printf(
      "\nExpected: sample and hold and the parallel filter are "
      "essentially arrival-order insensitive\n(false negatives stay 0 "
      "for the filter by construction); only the serial filter shifts "
      "noticeably.\n");
  return 0;
}
