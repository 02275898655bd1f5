// Regenerates Figure 7: multistage filter performance for a stage
// strength of k = 3 on the MAG trace with 5-tuple flows — percentage of
// small flows passing the filter versus filter depth (1-4 stages), for
// the general (Theorem 3) bound, the Zipf bound, the serial filter, the
// parallel filter, and the parallel filter with conservative update.
//
// All 12 filters (4 depths x 3 variants) consume the identical packet
// stream, synthesized once per run. The default scale keeps the serial
// filter's per-stage threshold T/d well above the maximum packet size —
// at very small scales T/d collapses below one MTU packet and the serial
// variant becomes degenerate (any full-size packet passes); the bench
// warns if a chosen --scale enters that regime.
#include <cstdio>
#include <memory>
#include <vector>

#include "analysis/multistage_bounds.hpp"
#include "analysis/zipf_bounds.hpp"
#include "bench_common.hpp"
#include "common/format.hpp"
#include "core/multistage_filter.hpp"
#include "eval/driver.hpp"
#include "eval/table.hpp"
#include "packet/flow_definition.hpp"
#include "trace/packet_size_model.hpp"
#include "trace/presets.hpp"

using namespace nd;

namespace {

std::string pct(double v) {
  char buf[32];
  if (v >= 0.01) {
    std::snprintf(buf, sizeof(buf), "%.3f%%", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1e%%", v);
  }
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options =
      bench::parse_options(argc, argv, bench::Options{0.2, 42, 1, 4});
  bench::print_header(
      "Figure 7: filter performance for stage strength k=3 (MAG, "
      "5-tuple flows)",
      options);

  auto config = trace::Presets::mag();
  config.num_intervals = options.intervals;
  if (options.scale < 1.0) config = trace::scaled(config, options.scale);

  // "We used a threshold of a 4096th of the maximum traffic" with
  // k = T*b/C = 3  =>  b = 3 * 4096 = 12,288 buckets per stage.
  const common::ByteCount traffic = config.bytes_per_interval;
  const common::ByteCount threshold =
      std::max<common::ByteCount>(traffic / 4096, 1);
  const std::uint32_t buckets = 3 * 4096;
  if (threshold / 4 <= trace::kMaxPacketBytes) {
    std::printf(
        "WARNING: T/4 = %llu bytes <= max packet size; the serial "
        "filter is degenerate at this scale.\n\n",
        static_cast<unsigned long long>(threshold / 4));
  }

  constexpr std::uint32_t kDepths[] = {1, 2, 3, 4};
  struct Variant {
    const char* label;
    bool serial;
    bool conservative;
  };
  constexpr Variant kVariants[] = {
      {"serial", true, false},
      {"parallel", false, false},
      {"conservative", false, true},
  };

  // measured[depth_index][variant_index] summed over runs.
  double measured[4][3] = {};

  for (std::uint32_t run = 0; run < options.runs; ++run) {
    auto trace_config = config;
    trace_config.seed = options.seed + run * 13;

    std::vector<std::unique_ptr<core::MultistageFilter>> filters;
    eval::DriverOptions driver_options;
    driver_options.metric_threshold = threshold;
    eval::Driver driver(packet::FlowDefinition::five_tuple(),
                        driver_options);
    for (const auto depth : kDepths) {
      for (const auto& variant : kVariants) {
        core::MultistageFilterConfig filter;
        filter.flow_memory_entries =
            bench::unbounded_entries(trace_config);
        filter.depth = depth;
        filter.buckets_per_stage = buckets;
        filter.threshold = threshold;
        filter.serial = variant.serial;
        filter.conservative_update = variant.conservative;
        filter.shielding = false;
        filter.seed = options.seed * 131 + run;
        filters.push_back(
            std::make_unique<core::MultistageFilter>(filter));
        driver.add_device(variant.label, *filters.back());
      }
    }
    trace::TraceSynthesizer synth(trace_config);
    driver.run(synth);
    const auto results = driver.results();
    for (std::size_t d = 0; d < 4; ++d) {
      for (std::size_t v = 0; v < 3; ++v) {
        measured[d][v] +=
            results[d * 3 + v].false_positive_percentage.value();
      }
    }
  }

  analysis::MultistageParams params;
  params.buckets = buckets;
  params.flows = config.flow_count;
  params.capacity = traffic;  // maximum traffic, not link capacity
  params.threshold = threshold;
  const auto zipf_sizes = analysis::zipf_flow_sizes(
      config.flow_count, config.zipf_alpha, traffic);

  eval::TextTable table({"Depth", "General bound", "Zipf bound",
                         "Serial filter", "Parallel filter",
                         "Conservative update"});
  for (std::size_t d = 0; d < 4; ++d) {
    params.depth = kDepths[d];
    const double general_pct =
        100.0 * std::min(analysis::expected_flows_passing(params) /
                             params.flows,
                         1.0);
    const double zipf_pct =
        analysis::multistage_false_positive_percentage_zipf(params,
                                                            zipf_sizes);
    table.add_row({std::to_string(kDepths[d]), pct(general_pct),
                   pct(zipf_pct), pct(measured[d][0] / options.runs),
                   pct(measured[d][1] / options.runs),
                   pct(measured[d][2] / options.runs)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "\nExpected shape (Figure 7): every line falls roughly "
      "exponentially with depth;\nmeasured filters sit well below both "
      "bounds; parallel beats serial as depth grows;\nconservative "
      "update improves on the parallel filter by up to an order of "
      "magnitude.\n");
  return 0;
}
