// Shared helpers for the table/figure regeneration binaries.
//
// Every bench accepts:
//   --scale S      trace scale factor in (0,1]   (default per bench)
//   --seed N       master seed                    (default 42)
//   --runs N       independent runs to average    (default per bench)
//   --intervals N  measurement intervals          (default per bench)
// Unknown flags, and a value that is malformed, not finite or (for all
// but --seed) not positive, exit 2 with a usage message. Defaults are
// sized so the whole bench suite runs in well under a minute; pass
// --scale 1 (and more runs/intervals) to reproduce at the paper's full
// trace sizes.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <system_error>
#include <type_traits>

namespace nd::bench {

struct Options {
  double scale{0.05};
  std::uint64_t seed{42};
  std::uint32_t runs{3};
  std::uint32_t intervals{12};
};

/// All of `text` as a T (finite, and above 0 when `positive`), or exit
/// 2 naming the flag.
template <typename T>
T parse_value(const char* flag, const char* text, bool positive) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [stop, error] = std::from_chars(text, end, value);
  bool ok = error == std::errc() && stop == end && stop != text;
  if constexpr (std::is_floating_point_v<T>) {
    ok = ok && std::isfinite(value);
  }
  if (ok && positive) ok = value > 0;
  if (!ok) {
    std::fprintf(stderr, "%s expects a %s number, got '%s'\n", flag,
                 positive ? "positive" : "whole", text);
    std::exit(2);
  }
  return value;
}

inline Options parse_options(int argc, char** argv, Options defaults) {
  Options options = defaults;
  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--scale") == 0) {
      options.scale =
          parse_value<double>("--scale", need_value("--scale"), true);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      options.seed = parse_value<std::uint64_t>(
          "--seed", need_value("--seed"), false);
    } else if (std::strcmp(argv[i], "--runs") == 0) {
      options.runs = parse_value<std::uint32_t>(
          "--runs", need_value("--runs"), true);
    } else if (std::strcmp(argv[i], "--intervals") == 0) {
      options.intervals = parse_value<std::uint32_t>(
          "--intervals", need_value("--intervals"), true);
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "usage: %s [--scale S] [--seed N] [--runs N] [--intervals N]\n",
          argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", argv[i]);
      std::exit(2);
    }
  }
  return options;
}

inline void print_header(const char* title, const Options& options) {
  std::printf("=== %s ===\n", title);
  std::printf("(scale=%.3g seed=%llu runs=%u intervals=%u)\n\n",
              options.scale,
              static_cast<unsigned long long>(options.seed), options.runs,
              options.intervals);
}

}  // namespace nd::bench
