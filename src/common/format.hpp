// Small formatting helpers used by the evaluation harness, the examples
// and the `ndtm measure` listing. The append_* forms write into a
// caller's string without a temporary; the format_* strings of the same
// values are thin wrappers over them, so there is one renderer each.
#pragma once

#include <string>

#include "common/types.hpp"

namespace nd::common {

/// "1.50 MB", "240 B", "12.35 GB" — decimal units (the paper uses
/// 1 Mbyte = 1,000,000 bytes, see its footnote 2).
[[nodiscard]] std::string format_bytes(ByteCount bytes);

/// Appends format_bytes(bytes) to `out` without a temporary string:
/// the one renderer behind format_bytes and the `ndtm measure` listing.
void append_bytes(std::string& out, ByteCount bytes);

/// "12.34%" with a configurable number of decimals.
[[nodiscard]] std::string format_percent(double fraction, int decimals = 2);

/// Fixed-point double with `decimals` digits, e.g. format_fixed(1.5, 3)
/// == "1.500".
[[nodiscard]] std::string format_fixed(double value, int decimals);

/// Thousands-separated integer: 1234567 -> "1,234,567".
[[nodiscard]] std::string format_count(std::uint64_t value);

/// Scientific notation with 2 significant decimals, e.g. "1.52e-04".
[[nodiscard]] std::string format_scientific(double value);

/// Dotted-quad rendering of a host-order IPv4 address.
[[nodiscard]] std::string format_ipv4(std::uint32_t addr);

/// Appends format_ipv4(addr) to `out`.
void append_ipv4(std::string& out, std::uint32_t addr);

/// Appends the decimal digits of `value` (printf "%llu") to `out`.
void append_uint(std::string& out, std::uint64_t value);

/// Appends `value` with `decimals` fixed digits, exactly as printf
/// "%.*f" renders it, to `out`. Throws std::invalid_argument when
/// `decimals` is above 64.
void append_fixed(std::string& out, double value, int decimals);

}  // namespace nd::common
