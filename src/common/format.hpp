// Small formatting helpers used by the evaluation harness, the benches
// and the `ndtm measure` listing. The write_* forms store text at a
// caller's char buffer and return its end; the append_* and format_*
// forms of the same values are thin wrappers over them, so there is one
// renderer each.
#pragma once

#include <cstddef>
#include <string>

#include "common/types.hpp"

namespace nd::common {

/// The write_* functions copy short fixed-width chunks, so each may also
/// store up to kWriteSlack bytes past the end it returns: a caller's
/// buffer holds the longest rendering plus kWriteSlack.
inline constexpr std::size_t kWriteSlack = 3;
/// Longest write_bytes rendering: "18446744.07 TB" (UINT64_MAX).
inline constexpr std::size_t kMaxBytesChars = 14;

/// "1.50 MB", "240 B", "12.35 GB" — decimal units (the paper uses
/// 1 Mbyte = 1,000,000 bytes, see its footnote 2).
[[nodiscard]] std::string format_bytes(ByteCount bytes);

/// Writes format_bytes(bytes): the one renderer behind format_bytes,
/// append_bytes and the `ndtm measure` listing.
char* write_bytes(char* out, ByteCount bytes);

/// Appends format_bytes(bytes) to `out`.
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

/// Writes format_ipv4(addr), at most "255.255.255.255".
char* write_ipv4(char* out, std::uint32_t addr);

/// Writes the decimal digits of `value` (printf "%llu"); stores nothing
/// past the end it returns.
char* write_uint(char* out, std::uint64_t value);

/// Appends the decimal digits of `value` to `out`.
void append_uint(std::string& out, std::uint64_t value);

/// Appends `value` with `decimals` fixed digits, exactly as printf
/// "%.*f" renders it, to `out`. Throws std::invalid_argument when
/// `decimals` is above 64.
void append_fixed(std::string& out, double value, int decimals);

}  // namespace nd::common
