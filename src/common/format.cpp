#include "common/format.hpp"

#include <array>
#include <charconv>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace nd::common {

// Every append_* form renders through std::to_chars, whose fixed
// precision output is specified to match printf's in the C locale, so
// the listing stays byte-identical to the snprintf rendering it
// replaced without a format string parse per number.

void append_uint(std::string& out, std::uint64_t value) {
  char buf[20];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, result.ptr);
}

void append_fixed(std::string& out, double value, int decimals) {
  // The widest finite double in fixed notation: sign, 309 integer
  // digits, the point and up to 64 decimals.
  char buf[384];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value,
                                    std::chars_format::fixed, decimals);
  if (result.ec != std::errc{}) {
    throw std::invalid_argument("append_fixed: precision out of range");
  }
  out.append(buf, result.ptr);
}

void append_bytes(std::string& out, ByteCount bytes) {
  constexpr std::array<const char*, 4> kUnits = {" KB", " MB", " GB", " TB"};
  double value = static_cast<double>(bytes);
  std::size_t unit = 0;
  while (value >= 1000.0 && unit < kUnits.size()) {
    value /= 1000.0;
    ++unit;
  }
  if (unit == 0) {
    append_uint(out, bytes);
    out.append(" B");
    return;
  }
  append_fixed(out, value, 2);
  out.append(kUnits[unit - 1]);
}

void append_ipv4(std::string& out, std::uint32_t addr) {
  for (int shift = 24; shift >= 0; shift -= 8) {
    append_uint(out, (addr >> shift) & 0xFF);
    if (shift != 0) out.push_back('.');
  }
}

std::string format_bytes(ByteCount bytes) {
  std::string out;
  append_bytes(out, bytes);
  return out;
}

std::string format_percent(double fraction, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", decimals, fraction * 100.0);
  return buf;
}

std::string format_fixed(double value, int decimals) {
  std::string out;
  append_fixed(out, value, decimals);
  return out;
}

std::string format_count(std::uint64_t value) {
  std::string digits = std::to_string(value);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  std::size_t lead = digits.size() % 3;
  if (lead == 0) lead = 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - lead) % 3 == 0 && i >= lead) out.push_back(',');
    out.push_back(digits[i]);
  }
  return out;
}

std::string format_scientific(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2e", value);
  return buf;
}

std::string format_ipv4(std::uint32_t addr) {
  std::string out;
  append_ipv4(out, addr);
  return out;
}

}  // namespace nd::common
