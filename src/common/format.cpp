#include "common/format.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <iterator>
#include <string>

namespace nd::common {

// Integers render through std::to_chars, IPv4 octets and the hundredths
// of a byte count through tables, and the general "%.*f" of
// append_fixed through std::to_chars(fixed), which is specified to
// match printf in the C locale. Every rendering is byte-identical to
// the snprintf one it replaced (tests/core/listing_test.cpp).

namespace {

/// Longest write_ipv4 rendering: "255.255.255.255".
constexpr std::size_t kMaxIpv4Chars = 15;
/// Longest write_uint rendering: UINT64_MAX's 20 digits.
constexpr std::size_t kMaxUintChars = 20;

/// One IPv4 octet's digits followed by '.', left-aligned in four bytes,
/// so an octet is one fixed-width copy.
struct Octet {
  std::array<char, 4> text{};
  std::uint8_t digits{0};
};

constexpr std::array<Octet, 256> make_octets() {
  std::array<Octet, 256> octets{};
  for (unsigned value = 0; value < 256; ++value) {
    Octet& octet = octets[value];
    std::size_t i = 0;
    if (value >= 100) octet.text[i++] = static_cast<char>('0' + value / 100);
    if (value >= 10) {
      octet.text[i++] = static_cast<char>('0' + value / 10 % 10);
    }
    octet.text[i++] = static_cast<char>('0' + value % 10);
    octet.text[i] = '.';
    octet.digits = static_cast<std::uint8_t>(i);
  }
  return octets;
}

constexpr std::array<Octet, 256> kOctets = make_octets();

/// "00".."99": two decimals in one two-byte copy.
constexpr std::array<char, 200> make_digit_pairs() {
  std::array<char, 200> pairs{};
  for (std::size_t value = 0; value < 100; ++value) {
    pairs[2 * value] = static_cast<char>('0' + value / 10);
    pairs[2 * value + 1] = static_cast<char>('0' + value % 10);
  }
  return pairs;
}

constexpr std::array<char, 200> kDigitPairs = make_digit_pairs();

/// printf "%.2f" of 1 <= value < 1e9: the exact binary value rounded to
/// hundredths, ties to even. nearbyint(value * 100) can be one off,
/// because the product is rounded before it is; the fma residual
/// value * 100 - n is exact in this range (a multiple of value's ulp,
/// below 1 in magnitude), so comparing it with 1/2 corrects n.
char* write_hundredths(char* out, double value) {
  const double rounded = std::nearbyint(value * 100.0);
  const double residual = std::fma(value, 100.0, -rounded);
  auto hundredths = static_cast<std::uint64_t>(rounded);
  const bool odd = (hundredths & 1U) != 0;
  if (residual > 0.5 || (residual == 0.5 && odd)) {
    ++hundredths;
  } else if (residual < -0.5 || (residual == -0.5 && odd)) {
    --hundredths;
  }
  out = write_uint(out, hundredths / 100);
  *out = '.';
  std::memcpy(out + 1, &kDigitPairs[2 * (hundredths % 100)], 2);
  return out + 3;
}

}  // namespace

char* write_uint(char* out, std::uint64_t value) {
  // to_chars gets exactly the digits' room, so no pointer past the
  // caller's buffer is ever formed.
  std::size_t digits = 1;
  for (std::uint64_t rest = value; rest >= 10; rest /= 10) ++digits;
  return std::to_chars(out, out + digits, value).ptr;
}

void append_uint(std::string& out, std::uint64_t value) {
  char buf[kMaxUintChars];
  out.append(buf, write_uint(buf, value));
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

char* write_bytes(char* out, ByteCount bytes) {
  // Unit suffixes with their terminators: one four-byte copy each.
  constexpr char kUnits[][4] = {" KB", " MB", " GB", " TB"};
  if (bytes < 1000) {
    out = write_uint(out, bytes);
    std::memcpy(out, " B", 2);
    return out + 2;
  }
  // The unit's value is the count divided by 1000 once per unit, in
  // doubles, as printf "%.2f" was always given it. A 64-bit count stays
  // below 1.9e7 TB, well inside write_hundredths' exact range.
  double value = static_cast<double>(bytes);
  std::size_t unit = 0;
  while (value >= 1000.0 && unit < std::size(kUnits)) {
    value /= 1000.0;
    ++unit;
  }
  out = write_hundredths(out, value);
  std::memcpy(out, kUnits[unit - 1], 4);
  return out + 3;
}

void append_bytes(std::string& out, ByteCount bytes) {
  char buf[kMaxBytesChars + kWriteSlack];
  out.append(buf, write_bytes(buf, bytes));
}

char* write_ipv4(char* out, std::uint32_t addr) {
  for (int shift = 24; shift > 0; shift -= 8) {
    const Octet& octet = kOctets[(addr >> shift) & 0xFF];
    std::memcpy(out, octet.text.data(), 4);
    out += octet.digits + 1;
  }
  const Octet& last = kOctets[addr & 0xFF];
  std::memcpy(out, last.text.data(), 4);
  return out + last.digits;
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
  char buf[kMaxIpv4Chars + kWriteSlack];
  return std::string(buf, write_ipv4(buf, addr));
}

}  // namespace nd::common
