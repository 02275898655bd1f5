// Unaligned fixed-width loads from byte buffers in a stated byte order.
//
// Each load is one memcpy (a single mov on any target that allows
// unaligned access) plus a byte swap only when the stated order differs
// from the host's, so decoders can read wire fields at arbitrary buffer
// offsets without alignment or aliasing hazards.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>

namespace nd::common {

[[nodiscard]] inline std::uint16_t byteswap16(std::uint16_t v) {
  return __builtin_bswap16(v);
}

[[nodiscard]] inline std::uint32_t byteswap32(std::uint32_t v) {
  return __builtin_bswap32(v);
}

/// Big-endian (network order) u16 at `p`.
[[nodiscard]] inline std::uint16_t load_be16(const std::uint8_t* p) {
  std::uint16_t v;
  std::memcpy(&v, p, sizeof v);
  return std::endian::native == std::endian::big ? v : byteswap16(v);
}

/// Big-endian (network order) u32 at `p`.
[[nodiscard]] inline std::uint32_t load_be32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return std::endian::native == std::endian::big ? v : byteswap32(v);
}

/// Little-endian u32 at `p`.
[[nodiscard]] inline std::uint32_t load_le32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return std::endian::native == std::endian::little ? v : byteswap32(v);
}

}  // namespace nd::common
