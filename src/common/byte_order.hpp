// Unaligned fixed-width loads from byte buffers in a stated byte order,
// and the big-endian stores every wire and disk format here writes.
//
// Each load or store is one memcpy (a single mov on any target that
// allows unaligned access) plus a byte swap only when the stated order
// differs from the host's, so codecs can read and write wire fields at
// arbitrary buffer offsets without alignment or aliasing hazards. A
// record writer sizes its buffer once and stores each field at its
// offset; the appends grow a buffer by one field for writers that
// cannot know their size up front (checkpoint state, packet headers).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

namespace nd::common {

[[nodiscard]] inline std::uint16_t byteswap16(std::uint16_t v) {
  return __builtin_bswap16(v);
}

[[nodiscard]] inline std::uint32_t byteswap32(std::uint32_t v) {
  return __builtin_bswap32(v);
}

[[nodiscard]] inline std::uint64_t byteswap64(std::uint64_t v) {
  return __builtin_bswap64(v);
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

/// Big-endian (network order) u64 at `p`.
[[nodiscard]] inline std::uint64_t load_be64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return std::endian::native == std::endian::big ? v : byteswap64(v);
}

/// Little-endian u32 at `p`.
[[nodiscard]] inline std::uint32_t load_le32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return std::endian::native == std::endian::little ? v : byteswap32(v);
}

/// Little-endian u64 at `p`.
[[nodiscard]] inline std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return std::endian::native == std::endian::little ? v : byteswap64(v);
}

/// Store `v` big-endian (network order) at `p`.
inline void store_be16(std::uint8_t* p, std::uint16_t v) {
  if constexpr (std::endian::native != std::endian::big) v = byteswap16(v);
  std::memcpy(p, &v, sizeof v);
}

inline void store_be32(std::uint8_t* p, std::uint32_t v) {
  if constexpr (std::endian::native != std::endian::big) v = byteswap32(v);
  std::memcpy(p, &v, sizeof v);
}

inline void store_be64(std::uint8_t* p, std::uint64_t v) {
  if constexpr (std::endian::native != std::endian::big) v = byteswap64(v);
  std::memcpy(p, &v, sizeof v);
}

/// Grow `out` by `n` bytes and return where they start.
[[nodiscard]] inline std::uint8_t* grow(std::vector<std::uint8_t>& out,
                                        std::size_t n) {
  const std::size_t at = out.size();
  out.resize(at + n);
  return out.data() + at;
}

/// Append `v` to `out` big-endian (network order).
inline void append_be16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  store_be16(grow(out, sizeof v), v);
}

inline void append_be32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  store_be32(grow(out, sizeof v), v);
}

inline void append_be64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  store_be64(grow(out, sizeof v), v);
}

}  // namespace nd::common
