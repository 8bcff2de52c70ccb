// p2pgen — CRC-32 (IEEE 802.3, the zlib polynomial), slicing-by-8.
//
// The one CRC-32 in the repo: the spool frames (trace::crc32) and the
// qtrace/timeline sidecar trailers (format v2) all checksum through it.
// Header-only so the observability layer can use it without linking the
// trace library.
//
// Slicing-by-8 folds eight input bytes per step through eight 256-entry
// tables (Kounavis & Berry); table k maps a byte to its CRC contribution
// k positions further from the end of the step.  The values are those of
// the classic bytewise reflected loop, which still handles the tail and
// every byte on hosts that are not little-endian.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace p2pgen::util {

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xFFu];
    }
  }
  return t;
}

inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

}  // namespace detail

/// Streaming form: seed with crc32_init(), fold chunks in order with
/// crc32_update(), finish with crc32_final().  Any chunking gives the
/// one-shot value.
inline constexpr std::uint32_t crc32_init() noexcept { return 0xFFFFFFFFu; }

inline std::uint32_t crc32_update(std::uint32_t state, const void* data,
                                  std::size_t n) noexcept {
  const auto& t = detail::kCrc32Tables;
  const auto* p = static_cast<const unsigned char*>(data);
  if constexpr (std::endian::native == std::endian::little) {
    for (; n >= 8; n -= 8, p += 8) {
      std::uint32_t lo = 0;
      std::uint32_t hi = 0;
      std::memcpy(&lo, p, sizeof(lo));
      std::memcpy(&hi, p + 4, sizeof(hi));
      lo ^= state;
      state = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
              t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
              t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
              t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
  }
  for (; n > 0; --n, ++p) {
    state = t[0][(state ^ *p) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

inline constexpr std::uint32_t crc32_final(std::uint32_t state) noexcept {
  return state ^ 0xFFFFFFFFu;
}

/// One-shot convenience over a whole buffer.
inline std::uint32_t crc32(const void* data, std::size_t n) noexcept {
  return crc32_final(crc32_update(crc32_init(), data, n));
}

}  // namespace p2pgen::util
