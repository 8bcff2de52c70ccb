// p2pgen — little-endian stores and loads of fixed-width integers.
//
// The byte order of the shard sidecar (obs/sidecar.hpp) and of the
// qtrace and timeline records it holds, whose digests hash the same
// bytes.  Header-only so the observability layer can use it without
// linking anything.
#pragma once

#include <cstdint>

namespace p2pgen::util {

inline void store_le32(unsigned char* out, std::uint32_t v) noexcept {
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xffU);
  }
}

inline void store_le64(unsigned char* out, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xffU);
  }
}

inline std::uint32_t load_le32(const unsigned char* in) noexcept {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(in[i]) << (8 * i);
  return v;
}

inline std::uint64_t load_le64(const unsigned char* in) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  return v;
}

}  // namespace p2pgen::util
