// p2pgen — FNV-1a 64-bit, the digest the whole repo uses for byte-identity.
//
// The trace digests (binary_digest, the spool segment digests, the
// streaming and checkpoint replay digests) and the qtrace/timeline
// content digests all fold bytes through this one loop.  Header-only so
// the observability layer can use it without linking the trace library.
#pragma once

#include <cstddef>
#include <cstdint>

namespace p2pgen::util {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// Folds `n` bytes into `hash` in order; seed with kFnvOffsetBasis.
inline std::uint64_t fnv1a_update(std::uint64_t hash, const void* data,
                                  std::size_t n) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    hash ^= bytes[i];
    hash *= kFnvPrime;
  }
  return hash;
}

}  // namespace p2pgen::util
