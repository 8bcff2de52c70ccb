// p2pgen — Gnutella globally unique identifiers.
//
// Every Gnutella descriptor carries a 16-byte GUID.  GUIDs identify
// descriptors for duplicate suppression and reverse-path routing of
// QUERYHIT messages (paper Section 3.1).
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>

#include "stats/rng.hpp"

namespace p2pgen::gnutella {

/// 16-byte descriptor identifier.
struct Guid {
  std::array<std::uint8_t, 16> bytes{};

  /// Generates a fresh GUID from the given RNG.  Follows the modern
  /// servent convention: byte 8 = 0xff (new-style marker), byte 15 = 0.
  static Guid generate(stats::Rng& rng);

  /// All-zero GUID (invalid / sentinel).
  static constexpr Guid zero() noexcept { return Guid{}; }

  bool is_zero() const noexcept;

  /// Lowercase hex string, e.g. "00ff3a...".
  std::string to_string() const;

  /// Compares the two 64-bit words: the defaulted byte-wise form
  /// compiles to an out-of-line memcmp call, and the routing table
  /// compares GUIDs on every probe.
  friend bool operator==(const Guid& a, const Guid& b) noexcept {
    std::uint64_t a_lo, a_hi, b_lo, b_hi;
    std::memcpy(&a_lo, a.bytes.data(), 8);
    std::memcpy(&a_hi, a.bytes.data() + 8, 8);
    std::memcpy(&b_lo, b.bytes.data(), 8);
    std::memcpy(&b_hi, b.bytes.data() + 8, 8);
    return ((a_lo ^ b_lo) | (a_hi ^ b_hi)) == 0;
  }
  auto operator<=>(const Guid&) const = default;
};

/// FNV-1a hash over the GUID bytes, for unordered containers.
struct GuidHash {
  std::size_t operator()(const Guid& g) const noexcept;
};

}  // namespace p2pgen::gnutella
