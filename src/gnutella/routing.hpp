// p2pgen — GUID routing table.
//
// Per the Gnutella protocol (paper Section 3.1): forwarding a QUERY more
// than once is prevented by remembering its GUID together with the
// directly-connected peer it was first received from; QUERYHITs are routed
// back along that reverse path.  Entries expire after a configurable
// period (typically 10 minutes).
#pragma once

#include <cstdint>
#include <cstring>
#include <deque>
#include <optional>
#include <unordered_map>

#include "gnutella/guid.hpp"

namespace p2pgen::gnutella {

/// Identifier of a directly-connected peer (the sim layer's connection id).
using PeerLink = std::uint64_t;

/// GUID -> origin-link table with time-based expiry.
class RoutingTable {
 public:
  /// `expiry_seconds` — how long an entry stays routable (spec: ~600 s).
  explicit RoutingTable(double expiry_seconds = 600.0);

  /// Records that `guid` was first received over `from`.  Returns true if
  /// this is the first sighting (the message should be processed /
  /// forwarded), false if the GUID is a duplicate (drop it).
  /// `now` is the current time in seconds; it must be non-decreasing
  /// across calls.
  bool note_seen(const Guid& guid, PeerLink from, double now);

  /// Reverse-path lookup for a response GUID: the link the original
  /// request arrived on, or nullopt if unknown/expired.
  std::optional<PeerLink> reverse_route(const Guid& guid, double now);

  /// Number of live (non-expired) entries; expiry is applied lazily, so
  /// this first purges.
  std::size_t size(double now);

  double expiry_seconds() const noexcept { return expiry_; }

 private:
  struct Entry {
    PeerLink from = 0;
    double seen_at = 0.0;
  };

  // The map's own hasher: GUIDs are random, so mixing their two 64-bit
  // words is enough, and far cheaper than GuidHash's byte-wise FNV-1a
  // (which stays the trace's guid_hash, being part of the digest).
  struct WordHash {
    std::size_t operator()(const Guid& g) const noexcept {
      std::uint64_t lo;
      std::uint64_t hi;
      std::memcpy(&lo, g.bytes.data(), sizeof lo);
      std::memcpy(&hi, g.bytes.data() + sizeof lo, sizeof hi);
      std::uint64_t h = lo ^ (hi * 0x9e3779b97f4a7c15ULL);
      h ^= h >> 32;
      h *= 0xd6e8feb86659fd93ULL;
      h ^= h >> 32;
      return static_cast<std::size_t>(h);
    }
  };

  void purge(double now);

  double expiry_;
  std::unordered_map<Guid, Entry, WordHash> entries_;
  std::deque<std::pair<double, Guid>> order_;  // insertion order for purge
};

}  // namespace p2pgen::gnutella
