// p2pgen — GUID routing table.
//
// Per the Gnutella protocol (paper Section 3.1): forwarding a QUERY more
// than once is prevented by remembering its GUID together with the
// directly-connected peer it was first received from; QUERYHITs are routed
// back along that reverse path.  Entries expire after a configurable
// period (typically 10 minutes).
//
// Entries are recorded at non-decreasing times, so they also expire in
// insertion order: the table is a FIFO ring of {guid, link, seen_at}
// whose front is popped as it expires, indexed by an open-addressed,
// linear-probing hash of ring positions.  Neither allocates per message
// once warm (DESIGN.md §15).
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

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
    Guid guid;
    PeerLink from = 0;
    double seen_at = 0.0;
  };

  // The index's own hasher: GUIDs are random, so mixing their two 64-bit
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

  static constexpr std::uint32_t kEmpty = 0;

  void purge(double now);
  // The index cell holding `guid`, or the empty cell that ends its probe.
  std::size_t find(const Guid& guid) const noexcept;
  std::size_t home(const Guid& guid) const noexcept {
    return WordHash{}(guid) & (index_.size() - 1);
  }
  // Empties an index cell by backward shift, so no probe chain breaks.
  void erase_cell(std::size_t cell) noexcept;
  // Doubles the ring (unwrapping it to start at position 0) and rebuilds
  // the index at twice the ring's capacity.
  void grow();

  double expiry_;
  std::vector<Entry> ring_;  // power-of-two capacity, oldest at head_
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::vector<std::uint32_t> index_;  // ring position + 1, or kEmpty
};

}  // namespace p2pgen::gnutella
