// p2pgen — Gnutella 0.6 message model.
//
// The four descriptor types the paper analyzes (PING, PONG, QUERY,
// QUERYHIT; Section 3.1) plus BYE (session termination, Section 3.2).
// Each descriptor carries the 23-byte header fields: GUID, type, TTL,
// hops, payload length.  Payloads are modeled as typed structs; the wire
// representation lives in codec.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "gnutella/guid.hpp"

namespace p2pgen::gnutella {

/// Gnutella descriptor type bytes (wire values from the 0.6 spec).
enum class MessageType : std::uint8_t {
  kPing = 0x00,
  kPong = 0x01,
  kBye = 0x02,
  kRouteTableUpdate = 0x30,  // QRP patch (leaf -> ultrapeer)
  kQuery = 0x80,
  kQueryHit = 0x81,
};

/// Human-readable type name ("PING", "QUERY", ...).
std::string_view message_type_name(MessageType t) noexcept;

/// PING — connectivity probe; empty payload.
struct PingPayload {
  friend bool operator==(const PingPayload&, const PingPayload&) = default;
};

/// PONG — answer to PING, advertising the responder's address and its
/// shared library size.  Figure 2 of the paper is built from the
/// shared-file counts observed in PONGs.
struct PongPayload {
  std::uint16_t port = 6346;
  std::uint32_t ip = 0;            // IPv4, host byte order
  std::uint32_t shared_files = 0;  // number of files shared
  std::uint32_t shared_kbytes = 0; // total shared size in KB
  friend bool operator==(const PongPayload&, const PongPayload&) = default;
};

/// QUERY — keyword search.  `keywords` is the raw search string; the
/// optional SHA1 extension (urn:sha1:...) marks re-queries for a known
/// file, which filter rule 1 removes from the user workload.
struct QueryPayload {
  std::uint16_t min_speed = 0;
  std::string keywords;
  std::string sha1_urn;  // empty when the extension is absent

  bool has_sha1() const noexcept { return !sha1_urn.empty(); }
  friend bool operator==(const QueryPayload&, const QueryPayload&) = default;
};

/// A single result record inside a QUERYHIT.
struct QueryHitResult {
  std::uint32_t file_index = 0;
  std::uint32_t file_size = 0;
  std::string file_name;
  friend bool operator==(const QueryHitResult&, const QueryHitResult&) = default;
};

/// QUERYHIT — response carrying matching files; routed back along the
/// reverse overlay path of the originating QUERY's GUID.
struct QueryHitPayload {
  std::uint16_t port = 6346;
  std::uint32_t ip = 0;
  std::uint32_t speed_kbps = 0;
  std::vector<QueryHitResult> results;
  Guid servent_guid;
  friend bool operator==(const QueryHitPayload&, const QueryHitPayload&) = default;
};

/// BYE — optional graceful session termination (most real clients simply
/// go silent, which is why the measurement node needs the idle-probe
/// heuristic of Section 3.2).
struct ByePayload {
  std::uint16_t code = 200;
  std::string reason;
  friend bool operator==(const ByePayload&, const ByePayload&) = default;
};

/// ROUTE_TABLE_UPDATE — a QRP table patch.  Leaves summarize their shared
/// keywords for their ultrapeers, which then forward queries "only to the
/// leaf nodes that have a high probability of responding" (Section 3.1).
struct RouteTablePayload {
  std::vector<std::uint8_t> patch;  // packed QRP bits (qrp.hpp)
  friend bool operator==(const RouteTablePayload&,
                         const RouteTablePayload&) = default;
};

using Payload = std::variant<PingPayload, PongPayload, QueryPayload,
                             QueryHitPayload, ByePayload, RouteTablePayload>;

/// A full Gnutella descriptor: header + typed payload.
struct Message {
  Guid guid;
  std::uint8_t ttl = 7;
  std::uint8_t hops = 0;
  Payload payload;

  MessageType type() const noexcept;

  /// True when the TTL allows another forwarding step.
  bool forwardable() const noexcept { return ttl > 0; }

  /// Returns a copy prepared for forwarding: TTL decremented, hops
  /// incremented (paper Section 3.1).  Requires forwardable().
  Message forwarded() const;

  friend bool operator==(const Message&, const Message&) = default;
};

/// Factory helpers.
Message make_ping(stats::Rng& rng, std::uint8_t ttl = 7);
Message make_pong(const Guid& ping_guid, std::uint32_t ip, std::uint32_t shared_files,
                  std::uint32_t shared_kbytes, std::uint8_t ttl = 7);
Message make_query(stats::Rng& rng, std::string keywords, std::string sha1_urn = {},
                   std::uint8_t ttl = 7);
Message make_query_hit(const Guid& query_guid, std::uint32_t ip,
                       std::vector<QueryHitResult> results, const Guid& servent,
                       std::uint8_t ttl = 7);
Message make_bye(stats::Rng& rng, std::uint16_t code, std::string reason);
Message make_route_table_update(stats::Rng& rng, std::vector<std::uint8_t> patch);

/// Canonicalizes a query string into its keyword set: lower-cased,
/// whitespace-split, de-duplicated, sorted, re-joined with single spaces.
/// Two queries are "identical" in the paper's sense iff their canonical
/// keyword sets are equal (Section 3.2).
std::string canonical_keywords(std::string_view raw_query);

/// The same, written into `out` (its capacity is reused): the per-query
/// form for hot paths.  `raw_query` may view `out`.
void canonical_keywords(std::string_view raw_query, std::string& out);

}  // namespace p2pgen::gnutella
