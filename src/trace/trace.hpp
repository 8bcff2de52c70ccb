// p2pgen — measurement trace substrate.
//
// The measurement ultrapeer records exactly what the paper's modified
// mutella client recorded (Section 3.1–3.2): connected-session boundaries
// (handshake completion / connection teardown, with the teardown reason),
// and per-message data from the Gnutella descriptors (type, TTL, hops,
// query string, SHA1 extension presence, and the peer addresses advertised
// in PONG / QUERYHIT payloads, which drive the "all peers" geography of
// Figure 1 and the shared-files counts of Figure 2).
//
// The entire analysis pipeline consumes this event stream — nothing else —
// mirroring the paper's trace-driven methodology.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "gnutella/message.hpp"

namespace p2pgen::trace {

/// Why the measurement node considered a session ended.
enum class EndReason : std::uint8_t {
  kBye = 0,        // explicit BYE descriptor
  kIdleProbe = 1,  // silent peer detected via the 15 s + 15 s PING probe
  kTeardown = 2,   // transport-level close observed directly
  kError = 3,      // abnormal close: the peer sent a malformed descriptor
                   // (DecodeError) and the node dropped the connection
};

// GCC 12's -Wmaybe-uninitialized walks every alternative's copy/move
// constructor when a TraceEvent is built from one alternative through the
// variant's converting constructor at -O2 and flags members of the
// never-taken alternatives (gcc.gnu.org PR 105937).  The diagnostic is
// attributed to these struct definitions, so the suppression lives here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

/// Handshake completed with a one-hop peer: a connected session starts.
struct SessionStart {
  double time = 0.0;
  std::uint64_t session_id = 0;
  std::uint32_t ip = 0;  // the peer's address (host order)
  bool ultrapeer = false;
  std::string user_agent;

  friend bool operator==(const SessionStart&, const SessionStart&) = default;
};

/// One received Gnutella descriptor, reduced to the fields the analysis
/// uses.  `hops` distinguishes one-hop queries (hops == 1 after forward
/// increment; generated by a directly connected peer) from remote traffic.
struct MessageEvent {
  double time = 0.0;
  std::uint64_t session_id = 0;  // the one-hop session it arrived over
  gnutella::MessageType type = gnutella::MessageType::kPing;
  std::uint8_t ttl = 0;
  std::uint8_t hops = 0;
  std::string query;             // QUERY: raw keyword string
  bool sha1 = false;             // QUERY: SHA1 extension present
  std::uint32_t source_ip = 0;   // PONG/QUERYHIT: advertised peer address
  std::uint32_t shared_files = 0;  // PONG: advertised library size
  /// Hash of the descriptor GUID — lets the analysis correlate QUERYs
  /// with the QUERYHITs they attracted (the paper's future-work hit-rate
  /// characterization).  0 when unknown (format v1 traces).
  std::uint64_t guid_hash = 0;

  friend bool operator==(const MessageEvent&, const MessageEvent&) = default;
};

/// Session ended.
struct SessionEnd {
  double time = 0.0;
  std::uint64_t session_id = 0;
  EndReason reason = EndReason::kTeardown;

  friend bool operator==(const SessionEnd&, const SessionEnd&) = default;
};

using TraceEvent = std::variant<SessionStart, MessageEvent, SessionEnd>;

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

/// Time of an event regardless of its alternative.
double event_time(const TraceEvent& event);

/// Receives trace events as they happen.  The measurement node writes to a
/// sink so traces can be kept in memory or streamed to disk.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const TraceEvent& event) = 0;
};

/// Overall trace characteristics — the rows of Table 1.
struct TraceStats {
  double first_time = 0.0;
  double last_time = 0.0;
  std::uint64_t query_messages = 0;
  std::uint64_t queryhit_messages = 0;
  std::uint64_t ping_messages = 0;
  std::uint64_t pong_messages = 0;
  std::uint64_t bye_messages = 0;
  std::uint64_t route_update_messages = 0;
  std::uint64_t direct_connections = 0;  // number of connected sessions
  std::uint64_t hop1_queries = 0;        // QUERY messages with hops == 1
  std::uint64_t ultrapeer_connections = 0;
  std::uint64_t leaf_connections = 0;
};

/// Session-id stride separating shards in a merged trace: shard k's local
/// session id s becomes k * kShardSessionStride + s.  Leaves 2^40 session
/// ids per shard and 2^24 shards — far beyond any realistic run — while
/// keeping the shard index recoverable from a merged id.
inline constexpr std::uint64_t kShardSessionStride = 1ULL << 40;

/// Shard index encoded in a merged session id.
constexpr std::uint64_t shard_of_session(std::uint64_t session_id) noexcept {
  return session_id / kShardSessionStride;
}

/// An in-memory trace.
class Trace : public TraceSink {
 public:
  void on_event(const TraceEvent& event) override { events_.push_back(event); }
  void append(TraceEvent event) { events_.push_back(std::move(event)); }

  const std::vector<TraceEvent>& events() const noexcept { return events_; }
  std::size_t size() const noexcept { return events_.size(); }
  bool empty() const noexcept { return events_.empty(); }

  /// Preallocates storage for `n` events.
  void reserve(std::size_t n) { events_.reserve(n); }

  /// Moves the event vector out, leaving the trace empty.
  std::vector<TraceEvent> release() noexcept { return std::move(events_); }

  /// Computes the Table-1 counters over the whole trace.
  TraceStats stats() const;

 private:
  std::vector<TraceEvent> events_;
};

/// Merges per-shard traces into one measurement log, as if `shards.size()`
/// vantage points had observed the same measurement window concurrently
/// (the multi-vantage-point model of DESIGN.md §7).  Events are merged in
/// (time, shard index, within-shard position) order — a stable k-way
/// reduction whose output depends only on the inputs and their order,
/// never on how the shards were produced (thread count, completion
/// order).  Session ids (and with them every MessageEvent/SessionEnd
/// reference) are namespaced to shard_index * kShardSessionStride +
/// local_id so sessions from different shards can never collide.
///
/// Precondition: each shard's events are in nondecreasing time order,
/// which every simulation-produced trace satisfies.  Consumes the shards.
Trace merge_traces(std::vector<Trace> shards);

}  // namespace p2pgen::trace
