// p2pgen — trace serialization.
//
//   * The binary record codec: append_event_binary encodes one event,
//     decode_event_binary decodes it back exactly.  On disk a trace is
//     always a spool directory (trace/spool.hpp), whose CRC-checked
//     frames each carry one such record.
//   * The whole-trace byte stream: a "P2PT" header (magic, version 2)
//     followed by every record in order.  write_binary emits it and
//     binary_digest hashes it; it is the byte-identity yardstick of the
//     determinism tests, never read back.
//   * CSV export for ad-hoc inspection (examples/trace_inspector).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "trace/trace.hpp"
#include "util/fnv1a.hpp"

namespace p2pgen::trace {

/// Thrown on truncated or corrupt trace input.  Carries the byte offset
/// at which the malformation was detected, so a damaged spool can be
/// diagnosed (and salvaged around the offset) instead of failing with a
/// context-free error or silently reading a partial trace.
class TraceIoError : public std::runtime_error {
 public:
  TraceIoError(const std::string& what, std::uint64_t byte_offset)
      : std::runtime_error(what), byte_offset_(byte_offset) {}

  /// Offset of the failure, in bytes from the start of the record or
  /// spool segment being read.
  std::uint64_t byte_offset() const noexcept { return byte_offset_; }

 private:
  std::uint64_t byte_offset_;
};

/// Serializes a whole trace to a binary stream: the header, then every
/// record.  Throws std::runtime_error on stream failure.
void write_binary(const Trace& trace, std::ostream& out);

/// One quarantined byte range of a damaged spool segment.  Every recovery
/// path in the repo — the spool salvage reader and the checkpoint layer —
/// accounts loss in this one shape, so byte offsets mean the same thing
/// everywhere.
struct SalvageRange {
  std::string file;    ///< segment basename
  unsigned shard = 0;  ///< filled in by multi-shard consumers
  std::uint64_t byte_begin = 0;   ///< offset of the first damaged byte
  std::uint64_t byte_end = 0;     ///< resync point (one past the damage)
  /// Frames skipped inside [byte_begin, byte_end).  Exact when the
  /// damaged frame's length header survived (payload/CRC corruption);
  /// otherwise a lower bound — resync cannot count boundaries it never
  /// saw.  At least 1 for every range.
  std::uint64_t frames_lost = 0;
  /// Inferred sim-time gap window: the time of the last valid record
  /// before the damage (0 when the damage starts before any record) and
  /// of the first valid record after it (+inf when the damage ran to the
  /// end of the stream).  NaN only transiently inside the segment reader,
  /// before SalvageAssembler patches across segment boundaries.
  double time_before = 0.0;
  double time_after = std::numeric_limits<double>::infinity();
  std::string detail;  ///< what the decoder said about the first bad frame
};

/// Unified loss accounting for a salvaged read.  damaged() == false means
/// the read was bit-identical to a strict one.
struct SalvageReport {
  std::uint64_t records_recovered = 0;  ///< valid records fed downstream
  std::uint64_t frames_lost = 0;        ///< sum over ranges (lower bound)
  std::uint64_t bytes_quarantined = 0;  ///< sum of range byte widths
  std::vector<SalvageRange> ranges;     ///< in (shard, file, byte) order
  /// Gap-censoring counts, filled by the analysis layer: sessions whose
  /// lifetime intersects a gap window are excluded from filter rules and
  /// fits, counted here instead of silently mixed in.
  std::uint64_t censored_sessions = 0;
  std::uint64_t censored_queries = 0;

  bool damaged() const noexcept { return !ranges.empty(); }

  /// Folds `other` (a per-shard report) onto this one, tagging its
  /// ranges with `shard`.  Call in ascending shard order so the combined
  /// range list stays in (shard, file, byte) order.
  void merge_shard(SalvageReport&& other, unsigned shard);
};

/// Longest string field (user agent, query) a record may carry.  The
/// decoder refuses longer ones, so the encoder refuses them too.
inline constexpr std::uint32_t kMaxStringBytes = 1u << 20;

/// Longest encoded record: the message record's 41 fixed bytes plus one
/// string of kMaxStringBytes.
inline constexpr std::size_t kMaxRecordBytes = 41 + std::size_t{kMaxStringBytes};

/// Byte offset of the 8-byte session id in every encoded record: each
/// kind writes its kind byte, then its time, then its session id.
inline constexpr std::size_t kRecordSessionIdOffset = 1 + 8;

/// Appends the binary encoding of one event — exactly the record the
/// stream format uses, without the stream header — to `out`.  The one
/// record encoder: write_binary, binary_digest and the durable spool
/// (trace/spool.hpp, which frames and checksums each record) all go
/// through it.  Throws TraceIoError, leaving `out`
/// untouched, when a string field exceeds kMaxStringBytes — a record the
/// decoder would refuse is never written.
void append_event_binary(const TraceEvent& event, std::string& out);

/// Appends the binary stream header ("P2PT" magic + version) to `out` —
/// exactly the bytes write_binary() emits before the first record.  Lets
/// the streaming analysis fold header-then-records into the same FNV-1a
/// digest binary_digest() computes, without materializing a Trace.
void append_header_binary(std::string& out);

/// The FNV-1a digest binary_digest() and the spool fold records into.
using util::fnv1a_update;
using util::kFnvOffsetBasis;

/// Decodes one record produced by append_event_binary.  Throws
/// TraceIoError on malformed input or if the buffer holds trailing bytes
/// beyond the one record.
TraceEvent decode_event_binary(const std::uint8_t* data, std::size_t size);

/// decode_event_binary() for a reader that needs a message's query only
/// as bytes: `*query` views them inside `data` (left unchanged for other
/// record kinds) and the returned event's query stays empty, which spares
/// an allocation per message.
TraceEvent decode_event_binary(const std::uint8_t* data, std::size_t size,
                               std::string_view* query);

/// CSV export (one row per event, header included).
void write_csv(const Trace& trace, std::ostream& out);

/// FNV-1a hash of the trace's binary serialization, computed record by
/// record (the whole serialized stream is never materialized).  Two traces have equal
/// digests iff write_binary() would produce identical byte streams — the
/// cheap byte-identity check used by the determinism tests and the
/// parallel-scaling bench.
std::uint64_t binary_digest(const Trace& trace);

}  // namespace p2pgen::trace
