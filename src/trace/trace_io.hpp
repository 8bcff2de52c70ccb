// p2pgen — trace serialization.
//
// Two formats:
//   * a compact binary format ("P2PT" magic, version 1) with exact
//     round-trip semantics — used to persist simulated traces and by the
//     streaming BinaryTraceWriter sink for paper-scale runs that should
//     not be held in memory;
//   * CSV export for ad-hoc inspection (examples/trace_inspector).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace.hpp"
#include "util/fnv1a.hpp"

namespace p2pgen::trace {

/// Thrown on truncated or corrupt trace input.  Carries the byte offset
/// at which the malformation was detected, so a damaged multi-gigabyte
/// trace file can be diagnosed (and salvaged up to the offset) instead of
/// failing with a context-free error or silently reading a partial trace.
class TraceIoError : public std::runtime_error {
 public:
  TraceIoError(const std::string& what, std::uint64_t byte_offset)
      : std::runtime_error(what), byte_offset_(byte_offset) {}

  /// Offset (bytes from the start of the stream) of the failure.
  std::uint64_t byte_offset() const noexcept { return byte_offset_; }

 private:
  std::uint64_t byte_offset_;
};

/// Serializes a whole trace to a binary stream.  Throws std::runtime_error
/// on stream failure.
void write_binary(const Trace& trace, std::ostream& out);

/// Reads a whole binary trace.  Throws TraceIoError (with the byte
/// offset) on truncated or malformed input, std::runtime_error on other
/// stream failure.  A stream that ends exactly on a record boundary is a
/// clean EOF.
Trace read_binary(std::istream& in);

/// One quarantined byte range of a damaged stream.  Every recovery path
/// in the repo — the spool salvage reader, the lenient trace reader and
/// the checkpoint layer — accounts loss in this one shape, so byte
/// offsets mean the same thing everywhere.
struct SalvageRange {
  std::string file;    ///< segment/file basename ("" for plain streams)
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

/// Reads as much of a binary trace as is intact: the valid record prefix
/// is returned and the torn/corrupt tail is described in `report` (one
/// trailing SalvageRange) instead of thrown.  A damaged *header* is still
/// a hard TraceIoError — a stream that does not even start as a trace has
/// no salvageable prefix.  For a fully valid stream the result is
/// identical to read_binary() and report->damaged() is false.
Trace read_trace_lenient(std::istream& in, SalvageReport* report = nullptr);

/// File-path convenience for read_trace_lenient.
Trace load_trace_lenient(const std::string& path,
                         SalvageReport* report = nullptr);

/// Longest string field (user agent, query) a record may carry.  The
/// decoder refuses longer ones, so the encoder refuses them too.
inline constexpr std::uint32_t kMaxStringBytes = 1u << 20;

/// Longest encoded record: the message record's 41 fixed bytes plus one
/// string of kMaxStringBytes.
inline constexpr std::size_t kMaxRecordBytes = 41 + std::size_t{kMaxStringBytes};

/// Appends the binary encoding of one event — exactly the record the
/// stream format uses, without the file header — to `out`.  The one
/// record encoder: write_binary, BinaryTraceWriter, binary_digest and
/// the durable spool (trace/spool.hpp, which frames and checksums each
/// record) all go through it.  Throws TraceIoError, leaving `out`
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

/// File-path conveniences.
void save_binary(const Trace& trace, const std::string& path);
Trace load_binary(const std::string& path);

/// CSV export (one row per event, header included).
void write_csv(const Trace& trace, std::ostream& out);

/// FNV-1a hash of the trace's binary serialization, computed record by
/// record (the whole serialized stream is never materialized).  Two traces have equal
/// digests iff write_binary() would produce identical byte streams — the
/// cheap byte-identity check used by the determinism tests and the
/// parallel-scaling bench.
std::uint64_t binary_digest(const Trace& trace);

/// A TraceSink that streams events straight to a binary file.
class BinaryTraceWriter : public TraceSink {
 public:
  /// Opens `path` for writing and emits the header.  Throws on failure.
  explicit BinaryTraceWriter(const std::string& path);
  ~BinaryTraceWriter() override;

  BinaryTraceWriter(const BinaryTraceWriter&) = delete;
  BinaryTraceWriter& operator=(const BinaryTraceWriter&) = delete;

  void on_event(const TraceEvent& event) override;

  /// Flushes and closes; further on_event calls throw.  Called by the
  /// destructor if not called explicitly.
  void close();

  std::uint64_t events_written() const noexcept { return events_written_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::uint64_t events_written_ = 0;
};

}  // namespace p2pgen::trace
