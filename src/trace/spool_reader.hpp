// p2pgen — single-pass validated spool segment reader (DESIGN.md §11).
//
// The original recovery path read every spool segment twice: once in the
// scan (CRC validation) and once more when the analysis replayed the
// records.  SpoolReader collapses that into one pass: each segment is
// mapped (mmap when available, buffered read otherwise) and its frames
// are CRC-validated *while* the payloads are handed to the consumer, so
// validation is free for whoever reads the spool anyway.  The recovery
// decision is made online with the same policy as the scan:
//
//   * a torn tail is tolerated only on the LAST segment (reported, the
//     valid prefix is kept),
//   * damage to an interior segment is a hard TraceIoError — records
//     after it would silently vanish from the middle of the stream.
//
// Salvage mode (SpoolReadMode::kSalvage, DESIGN.md §14) relaxes the
// second rule with *accounted* loss instead of silence: on interior
// damage the reader resyncs to the next valid [len][crc][payload] frame
// (frame-skip first, then a bounded CRC-probed byte scan), quarantines
// the damaged byte range as a SalvageRange, and keeps going.  On a clean
// spool salvage is bit-identical to strict: same payloads, same order,
// same digest.
//
// scan_spool()/read_spool() (trace/spool.hpp) are built on this reader,
// and the streaming analysis (analysis/streaming.hpp) uses it directly
// so paper-scale spools are read exactly once, then decoded in parallel
// chunks from the validated bytes.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "trace/trace.hpp"
#include "trace/trace_io.hpp"

namespace p2pgen::trace {

/// Spool on-disk format constants, shared by writer and reader.
inline constexpr char kSpoolMagic[4] = {'P', '2', 'P', 'S'};
inline constexpr std::uint32_t kSpoolVersion = 1;
inline constexpr std::uint64_t kSpoolHeaderBytes =
    sizeof(kSpoolMagic) + sizeof(std::uint32_t);
/// Frames above this payload size are corruption, not data: a trace
/// record is a few dozen bytes plus a query string capped at 1 MiB.
inline constexpr std::uint32_t kSpoolMaxPayload = 1u << 24;

/// Segment filename for an index ("seg-NNNNNN.p2ps").
std::string spool_segment_name(std::size_t index);

/// Index encoded in a segment filename; false when `name` is not one.
bool parse_spool_segment_index(const std::string& name, std::size_t& index);

/// Segment file paths under `dir` (created if missing), in index order.
std::vector<std::string> spool_segment_paths(const std::string& dir);

/// Receives one validated frame payload.
using SpoolPayloadFn =
    std::function<void(const std::uint8_t* data, std::size_t size)>;

/// How the reader treats frame damage.
enum class SpoolReadMode {
  kStrict,   ///< any interior damage is a hard error (default everywhere)
  kSalvage,  ///< resync past damage, quarantine the range, account the loss
};

/// Salvage resync bounds: how far past a damage point the byte scan will
/// look for the next valid frame, and how many payload bytes it will CRC
/// while probing, before giving up on the rest of the segment.
inline constexpr std::uint64_t kSalvageScanWindow = 16ull << 20;
inline constexpr std::uint64_t kSalvageCrcBudget = 256ull << 20;

/// What one single-pass segment read found.
struct SegmentReadResult {
  std::string file;                 ///< segment basename ("seg-NNNNNN.p2ps")
  std::uint64_t records = 0;        ///< valid frames fed to the consumer
  std::uint64_t valid_end = 0;      ///< bytes of valid header + frames
  std::uint64_t file_size = 0;
  std::uint64_t first_bad_offset = 0;  ///< == valid_end when torn
  bool torn = false;                ///< damaged tail found (and tolerated)
  /// Interior damage resynced past (salvage mode only), in byte order.
  /// time_before/time_after are NaN when the gap touches the segment
  /// boundary — SalvageAssembler (spool.hpp) patches those from the
  /// neighboring segments.
  std::vector<SalvageRange> salvaged;
  /// Sim-times of the first/last valid record (salvage mode only; NaN
  /// when the segment held no valid records or decoding them failed).
  double first_record_time = std::numeric_limits<double>::quiet_NaN();
  double last_record_time = std::numeric_limits<double>::quiet_NaN();
};

/// A segment file's bytes: mmap'd when the platform allows, otherwise
/// read into an owned buffer.  Either way the parse sees one flat span,
/// and payloads handed out of a read over it point into that span for as
/// long as the SegmentBytes lives.
class SegmentBytes {
 public:
  explicit SegmentBytes(const std::string& path);
  ~SegmentBytes();

  SegmentBytes(const SegmentBytes&) = delete;
  SegmentBytes& operator=(const SegmentBytes&) = delete;

  const std::uint8_t* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }

 private:
  void* map_ = nullptr;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::vector<std::uint8_t> buf_;
};

/// Reads `path` in one pass, CRC-validating each frame and feeding every
/// valid payload to `on_payload` (may be null).  `digest`, when non-null,
/// is FNV-1a-updated over the valid payloads in order.  With
/// `allow_damage` the valid prefix is kept and the damage reported;
/// without it any damage throws TraceIoError with the byte offset.
/// In salvage mode interior damage is resynced past and quarantined into
/// `salvaged`; only damage that runs to the end of the file is still
/// reported as torn (the caller decides whether that is a tolerated tail
/// or an interior gap).
SegmentReadResult read_spool_segment(const std::string& path,
                                     bool allow_damage,
                                     std::uint64_t* digest,
                                     const SpoolPayloadFn& on_payload,
                                     SpoolReadMode mode = SpoolReadMode::kStrict);

/// Validated-segment iterator over a whole spool directory.  Lists the
/// segments on construction; read_segment() validates and decodes one
/// segment in a single pass.  Distinct segments may be read concurrently
/// (the reader holds no per-read state) — the streaming analysis reads
/// segments on its decoder threads this way.
class SpoolReader {
 public:
  /// Opens `dir` (created if missing).  No segment bytes are read yet.
  /// In strict mode a hole in the segment numbering (a deleted interior
  /// segment file) throws TraceIoError; in salvage mode the missing
  /// indices are recorded for the caller to account as whole-segment
  /// gaps (missing_before()).
  explicit SpoolReader(std::string dir,
                       SpoolReadMode mode = SpoolReadMode::kStrict);

  const std::string& dir() const noexcept { return dir_; }
  SpoolReadMode mode() const noexcept { return mode_; }
  std::size_t segment_count() const noexcept { return segments_.size(); }
  const std::vector<std::string>& segment_paths() const noexcept {
    return segments_;
  }

  /// Segment filename indices that are missing from the numbering right
  /// before list position `position` (e.g. seg-000002 deleted: returned
  /// for position 2, the list position of seg-000003).  Pass
  /// segment_count() for holes after the last present segment (never
  /// detectable — the list just ends) — returns empty then.  Always
  /// empty in strict mode (the constructor would have thrown).
  std::vector<std::size_t> missing_before(std::size_t position) const;

  /// Reads segment `index` (list position), feeding every valid payload
  /// to `on_payload`.  Torn tails are tolerated (and reported) only on
  /// the final segment.  Strict mode: damage anywhere else throws
  /// TraceIoError.  Salvage mode: interior damage becomes quarantined
  /// SalvageRanges in the result (boundary gap times left NaN for
  /// SalvageAssembler to patch).  Thread-safe for distinct indices.
  SegmentReadResult read_segment(std::size_t index,
                                 const SpoolPayloadFn& on_payload) const;

  /// read_segment() over `bytes`, which the caller mapped from
  /// segment_paths()[index] and keeps: every payload handed to
  /// `on_payload` stays valid for as long as `bytes` does, so a caller
  /// can validate a segment once and decode its frames later.
  SegmentReadResult read_segment(std::size_t index, const SegmentBytes& bytes,
                                 const SpoolPayloadFn& on_payload) const;

 private:
  /// segment_paths()[index]; std::out_of_range past the end.
  const std::string& segment_path(std::size_t index) const;

  std::string dir_;
  SpoolReadMode mode_;
  std::vector<std::string> segments_;
  std::vector<std::size_t> file_indices_;  ///< parsed filename indices
};

}  // namespace p2pgen::trace
