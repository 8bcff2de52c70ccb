#include "trace/spool.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <stdexcept>

#include "trace/spool_reader.hpp"
#include "trace/trace_io.hpp"
#include "util/crc32.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace p2pgen::trace {
namespace {

namespace fs = std::filesystem;

// The encoder refuses any string the decoder would refuse, so the largest
// record it can produce must still be a frame the reader accepts.
static_assert(kMaxRecordBytes <= kSpoolMaxPayload);

void fsync_directory(const std::string& dir) {
#if defined(__unix__) || defined(__APPLE__)
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
#else
  (void)dir;
#endif
}

/// Single pass over every segment in index order, built on the
/// validated-segment reader (spool_reader.hpp) so the scan and any
/// consumer share one read of the bytes.
SpoolScan scan_spool_impl(const std::string& dir, bool truncate_tail,
                          const SpoolPayloadFn& on_payload) {
  const std::vector<std::string> paths = spool_segment_paths(dir);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    std::size_t index = 0;
    (void)parse_spool_segment_index(fs::path(paths[i]).filename().string(),
                                    index);
    if (index != i) {
      // A hole in the numbering means a whole segment file vanished —
      // interior loss, never a torn tail.
      throw TraceIoError(
          "spool: missing segment " + spool_segment_name(i) + " in " + dir, 0);
    }
  }

  SpoolScan scan;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const std::string& path = paths[i];
    const SegmentReadResult seg = read_spool_segment(
        path, /*allow_damage=*/true, &scan.payload_digest, on_payload);
    ++scan.report.segments_scanned;
    scan.records += seg.records;
    scan.report.records_recovered += seg.records;
    scan.segments.push_back(path);
    scan.segment_records.push_back(seg.records);
    if (!seg.torn) continue;

    if (i + 1 != paths.size()) {
      // Interior damage is not a tail: records after this segment would
      // silently vanish from the middle of the stream.
      throw TraceIoError("spool: interior segment damaged: " + path +
                             " at byte offset " +
                             std::to_string(seg.first_bad_offset),
                         seg.first_bad_offset);
    }
    scan.report.torn = true;
    scan.report.bad_segment = path;
    scan.report.first_bad_offset = seg.first_bad_offset;
    scan.report.bytes_truncated = seg.file_size - seg.valid_end;
    scan.report.records_truncated = 1;  // the torn tail frame
    if (truncate_tail) {
      fs::resize_file(path, seg.valid_end);
      fsync_directory(dir);
    }
  }
  return scan;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n) noexcept {
  return util::crc32(data, n);
}

SpoolScan scan_spool(const std::string& dir, bool truncate_tail) {
  return scan_spool_impl(dir, truncate_tail, nullptr);
}

Trace read_spool(const std::string& dir, SpoolRecoveryReport* report) {
  Trace trace;
  const SpoolScan scan = scan_spool_impl(
      dir, /*truncate_tail=*/false,
      [&trace](const std::uint8_t* data, std::size_t n) {
        trace.append(decode_event_binary(data, n));
      });
  if (report != nullptr) *report = scan.report;
  return trace;
}

void SalvageAssembler::add_segment(const SegmentReadResult& segment) {
  // A decodable first record closes every gap window still open from
  // earlier segments: it is the first data seen after those losses.
  if (!std::isnan(segment.first_record_time)) {
    for (const std::size_t i : open_) {
      report_.ranges[i].time_after = segment.first_record_time;
    }
    open_.clear();
  }
  for (SalvageRange range : segment.salvaged) {
    if (std::isnan(range.time_before)) {
      // The gap starts before any record of its own segment; the last
      // record of the preceding segments bounds it (0 when none ever).
      range.time_before = have_last_time_ ? last_time_ : 0.0;
    }
    report_.frames_lost += range.frames_lost;
    report_.bytes_quarantined += range.byte_end - range.byte_begin;
    if (std::isnan(range.time_after)) {
      open_.push_back(report_.ranges.size());
    }
    report_.ranges.push_back(std::move(range));
  }
  if (segment.torn) {
    // A torn tail under salvage is loss like any other: records past
    // first_bad_offset are gone, and whether more follow depends on the
    // next segment (finish() closes the window at +inf otherwise).
    SalvageRange range;
    range.file = segment.file;
    range.byte_begin = segment.first_bad_offset;
    range.byte_end = segment.file_size;
    range.frames_lost = 1;
    range.time_before = std::isnan(segment.last_record_time)
                            ? (have_last_time_ ? last_time_ : 0.0)
                            : segment.last_record_time;
    range.time_after = std::numeric_limits<double>::quiet_NaN();
    range.detail = "spool: torn tail";
    report_.frames_lost += range.frames_lost;
    report_.bytes_quarantined += range.byte_end - range.byte_begin;
    open_.push_back(report_.ranges.size());
    report_.ranges.push_back(std::move(range));
  }
  report_.records_recovered += segment.records;
  if (!std::isnan(segment.last_record_time)) {
    last_time_ = segment.last_record_time;
    have_last_time_ = true;
  }
}

void SalvageAssembler::add_missing_segment(const std::string& basename) {
  SalvageRange range;
  range.file = basename;
  range.byte_begin = 0;
  range.byte_end = 0;  // the file is gone; its size is unknowable
  range.frames_lost = 1;
  range.time_before = have_last_time_ ? last_time_ : 0.0;
  range.time_after = std::numeric_limits<double>::quiet_NaN();
  range.detail = "spool: missing segment file";
  report_.frames_lost += range.frames_lost;
  open_.push_back(report_.ranges.size());
  report_.ranges.push_back(std::move(range));
}

SalvageReport SalvageAssembler::finish() {
  for (const std::size_t i : open_) {
    // No data ever followed: the loss ran to the end of the spool.
    report_.ranges[i].time_after = std::numeric_limits<double>::infinity();
  }
  open_.clear();
  // Any NaN time_after still inside a segment (undecodable boundary
  // record) widens to +inf too — conservative, never understated.
  for (auto& range : report_.ranges) {
    if (std::isnan(range.time_after)) {
      range.time_after = std::numeric_limits<double>::infinity();
    }
  }
  return std::move(report_);
}

Trace read_spool_salvage(const std::string& dir, SalvageReport* report) {
  SpoolReader reader(dir, SpoolReadMode::kSalvage);
  SalvageAssembler assembler;
  Trace trace;
  for (std::size_t i = 0; i < reader.segment_count(); ++i) {
    for (const std::size_t index : reader.missing_before(i)) {
      assembler.add_missing_segment(spool_segment_name(index));
    }
    const SegmentReadResult segment = reader.read_segment(
        i, [&trace](const std::uint8_t* data, std::size_t n) {
          trace.append(decode_event_binary(data, n));
        });
    assembler.add_segment(segment);
  }
  SalvageReport local = assembler.finish();
  if (report != nullptr) *report = std::move(local);
  return trace;
}

std::uint64_t truncate_spool_to_valid_prefix(const std::string& dir) {
  const std::vector<std::string> paths = spool_segment_paths(dir);
  std::uint64_t dropped = 0;
  std::size_t cut = paths.size();  // first list position to delete outright
  for (std::size_t i = 0; i < paths.size(); ++i) {
    std::size_t index = 0;
    (void)parse_spool_segment_index(fs::path(paths[i]).filename().string(),
                                    index);
    if (index != i) {
      cut = i;  // hole in the numbering: the prefix ends at the hole
      break;
    }
    const SegmentReadResult seg =
        read_spool_segment(paths[i], /*allow_damage=*/true, nullptr, nullptr);
    if (!seg.torn) continue;
    // Keep this segment's valid frame prefix, drop the rest of the file
    // and every later segment.
    dropped += seg.file_size - seg.valid_end;
    if (seg.valid_end <= kSpoolHeaderBytes) {
      cut = i;  // nothing (or just a header) survives: drop the file too
      dropped -= seg.file_size - seg.valid_end;
    } else {
      fs::resize_file(paths[i], seg.valid_end);
      cut = i + 1;
    }
    break;
  }
  for (std::size_t i = cut; i < paths.size(); ++i) {
    dropped += static_cast<std::uint64_t>(fs::file_size(paths[i]));
    fs::remove(paths[i]);
  }
  if (cut < paths.size() || dropped > 0) fsync_directory(dir);
  return dropped;
}

struct SpoolWriter::Impl {
  std::FILE* file = nullptr;
  std::string path;
};

SpoolWriter::SpoolWriter(std::string dir, SpoolConfig config)
    : impl_(std::make_unique<Impl>()), config_(config), dir_(std::move(dir)) {
  const SpoolScan scan = scan_spool(dir_, /*truncate_tail=*/true);
  recovery_ = scan.report;
  open_records_ = scan.records;
  open_digest_ = scan.payload_digest;

  if (scan.segments.empty()) {
    segment_index_ = 0;
    open_segment(segment_index_, /*fresh=*/true);
    return;
  }
  std::size_t last_index = scan.segments.size() - 1;
  (void)parse_spool_segment_index(
      fs::path(scan.segments.back()).filename().string(), last_index);
  const std::uint64_t last_records = scan.segment_records.back();
  const std::uint64_t last_size =
      static_cast<std::uint64_t>(fs::file_size(scan.segments.back()));
  if (last_size < kSpoolHeaderBytes) {
    // The whole header was torn away: rebuild this segment from scratch.
    segment_index_ = last_index;
    open_segment(segment_index_, /*fresh=*/true);
  } else if (last_records >= config_.segment_max_records) {
    segment_index_ = last_index + 1;
    open_segment(segment_index_, /*fresh=*/true);
  } else {
    segment_index_ = last_index;
    current_segment_records_ = last_records;
    open_segment(segment_index_, /*fresh=*/false);
  }
}

SpoolWriter::~SpoolWriter() {
  try {
    close();
  } catch (...) {
    // Destructors must not throw; an unsynced tail is exactly what the
    // recovery scan exists to clean up.
  }
}

void SpoolWriter::open_segment(std::size_t index, bool fresh) {
  const std::string path =
      (fs::path(dir_) / spool_segment_name(index)).string();
  errno = 0;
  std::FILE* f = std::fopen(path.c_str(), fresh ? "wb" : "ab");
  if (f == nullptr) {
    throw SpoolWriteError("spool: cannot open " + path, errno);
  }
  impl_->file = f;
  impl_->path = path;
  if (fresh) {
    current_segment_records_ = 0;
    errno = 0;
    std::fwrite(kSpoolMagic, 1, sizeof(kSpoolMagic), f);
    std::fwrite(&kSpoolVersion, 1, sizeof(kSpoolVersion), f);
    if (std::ferror(f) != 0) {
      throw SpoolWriteError("spool: header write failed: " + path, errno);
    }
    fsync_directory(dir_);
  }
}

void SpoolWriter::roll_if_needed() {
  if (current_segment_records_ < config_.segment_max_records) return;
  sync();
  std::fclose(impl_->file);
  impl_->file = nullptr;
  open_segment(++segment_index_, /*fresh=*/true);
}

void SpoolWriter::append(const TraceEvent& event) {
  if (closed_) throw std::logic_error("SpoolWriter: already closed");
  // One buffer per frame: reserve the [len][crc] header, encode the
  // payload behind it, then patch the header in.  A record the encoder
  // refuses throws here, before any byte reaches the segment.
  constexpr std::size_t kFrameHeader = 2 * sizeof(std::uint32_t);
  frame_buf_.assign(kFrameHeader, '\0');
  append_event_binary(event, frame_buf_);
  const std::size_t payload = frame_buf_.size() - kFrameHeader;
  const auto len = static_cast<std::uint32_t>(payload);
  const std::uint32_t crc = crc32(frame_buf_.data() + kFrameHeader, payload);
  std::memcpy(frame_buf_.data(), &len, sizeof(len));
  std::memcpy(frame_buf_.data() + sizeof(len), &crc, sizeof(crc));
  std::FILE* f = impl_->file;
  errno = 0;
  std::fwrite(frame_buf_.data(), 1, frame_buf_.size(), f);
  if (std::ferror(f) != 0) {
    throw SpoolWriteError("spool: write failed: " + impl_->path, errno);
  }
  ++appended_;
  ++current_segment_records_;
  ++unsynced_;
  if (config_.sync_interval_records > 0 &&
      unsynced_ >= config_.sync_interval_records) {
    sync();
  }
  roll_if_needed();
}

void SpoolWriter::sync() {
  if (closed_ || impl_->file == nullptr) return;
  errno = 0;
  if (std::fflush(impl_->file) != 0) {
    throw SpoolWriteError("spool: flush failed: " + impl_->path, errno);
  }
#if defined(__unix__) || defined(__APPLE__)
  errno = 0;
  if (::fsync(::fileno(impl_->file)) != 0) {
    throw SpoolWriteError("spool: fsync failed: " + impl_->path, errno);
  }
#endif
  unsynced_ = 0;
}

void SpoolWriter::close() {
  if (closed_) return;
  sync();
  closed_ = true;
  if (impl_->file != nullptr) {
    std::fclose(impl_->file);
    impl_->file = nullptr;
  }
}

}  // namespace p2pgen::trace
