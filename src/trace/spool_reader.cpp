#include "trace/spool_reader.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "trace/spool.hpp"
#include "trace/trace_io.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define P2PGEN_SPOOL_HAVE_MMAP 1
#else
#define P2PGEN_SPOOL_HAVE_MMAP 0
#endif

namespace p2pgen::trace {
namespace {

namespace fs = std::filesystem;

/// Decodes one frame payload just far enough to learn its sim-time.
/// Never throws: boundary-time inference must not turn a recoverable
/// gap into a hard error.
double payload_time(const std::uint8_t* data, std::size_t size) noexcept {
  try {
    return event_time(decode_event_binary(data, size));
  } catch (...) {
    return std::numeric_limits<double>::quiet_NaN();
  }
}

/// Is there a CRC-valid frame starting at `q`?  `crc_budget` is drawn
/// down by every payload byte checksummed while probing; a zero budget
/// fails all further probes (the bounded part of the bounded scan).
bool probe_frame(const std::uint8_t* data, std::uint64_t size, std::uint64_t q,
                 std::uint64_t& crc_budget) {
  if (size - q < 2 * sizeof(std::uint32_t)) return false;
  std::uint32_t len = 0;
  std::uint32_t crc = 0;
  std::memcpy(&len, data + q, sizeof(len));
  std::memcpy(&crc, data + q + sizeof(len), sizeof(crc));
  // The writer never frames an empty payload, and CRC32 of nothing is 0:
  // without the len == 0 guard any 8 zero bytes inside a damaged region
  // would count as a valid resync point and fragment the quarantine.
  if (len == 0 || len > kSpoolMaxPayload) return false;
  if (size - q < 2 * sizeof(std::uint32_t) + len) return false;
  if (crc_budget < len) {
    crc_budget = 0;
    return false;
  }
  crc_budget -= len;
  return crc32(data + q + 2 * sizeof(std::uint32_t), len) == crc;
}

}  // namespace

SegmentBytes::SegmentBytes(const std::string& path) {
  size_ = static_cast<std::size_t>(fs::file_size(path));
#if P2PGEN_SPOOL_HAVE_MMAP
  if (size_ > 0) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) throw std::runtime_error("spool: cannot open " + path);
    void* p = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (p != MAP_FAILED) {
      map_ = p;
      data_ = static_cast<const std::uint8_t*>(p);
      return;
    }
    // mmap can fail on exotic filesystems; fall through to read().
  }
#endif
  buf_.resize(size_);
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("spool: cannot open " + path);
  if (size_ > 0) {
    in.read(reinterpret_cast<char*>(buf_.data()),
            static_cast<std::streamsize>(size_));
    if (static_cast<std::size_t>(in.gcount()) != size_) {
      throw std::runtime_error("spool: short read: " + path);
    }
  }
  data_ = buf_.data();
}

SegmentBytes::~SegmentBytes() {
#if P2PGEN_SPOOL_HAVE_MMAP
  if (map_ != nullptr) ::munmap(map_, size_);
#endif
}

std::string spool_segment_name(std::size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "seg-%06zu.p2ps", index);
  return buf;
}

bool parse_spool_segment_index(const std::string& name, std::size_t& index) {
  if (name.rfind("seg-", 0) != 0) return false;
  const auto dot = name.find(".p2ps");
  if (dot == std::string::npos || dot + 5 != name.size()) return false;
  const std::string digits = name.substr(4, dot - 4);
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  index = static_cast<std::size_t>(std::stoull(digits));
  return true;
}

std::vector<std::string> spool_segment_paths(const std::string& dir) {
  fs::create_directories(dir);
  std::vector<std::pair<std::size_t, std::string>> segments;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::size_t index = 0;
    if (parse_spool_segment_index(entry.path().filename().string(), index)) {
      segments.emplace_back(index, entry.path().string());
    }
  }
  std::sort(segments.begin(), segments.end());
  std::vector<std::string> paths;
  paths.reserve(segments.size());
  for (auto& [index, path] : segments) paths.push_back(std::move(path));
  return paths;
}

namespace {

/// read_spool_segment() over `bytes`, the already-mapped contents of
/// `path` (the name only labels errors and salvage ranges).
SegmentReadResult read_mapped_segment(const std::string& path,
                                      const SegmentBytes& bytes,
                                      bool allow_damage,
                                      std::uint64_t* digest,
                                      const SpoolPayloadFn& on_payload,
                                      SpoolReadMode mode) {
  const std::uint8_t* data = bytes.data();
  const std::uint64_t size = bytes.size();
  const bool salvage = mode == SpoolReadMode::kSalvage;
  constexpr std::uint64_t kFrameOverhead = 2 * sizeof(std::uint32_t);
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

  SegmentReadResult out;
  out.file = fs::path(path).filename().string();
  out.file_size = size;

  // Last accepted payload, remembered by position so its sim-time can be
  // decoded lazily — only when a gap actually needs it.
  std::uint64_t last_off = 0;
  std::uint32_t last_len = 0;
  bool have_last = false;
  const auto last_time = [&]() -> double {
    return have_last ? payload_time(data + last_off, last_len) : kNaN;
  };

  // Finds the next valid frame at or after `from`: the frame-skip
  // candidate first (an intact length header makes the loss exactly one
  // frame), then a bounded byte scan.  Returns size + 1 when no resync
  // point exists within the window/budget.
  std::uint64_t crc_budget = kSalvageCrcBudget;
  const auto resync_from = [&](std::uint64_t from,
                               std::uint64_t skip_candidate) -> std::uint64_t {
    if (skip_candidate >= from && skip_candidate < size &&
        probe_frame(data, size, skip_candidate, crc_budget)) {
      return skip_candidate;
    }
    const std::uint64_t limit =
        std::min(size, from + kSalvageScanWindow);
    for (std::uint64_t q = from; q < limit && crc_budget > 0; ++q) {
      if (q == skip_candidate) continue;  // already probed
      if (probe_frame(data, size, q, crc_budget)) return q;
    }
    return size + 1;
  };

  // Quarantines [begin, end); the next accepted record closes the gap's
  // time window.
  bool patch_pending = false;
  const auto quarantine = [&](std::uint64_t begin, std::uint64_t end,
                              std::string detail) {
    SalvageRange range;
    range.file = fs::path(path).filename().string();
    range.byte_begin = begin;
    range.byte_end = end;
    range.frames_lost = 1;  // exact for single-frame damage, else a floor
    range.time_before = last_time();  // NaN: gap starts before any record
    range.time_after = kNaN;          // patched at the next accepted record
    range.detail = std::move(detail);
    out.salvaged.push_back(std::move(range));
    patch_pending = true;
  };

  char magic[sizeof(kSpoolMagic)];
  std::uint32_t version = 0;
  if (size >= kSpoolHeaderBytes) {
    std::memcpy(magic, data, sizeof(magic));
    std::memcpy(&version, data + sizeof(magic), sizeof(version));
  }
  const bool header_ok =
      size >= kSpoolHeaderBytes &&
      std::memcmp(magic, kSpoolMagic, sizeof(magic)) == 0 && version != 0 &&
      version <= kSpoolVersion;

  std::uint64_t pos = kSpoolHeaderBytes;
  bool parse = header_ok;
  if (!header_ok) {
    // Torn or foreign header.  Strict: nothing in this file is
    // trustworthy.  Salvage: the frames after the 8 damaged header bytes
    // may be intact — probe for them.
    out.torn = true;
    out.first_bad_offset = 0;
    out.valid_end = 0;
    if (salvage && size > kSpoolHeaderBytes) {
      const std::uint64_t q = resync_from(kSpoolHeaderBytes, 0);
      if (q <= size) {
        quarantine(0, q, "spool: damaged segment header");
        out.torn = false;
        pos = q;
        parse = true;
      }
    }
  }

  if (parse) {
    while (pos < size) {
      const std::uint64_t remaining = size - pos;
      std::uint32_t len = 0;
      std::uint32_t crc = 0;
      bool framed = false;  // header readable, length sane, payload fits
      const char* why = nullptr;
      if (remaining < sizeof(len)) {
        why = "torn frame length";
      } else {
        std::memcpy(&len, data + pos, sizeof(len));
        if (len == 0 || len > kSpoolMaxPayload) {
          // Zero-length frames are never written (see probe_frame).
          why = "implausible frame length";
        } else if (remaining < kFrameOverhead) {
          why = "torn frame checksum";
        } else {
          std::memcpy(&crc, data + pos + sizeof(len), sizeof(crc));
          if (remaining < kFrameOverhead + len) {
            why = "torn frame payload";
          } else {
            framed = true;
          }
        }
      }
      if (framed) {
        const std::uint8_t* payload = data + pos + kFrameOverhead;
        if (crc32(payload, len) == crc) {
          const std::uint64_t frame_begin = pos;
          pos += kFrameOverhead + len;
          if (salvage) {
            try {
              if (on_payload) on_payload(payload, len);
            } catch (const TraceIoError& e) {
              // CRC-valid yet undecodable: quarantine just this frame
              // (its bytes never reach the digest or the consumer).
              quarantine(frame_begin, pos, e.what());
              continue;
            }
            if (out.records == 0) {
              out.first_record_time = payload_time(payload, len);
            }
            if (patch_pending) {
              out.salvaged.back().time_after = payload_time(payload, len);
              patch_pending = false;
            }
            last_off = frame_begin + kFrameOverhead;
            last_len = len;
            have_last = true;
          } else {
            if (on_payload) on_payload(payload, len);
          }
          ++out.records;
          if (digest != nullptr) *digest = fnv1a_update(*digest, payload, len);
          continue;
        }
        why = "frame checksum mismatch";
      }
      // Damage at pos.
      if (!salvage) {
        out.torn = true;
        break;
      }
      const std::uint64_t skip = framed ? pos + kFrameOverhead + len : 0;
      const std::uint64_t q = resync_from(pos + 1, skip);
      if (q > size) {
        // No valid frame within the window/budget: the damage runs to
        // the end of the file as far as we can tell.  Report torn and
        // let the caller decide tail-vs-gap.
        out.torn = true;
        break;
      }
      quarantine(pos, q,
                 std::string("spool: ") + why + " at byte offset " +
                     std::to_string(pos));
      pos = q;
    }
    out.valid_end = pos;
    if (out.torn) out.first_bad_offset = pos;
  }

  if (salvage) out.last_record_time = last_time();

  if (out.torn && !allow_damage) {
    throw TraceIoError("spool: segment damaged: " + path + " at byte offset " +
                           std::to_string(out.first_bad_offset),
                       out.first_bad_offset);
  }
  return out;
}

}  // namespace

SegmentReadResult read_spool_segment(const std::string& path,
                                     bool allow_damage,
                                     std::uint64_t* digest,
                                     const SpoolPayloadFn& on_payload,
                                     SpoolReadMode mode) {
  return read_mapped_segment(path, SegmentBytes(path), allow_damage, digest,
                             on_payload, mode);
}

SpoolReader::SpoolReader(std::string dir, SpoolReadMode mode)
    : dir_(std::move(dir)), mode_(mode), segments_(spool_segment_paths(dir_)) {
  file_indices_.reserve(segments_.size());
  for (const auto& path : segments_) {
    std::size_t index = 0;
    (void)parse_spool_segment_index(fs::path(path).filename().string(), index);
    file_indices_.push_back(index);
  }
  if (mode_ == SpoolReadMode::kStrict) {
    // The writer numbers segments contiguously from 0; a hole means a
    // whole segment file vanished — interior loss, never a torn tail.
    for (std::size_t p = 0; p < file_indices_.size(); ++p) {
      if (file_indices_[p] != p) {
        throw TraceIoError(
            "spool: missing segment " + spool_segment_name(p) + " in " + dir_,
            0);
      }
    }
  }
}

std::vector<std::size_t> SpoolReader::missing_before(
    std::size_t position) const {
  std::vector<std::size_t> missing;
  if (position > segments_.size()) return missing;
  const std::size_t lo = position == 0 ? 0 : file_indices_[position - 1] + 1;
  const std::size_t hi = position == segments_.size()
                             ? lo  // holes after the last file are unknowable
                             : file_indices_[position];
  for (std::size_t i = lo; i < hi; ++i) missing.push_back(i);
  return missing;
}

const std::string& SpoolReader::segment_path(std::size_t index) const {
  if (index >= segments_.size()) {
    throw std::out_of_range("SpoolReader: segment index " +
                            std::to_string(index) + " out of range");
  }
  return segments_[index];
}

SegmentReadResult SpoolReader::read_segment(
    std::size_t index, const SpoolPayloadFn& on_payload) const {
  return read_segment(index, SegmentBytes(segment_path(index)), on_payload);
}

SegmentReadResult SpoolReader::read_segment(
    std::size_t index, const SegmentBytes& bytes,
    const SpoolPayloadFn& on_payload) const {
  const std::string& path = segment_path(index);
  SegmentReadResult out =
      read_mapped_segment(path, bytes, /*allow_damage=*/true, nullptr,
                          on_payload, mode_);
  const bool interior = index + 1 != segments_.size();
  if (out.torn && interior) {
    if (mode_ == SpoolReadMode::kStrict) {
      // Interior damage is not a tail: records after this segment would
      // silently vanish from the middle of the stream.
      throw TraceIoError("spool: interior segment damaged: " + path +
                             " at byte offset " +
                             std::to_string(out.first_bad_offset),
                         out.first_bad_offset);
    }
    // Salvage: unresynced interior damage runs to the end of this
    // segment but the stream continues in the next one — account it as
    // a quarantined gap, not a tail.
    SalvageRange range;
    range.file = fs::path(path).filename().string();
    range.byte_begin = out.first_bad_offset;
    range.byte_end = out.file_size;
    range.frames_lost = 1;
    range.time_before = out.last_record_time;  // NaN when no record survived
    range.time_after = std::numeric_limits<double>::quiet_NaN();
    range.detail = "spool: interior damage to end of segment";
    out.salvaged.push_back(std::move(range));
    out.torn = false;
  }
  return out;
}

}  // namespace p2pgen::trace
