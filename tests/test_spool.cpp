// Durability suite for the trace spool (DESIGN.md §9) and the lenient
// trace reader: round trips across segment rolls, writer resume after
// close, fuzzed torn tails and corrupted bytes (every damaged spool must
// recover exactly the valid record prefix and at most the unsynced tail
// frame may be lost), the interior-damage hard error, the record-size
// limit the writer shares with the reader, and the CRC-32 every frame
// carries.  The fuzz loops double as the ASan/UBSan workout for the
// recovery scanner.
#include "trace/spool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define P2PGEN_TEST_HAVE_UNISTD 1
#else
#define P2PGEN_TEST_HAVE_UNISTD 0
#endif

#include "stats/rng.hpp"
#include "trace/spool_reader.hpp"
#include "trace/trace_io.hpp"
#include "util/crc32.hpp"

namespace p2pgen {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test spool directory.
std::string temp_spool_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/p2pgen_spool_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// A deterministic synthetic trace with all three event alternatives and
/// variable-length query strings (so frame sizes vary).
trace::Trace make_trace(std::size_t sessions, std::uint64_t seed) {
  stats::Rng rng(seed);
  trace::Trace out;
  double now = 0.0;
  for (std::size_t s = 0; s < sessions; ++s) {
    const std::uint64_t id = s + 1;
    trace::SessionStart start;
    start.time = now;
    start.session_id = id;
    start.ip = static_cast<std::uint32_t>(rng.next_u64());
    start.ultrapeer = rng.bernoulli(0.3);
    start.user_agent = rng.bernoulli(0.5) ? "mutella-0.4.5" : "LimeWire/4.2";
    out.append(trace::TraceEvent(start));
    const int messages = 1 + static_cast<int>(rng.next_u64() % 5);
    for (int m = 0; m < messages; ++m) {
      now += 0.25;
      trace::MessageEvent msg;
      msg.time = now;
      msg.session_id = id;
      msg.type = gnutella::MessageType::kQuery;
      msg.ttl = 3;
      msg.hops = 1;
      msg.query = std::string(rng.next_u64() % 40, 'q');
      msg.sha1 = rng.bernoulli(0.1);
      msg.guid_hash = rng.next_u64();
      out.append(trace::TraceEvent(msg));
    }
    now += 0.5;
    trace::SessionEnd end;
    end.time = now;
    end.session_id = id;
    end.reason = static_cast<trace::EndReason>(rng.next_u64() % 4);
    out.append(trace::TraceEvent(end));
  }
  return out;
}

std::string serialize(const trace::Trace& trace) {
  std::ostringstream os;
  trace::write_binary(trace, os);
  return os.str();
}

void spool_trace(const trace::Trace& trace, const std::string& dir,
                 trace::SpoolConfig config = {}) {
  trace::SpoolWriter writer(dir, config);
  for (const auto& event : trace.events()) writer.append(event);
  writer.close();
}

/// Path of the last (highest-numbered) segment in `dir`.
std::string last_segment(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.push_back(entry.path().string());
  }
  EXPECT_FALSE(names.empty());
  std::sort(names.begin(), names.end());
  return names.back();
}

TEST(Spool, RoundTripsAcrossSegmentRolls) {
  const std::string dir = temp_spool_dir("roll");
  const trace::Trace original = make_trace(64, 1);
  trace::SpoolConfig config;
  config.segment_max_records = 16;  // force many rolls
  spool_trace(original, dir, config);

  std::size_t segments = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++segments;
  }
  EXPECT_GT(segments, 10u);

  trace::SpoolRecoveryReport report;
  const trace::Trace loaded = trace::read_spool(dir, &report);
  EXPECT_FALSE(report.torn);
  EXPECT_EQ(report.records_truncated, 0u);
  EXPECT_EQ(report.records_recovered, original.size());
  EXPECT_EQ(serialize(loaded), serialize(original));
}

TEST(Spool, WriterResumesAfterCleanClose) {
  const std::string dir = temp_spool_dir("resume");
  const trace::Trace full = make_trace(40, 2);
  const std::size_t half = full.size() / 2;

  trace::SpoolConfig config;
  config.segment_max_records = 32;
  {
    trace::SpoolWriter writer(dir, config);
    for (std::size_t i = 0; i < half; ++i) writer.append(full.events()[i]);
    writer.close();
  }
  {
    trace::SpoolWriter writer(dir, config);
    EXPECT_EQ(writer.durable_records(), half);
    EXPECT_EQ(writer.recovery().records_truncated, 0u);
    // The open digest must equal an independent scan's digest: it is
    // what the checkpoint layer verifies a replay against.
    EXPECT_EQ(writer.open_digest(),
              trace::scan_spool(dir, false).payload_digest);
    for (std::size_t i = half; i < full.size(); ++i) {
      writer.append(full.events()[i]);
    }
    writer.close();
  }
  const trace::Trace loaded = trace::read_spool(dir);
  EXPECT_EQ(serialize(loaded), serialize(full));
}

TEST(Spool, FuzzTornTailRecoversValidPrefixAtEveryTruncationPoint) {
  const std::string dir = temp_spool_dir("torn");
  const trace::Trace original = make_trace(24, 3);
  trace::SpoolConfig config;
  config.segment_max_records = 1u << 20;  // single segment
  spool_trace(original, dir, config);
  const std::string segment = last_segment(dir);
  const auto full_size = static_cast<std::uint64_t>(fs::file_size(segment));
  std::vector<char> bytes(full_size);
  {
    std::ifstream in(segment, std::ios::binary);
    in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(in);
  }

  stats::Rng rng(99);
  for (int round = 0; round < 64; ++round) {
    const auto cut = rng.next_u64() % full_size;
    {
      std::ofstream out(segment, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(cut));
    }
    trace::SpoolRecoveryReport report;
    const trace::Trace recovered = trace::read_spool(dir, &report);
    // The recovered stream is a strict prefix of the original events.
    ASSERT_LE(recovered.size(), original.size());
    for (std::size_t i = 0; i < recovered.size(); ++i) {
      trace::Trace a, b;
      a.append(recovered.events()[i]);
      b.append(original.events()[i]);
      ASSERT_EQ(serialize(a), serialize(b)) << "event " << i << " cut " << cut;
    }
    // A cut exactly on a frame boundary is a clean (if shorter) spool;
    // any other cut is a torn tail, and the torn frame is the only loss.
    EXPECT_LT(recovered.size(), original.size());
    if (report.torn) {
      EXPECT_EQ(report.records_truncated, 1u);
      EXPECT_GT(report.bytes_truncated, 0u);
      EXPECT_FALSE(report.bad_segment.empty());
    } else {
      EXPECT_EQ(report.records_truncated, 0u);
    }
    // A writer must be able to open the damaged spool, truncate the torn
    // tail, and append the missing suffix back — and the result must be
    // byte-identical to the uninterrupted trace.
    {
      trace::SpoolWriter writer(dir, config);
      ASSERT_EQ(writer.durable_records(), recovered.size());
      for (std::size_t i = recovered.size(); i < original.size(); ++i) {
        writer.append(original.events()[i]);
      }
      writer.close();
    }
    ASSERT_EQ(serialize(trace::read_spool(dir)), serialize(original));
    // Restore the pristine segment for the next round.
    std::ofstream out(segment, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
}

TEST(Spool, FuzzCorruptedByteNeverCrashesAndKeepsAVerifiedPrefix) {
  const std::string dir = temp_spool_dir("corrupt");
  const trace::Trace original = make_trace(24, 4);
  spool_trace(original, dir);
  const std::string segment = last_segment(dir);
  std::vector<char> bytes;
  {
    std::ifstream in(segment, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }

  stats::Rng rng(77);
  for (int round = 0; round < 64; ++round) {
    std::vector<char> damaged = bytes;
    const std::size_t at = rng.next_u64() % damaged.size();
    damaged[at] = static_cast<char>(damaged[at] ^
                                    static_cast<char>(1 + rng.next_u64() % 255));
    {
      std::ofstream out(segment, std::ios::binary | std::ios::trunc);
      out.write(damaged.data(), static_cast<std::streamsize>(damaged.size()));
    }
    trace::SpoolRecoveryReport report;
    trace::Trace recovered;
    try {
      recovered = trace::read_spool(dir, &report);
    } catch (const trace::TraceIoError&) {
      // A CRC-colliding frame that fails to decode is allowed to throw;
      // what is never allowed is a crash or a wrong record.
      continue;
    }
    ASSERT_LE(recovered.size(), original.size());
    for (std::size_t i = 0; i < recovered.size(); ++i) {
      trace::Trace a, b;
      a.append(recovered.events()[i]);
      b.append(original.events()[i]);
      ASSERT_EQ(serialize(a), serialize(b)) << "event " << i << " byte " << at;
    }
  }
}

TEST(Spool, InteriorSegmentDamageIsAHardError) {
  const std::string dir = temp_spool_dir("interior");
  const trace::Trace original = make_trace(64, 5);
  trace::SpoolConfig config;
  config.segment_max_records = 16;
  spool_trace(original, dir, config);

  // Damage the FIRST segment: records after it would silently vanish
  // from the middle of the stream, so recovery must refuse.
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.push_back(entry.path().string());
  }
  std::sort(names.begin(), names.end());
  ASSERT_GT(names.size(), 2u);
  fs::resize_file(names.front(), fs::file_size(names.front()) - 3);

  EXPECT_THROW(trace::scan_spool(dir, false), trace::TraceIoError);
  EXPECT_THROW(trace::read_spool(dir), trace::TraceIoError);
}

TEST(Spool, HeaderTornFinalSegmentIsRebuiltFresh) {
  const std::string dir = temp_spool_dir("header");
  const trace::Trace original = make_trace(8, 6);
  spool_trace(original, dir);
  const std::string segment = last_segment(dir);
  fs::resize_file(segment, 3);  // not even the magic survived

  trace::SpoolWriter writer(dir);
  EXPECT_EQ(writer.durable_records(), 0u);
  EXPECT_TRUE(writer.recovery().torn);
  for (const auto& event : original.events()) writer.append(event);
  writer.close();
  EXPECT_EQ(serialize(trace::read_spool(dir)), serialize(original));
}

TEST(Spool, SyncIntervalBoundsTheUnsyncedTail) {
  const std::string dir = temp_spool_dir("sync");
  const trace::Trace original = make_trace(32, 7);
  trace::SpoolConfig config;
  config.sync_interval_records = 4;
  trace::SpoolWriter writer(dir, config);
  for (const auto& event : original.events()) writer.append(event);
  // No close(): scanning now still sees every *synced* record; at most
  // appended % sync_interval records live only in stdio buffers.
  const trace::SpoolScan scan = trace::scan_spool(dir, false);
  EXPECT_GE(scan.records + config.sync_interval_records, original.size());
  writer.close();
  EXPECT_EQ(trace::scan_spool(dir, false).records, original.size());
}

// Lenient trace reader (the recovery counterpart of read_binary) -------

TEST(TraceLenient, FullFileMatchesStrictReader) {
  const trace::Trace original = make_trace(16, 8);
  const std::string bytes = serialize(original);
  std::istringstream in(bytes);
  trace::SalvageReport report;
  const trace::Trace loaded = trace::read_trace_lenient(in, &report);
  EXPECT_EQ(serialize(loaded), bytes);
  EXPECT_FALSE(report.damaged());
  EXPECT_EQ(report.records_recovered, original.size());
  EXPECT_EQ(report.bytes_quarantined, 0u);
}

TEST(TraceLenient, FuzzTruncationKeepsValidPrefixWhereStrictThrows) {
  const trace::Trace original = make_trace(16, 9);
  const std::string bytes = serialize(original);
  stats::Rng rng(55);
  for (int round = 0; round < 64; ++round) {
    // Cut somewhere after the header so the lenient path is exercised
    // (header damage is not recoverable and still throws).
    const std::size_t min_keep = 16;
    const std::size_t cut =
        min_keep + rng.next_u64() % (bytes.size() - min_keep);
    const std::string torn = bytes.substr(0, cut);
    // When the strict reader rejects the torn stream, the lenient one
    // must recover its valid prefix; a cut exactly on a record boundary
    // parses as a shorter-but-valid trace in both (the silent data loss
    // the CRC-framed spool exists to rule out).
    bool strict_threw = false;
    {
      std::istringstream strict_in(torn);
      try {
        (void)trace::read_binary(strict_in);
      } catch (const trace::TraceIoError&) {
        strict_threw = true;
      }
    }
    std::istringstream in(torn);
    trace::SalvageReport report;
    const trace::Trace recovered = trace::read_trace_lenient(in, &report);
    ASSERT_LE(recovered.size(), original.size());
    EXPECT_EQ(report.records_recovered, recovered.size());
    EXPECT_EQ(report.damaged(), strict_threw);
    if (strict_threw) {
      EXPECT_GT(report.bytes_quarantined, 0u);
      ASSERT_EQ(report.ranges.size(), 1u);
      EXPECT_FALSE(report.ranges[0].detail.empty());
      EXPECT_GE(report.ranges[0].byte_end, report.ranges[0].byte_begin);
    }
    for (std::size_t i = 0; i < recovered.size(); ++i) {
      trace::Trace a, b;
      a.append(recovered.events()[i]);
      b.append(original.events()[i]);
      ASSERT_EQ(serialize(a), serialize(b)) << "event " << i << " cut " << cut;
    }
  }
}

TEST(TraceLenient, LoadFileVariantReportsTruncation) {
  const trace::Trace original = make_trace(8, 10);
  const std::string bytes = serialize(original);
  const std::string path = ::testing::TempDir() + "/p2pgen_lenient_cut.bin";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() - 5));
  }
  trace::SalvageReport report;
  const trace::Trace recovered = trace::load_trace_lenient(path, &report);
  EXPECT_TRUE(report.damaged());
  EXPECT_LT(recovered.size(), original.size());
  EXPECT_EQ(report.records_recovered, recovered.size());
}

// Salvage-mode spool reads (DESIGN.md §14) --------------------------------
//
// The fuzz loops below are the ASan/UBSan workout for the resync scanner:
// random single- and multi-range damage must never crash, never surface a
// wrong record, and lose ONLY the frames that overlap a damaged byte
// range — every loss accounted as a quarantined SalvageRange with its
// sim-time gap window.

std::vector<char> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void write_file_bytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

std::string serialize_event(const trace::TraceEvent& event) {
  trace::Trace one;
  one.append(event);
  return serialize(one);
}

/// (offset, total frame size incl. the 8-byte [len][crc] header) of every
/// frame in a clean segment, parsed independently of the reader.
std::vector<std::pair<std::uint64_t, std::uint64_t>> frame_spans(
    const std::vector<char>& bytes) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
  std::uint64_t pos = trace::kSpoolHeaderBytes;
  while (pos + 8 <= bytes.size()) {
    std::uint32_t len = 0;
    std::memcpy(&len, bytes.data() + pos, sizeof(len));
    spans.emplace_back(pos, 8 + static_cast<std::uint64_t>(len));
    pos += 8 + len;
  }
  EXPECT_EQ(pos, bytes.size());  // a clean segment is exactly framed
  return spans;
}

/// A multi-segment spool plus everything the loss-bound checks need: the
/// pristine bytes of each segment and the (segment, frame span) of every
/// record in stream order.
struct SalvageFixture {
  std::string dir;
  trace::Trace original;
  std::vector<std::string> segment_paths;
  std::vector<std::vector<char>> pristine;
  /// record index -> (segment list position, frame offset, frame size)
  std::vector<std::tuple<std::size_t, std::uint64_t, std::uint64_t>> frames;
};

SalvageFixture make_salvage_fixture(const std::string& name,
                                    std::size_t sessions, std::uint64_t seed,
                                    std::uint64_t segment_max_records) {
  SalvageFixture fx;
  fx.dir = temp_spool_dir(name);
  fx.original = make_trace(sessions, seed);
  trace::SpoolConfig config;
  config.segment_max_records = segment_max_records;
  spool_trace(fx.original, fx.dir, config);
  fx.segment_paths = trace::spool_segment_paths(fx.dir);
  EXPECT_GT(fx.segment_paths.size(), 2u);
  for (std::size_t s = 0; s < fx.segment_paths.size(); ++s) {
    fx.pristine.push_back(read_file_bytes(fx.segment_paths[s]));
    for (const auto& [off, size] : frame_spans(fx.pristine.back())) {
      fx.frames.emplace_back(s, off, size);
    }
  }
  EXPECT_EQ(fx.frames.size(), fx.original.size());
  return fx;
}

/// Asserts `recovered` is exactly `original` minus the records in `lost`.
void expect_exactly_undamaged(const trace::Trace& original,
                              const trace::Trace& recovered,
                              const std::set<std::size_t>& lost) {
  std::size_t r = 0;
  for (std::size_t i = 0; i < original.size(); ++i) {
    if (lost.count(i) != 0) continue;
    ASSERT_LT(r, recovered.size()) << "undamaged record " << i << " lost";
    ASSERT_EQ(serialize_event(recovered.events()[r]),
              serialize_event(original.events()[i]))
        << "recovered record " << r << " != original record " << i;
    ++r;
  }
  EXPECT_EQ(r, recovered.size()) << "salvage surfaced extra records";
}

TEST(SpoolSalvage, CleanSpoolIsBitIdenticalToStrict) {
  const SalvageFixture fx = make_salvage_fixture("salvage_clean", 24, 11, 16);
  const trace::Trace strict = trace::read_spool(fx.dir);
  trace::SalvageReport report;
  const trace::Trace salvaged = trace::read_spool_salvage(fx.dir, &report);
  EXPECT_EQ(serialize(salvaged), serialize(strict));
  EXPECT_EQ(serialize(salvaged), serialize(fx.original));
  EXPECT_FALSE(report.damaged());
  EXPECT_TRUE(report.ranges.empty());
  EXPECT_EQ(report.records_recovered, fx.original.size());
  EXPECT_EQ(report.frames_lost, 0u);
  EXPECT_EQ(report.bytes_quarantined, 0u);
}

TEST(SpoolSalvage, SingleInteriorFrameCorruptionLosesOnlyThatFrame) {
  const SalvageFixture fx =
      make_salvage_fixture("salvage_single", 24, 12, 16);
  // An interior frame of an interior segment, with same-segment neighbors
  // on both sides so the gap window is pinned by this segment alone.
  const std::size_t record = 16 + 7;
  const auto [seg, off, size] = fx.frames[record];
  ASSERT_EQ(seg, 1u);

  std::vector<char> damaged = fx.pristine[seg];
  damaged[off + 10] ^= 0x5a;  // one payload byte
  write_file_bytes(fx.segment_paths[seg], damaged);

  EXPECT_THROW(trace::read_spool(fx.dir), trace::TraceIoError);

  trace::SalvageReport report;
  const trace::Trace recovered = trace::read_spool_salvage(fx.dir, &report);
  expect_exactly_undamaged(fx.original, recovered, {record});
  EXPECT_EQ(report.records_recovered, fx.original.size() - 1);
  EXPECT_EQ(report.frames_lost, 1u);
  ASSERT_EQ(report.ranges.size(), 1u);
  const trace::SalvageRange& range = report.ranges[0];
  EXPECT_EQ(range.file, trace::spool_segment_name(1));
  EXPECT_EQ(range.byte_begin, off);
  EXPECT_EQ(range.byte_end, off + size);
  EXPECT_EQ(range.frames_lost, 1u);
  // The gap window is [previous record's time, next record's time]: the
  // tightest sim-time interval the damage can hide events in.
  EXPECT_DOUBLE_EQ(range.time_before,
                   trace::event_time(fx.original.events()[record - 1]));
  EXPECT_DOUBLE_EQ(range.time_after,
                   trace::event_time(fx.original.events()[record + 1]));
  EXPECT_EQ(report.bytes_quarantined, size);
}

TEST(SpoolSalvage, FuzzMultiRangeCorruptionNeverLosesAnUndamagedFrame) {
  const SalvageFixture fx = make_salvage_fixture("salvage_fuzz", 24, 13, 16);
  stats::Rng rng(4242);
  for (int round = 0; round < 48; ++round) {
    // 1-3 damage ranges of 1-16 bytes each, anywhere past the header.
    std::vector<std::vector<char>> bytes = fx.pristine;
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> damage(
        bytes.size());
    const int n_ranges = 1 + static_cast<int>(rng.next_u64() % 3);
    for (int d = 0; d < n_ranges; ++d) {
      const std::size_t seg = rng.next_u64() % bytes.size();
      const std::uint64_t seg_size = bytes[seg].size();
      const std::uint64_t begin =
          trace::kSpoolHeaderBytes +
          rng.next_u64() % (seg_size - trace::kSpoolHeaderBytes);
      const std::uint64_t end =
          std::min(seg_size, begin + 1 + rng.next_u64() % 16);
      for (std::uint64_t b = begin; b < end; ++b) {
        bytes[seg][b] = static_cast<char>(
            bytes[seg][b] ^ static_cast<char>(1 + rng.next_u64() % 255));
      }
      damage[seg].emplace_back(begin, end);
    }
    for (std::size_t s = 0; s < bytes.size(); ++s) {
      write_file_bytes(fx.segment_paths[s], bytes[s]);
    }
    // Expected loss: exactly the frames whose bytes overlap a damage range.
    std::set<std::size_t> lost;
    for (std::size_t r = 0; r < fx.frames.size(); ++r) {
      const auto& [seg, off, size] = fx.frames[r];
      for (const auto& [begin, end] : damage[seg]) {
        if (begin < off + size && end > off) lost.insert(r);
      }
    }
    ASSERT_FALSE(lost.empty());

    trace::SalvageReport report;
    trace::Trace recovered;
    ASSERT_NO_THROW(recovered = trace::read_spool_salvage(fx.dir, &report))
        << "round " << round;
    expect_exactly_undamaged(fx.original, recovered, lost);
    EXPECT_TRUE(report.damaged()) << "round " << round;
    EXPECT_EQ(report.records_recovered, fx.original.size() - lost.size());
    // frames_lost is exact when length headers survive, a floor when a
    // range swallows several frames — never an overcount.
    EXPECT_GE(report.frames_lost, 1u);
    std::ostringstream dump;
    for (const auto& range : report.ranges) {
      dump << "  " << range.file << " [" << range.byte_begin << ", "
           << range.byte_end << ") frames_lost=" << range.frames_lost
           << " detail=" << range.detail << "\n";
    }
    for (std::size_t s = 0; s < damage.size(); ++s) {
      for (const auto& [begin, end] : damage[s]) {
        dump << "  damage seg " << s << " [" << begin << ", " << end << ")\n";
      }
    }
    EXPECT_LE(report.frames_lost, lost.size()) << dump.str();
    EXPECT_GT(report.bytes_quarantined, 0u);
  }
  // Restore the pristine spool and require bit-identity with strict again:
  // the salvage reader holds no sticky state across damage.
  for (std::size_t s = 0; s < fx.pristine.size(); ++s) {
    write_file_bytes(fx.segment_paths[s], fx.pristine[s]);
  }
  trace::SalvageReport report;
  EXPECT_EQ(serialize(trace::read_spool_salvage(fx.dir, &report)),
            serialize(fx.original));
  EXPECT_FALSE(report.damaged());
}

TEST(SpoolSalvage, MissingInteriorSegmentBecomesAnAccountedGap) {
  const SalvageFixture fx =
      make_salvage_fixture("salvage_missing", 24, 14, 16);
  fs::remove(fx.segment_paths[1]);

  EXPECT_THROW(trace::read_spool(fx.dir), trace::TraceIoError);

  std::set<std::size_t> lost;
  for (std::size_t r = 16; r < 32; ++r) lost.insert(r);
  trace::SalvageReport report;
  const trace::Trace recovered = trace::read_spool_salvage(fx.dir, &report);
  expect_exactly_undamaged(fx.original, recovered, lost);
  ASSERT_EQ(report.ranges.size(), 1u);
  const trace::SalvageRange& range = report.ranges[0];
  EXPECT_EQ(range.file, trace::spool_segment_name(1));
  EXPECT_GE(range.frames_lost, 1u);
  // The assembler patches the gap window from the neighboring segments'
  // boundary records.
  EXPECT_DOUBLE_EQ(range.time_before,
                   trace::event_time(fx.original.events()[15]));
  EXPECT_DOUBLE_EQ(range.time_after,
                   trace::event_time(fx.original.events()[32]));
}

TEST(SpoolSalvage, DamagedHeaderLosesNoRecords) {
  const SalvageFixture fx = make_salvage_fixture("salvage_header", 24, 15, 16);
  std::vector<char> damaged = fx.pristine[1];
  damaged[0] ^= 0x7f;  // break the magic of an interior segment
  write_file_bytes(fx.segment_paths[1], damaged);

  EXPECT_THROW(trace::read_spool(fx.dir), trace::TraceIoError);

  trace::SalvageReport report;
  const trace::Trace recovered = trace::read_spool_salvage(fx.dir, &report);
  // Only header bytes were damaged; every record survives, the loss
  // accounting still quarantines the 8 unreadable bytes.
  EXPECT_EQ(serialize(recovered), serialize(fx.original));
  EXPECT_EQ(report.records_recovered, fx.original.size());
  EXPECT_TRUE(report.damaged());
  ASSERT_EQ(report.ranges.size(), 1u);
  EXPECT_EQ(report.ranges[0].file, trace::spool_segment_name(1));
  EXPECT_EQ(report.ranges[0].byte_begin, 0u);
  EXPECT_EQ(report.ranges[0].byte_end, trace::kSpoolHeaderBytes);
}

TEST(SpoolSalvage, TruncateToValidPrefixEnablesStrictReplay) {
  const SalvageFixture fx =
      make_salvage_fixture("salvage_truncate", 24, 16, 16);
  const std::size_t record = 16 + 7;
  const auto [seg, off, size] = fx.frames[record];
  std::vector<char> damaged = fx.pristine[seg];
  damaged[off + 4] ^= 0x11;  // break the frame checksum
  write_file_bytes(fx.segment_paths[seg], damaged);

  // Expected drop: the damaged segment past the last clean frame, plus
  // every later segment in full.
  std::uint64_t expected = fx.pristine[seg].size() - off;
  for (std::size_t s = seg + 1; s < fx.pristine.size(); ++s) {
    expected += fx.pristine[s].size();
  }
  EXPECT_EQ(trace::truncate_spool_to_valid_prefix(fx.dir), expected);

  // The remaining prefix is strictly clean and replay can regenerate the
  // rest exactly.
  trace::SpoolRecoveryReport report;
  const trace::Trace prefix = trace::read_spool(fx.dir, &report);
  EXPECT_FALSE(report.torn);
  ASSERT_EQ(prefix.size(), record);
  trace::SpoolConfig config;
  config.segment_max_records = 16;
  {
    trace::SpoolWriter writer(fx.dir, config);
    ASSERT_EQ(writer.durable_records(), record);
    for (std::size_t i = record; i < fx.original.size(); ++i) {
      writer.append(fx.original.events()[i]);
    }
    writer.close();
  }
  EXPECT_EQ(serialize(trace::read_spool(fx.dir)), serialize(fx.original));
}

// ------------------------------------------------------------ record limits

trace::MessageEvent query_of_length(std::size_t bytes) {
  trace::MessageEvent msg;
  msg.time = 1000.0;
  msg.session_id = 1;
  msg.type = gnutella::MessageType::kQuery;
  msg.ttl = 3;
  msg.hops = 1;
  msg.query = std::string(bytes, 'x');
  return msg;
}

TEST(Spool, OversizedStringIsRefusedBeforeAnyByteIsWritten) {
  // The decoder refuses strings over kMaxStringBytes, so the writer must
  // too: a CRC-valid but undecodable frame would break strict reads.
  const std::string dir = temp_spool_dir("oversized");
  const trace::Trace original = make_trace(8, 21);
  trace::SpoolWriter writer(dir);
  for (const auto& event : original.events()) writer.append(event);
  writer.sync();
  const std::string segment = last_segment(dir);
  const auto size_before = fs::file_size(segment);
  const std::uint64_t records_before = writer.records();

  EXPECT_THROW(writer.append(query_of_length(trace::kMaxStringBytes + 1)),
               trace::TraceIoError);
  trace::SessionStart start;
  start.session_id = 99;
  start.user_agent = std::string(trace::kMaxStringBytes + 1, 'u');
  EXPECT_THROW(writer.append(start), trace::TraceIoError);

  writer.sync();
  EXPECT_EQ(writer.records(), records_before);
  EXPECT_EQ(fs::file_size(segment), size_before);
  writer.close();

  trace::SpoolRecoveryReport report;
  const trace::Trace loaded = trace::read_spool(dir, &report);
  EXPECT_FALSE(report.torn);
  EXPECT_EQ(serialize(loaded), serialize(original));
}

TEST(Spool, MaximalStringRoundTripsThroughSpoolAndTraceFile) {
  trace::Trace original;
  original.append(trace::TraceEvent(query_of_length(trace::kMaxStringBytes)));

  const std::string dir = temp_spool_dir("maximal");
  spool_trace(original, dir);
  EXPECT_EQ(serialize(trace::read_spool(dir)), serialize(original));

  const std::string path = dir + "/maximal.bin";
  trace::save_binary(original, path);
  const trace::Trace loaded = trace::load_binary(path);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded.events()[0], original.events()[0]);
}

// ------------------------------------------------------------------ CRC-32

std::uint32_t bitwise_crc32(const unsigned char* data, std::size_t n) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32, KnownAnswers) {
  EXPECT_EQ(util::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(util::crc32(nullptr, 0), 0u);
  EXPECT_EQ(trace::crc32("123456789", 9), 0xCBF43926u);
}

TEST(Crc32, EveryLengthAndAlignmentMatchesTheBitwiseReference) {
  stats::Rng rng(0xC3C3);
  std::vector<unsigned char> buffer(257 + 8);
  for (auto& byte : buffer) byte = static_cast<unsigned char>(rng.next_u64());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 257; ++len) {
      const unsigned char* data = buffer.data() + offset;
      ASSERT_EQ(util::crc32(data, len), bitwise_crc32(data, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, ChunkedUpdateEqualsOneShot) {
  stats::Rng rng(0xC4C4);
  std::vector<unsigned char> buffer(4099);
  for (auto& byte : buffer) byte = static_cast<unsigned char>(rng.next_u64());
  const std::uint32_t whole = util::crc32(buffer.data(), buffer.size());
  for (int trial = 0; trial < 50; ++trial) {
    std::uint32_t state = util::crc32_init();
    std::size_t pos = 0;
    while (pos < buffer.size()) {
      const std::size_t chunk = std::min<std::size_t>(
          buffer.size() - pos, rng.uniform_index(trial < 25 ? 12 : 300));
      state = util::crc32_update(state, buffer.data() + pos, chunk);
      pos += chunk;
    }
    ASSERT_EQ(util::crc32_final(state), whole) << "trial " << trial;
  }
}

#if P2PGEN_TEST_HAVE_UNISTD
TEST(SpoolSalvage, WriteErrorsCarryErrno) {
  if (::geteuid() == 0) {
    GTEST_SKIP() << "running as root: permission bits are not enforced";
  }
  const std::string dir = temp_spool_dir("salvage_eacces");
  fs::permissions(dir, fs::perms::owner_read | fs::perms::owner_exec,
                  fs::perm_options::replace);
  try {
    trace::SpoolWriter writer(dir);
    fs::permissions(dir, fs::perms::owner_all, fs::perm_options::replace);
    FAIL() << "SpoolWriter opened a segment in an unwritable directory";
  } catch (const trace::SpoolWriteError& error) {
    EXPECT_EQ(error.error_code(), EACCES);
  }
  fs::permissions(dir, fs::perms::owner_all, fs::perm_options::replace);
}
#endif

}  // namespace
}  // namespace p2pgen
