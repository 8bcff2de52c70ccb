#include "obs/timeline.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/crc32.hpp"
#include "util/fnv1a.hpp"

namespace p2pgen::obs {

namespace {

std::uint64_t double_bits(double value) noexcept {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double bits_double(std::uint64_t bits) noexcept {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

/// Sidecar wire format (all little-endian):
///   "p2pt" | u32 version | u32 series_count | u32 pad(0) |
///   u64 tick_seconds_bits | u64 count | count * records
/// Record: u64 time_bits | u32 shard | u32 pad(0) |
///         kTimelineSeriesCount * u64 values
constexpr char kTimelineMagic[4] = {'p', '2', 'p', 't'};
// v2 appends a CRC32 trailer over the record bytes so a resume can tell
// a damaged sidecar from a valid one (and rebuild it, DESIGN.md §14).
constexpr std::uint32_t kTimelineFormatVersion = 2;
constexpr std::size_t kTimelineHeaderBytes = 32;
constexpr std::size_t kTimelineRecordBytes = 16 + 8 * kTimelineSeriesCount;

void put_u32(unsigned char* out, std::uint32_t v) noexcept {
  out[0] = static_cast<unsigned char>(v & 0xffU);
  out[1] = static_cast<unsigned char>((v >> 8) & 0xffU);
  out[2] = static_cast<unsigned char>((v >> 16) & 0xffU);
  out[3] = static_cast<unsigned char>((v >> 24) & 0xffU);
}

void put_u64(unsigned char* out, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xffU);
  }
}

std::uint32_t get_u32(const unsigned char* in) noexcept {
  return static_cast<std::uint32_t>(in[0]) |
         (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) |
         (static_cast<std::uint32_t>(in[3]) << 24);
}

std::uint64_t get_u64(const unsigned char* in) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  }
  return v;
}

void encode_record(unsigned char* out, const TimelinePoint& p) noexcept {
  put_u64(out + 0, double_bits(p.time));
  put_u32(out + 8, p.shard);
  put_u32(out + 12, 0);
  for (std::size_t s = 0; s < kTimelineSeriesCount; ++s) {
    put_u64(out + 16 + 8 * s, p.values[s]);
  }
}

TimelinePoint decode_record(const unsigned char* in) noexcept {
  TimelinePoint p;
  p.time = bits_double(get_u64(in + 0));
  p.shard = get_u32(in + 8);
  for (std::size_t s = 0; s < kTimelineSeriesCount; ++s) {
    p.values[s] = get_u64(in + 16 + 8 * s);
  }
  return p;
}

class ScopedFile {
 public:
  explicit ScopedFile(std::FILE* file) : file_(file) {}
  ~ScopedFile() {
    if (file_ != nullptr) std::fclose(file_);
  }
  ScopedFile(const ScopedFile&) = delete;
  ScopedFile& operator=(const ScopedFile&) = delete;
  std::FILE* get() const noexcept { return file_; }
  int close() {
    const int rc = std::fclose(file_);
    file_ = nullptr;
    return rc;
  }

 private:
  std::FILE* file_;
};

}  // namespace

const char* timeline_series_name(TimelineSeries series) noexcept {
  switch (series) {
    case TimelineSeries::kQueries: return "queries";
    case TimelineSeries::kQueryHits: return "query_hits";
    case TimelineSeries::kSessionsStarted: return "sessions_started";
    case TimelineSeries::kSessionsEnded: return "sessions_ended";
    case TimelineSeries::kActiveSessions: return "active_sessions";
    case TimelineSeries::kShedQueries: return "shed_queries";
    case TimelineSeries::kShedConnections: return "shed_connections";
    case TimelineSeries::kDropLoss: return "drop_loss";
    case TimelineSeries::kDropCorrupted: return "drop_corrupted";
    case TimelineSeries::kDropDeadLink: return "drop_dead_link";
    case TimelineSeries::kDropDuplicate: return "drop_duplicate";
    case TimelineSeries::kQueriesNorthAmerica: return "queries_north_america";
    case TimelineSeries::kQueriesEurope: return "queries_europe";
    case TimelineSeries::kQueriesAsia: return "queries_asia";
    case TimelineSeries::kQueriesOther: return "queries_other";
  }
  return "unknown";
}

bool operator==(const TimelinePoint& a, const TimelinePoint& b) noexcept {
  return double_bits(a.time) == double_bits(b.time) && a.shard == b.shard &&
         a.values == b.values;
}

TimelineRecorder::TimelineRecorder(const TimelineConfig& config)
    : tick_(config.tick_seconds), gate_(config.gate_time) {}

void TimelineRecorder::close_tick() {
  TimelinePoint point;
  // gate + k * tick with integer k: every shard computes the identical
  // expression, and no floating-point error accumulates over a 40-day
  // run the way repeated `+= tick_` would.
  point.time = gate_ + static_cast<double>(next_tick_) * tick_;
  point.values = counts_;
  for (std::size_t s = 0; s < kTimelineSeriesCount; ++s) {
    const auto series = static_cast<TimelineSeries>(s);
    if (timeline_series_is_gauge(series)) {
      point.values[s] =
          static_cast<std::uint64_t>(std::max<std::int64_t>(levels_[s], 0));
    }
  }
  points_.push_back(point);
  counts_.fill(0);
  ++next_tick_;
}

void TimelineRecorder::advance_to(double time) {
  // Close every tick that ends at or before `time`.  The loop is bounded
  // by the simulation horizon / tick ratio (a few thousand for the
  // default tick even at the 40-day paper scale).
  while (time >= gate_ + static_cast<double>(next_tick_ + 1) * tick_) {
    close_tick();
  }
}

void TimelineRecorder::count(double time, TimelineSeries series,
                             std::uint64_t n) {
  if (tick_ <= 0.0 || time < gate_) return;
  advance_to(time);
  counts_[static_cast<std::size_t>(series)] += n;
}

void TimelineRecorder::level(double time, TimelineSeries series,
                             std::int64_t delta) {
  if (tick_ <= 0.0) return;
  // Pre-gate deltas still move the level (warm-up opens real sessions the
  // first tick must count), but never close a tick.
  if (time >= gate_) advance_to(time);
  levels_[static_cast<std::size_t>(series)] += delta;
}

void TimelineRecorder::finish(double end_time) {
  if (tick_ <= 0.0) return;
  while (gate_ + static_cast<double>(next_tick_) * tick_ < end_time) {
    close_tick();
  }
}

std::vector<TimelinePoint> merge_timeline(
    std::vector<std::vector<TimelinePoint>> shards) {
  std::size_t total = 0;
  for (const auto& shard : shards) total += shard.size();
  std::vector<TimelinePoint> merged;
  merged.reserve(total);

  // Same k-way merge discipline as trace::merge_traces / merge_qtrace:
  // repeatedly take the head with the strictly smallest time, scanning
  // shards in ascending index so ties resolve to the lowest shard.
  std::vector<std::size_t> cursor(shards.size(), 0);
  while (merged.size() < total) {
    std::size_t best = shards.size();
    for (std::size_t k = 0; k < shards.size(); ++k) {
      if (cursor[k] >= shards[k].size()) continue;
      if (best == shards.size() ||
          shards[k][cursor[k]].time < shards[best][cursor[best]].time) {
        best = k;
      }
    }
    TimelinePoint point = shards[best][cursor[best]++];
    point.shard = static_cast<std::uint32_t>(best);
    merged.push_back(point);
  }
  return merged;
}

std::uint64_t timeline_digest(
    const std::vector<TimelinePoint>& points) noexcept {
  std::uint64_t hash = util::kFnvOffsetBasis;
  unsigned char record[kTimelineRecordBytes];
  for (const TimelinePoint& point : points) {
    encode_record(record, point);
    hash = util::fnv1a_update(hash, record, sizeof(record));
  }
  return hash;
}

void publish_timeline_metrics(const std::vector<TimelinePoint>& merged) {
  auto& registry = Registry::global();

  auto points_total = registry.counter("timeline.points");
  auto peak_active = registry.gauge("timeline.peak.active_sessions");
  std::array<Counter, kTimelineSeriesCount> totals;
  for (std::size_t s = 0; s < kTimelineSeriesCount; ++s) {
    const auto series = static_cast<TimelineSeries>(s);
    if (timeline_series_is_gauge(series)) continue;
    totals[s] = registry.counter(std::string("timeline.total.") +
                                 timeline_series_name(series));
  }

  points_total.add(merged.size());
  for (const TimelinePoint& point : merged) {
    for (std::size_t s = 0; s < kTimelineSeriesCount; ++s) {
      const auto series = static_cast<TimelineSeries>(s);
      if (timeline_series_is_gauge(series)) continue;
      totals[s].add(point.values[s]);
    }
    peak_active.record_max(static_cast<std::int64_t>(
        point.values[static_cast<std::size_t>(TimelineSeries::kActiveSessions)]));
  }
}

std::string timeline_sidecar_path(const std::string& shard_dir) {
  return shard_dir + "/timeline.bin";
}

void save_timeline(const std::string& path,
                   const std::vector<TimelinePoint>& points,
                   double tick_seconds) {
  const std::string tmp = path + ".tmp";
  {
    ScopedFile file(std::fopen(tmp.c_str(), "wb"));
    if (file.get() == nullptr) {
      throw std::runtime_error("timeline: cannot open " + tmp);
    }
    unsigned char header[kTimelineHeaderBytes];
    std::memcpy(header, kTimelineMagic, 4);
    put_u32(header + 4, kTimelineFormatVersion);
    put_u32(header + 8, static_cast<std::uint32_t>(kTimelineSeriesCount));
    put_u32(header + 12, 0);
    put_u64(header + 16, double_bits(tick_seconds));
    put_u64(header + 24, static_cast<std::uint64_t>(points.size()));
    if (std::fwrite(header, 1, sizeof(header), file.get()) !=
        sizeof(header)) {
      throw std::runtime_error("timeline: short write to " + tmp);
    }
    unsigned char record[kTimelineRecordBytes];
    std::uint32_t crc = util::crc32_init();
    for (const TimelinePoint& point : points) {
      encode_record(record, point);
      crc = util::crc32_update(crc, record, sizeof(record));
      if (std::fwrite(record, 1, sizeof(record), file.get()) !=
          sizeof(record)) {
        throw std::runtime_error("timeline: short write to " + tmp);
      }
    }
    unsigned char trailer[4];
    put_u32(trailer, util::crc32_final(crc));
    if (std::fwrite(trailer, 1, sizeof(trailer), file.get()) !=
        sizeof(trailer)) {
      throw std::runtime_error("timeline: short write to " + tmp);
    }
    if (std::fflush(file.get()) != 0 || file.close() != 0) {
      throw std::runtime_error("timeline: flush failed for " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("timeline: rename failed for " + path);
  }
}

bool load_timeline(const std::string& path, std::vector<TimelinePoint>& out,
                   double* tick_seconds) {
  out.clear();
  ScopedFile file(std::fopen(path.c_str(), "rb"));
  if (file.get() == nullptr) return false;

  unsigned char header[kTimelineHeaderBytes];
  if (std::fread(header, 1, sizeof(header), file.get()) != sizeof(header)) {
    throw std::runtime_error("timeline: truncated header in " + path);
  }
  if (std::memcmp(header, kTimelineMagic, 4) != 0) {
    throw std::runtime_error("timeline: bad magic in " + path);
  }
  const std::uint32_t version = get_u32(header + 4);
  if (version != kTimelineFormatVersion) {
    throw std::runtime_error("timeline: unsupported version " +
                             std::to_string(version) + " in " + path);
  }
  const std::uint32_t series = get_u32(header + 8);
  if (series != kTimelineSeriesCount) {
    throw std::runtime_error("timeline: series count mismatch in " + path +
                             " (file has " + std::to_string(series) + ")");
  }
  if (tick_seconds != nullptr) *tick_seconds = bits_double(get_u64(header + 16));
  const std::uint64_t count = get_u64(header + 24);
  out.reserve(static_cast<std::size_t>(count));
  unsigned char record[kTimelineRecordBytes];
  std::uint32_t crc = util::crc32_init();
  for (std::uint64_t i = 0; i < count; ++i) {
    if (std::fread(record, 1, sizeof(record), file.get()) !=
        sizeof(record)) {
      throw std::runtime_error("timeline: truncated record in " + path);
    }
    crc = util::crc32_update(crc, record, sizeof(record));
    out.push_back(decode_record(record));
  }
  unsigned char trailer[4];
  if (std::fread(trailer, 1, sizeof(trailer), file.get()) !=
      sizeof(trailer)) {
    throw std::runtime_error("timeline: truncated checksum in " + path);
  }
  if (get_u32(trailer) != util::crc32_final(crc)) {
    throw std::runtime_error("timeline: checksum mismatch in " + path);
  }
  if (std::fread(record, 1, 1, file.get()) == 1) {
    throw std::runtime_error("timeline: trailing bytes in " + path);
  }
  return true;
}

void write_timeline_counter_events(std::ostream& out,
                                   const std::vector<TimelinePoint>& points,
                                   bool any_prior) {
  bool first = !any_prior;
  char buffer[64];
  auto value = [](const TimelinePoint& p, TimelineSeries s) {
    return p.values[static_cast<std::size_t>(s)];
  };
  for (const TimelinePoint& point : points) {
    std::snprintf(buffer, sizeof(buffer), "%.3f", point.time * 1e6);
    // Three stacked counter tracks per shard.  The shard index is folded
    // into the track name: chrome://tracing keys counters by (pid, name),
    // so a plain tid would collapse shards into one series.
    out << (first ? "" : ",") << "\n  {\"name\":\"queries[s" << point.shard
        << "]\",\"cat\":\"timeline\",\"ph\":\"C\",\"ts\":" << buffer
        << ",\"pid\":3,\"tid\":" << point.shard << ",\"args\":{"
        << "\"north_america\":" << value(point, TimelineSeries::kQueriesNorthAmerica)
        << ",\"europe\":" << value(point, TimelineSeries::kQueriesEurope)
        << ",\"asia\":" << value(point, TimelineSeries::kQueriesAsia)
        << ",\"other\":" << value(point, TimelineSeries::kQueriesOther)
        << ",\"hits\":" << value(point, TimelineSeries::kQueryHits) << "}}";
    first = false;
    out << ",\n  {\"name\":\"sessions[s" << point.shard
        << "]\",\"cat\":\"timeline\",\"ph\":\"C\",\"ts\":" << buffer
        << ",\"pid\":3,\"tid\":" << point.shard << ",\"args\":{"
        << "\"active\":" << value(point, TimelineSeries::kActiveSessions)
        << ",\"started\":" << value(point, TimelineSeries::kSessionsStarted)
        << ",\"ended\":" << value(point, TimelineSeries::kSessionsEnded) << "}}";
    out << ",\n  {\"name\":\"drops[s" << point.shard
        << "]\",\"cat\":\"timeline\",\"ph\":\"C\",\"ts\":" << buffer
        << ",\"pid\":3,\"tid\":" << point.shard << ",\"args\":{"
        << "\"shed_queries\":" << value(point, TimelineSeries::kShedQueries)
        << ",\"shed_connections\":" << value(point, TimelineSeries::kShedConnections)
        << ",\"loss\":" << value(point, TimelineSeries::kDropLoss)
        << ",\"corrupted\":" << value(point, TimelineSeries::kDropCorrupted)
        << ",\"dead_link\":" << value(point, TimelineSeries::kDropDeadLink)
        << ",\"duplicate\":" << value(point, TimelineSeries::kDropDuplicate)
        << "}}";
  }
}

}  // namespace p2pgen::obs
