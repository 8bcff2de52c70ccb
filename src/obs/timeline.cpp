#include "obs/timeline.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <ostream>

#include "obs/metrics.hpp"
#include "util/fnv1a.hpp"
#include "util/little_endian.hpp"

namespace p2pgen::obs {

void encode_timeline_point(unsigned char* out,
                           const TimelinePoint& p) noexcept {
  util::store_le64(out + 0, std::bit_cast<std::uint64_t>(p.time));
  util::store_le32(out + 8, p.shard);
  util::store_le32(out + 12, 0);
  for (std::size_t s = 0; s < kTimelineSeriesCount; ++s) {
    util::store_le64(out + 16 + 8 * s, p.values[s]);
  }
}

TimelinePoint decode_timeline_point(const unsigned char* in) noexcept {
  TimelinePoint p;
  p.time = std::bit_cast<double>(util::load_le64(in + 0));
  p.shard = util::load_le32(in + 8);
  for (std::size_t s = 0; s < kTimelineSeriesCount; ++s) {
    p.values[s] = util::load_le64(in + 16 + 8 * s);
  }
  return p;
}

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
  return std::bit_cast<std::uint64_t>(a.time) ==
             std::bit_cast<std::uint64_t>(b.time) &&
         a.shard == b.shard && a.values == b.values;
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
  unsigned char record[kTimelinePointRecordBytes];
  for (const TimelinePoint& point : points) {
    encode_timeline_point(record, point);
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
