// Streaming determinism suite (DESIGN.md §11): the one-pass spool
// analysis must be bit-identical to the materialized pipeline — same
// trace digest, Table-1 stats, Table-2 filter rows, measure vectors and
// refit model — at every thread count, on clean, faulted and
// chaos-scenario spools; it must tolerate a torn spool tail exactly like
// read_spool, hard-fail on interior damage exactly like read_spool, and
// keep its tracked-session table bounded (throwing on the cap instead of
// silently degrading to O(trace) memory).
#include "analysis/streaming.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/dataset.hpp"
#include "analysis/filters.hpp"
#include "analysis/gaps.hpp"
#include "analysis/measures.hpp"
#include "analysis/model_fit.hpp"
#include "behavior/checkpoint.hpp"
#include "core/model_io.hpp"
#include "geo/geoip.hpp"
#include "scenario/curated.hpp"
#include "stats/rng.hpp"
#include "trace/spool.hpp"
#include "trace/spool_reader.hpp"
#include "trace/trace_io.hpp"

namespace p2pgen {
namespace {

namespace fs = std::filesystem;

behavior::TraceSimulationConfig tiny_fault_config() {
  behavior::TraceSimulationConfig config;
  config.duration_days = 0.02;  // ~29 simulated minutes per shard
  config.arrival_rate = 1.0;
  config.seed = 20040315;
  config.faults.loss_prob = 0.03;
  config.faults.corrupt_prob = 0.01;
  config.faults.duplicate_prob = 0.02;
  config.faults.crash_rate = 1.0 / 3600.0;
  config.faults.half_open_prob = 0.05;
  config.faults.half_open_after_mean = 300.0;
  return config;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/p2pgen_streaming_" + name;
  fs::remove_all(dir);
  return dir;
}

/// Everything the materialized pipeline derives — the oracle the
/// streaming pass is pinned against.
struct Materialized {
  trace::TraceStats stats;
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  analysis::FilterReport filters;
  analysis::SessionMeasures measures;
  core::WorkloadModel model;
};

Materialized materialize(const trace::Trace& trace) {
  Materialized m;
  m.stats = trace.stats();
  m.digest = trace::binary_digest(trace);
  m.events = trace.size();
  analysis::TraceDataset dataset =
      analysis::build_dataset(trace, geo::GeoIpDatabase::synthetic());
  m.filters = analysis::apply_filters(dataset);
  m.measures = analysis::session_measures(dataset);
  m.model = analysis::fit_workload_model(dataset);
  return m;
}

std::string model_string(const core::WorkloadModel& model) {
  std::ostringstream os;
  core::save_model(model, os);
  return os.str();
}

void expect_stats_equal(const trace::TraceStats& a, const trace::TraceStats& b) {
  EXPECT_EQ(a.first_time, b.first_time);
  EXPECT_EQ(a.last_time, b.last_time);
  EXPECT_EQ(a.query_messages, b.query_messages);
  EXPECT_EQ(a.queryhit_messages, b.queryhit_messages);
  EXPECT_EQ(a.ping_messages, b.ping_messages);
  EXPECT_EQ(a.pong_messages, b.pong_messages);
  EXPECT_EQ(a.bye_messages, b.bye_messages);
  EXPECT_EQ(a.route_update_messages, b.route_update_messages);
  EXPECT_EQ(a.direct_connections, b.direct_connections);
  EXPECT_EQ(a.hop1_queries, b.hop1_queries);
  EXPECT_EQ(a.ultrapeer_connections, b.ultrapeer_connections);
  EXPECT_EQ(a.leaf_connections, b.leaf_connections);
}

void expect_filters_equal(const analysis::FilterReport& a,
                          const analysis::FilterReport& b) {
  EXPECT_EQ(a.initial_queries, b.initial_queries);
  EXPECT_EQ(a.initial_sessions, b.initial_sessions);
  EXPECT_EQ(a.rule1_removed, b.rule1_removed);
  EXPECT_EQ(a.rule2_removed, b.rule2_removed);
  EXPECT_EQ(a.rule3_removed_queries, b.rule3_removed_queries);
  EXPECT_EQ(a.rule3_removed_sessions, b.rule3_removed_sessions);
  EXPECT_EQ(a.final_queries, b.final_queries);
  EXPECT_EQ(a.final_sessions, b.final_sessions);
  EXPECT_EQ(a.rule4_excluded, b.rule4_excluded);
  EXPECT_EQ(a.rule5_excluded, b.rule5_excluded);
  EXPECT_EQ(a.interarrival_queries, b.interarrival_queries);
}

/// Bitwise equality of every conditioned sample vector — the inputs the
/// appendix fitters consume, so identical measures force identical fits.
void expect_measures_equal(const analysis::SessionMeasures& a,
                           const analysis::SessionMeasures& b) {
  EXPECT_TRUE(a.passive_duration_by_region == b.passive_duration_by_region);
  EXPECT_TRUE(a.passive_duration_by_key_period ==
              b.passive_duration_by_key_period);
  EXPECT_TRUE(a.passive_duration_by_day_period ==
              b.passive_duration_by_day_period);
  EXPECT_TRUE(a.queries_by_region == b.queries_by_region);
  EXPECT_TRUE(a.queries_by_key_period == b.queries_by_key_period);
  EXPECT_TRUE(a.first_query_by_region == b.first_query_by_region);
  EXPECT_TRUE(a.first_query_by_class == b.first_query_by_class);
  EXPECT_TRUE(a.first_query_by_key_period == b.first_query_by_key_period);
  EXPECT_TRUE(a.first_query_by_period_class == b.first_query_by_period_class);
  EXPECT_TRUE(a.interarrival_by_region == b.interarrival_by_region);
}

void expect_streaming_matches(const analysis::StreamingResult& got,
                              const Materialized& want) {
  EXPECT_EQ(got.trace_digest, want.digest);
  EXPECT_EQ(got.events, want.events);
  expect_stats_equal(got.stats, want.stats);
  expect_filters_equal(got.filters, want.filters);
  expect_measures_equal(got.measures, want.measures);
  EXPECT_EQ(model_string(got.model), model_string(want.model));
}

/// Builds a durable checkpoint and returns its spool dirs; the
/// materialized oracle later loads the SAME checkpoint so both paths
/// consume identical bytes.
std::vector<std::string> build_checkpoint(
    const behavior::TraceSimulationConfig& config, unsigned shards,
    const std::string& dir) {
  behavior::DurabilityConfig durability;
  durability.dir = dir;
  return behavior::simulate_to_spools(core::WorkloadModel::paper_default(),
                                      config, shards, 2, durability);
}

TEST(Streaming, MatchesMaterializedOnFaultedMultiShardSpoolAtAnyThreadCount) {
  const auto config = tiny_fault_config();
  const std::string dir = fresh_dir("faulted");
  const auto spool_dirs = build_checkpoint(config, 3, dir);
  const Materialized want = materialize(behavior::load_checkpoint(dir));
  ASSERT_GT(want.events, 0u);

  analysis::StreamingStats first_stats;
  for (const unsigned threads : {1u, 2u, 8u}) {
    analysis::StreamingOptions options;
    options.threads = threads;
    const auto got = analysis::analyze_spools(
        spool_dirs, geo::GeoIpDatabase::synthetic(), options);
    SCOPED_TRACE(std::to_string(threads) + " threads");
    expect_streaming_matches(got, want);
    // Pass-shape counters that do not depend on the thread count must
    // not either (the decoded-segment high-water mark legitimately does).
    if (threads == 1) {
      first_stats = got.streaming;
    } else {
      EXPECT_EQ(got.streaming.segments_read, first_stats.segments_read);
      EXPECT_EQ(got.streaming.events, first_stats.events);
      EXPECT_EQ(got.streaming.max_open_sessions,
                first_stats.max_open_sessions);
      EXPECT_EQ(got.streaming.max_tracked_sessions,
                first_stats.max_tracked_sessions);
      EXPECT_EQ(got.streaming.unmatched_query_events,
                first_stats.unmatched_query_events);
      EXPECT_EQ(got.streaming.unmatched_end_events,
                first_stats.unmatched_end_events);
    }
  }
  fs::remove_all(dir);
}

TEST(Streaming, MatchesMaterializedOnChaosScenarioSpools) {
  for (const std::string name : {"flash-crowd", "regional-outage-na"}) {
    auto config = tiny_fault_config();
    const auto spec = scenario::find_curated(name, config.duration_days);
    ASSERT_TRUE(spec.has_value()) << name;
    config = spec->apply(config);

    const std::string dir = fresh_dir("scenario_" + name);
    const auto spool_dirs = build_checkpoint(config, 2, dir);
    const Materialized want = materialize(behavior::load_checkpoint(dir));
    ASSERT_GT(want.events, 0u) << name;

    analysis::StreamingOptions options;
    options.threads = 2;
    const auto got = analysis::analyze_spools(
        spool_dirs, geo::GeoIpDatabase::synthetic(), options);
    SCOPED_TRACE(name);
    expect_streaming_matches(got, want);
    fs::remove_all(dir);
  }
}

// ---------------------------------------------------------------------------
// Raw-spool damage handling, pinned against read_spool on synthetic
// spools (single shard, so no session-id namespacing is involved).

trace::Trace synthetic_trace(std::size_t sessions, std::uint64_t seed) {
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
      now += 90.0;
      trace::MessageEvent msg;
      msg.time = now;
      msg.session_id = id;
      msg.type = gnutella::MessageType::kQuery;
      msg.ttl = 3;
      msg.hops = 1;
      msg.query = "metallica track " + std::to_string(rng.next_u64() % 7);
      msg.sha1 = rng.bernoulli(0.1);
      msg.guid_hash = rng.next_u64();
      out.append(trace::TraceEvent(msg));
    }
    now += 120.0;
    trace::SessionEnd end;
    end.time = now;
    end.session_id = id;
    end.reason = static_cast<trace::EndReason>(rng.next_u64() % 4);
    out.append(trace::TraceEvent(end));
  }
  return out;
}

void spool_trace(const trace::Trace& trace, const std::string& dir,
                 std::uint64_t segment_max_records) {
  trace::SpoolConfig config;
  config.segment_max_records = segment_max_records;
  trace::SpoolWriter writer(dir, config);
  for (const auto& event : trace.events()) writer.append(event);
  writer.close();
}

std::vector<std::string> segment_paths(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("seg-", 0) == 0) {
      names.push_back(entry.path().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

void truncate_file(const std::string& path, std::uintmax_t drop_bytes) {
  const auto size = fs::file_size(path);
  ASSERT_GT(size, drop_bytes);
  fs::resize_file(path, size - drop_bytes);
}

/// XORs one byte of `path` in place.
void flip_file_byte(const std::string& path, std::uint64_t offset,
                    unsigned char mask) {
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file.good()) << path;
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.get(byte);
  file.seekp(static_cast<std::streamoff>(offset));
  file.put(static_cast<char>(byte ^ mask));
  ASSERT_TRUE(file.good()) << path;
}

/// Byte offset of frame `n` of a spool segment, walked from the length
/// headers (frame size through `frame_size`).
std::uint64_t nth_frame_offset(const std::string& segment_path, std::size_t n,
                               std::uint64_t* frame_size) {
  std::ifstream in(segment_path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::uint64_t pos = trace::kSpoolHeaderBytes;
  for (std::size_t i = 0;; ++i) {
    EXPECT_LE(pos + 8, bytes.size());
    std::uint32_t len = 0;
    std::memcpy(&len, bytes.data() + pos, sizeof(len));
    if (i == n) {
      if (frame_size != nullptr) *frame_size = 8 + len;
      return pos;
    }
    pos += 8 + len;
  }
}

/// Makes frame `frame_offset` of `path` CRC-valid but undecodable: its
/// record kind becomes one no decoder knows, and its CRC is fixed up.
void make_frame_undecodable(const std::string& path,
                            std::uint64_t frame_offset) {
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file.good()) << path;
  char header[8];
  file.seekg(static_cast<std::streamoff>(frame_offset));
  file.read(header, sizeof(header));
  std::uint32_t len = 0;
  std::memcpy(&len, header, sizeof(len));
  std::string payload(len, '\0');
  file.read(payload.data(), len);
  payload[0] = '\x7f';
  const std::uint32_t crc = trace::crc32(payload.data(), payload.size());
  std::memcpy(header + sizeof(len), &crc, sizeof(crc));
  file.seekp(static_cast<std::streamoff>(frame_offset));
  file.write(header, sizeof(header));
  file.write(payload.data(), len);
  ASSERT_TRUE(file.good()) << path;
}

/// The TraceIoError message analyze_spools fails with at `threads`, or ""
/// when it does not fail that way.
std::string strict_failure(const std::string& dir, unsigned threads) {
  analysis::StreamingOptions options;
  options.threads = threads;
  try {
    (void)analysis::analyze_spools({dir}, geo::GeoIpDatabase::synthetic(),
                                   options);
  } catch (const trace::TraceIoError& e) {
    return e.what();
  }
  return "";
}

TEST(Streaming, TornTailIsTruncatedExactlyLikeReadSpool) {
  const std::string dir = fresh_dir("torn");
  spool_trace(synthetic_trace(64, 7), dir, 16);
  const auto segments = segment_paths(dir);
  ASSERT_GT(segments.size(), 2u);
  truncate_file(segments.back(), 5);  // tear the final frame mid-payload

  trace::SpoolRecoveryReport report;
  const trace::Trace loaded = trace::read_spool(dir, &report);
  EXPECT_TRUE(report.torn);
  const Materialized want = materialize(loaded);

  const auto got = analysis::analyze_spools({dir},
                                            geo::GeoIpDatabase::synthetic());
  expect_streaming_matches(got, want);
  EXPECT_EQ(got.streaming.shards_torn, 1u);
  fs::remove_all(dir);
}

TEST(Streaming, InteriorSegmentDamageIsAHardErrorLikeReadSpool) {
  const std::string dir = fresh_dir("interior");
  spool_trace(synthetic_trace(64, 11), dir, 16);
  const auto segments = segment_paths(dir);
  ASSERT_GT(segments.size(), 2u);
  truncate_file(segments[segments.size() / 2], 5);

  EXPECT_THROW(trace::read_spool(dir), trace::TraceIoError);
  // With decoder threads the damaged segment may be decoded ahead of the
  // consumer: its error must still surface (and every thread be joined)
  // instead of hanging or being lost.
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    analysis::StreamingOptions options;
    options.threads = threads;
    EXPECT_THROW(analysis::analyze_spools(
                     {dir}, geo::GeoIpDatabase::synthetic(), options),
                 trace::TraceIoError);
  }
  fs::remove_all(dir);

  // Damage in a later chunk of an interior segment: a checksum mismatch,
  // which the segment's read finds, and a CRC-valid frame that does not
  // decode, which only that chunk's decode finds.  Either fails the pass
  // with the same error at every thread count, like read_spool.
  constexpr std::size_t kChunk = analysis::kDecodeChunkRecords;
  for (const bool crc_valid : {false, true}) {
    SCOPED_TRACE(crc_valid ? "undecodable frame" : "checksum mismatch");
    const std::string later = fresh_dir("interior_later_chunk");
    spool_trace(synthetic_trace(9000, 11), later, kChunk * 5 / 2);
    const auto pieces = segment_paths(later);
    ASSERT_GT(pieces.size(), 2u);
    const std::uint64_t frame = nth_frame_offset(pieces[1], kChunk + 10, nullptr);
    if (crc_valid) {
      make_frame_undecodable(pieces[1], frame);
    } else {
      flip_file_byte(pieces[1], frame + 12, 0x20);
    }
    EXPECT_THROW(trace::read_spool(later), trace::TraceIoError);
    const std::string want = strict_failure(later, 1);
    EXPECT_NE(want, "");
    for (const unsigned threads : {2u, 8u}) {
      EXPECT_EQ(strict_failure(later, threads), want)
          << threads << " threads";
    }
    fs::remove_all(later);
  }
}

TEST(Streaming, MoreThreadsThanSegmentsMatchesReadSpool) {
  const std::string dir = fresh_dir("few_segments");
  const trace::Trace trace = synthetic_trace(64, 13);
  spool_trace(trace, dir, (trace.size() + 2) / 3);
  ASSERT_EQ(segment_paths(dir).size(), 3u);
  const Materialized want = materialize(trace::read_spool(dir));

  analysis::StreamingOptions options;
  options.threads = 8;  // seven decoders, at most two segments claimable
  const auto got = analysis::analyze_spools(
      {dir}, geo::GeoIpDatabase::synthetic(), options);
  expect_streaming_matches(got, want);
  EXPECT_EQ(got.streaming.segments_read, 3u);
  EXPECT_LE(got.streaming.max_decoded_chunks, 2u);
  fs::remove_all(dir);
}

TEST(Streaming, ShardRecordCountsAreCheckedInStrictModeOnly) {
  const std::string dir = fresh_dir("record_counts");
  const trace::Trace trace = synthetic_trace(64, 19);
  spool_trace(trace, dir, 16);
  const auto geodb = geo::GeoIpDatabase::synthetic();

  analysis::StreamingOptions options;
  options.shard_records = {trace.size()};
  EXPECT_EQ(analysis::analyze_spools({dir}, geodb, options).events,
            trace.size());

  options.shard_records = {trace.size() + 1};
  EXPECT_THROW(analysis::analyze_spools({dir}, geodb, options),
               std::runtime_error);
  // Salvage mode accounts loss in its report instead of refusing.
  options.salvage = true;
  EXPECT_EQ(analysis::analyze_spools({dir}, geodb, options).events,
            trace.size());

  options.shard_records = {trace.size(), trace.size()};  // one count per dir
  EXPECT_THROW(analysis::analyze_spools({dir}, geodb, options),
               std::invalid_argument);
  fs::remove_all(dir);
}

TEST(Streaming, DecodedChunksStayWithinTwoPerShard) {
  // Three shards interleaved in time, so the merge hops between shards and
  // every queue refills many times.  Two spool layouts: ~20 segments far
  // shorter than one chunk each, and segments of one and a half chunks
  // (chunks split them unevenly) ending in a segment shorter than a chunk.
  constexpr std::size_t kShards = 3;
  constexpr std::size_t kChunk = analysis::kDecodeChunkRecords;
  struct Layout {
    std::size_t sessions;
    std::uint64_t segment_records;
    std::size_t records;  // events spooled per shard; 0: the whole trace
  };
  const Layout layouts[] = {
      {64, 16, 0},
      {12000, kChunk * 3 / 2, 4 * (kChunk * 3 / 2) + kChunk / 3},
  };
  for (const Layout& layout : layouts) {
    SCOPED_TRACE(std::to_string(layout.segment_records) + "-record segments");
    const std::string root = fresh_dir("many_segments");
    std::vector<std::string> dirs;
    std::vector<trace::Trace> loaded;
    std::uint64_t segment_files = 0;
    for (std::size_t k = 0; k < kShards; ++k) {
      dirs.push_back(root + "/shard-" + std::to_string(k));
      trace::Trace trace = synthetic_trace(layout.sessions, 17 + k);
      if (layout.records != 0) {
        ASSERT_GE(trace.size(), layout.records);
        trace::Trace prefix;
        for (std::size_t i = 0; i < layout.records; ++i) {
          prefix.append(trace.events()[i]);
        }
        trace = std::move(prefix);
      }
      spool_trace(trace, dirs.back(), layout.segment_records);
      const std::size_t segments = segment_paths(dirs.back()).size();
      ASSERT_GT(segments, 3u);
      segment_files += segments;
      loaded.push_back(trace::read_spool(dirs.back()));
    }
    const Materialized want =
        materialize(trace::merge_traces(std::move(loaded)));

    for (const unsigned threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      analysis::StreamingOptions options;
      options.threads = threads;
      const auto got = analysis::analyze_spools(
          dirs, geo::GeoIpDatabase::synthetic(), options);
      expect_streaming_matches(got, want);
      EXPECT_EQ(got.streaming.segments_read, segment_files);
      EXPECT_LE(got.streaming.max_decoded_chunks, 2 * kShards);
      if (threads == 1) {
        // Inline decode frees each chunk before taking the next.
        EXPECT_EQ(got.streaming.max_decoded_chunks, kShards);
      } else {
        EXPECT_GE(got.streaming.max_decoded_chunks, kShards);
      }
    }
    fs::remove_all(root);
  }
}

// ---------------------------------------------------------------------------
// Bounded memory: the tracked-session table.

TEST(Streaming, TrackedSessionTableStaysBoundedUnderChurnStorm) {
  auto config = tiny_fault_config();
  const auto spec = scenario::find_curated("churn-storm", config.duration_days);
  ASSERT_TRUE(spec.has_value());
  config = spec->apply(config);

  const std::string dir = fresh_dir("churn");
  const auto spool_dirs = build_checkpoint(config, 2, dir);
  const auto got =
      analysis::analyze_spools(spool_dirs, geo::GeoIpDatabase::synthetic());
  // The table's high-water mark is session CONCURRENCY, not session
  // count: under churn the trace holds far more sessions than are ever
  // simultaneously tracked.
  ASSERT_GT(got.stats.direct_connections, 0u);
  EXPECT_GT(got.streaming.max_tracked_sessions, 0u);
  EXPECT_LT(got.streaming.max_tracked_sessions, got.stats.direct_connections);
  EXPECT_LE(got.streaming.max_open_sessions,
            got.streaming.max_tracked_sessions);
  fs::remove_all(dir);
}

TEST(Streaming, ExceedingTheTrackedSessionCapThrows) {
  const auto config = tiny_fault_config();
  const std::string dir = fresh_dir("cap");
  const auto spool_dirs = build_checkpoint(config, 1, dir);

  analysis::StreamingOptions options;
  options.max_tracked_sessions = 2;  // absurdly small on purpose
  EXPECT_THROW(analysis::analyze_spools(spool_dirs,
                                        geo::GeoIpDatabase::synthetic(),
                                        options),
               std::runtime_error);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Salvage mode (DESIGN.md §14): gap-aware one-pass analysis.

void expect_salvage_reports_equal(const trace::SalvageReport& got,
                                  const trace::SalvageReport& want) {
  EXPECT_EQ(got.records_recovered, want.records_recovered);
  EXPECT_EQ(got.frames_lost, want.frames_lost);
  EXPECT_EQ(got.bytes_quarantined, want.bytes_quarantined);
  EXPECT_EQ(got.censored_sessions, want.censored_sessions);
  EXPECT_EQ(got.censored_queries, want.censored_queries);
  ASSERT_EQ(got.ranges.size(), want.ranges.size());
  for (std::size_t i = 0; i < got.ranges.size(); ++i) {
    const trace::SalvageRange& a = got.ranges[i];
    const trace::SalvageRange& b = want.ranges[i];
    EXPECT_EQ(a.file, b.file) << "range " << i;
    EXPECT_EQ(a.shard, b.shard) << "range " << i;
    EXPECT_EQ(a.byte_begin, b.byte_begin) << "range " << i;
    EXPECT_EQ(a.byte_end, b.byte_end) << "range " << i;
    EXPECT_EQ(a.frames_lost, b.frames_lost) << "range " << i;
    EXPECT_EQ(a.time_before, b.time_before) << "range " << i;
    EXPECT_EQ(a.time_after, b.time_after) << "range " << i;
  }
}

/// Materialized gap-censored oracle: every shard read with
/// read_spool_salvage (reports tagged by shard, merged in shard order
/// into `salvage`), the dataset censored against the recovered gap
/// windows.
Materialized salvage_oracle(const std::vector<std::string>& spool_dirs,
                            trace::SalvageReport& salvage) {
  std::vector<trace::Trace> shards;
  for (unsigned k = 0; k < spool_dirs.size(); ++k) {
    trace::SalvageReport report;
    shards.push_back(trace::read_spool_salvage(spool_dirs[k], &report));
    salvage.merge_shard(std::move(report), k);
  }
  const trace::Trace salvaged = trace::merge_traces(std::move(shards));
  analysis::TraceDataset dataset =
      analysis::build_dataset(salvaged, geo::GeoIpDatabase::synthetic());
  const analysis::GapIndex gaps(salvage);
  analysis::censor_dataset(dataset, gaps, salvage);
  Materialized want;
  want.stats = salvaged.stats();
  want.digest = trace::binary_digest(salvaged);
  want.events = salvaged.size();
  want.filters = analysis::apply_filters(dataset);
  want.measures = analysis::session_measures(dataset);
  want.model = analysis::fit_workload_model(dataset);
  return want;
}

TEST(StreamingSalvage, CleanSpoolSalvagePassIsBitIdenticalToStrict) {
  const auto config = tiny_fault_config();
  const std::string dir = fresh_dir("salvage_clean");
  const auto spool_dirs = build_checkpoint(config, 2, dir);

  analysis::StreamingOptions strict;
  const auto want = analysis::analyze_spools(
      spool_dirs, geo::GeoIpDatabase::synthetic(), strict);
  for (const unsigned threads : {1u, 2u, 8u}) {
    analysis::StreamingOptions options;
    options.threads = threads;
    options.salvage = true;
    const auto got = analysis::analyze_spools(
        spool_dirs, geo::GeoIpDatabase::synthetic(), options);
    SCOPED_TRACE(std::to_string(threads) + " threads");
    EXPECT_EQ(got.trace_digest, want.trace_digest);
    EXPECT_EQ(got.events, want.events);
    expect_stats_equal(got.stats, want.stats);
    expect_filters_equal(got.filters, want.filters);
    expect_measures_equal(got.measures, want.measures);
    EXPECT_EQ(model_string(got.model), model_string(want.model));
    EXPECT_FALSE(got.salvage.damaged());
    EXPECT_EQ(got.salvage.censored_sessions, 0u);
  }
  fs::remove_all(dir);
}

TEST(StreamingSalvage, MatchesMaterializedGapCensoredAnalysisOnDamage) {
  const auto config = tiny_fault_config();
  const std::string dir = fresh_dir("salvage_damage");
  // Small segments so the damage below lands in an INTERIOR segment —
  // mid-damage to a single-segment spool is a (tolerated) torn tail.
  behavior::DurabilityConfig build;
  build.dir = dir;
  build.segment_max_records = 512;
  const auto spool_dirs = behavior::simulate_to_spools(
      core::WorkloadModel::paper_default(), config, 2, 2, build);

  // One corrupted payload byte in an interior frame of shard 1's spool.
  ASSERT_GT(segment_paths(spool_dirs[1]).size(), 2u);
  const std::string segment = segment_paths(spool_dirs[1]).front();
  flip_file_byte(segment, nth_frame_offset(segment, 10, nullptr) + 12, 0x20);

  // Strict refuses on both paths.
  EXPECT_THROW(
      analysis::analyze_spools(spool_dirs, geo::GeoIpDatabase::synthetic()),
      std::runtime_error);

  trace::SalvageReport want_salvage;
  const Materialized want = salvage_oracle(spool_dirs, want_salvage);
  ASSERT_TRUE(want_salvage.damaged());
  EXPECT_GT(want_salvage.censored_sessions, 0u);

  for (const unsigned threads : {1u, 2u, 8u}) {
    analysis::StreamingOptions options;
    options.threads = threads;
    options.salvage = true;
    const auto got = analysis::analyze_spools(
        spool_dirs, geo::GeoIpDatabase::synthetic(), options);
    SCOPED_TRACE(std::to_string(threads) + " threads");
    expect_streaming_matches(got, want);
    expect_salvage_reports_equal(got.salvage, want_salvage);
  }
  fs::remove_all(dir);
}

TEST(StreamingSalvage, DamageInALaterChunkMatchesMaterialized) {
  // Segments of two and a half chunks; one corrupted payload byte in the
  // second chunk of shard 0's interior segment 1, an undecodable but
  // CRC-valid frame in the third chunk of shard 1's segment 0.
  constexpr std::size_t kChunk = analysis::kDecodeChunkRecords;
  const std::string root = fresh_dir("salvage_later_chunk");
  std::vector<std::string> dirs;
  for (std::size_t k = 0; k < 2; ++k) {
    dirs.push_back(root + "/shard-" + std::to_string(k));
    spool_trace(synthetic_trace(9000, 23 + k), dirs.back(), kChunk * 5 / 2);
    ASSERT_GT(segment_paths(dirs.back()).size(), 2u);
  }
  const std::string first = segment_paths(dirs[0])[1];
  flip_file_byte(first, nth_frame_offset(first, kChunk + 10, nullptr) + 12,
                 0x20);
  const std::string second = segment_paths(dirs[1])[0];
  make_frame_undecodable(second, nth_frame_offset(second, 2 * kChunk + 5,
                                                  nullptr));

  trace::SalvageReport want_salvage;
  const Materialized want = salvage_oracle(dirs, want_salvage);
  ASSERT_EQ(want_salvage.ranges.size(), 2u);
  for (const unsigned threads : {1u, 2u, 8u}) {
    analysis::StreamingOptions options;
    options.threads = threads;
    options.salvage = true;
    const auto got = analysis::analyze_spools(
        dirs, geo::GeoIpDatabase::synthetic(), options);
    SCOPED_TRACE(std::to_string(threads) + " threads");
    expect_streaming_matches(got, want);
    expect_salvage_reports_equal(got.salvage, want_salvage);
  }
  fs::remove_all(root);
}

/// Concurrent long-lived sessions: 8 sessions all open for the whole
/// trace, querying round-robin — so a mid-trace gap intersects every one
/// of them while their start/end records survive.
trace::Trace overlapping_trace() {
  trace::Trace out;
  double now = 0.0;
  stats::Rng rng(31);
  for (std::uint64_t id = 1; id <= 8; ++id) {
    trace::SessionStart start;
    start.time = (now += 1.0);
    start.session_id = id;
    start.ip = static_cast<std::uint32_t>(rng.next_u64());
    start.ultrapeer = false;
    start.user_agent = "LimeWire/4.2";
    out.append(trace::TraceEvent(start));
  }
  for (int round = 0; round < 20; ++round) {
    for (std::uint64_t id = 1; id <= 8; ++id) {
      trace::MessageEvent msg;
      msg.time = (now += 1.0);
      msg.session_id = id;
      msg.type = gnutella::MessageType::kQuery;
      msg.ttl = 3;
      msg.hops = 1;
      msg.query = "metallica track " + std::to_string(rng.next_u64() % 7);
      msg.guid_hash = rng.next_u64();
      out.append(trace::TraceEvent(msg));
    }
  }
  for (std::uint64_t id = 1; id <= 8; ++id) {
    trace::SessionEnd end;
    end.time = (now += 1.0);
    end.session_id = id;
    end.reason = trace::EndReason::kBye;
    out.append(trace::TraceEvent(end));
  }
  return out;
}

TEST(StreamingSalvage, MissingSegmentIsCensoredNotSilentlySkipped) {
  const std::string dir = fresh_dir("salvage_missing");
  const trace::Trace original = overlapping_trace();
  spool_trace(original, dir, 16);
  const auto segments = segment_paths(dir);
  ASSERT_GT(segments.size(), 6u);
  fs::remove(segments[5]);  // 16 mid-trace query records vanish

  EXPECT_THROW(
      analysis::analyze_spools({dir}, geo::GeoIpDatabase::synthetic()),
      trace::TraceIoError);

  analysis::StreamingOptions options;
  options.salvage = true;
  const auto got =
      analysis::analyze_spools({dir}, geo::GeoIpDatabase::synthetic(), options);
  EXPECT_EQ(got.events, original.size() - 16);
  ASSERT_EQ(got.salvage.ranges.size(), 1u);
  EXPECT_EQ(got.salvage.ranges[0].file, trace::spool_segment_name(5));
  // Every session was open across the gap: all are censored (counted,
  // never silently mixed into the filter/measure surface).
  EXPECT_EQ(got.salvage.censored_sessions, 8u);
  EXPECT_GT(got.salvage.censored_queries, 0u);
  EXPECT_EQ(got.filters.initial_sessions, 0u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace p2pgen
