// p2pgen — one-pass streaming analysis over spool segments (DESIGN.md §11).
//
// The materialized pipeline loads the whole trace (read_spool →
// merge_traces → build_dataset → filters → measures → fits), so its peak
// memory is O(trace).  analyze_spools() produces the SAME results —
// bit-identical Table-1 stats, trace digest, Table-2 filter rows,
// measures, appendix fits and refit model — in one pass over the
// per-shard spools with peak memory O(chunks in flight + one segment per
// shard + open sessions):
//
//   * each segment is read and CRC-validated once (trace/spool_reader),
//     then decoded and keyword-canonicalized in chunks of
//     kDecodeChunkRecords records into bounded per-shard queues, by
//     decoder threads running alongside the consumer — the decode unit is
//     the chunk, and a segment's size is an on-disk concern only;
//   * a sequential consumer merges the decoded shard streams in the
//     exact (time, shard) order of trace::merge_traces (the chunk decode
//     has already namespaced session ids by kShardSessionStride) and
//     folds each record's bytes into the same FNV-1a stream
//     binary_digest() computes;
//   * sessions are reconstructed online in a bounded table and, once
//     ended, emitted in SessionStart order — at which point the five
//     filter rules and every measure accumulator run with the SAME code
//     the materialized path uses (filters.hpp / measures.hpp /
//     popularity_analysis.hpp expose the per-session forms), so every
//     float lands in the same place in the same order.
//
// Parallelism only ever touches segment reads, chunk decode and freeing,
// whose outputs are pure per-chunk values the consumer takes in a fixed
// order — results are therefore identical at any thread count, which the
// streaming determinism suite pins against the materialized oracle.
//
// The pass reads the spools and nothing else.  A checkpoint's sampled
// query hops and sim-time ticks are not trace events: the producer,
// behavior::simulate_to_spools, keeps them in its shard sidecars and
// returns and publishes the merged streams itself.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/filters.hpp"
#include "analysis/measures.hpp"
#include "analysis/model_fit.hpp"
#include "analysis/popularity_analysis.hpp"
#include "core/model.hpp"
#include "geo/geoip.hpp"
#include "trace/trace.hpp"
#include "trace/trace_io.hpp"

namespace p2pgen::analysis {

/// Records per decoded chunk, the unit of the pass's per-shard queues and
/// so of its memory and of its decode/merge overlap.  Every spool segment
/// is split into chunks of this size whatever its on-disk size
/// (behavior::DurabilityConfig::segment_max_records).
inline constexpr std::size_t kDecodeChunkRecords = 8192;

struct StreamingOptions {
  /// Threads of the pass: the merge consumer plus `threads - 1` chunk
  /// decoders.  Never changes results.
  unsigned threads = 1;
  /// Filter rules applied at session emission.
  FilterOptions filters{};
  /// Model slots for conditions with insufficient data (fit_workload_model
  /// semantics).
  core::WorkloadModel fallback = core::WorkloadModel::paper_default();
  /// Hard cap on tracked sessions (open + ended-but-not-yet-emitted).
  /// The streaming pass is constant-memory only because this table stays
  /// bounded by session concurrency; exceeding the cap throws rather than
  /// silently degrading to O(trace).
  std::size_t max_tracked_sessions = std::size_t{1} << 22;

  /// Salvage mode (DESIGN.md §14): read the spools with
  /// trace::SpoolReadMode::kSalvage — interior damage and missing segment
  /// files become accounted gap windows instead of a thrown TraceIoError,
  /// sessions overlapping a window are censored out of the filters and
  /// fits (gaps.hpp), and the loss lands in StreamingResult::salvage.
  /// With a clean spool this path is bit-identical to the default.
  bool salvage = false;

  /// The record count each shard's spool must hold, in shard order — a
  /// checkpoint's MANIFEST counts, as behavior::simulate_to_spools reports
  /// them in ShardStats::events.  Empty: no check.  Otherwise a strict
  /// pass throws std::runtime_error when a shard decodes to a different
  /// count (a done spool cut exactly on a frame boundary has no torn tail
  /// to give it away).  Salvage mode accounts loss instead and skips it.
  std::vector<std::uint64_t> shard_records;
};

/// Observability counters of one streaming pass (also published as
/// `streaming.*` metrics).  These describe the pass itself and are NOT
/// part of the materialized-equivalence surface.
struct StreamingStats {
  std::uint64_t segments_read = 0;
  /// High-water count of decoded chunks alive at once, all shards
  /// (queued, being merged, or awaiting release); at most 2 * shards.
  /// Depends on thread timing, never on results.
  std::uint64_t max_decoded_chunks = 0;
  std::uint64_t events = 0;
  std::uint64_t shards_torn = 0;  ///< shards whose spool had a torn tail
  /// High-water mark of sessions that were open (no SessionEnd yet).
  std::uint64_t max_open_sessions = 0;
  /// High-water mark of the whole tracked table: open sessions plus ended
  /// sessions waiting for an earlier still-open session to emit first.
  std::uint64_t max_tracked_sessions = 0;
  /// QUERY events whose session id matched no tracked session.  The
  /// materialized path drops exactly these too (no SessionStart seen), so
  /// a nonzero value here is normal for faulted traces; it is counted so
  /// the equivalence tests can prove nothing extra was dropped.
  std::uint64_t unmatched_query_events = 0;
  /// SessionEnd events whose id matched no tracked session.
  std::uint64_t unmatched_end_events = 0;
};

/// Everything the measurement pipeline derives from a trace, computed in
/// one streaming pass.  Fields mirror the materialized path's outputs
/// bit-for-bit; `streaming` is extra.
struct StreamingResult {
  trace::TraceStats stats;         ///< == merged Trace::stats()
  std::uint64_t trace_digest = 0;  ///< == trace::binary_digest(merged)
  std::uint64_t events = 0;        ///< == merged trace.size()
  double trace_end = 0.0;
  /// SessionEnd reason counts, indexed by trace::EndReason — the rows
  /// RobustnessReport::add_trace() derives from the materialized trace.
  std::array<std::uint64_t, 4> end_reason_counts{};

  FilterReport filters;        ///< == apply_filters on the dataset
  GeographyByHour geography;   ///< == geographic_distribution
  SharedFilesDistribution shared_files;
  LoadByTime load;
  PassiveFraction passive;     ///< == passive_fraction
  SessionMeasures measures;    ///< == session_measures
  AppendixFits fits;           ///< == fit_appendix_tables(measures)
  core::WorkloadModel model;   ///< == fit_workload_model(dataset, fallback)

  StreamingStats streaming;

  /// Loss accounting of a salvage-mode pass: the gap windows the spool
  /// reader quarantined (ranges tagged by shard, merged in shard order)
  /// plus the sessions/queries censored from the analysis because they
  /// overlapped one.  Empty when options.salvage was off or the spools
  /// were clean.  Matches the materialized report (read_spool_salvage per
  /// shard + censor_dataset counters) for identical damage.
  trace::SalvageReport salvage;
};

/// Runs the one-pass analysis over per-shard spool directories (order
/// defines the shard index used for session-id namespacing — pass
/// behavior::checkpoint_shard_dirs() output).  Throws TraceIoError on
/// interior spool damage (torn tails of a last segment are tolerated,
/// exactly like read_spool) unless options.salvage is set — then damage
/// becomes accounted gaps in StreamingResult::salvage — and throws
/// std::runtime_error if the tracked-session cap is exceeded or a shard
/// holds a different record count than options.shard_records names.
StreamingResult analyze_spools(const std::vector<std::string>& shard_dirs,
                               const geo::GeoIpDatabase& geodb,
                               const StreamingOptions& options = {});

}  // namespace p2pgen::analysis
