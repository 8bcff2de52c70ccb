// p2pgen — sim-time metric timelines (observability layer, DESIGN.md §13).
//
// Time-resolved counterparts of the run-total metrics: per-shard periodic
// snapshots of a fixed, declared set of series (query arrivals, QUERYHIT
// arrivals, session starts/ends, the active-session level, degradation
// sheds, fault-layer drops by reason, and per-region query arrivals)
// taken at fixed sim-time ticks.  The registry of PR 3 collapses a run
// into totals and qtrace (PR 8) follows individual queries; the timeline
// is the middle scale — it is what makes the diurnal structure the paper
// conditions everything on (§4, peak vs non-peak) *visible* in our own
// output, and what a long run's health can be judged against while it is
// still going.
//
// Design constraints, in the repo's usual order:
//
//   1. *Strictly observational.*  Recording never feeds back into the
//      simulation: a run with timelines at any tick rate is byte-identical
//      (trace::binary_digest) to a run without the subsystem.  There are
//      deliberately NO simulator-scheduled tick events — a scheduled tick
//      would interleave with workload events in the queue and perturb
//      event ids.  Instead the recorder advances lazily: every observation
//      carries its sim time, and crossing a tick boundary closes the
//      elapsed ticks retroactively.  finish() flushes the trailing ticks
//      (including empty ones) up to the horizon, so every shard emits the
//      same tick grid no matter where its last event fell.
//   2. *Deterministic at any thread count.*  Tick boundaries are computed
//      as gate + k * tick with an integer k (no accumulated floating-point
//      steps), per-shard buffers merge in the same stable (time, shard
//      index) order as trace::merge_traces / merge_qtrace, and wall-clock
//      quantities (RSS, events/sec) are deliberately excluded — those live
//      in the heartbeat channel (behavior/checkpoint), not here.
//   3. *Zero-cost when disabled.*  tick_seconds = 0 constructs nothing;
//      every instrumentation site is a single null-pointer check.
//
// Like the rest of obs/, this header depends on nothing but the C++
// standard library: region classification happens at the call site (the
// behavior layer owns the GeoIP database), the recorder just takes a
// series index.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace p2pgen::obs {

/// Timeline knobs carried by TraceSimulationConfig.  Deliberately NOT
/// part of simulation_config_digest: timelines are observational, so two
/// configs differing only here still produce the same trace (and may
/// share bench caches and durable-run identities).
struct TimelineConfig {
  /// Sim-seconds per tick.  0 disables the subsystem entirely.  The
  /// paper's time-of-day axes make 600 (10 sim-minutes) the natural
  /// default for diurnal figures; callers opt in explicitly.
  double tick_seconds = 0.0;

  /// Tick 0 starts here (the warm-up gate — set by TraceSimulation to
  /// match the trace's own gate, not by users).  Counts before the gate
  /// are dropped; gauge levels still update so the level is correct when
  /// the first tick closes.
  double gate_time = 0.0;
};

/// The declared series set.  Values are wire-stable: they index the
/// per-tick value arrays written to the shard sidecar, so renumbering or
/// appending is a format break (bump the sidecar version and
/// kTimelineSeriesCount together).
enum class TimelineSeries : std::uint8_t {
  kQueries = 0,           ///< QUERY messages recorded by the node
  kQueryHits = 1,         ///< QUERYHIT messages recorded by the node
  kSessionsStarted = 2,   ///< completed handshakes (one per session)
  kSessionsEnded = 3,     ///< session terminations
  kActiveSessions = 4,    ///< GAUGE: open sessions at tick close
  kShedQueries = 5,       ///< degradation valve dropped a query
  kShedConnections = 6,   ///< admission valve refused a handshake
  kDropLoss = 7,          ///< fault layer lost a descriptor on the wire
  kDropCorrupted = 8,     ///< fault layer damaged wire bytes in flight
  kDropDeadLink = 9,      ///< swallowed by a half-open link / crash
  kDropDuplicate = 10,    ///< GUID already routed: not forwarded
  kQueriesNorthAmerica = 11,  ///< per-region query arrivals...
  kQueriesEurope = 12,
  kQueriesAsia = 13,
  kQueriesOther = 14,     ///< ...unknown-IP queries land here too
};
inline constexpr std::size_t kTimelineSeriesCount = 15;

/// Stable lower_snake_case name of a series (CSV headers, JSON, metrics).
const char* timeline_series_name(TimelineSeries series) noexcept;

/// True for level series (recorded as the running level at tick close)
/// as opposed to count series (zeroed at every tick boundary).
constexpr bool timeline_series_is_gauge(TimelineSeries series) noexcept {
  return series == TimelineSeries::kActiveSessions;
}

/// One tick of one shard: the tick's START time (gate + k * tick), the
/// shard index (assigned by merge_timeline), and one value per series.
struct TimelinePoint {
  double time = 0.0;
  std::uint32_t shard = 0;
  std::array<std::uint64_t, kTimelineSeriesCount> values{};
};

bool operator==(const TimelinePoint& a, const TimelinePoint& b) noexcept;

/// Bytes of one encoded point: the unit timeline_digest hashes and the
/// shard sidecar (obs/sidecar.hpp) stores.  Little-endian u64 time bits |
/// u32 shard | u32 0 | kTimelineSeriesCount * u64 values.
inline constexpr std::size_t kTimelinePointRecordBytes =
    16 + 8 * kTimelineSeriesCount;

void encode_timeline_point(unsigned char* out,
                           const TimelinePoint& point) noexcept;
TimelinePoint decode_timeline_point(const unsigned char* in) noexcept;

/// Per-shard tick recorder.  Single-threaded like the shard simulation it
/// instruments; TraceSimulation owns one per run and hands the raw
/// pointer to the transport and the measurement node.  Only constructed
/// when tick_seconds > 0, so instrumentation sites gate on the pointer.
class TimelineRecorder {
 public:
  explicit TimelineRecorder(const TimelineConfig& config);

  double tick_seconds() const noexcept { return tick_; }

  /// Adds `n` to a count series in the tick containing `time`.  Counts
  /// before the gate are dropped.  Times must be non-decreasing (they
  /// come from the simulator clock).
  void count(double time, TimelineSeries series, std::uint64_t n = 1);

  /// Applies a +-delta to a gauge series' running level.  Level updates
  /// are applied even before the gate — the warm-up builds up real state
  /// (open sessions) that the first tick must see — but no tick closes
  /// before the gate.
  void level(double time, TimelineSeries series, std::int64_t delta);

  /// Flushes every tick whose start lies in [gate, end_time), including
  /// trailing empty ones, so all shards of one run emit the identical
  /// tick grid.  Call exactly once, with the simulation horizon.
  void finish(double end_time);

  const std::vector<TimelinePoint>& points() const noexcept { return points_; }
  std::vector<TimelinePoint> take() noexcept { return std::move(points_); }

 private:
  void advance_to(double time);
  void close_tick();

  double tick_ = 0.0;
  double gate_ = 0.0;
  std::uint64_t next_tick_ = 0;  ///< index of the first unclosed tick
  std::array<std::uint64_t, kTimelineSeriesCount> counts_{};
  std::array<std::int64_t, kTimelineSeriesCount> levels_{};
  std::vector<TimelinePoint> points_;
};

/// Merges per-shard buffers (each time-nondecreasing) into one stream in
/// stable (time, shard index, within-shard position) order — the exact
/// order trace::merge_traces pins — and stamps each point's `shard`.
/// Shards of one run share the tick grid, so the merged stream is
/// (tick 0: shard 0..n-1), (tick 1: shard 0..n-1), ...
std::vector<TimelinePoint> merge_timeline(
    std::vector<std::vector<TimelinePoint>> shards);

/// FNV-1a over the serialized point stream: the bit-identity handle the
/// determinism tests and the CI jobs compare.
std::uint64_t timeline_digest(const std::vector<TimelinePoint>& points) noexcept;

/// Registers and fills the derived aggregates in the global registry:
/// "timeline.points", per-series run totals ("timeline.total.queries",
/// ...) and the peak active-session level ("timeline.peak.active_sessions"
/// gauge).  Call exactly once per analysis with the MERGED stream —
/// aggregation over the merged order is what makes the numbers identical
/// at any thread count, and what makes a checkpointed run publish the
/// same numbers as an in-memory one.
void publish_timeline_metrics(const std::vector<TimelinePoint>& merged);

/// chrome://tracing counter fragments for the merged stream: "C" events
/// (pid 3, ts = tick start in simulation microseconds) grouped into three
/// stacked tracks per shard — queries by region, session levels, and
/// drops/sheds by reason.  Emits nothing for an empty stream; meant to be
/// passed to TraceLog::write_chrome_json as the extra-events writer
/// (composable with write_qtrace_flow_events).
void write_timeline_counter_events(std::ostream& out,
                                   const std::vector<TimelinePoint>& points,
                                   bool any_prior);

}  // namespace p2pgen::obs
