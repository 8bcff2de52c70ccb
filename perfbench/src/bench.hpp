// perfbench — shared types of the benchmark program.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "analysis/filters.hpp"
#include "analysis/model_fit.hpp"
#include "analysis/streaming.hpp"
#include "behavior/trace_simulation.hpp"
#include "calibrate.hpp"
#include "spans.hpp"
#include "trace/trace.hpp"

namespace perfbench {

inline constexpr std::uint64_t kDefaultSeed = 20040315;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
};

/// Output checks.  Each repetition of the timed work is one operation; a
/// repetition with any failed check counts as failed.
class Checks {
 public:
  void begin_rep() { rep_ok_ = true; }
  void end_rep() {
    ++attempted_;
    if (!rep_ok_) ++failed_;
  }
  void expect(bool ok, const std::string& what);

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }

 private:
  bool rep_ok_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t reported_ = 0;
};

/// What the benchmark's sink saw, by kind.  Checked against counts the
/// program derives on its own path (Trace::stats(), the dataset, the
/// streaming pass over the spools read back from disk).
struct Tally {
  std::uint64_t events = 0;
  std::uint64_t sessions_started = 0;
  std::uint64_t sessions_ended = 0;
  std::uint64_t queries = 0;

  Tally& operator+=(const Tally& other);
};

/// The benchmark's own trace sink.  TraceSimulation delivers events only
/// after its warm-up gate, so the first event stamps the end of set-up.
class GateSink final : public p2pgen::trace::TraceSink {
 public:
  explicit GateSink(p2pgen::trace::TraceSink& inner) : inner_(inner) {}
  void on_event(const p2pgen::trace::TraceEvent& event) override {
    if (tally_.events == 0) gate_ = Clock::now();
    ++tally_.events;
    if (std::holds_alternative<p2pgen::trace::SessionStart>(event)) {
      ++tally_.sessions_started;
    } else if (std::holds_alternative<p2pgen::trace::SessionEnd>(event)) {
      ++tally_.sessions_ended;
    } else if (std::get<p2pgen::trace::MessageEvent>(event).type ==
               p2pgen::gnutella::MessageType::kQuery) {
      ++tally_.queries;
    }
    inner_.on_event(event);
  }
  std::uint64_t events() const noexcept { return tally_.events; }
  const Tally& tally() const noexcept { return tally_; }
  /// Wall time of the first event; `fallback` when none arrived.
  Clock::time_point gate_or(Clock::time_point fallback) const noexcept {
    return tally_.events == 0 ? fallback : gate_;
  }

 private:
  p2pgen::trace::TraceSink& inner_;
  Tally tally_;
  Clock::time_point gate_{};
};

/// Counters read from the simulation objects after a shard has run,
/// summed over shards.
struct SimCounters {
  std::uint64_t events_executed = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t peers_spawned = 0;
  std::uint64_t messages_recorded = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t qrp_suppressed = 0;
  std::uint64_t forward_retries = 0;
  std::uint64_t shed_queries = 0;

  void add(p2pgen::behavior::TraceSimulation& simulation);
  SimCounters& operator+=(const SimCounters& other);
};

/// A wall time and the host speed measured around it.
struct SetupSample {
  double seconds = 0.0;
  double host_speed = kReferenceOpsPerSecond;

  /// The wall time at the reference host speed.
  double scaled() const { return seconds * host_speed / kReferenceOpsPerSecond; }
};

/// One repetition of a workload's timed work.
struct Rep {
  double setup_s = 0.0;  ///< rep start -> timed-phase start
  double timed_s = 0.0;  ///< timed-phase start -> rep end
  double host_speed = kReferenceOpsPerSecond;  ///< calibration around the rep
  std::uint64_t events = 0;  ///< trace events through the timed phase
  std::uint64_t digest = 0;  ///< trace digest of the repetition's input
  bool traced = false;
  double coverage = 0.0;  ///< share of the timed phase under layer spans
  std::vector<double> shard_walls;  ///< per-shard simulation wall, s
  double streaming_s = 0.0;         ///< analyze_spools wall, s

  /// Trace events per second per shard, as measured.
  double rate(unsigned shards) const {
    return timed_s > 0.0 ? static_cast<double>(events) / timed_s / shards : 0.0;
  }
  /// The same at the reference host speed.
  double scaled_rate(unsigned shards) const {
    return rate(shards) * kReferenceOpsPerSecond / host_speed;
  }
};

/// Everything one workload run produced.
struct WorkloadRun {
  unsigned shards = 1;
  std::vector<Rep> reps;
  std::vector<SetupSample> setups;
  // The rest comes from the last traced repetition (traced runs only).
  SimCounters sim;
  p2pgen::analysis::FilterReport filters;
  std::optional<p2pgen::analysis::StreamingStats> streaming;
  std::uint64_t spool_bytes = 0;  ///< spool bytes the repetition wrote or read
  std::uint64_t digest = 0;
  /// Per-shard traces, for the layer micro-timings.
  std::vector<p2pgen::trace::Trace> shard_traces;
};

using Workload = WorkloadRun (*)(const Options&, SpanRecorder&, Checks&);

WorkloadRun run_clean_shard(const Options& options, SpanRecorder& spans,
                            Checks& checks);
WorkloadRun run_hostile_durable(const Options& options, SpanRecorder& spans,
                                Checks& checks);
WorkloadRun run_spool_replay(const Options& options, SpanRecorder& spans,
                             Checks& checks);

/// Checks every analysis output: the filter funnel adds up, every fit is
/// finite and the refit model validates.
void check_analysis(Checks& checks, const p2pgen::analysis::FilterReport& filters,
                    const p2pgen::analysis::AppendixFits& fits,
                    const p2pgen::core::WorkloadModel& model);

/// Checks the trace digest of input `input` against the one pinned for
/// the workload (only at the default seed).
void check_digest(Checks& checks, const Options& options, unsigned input,
                  std::uint64_t digest);

/// Checks the sink's tally against the program's own counts of the same
/// events.  `sessions_ended` is skipped when the program has no count.
void check_tally(Checks& checks, const Tally& sink,
                 const p2pgen::trace::TraceStats& stats,
                 std::optional<std::uint64_t> sessions_ended);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Layer micro-timings fed from the workload's own per-shard traces.
/// Appends to `metrics`; the checks cover the round trips they make.
void micro_timings(const Options& options, const WorkloadRun& run,
                   SpanRecorder& spans, Checks& checks,
                   std::vector<Metric>& metrics);

double median(std::vector<double> values);

/// Sum of a directory tree's regular-file sizes.
std::uint64_t tree_bytes(const std::string& dir);

}  // namespace perfbench
