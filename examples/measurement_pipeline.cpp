// p2pgen measurement pipeline — the whole paper in one program.
//
// 1. Simulate the measurement setup: a mutella-like ultrapeer with 200
//    slots inside a synthetic Gnutella overlay whose user behavior is the
//    paper's own fitted model and whose client software injects the
//    automated-query artifacts (DESIGN.md §1 substitution).
// 2. Reconstruct sessions from the trace and apply filter rules 1-5.
// 3. Characterize the workload (Sections 4.1-4.6).
// 4. Re-fit the Appendix models and print ground-truth vs recovered
//    parameters — the closed-loop validation.
//
//   $ ./measurement_pipeline [days] [arrival_rate] [faults] [shards]
//       [threads] [--metrics=<path>] [--trace-json=<path>]
//       [--checkpoint-dir=<dir>] [--checkpoint-interval=<records>]
//       [--resume] [--salvage]
//       [--scenario=<name-or-json-file>]
//       [--qtrace-sample=<rate>] [--query-trace=<dir>]
//       [--timeline=<dir>] [--timeline-tick=<secs>] [--heartbeat=<secs>]
//       [--list-scenarios]
//
// --scenario=<arg> applies a chaos scenario (src/scenario/) on top of the
// base configuration: <arg> is either the name of a curated scenario
// (--list-scenarios prints them) or the path of a scenario JSON file.
// The scenario's config digest is printed next to the trace digest.
//
// --metrics=<path> writes the unified PipelineReport as JSON (plus the
// Prometheus text exposition to <path>.prom); --trace-json=<path> enables
// span tracing and writes a chrome://tracing / Perfetto-loadable trace
// of the pipeline's phases, plus a per-phase summary table on stdout.
//
// --checkpoint-dir=<dir> makes the simulation durable (DESIGN.md §9):
// every shard streams its events into an fsync'd spool under <dir> and
// completed shards are recorded in a manifest, so a killed run — SIGKILL
// included — resumes with --resume and produces a trace byte-identical
// to an uninterrupted one.  --checkpoint-interval sets the fsync cadence
// in records (default 65536; smaller = less re-simulation after a kill).
// --resume requires an existing, identity-matching checkpoint.  A
// checkpointed run is analysed in one pass over the spools (DESIGN.md
// §11): no trace is buffered in memory, and every number below — digest
// included — is computed by analysis::analyze_spools(), bit-identical to
// the materialized chain an in-memory run uses, at a fraction of the
// peak RSS (bench_streaming measures both).  A finished shard whose spool
// holds fewer or more records than its MANIFEST recorded is refused.  A
// finished shard's qtrace hops and timeline ticks come from its sidecar;
// one that is missing, damaged or made at another --qtrace-sample or
// --timeline-tick is rebuilt by replaying the shard, so a resume prints
// what an in-memory run with the same flags prints.
//
// --salvage (needs --checkpoint-dir=) tolerates media damage to the
// checkpoint with bounded, accounted loss (DESIGN.md §14): damaged
// unfinished spools are truncated and re-simulated (no loss), damaged
// finished spools are read around the bad byte ranges, and sessions
// overlapping a loss window are censored from the filters and fits —
// counted in the report's "gaps" block, never silently mixed in.  With a
// clean checkpoint the output is bit-identical to a strict run.  A run
// that stops cleanly on a write error (disk full) exits with code 75
// (EX_TEMPFAIL) after recording the machine-readable reason in the
// MANIFEST; tools/supervise.py retries such runs with --resume and
// bounded backoff.
//
// --qtrace-sample=<rate> turns on query-lifecycle tracing (DESIGN.md §12):
// a deterministic FNV-sampled subset of queries records every hop of its
// journey (emitted, received, forwarded, dropped-and-why, QUERYHIT return
// with end-to-end latency).  The sampled set depends only on the query id
// and the rate — never on thread count or sharding — so traces are
// byte-identical across runs.  Derived qtrace.* histograms (hop count,
// fan-out, drop reasons, hit latency) land in the metrics report;
// --query-trace=<dir> additionally dumps the merged hop stream as
// qtrace.bin (a sidecar file holding only the hops, obs/sidecar.hpp) +
// qtrace.json, and --trace-json gains chrome://tracing flow arrows
// connecting each query's hops.
//
// --timeline-tick=<secs> turns on sim-time metric timelines (DESIGN.md
// §13): per-shard snapshots of the declared series set (query/QUERYHIT
// rates, sessions, sheds, drops by reason, per-region query rates) at
// fixed sim-time ticks, merged deterministically and embedded in the
// metrics report.  --timeline=<dir> additionally dumps the merged stream
// as timeline.csv (one row per tick and shard, with day/hour columns and
// the per-region peak/non-peak band of §4.2) + timeline.json, and implies
// a 600 s tick when --timeline-tick was not given.  Timelines are strictly
// observational: the trace digest is invariant under any tick setting.
//
// --heartbeat=<secs> (needs --checkpoint-dir=) makes the durable run
// rewrite <dir>/heartbeat.json atomically every that many wall-seconds —
// per-shard sim-time progress, events/sec, current + peak RSS, ETA — for
// tools/runwatch.py to tail while a long run is going.
//
// Pass a third argument "faults" (or "1") to run the same measurement on
// a hostile overlay: message loss, byte corruption, duplication, jitter,
// abrupt peer crashes and half-open links — and print the robustness
// report showing how the hardened node coped.  "none" (or "0") keeps the
// overlay clean.
//
// Pass shards > 1 to run that many independently-seeded replica
// measurements (each `days` long) merged into one trace — DESIGN.md §7 —
// on up to `threads` threads (default: hardware concurrency).  The
// merged trace is byte-identical for any thread count.  The default, one
// shard, is the same run with n = 1, in memory or with --checkpoint-dir.
//
// An unknown --flag, a days or rate that is not a positive number, a
// third argument other than faults/1/none/0, a shards or threads value
// that is not a positive integer, a --checkpoint-interval that is not an
// integer >= 0, a --qtrace-sample outside [0, 1], or a --timeline-tick or
// --heartbeat that is not a finite number >= 0 prints a one-line usage
// error and exits with code 1.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/filters.hpp"
#include "analysis/model_fit.hpp"
#include "analysis/report.hpp"
#include "analysis/streaming.hpp"
#include "behavior/checkpoint.hpp"
#include "behavior/client_profile.hpp"
#include "behavior/sharded_simulation.hpp"
#include "core/conditions.hpp"
#include "obs/metrics.hpp"
#include "obs/process.hpp"
#include "obs/qtrace.hpp"
#include "obs/sidecar.hpp"
#include "obs/span.hpp"
#include "obs/timeline.hpp"
#include "scenario/curated.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "sim/simulator.hpp"
#include "trace/trace_io.hpp"

namespace {

// One CSV row per (tick, shard): tick bounds, the tick's sim day and hour,
// and the per-region peak/non-peak band of §4.2 — so the EXPERIMENTS.md
// diurnal figure needs no downstream time arithmetic at all.
void write_timeline_csv(std::ostream& out,
                        const std::vector<p2pgen::obs::TimelinePoint>& points,
                        double tick_seconds) {
  using namespace p2pgen;
  out << "tick_start_s,tick_end_s,day,hour,period_north_america,"
         "period_europe,period_asia,period_other,shard";
  for (std::size_t s = 0; s < obs::kTimelineSeriesCount; ++s) {
    out << ','
        << obs::timeline_series_name(static_cast<obs::TimelineSeries>(s));
  }
  out << '\n';
  char num[64];
  for (const obs::TimelinePoint& point : points) {
    std::snprintf(num, sizeof(num), "%.3f,%.3f", point.time,
                  point.time + tick_seconds);
    const int hour = sim::hour_of_day(point.time);
    out << num << ',' << sim::day_index(point.time) << ',' << hour;
    for (geo::Region region :
         {geo::Region::kNorthAmerica, geo::Region::kEurope, geo::Region::kAsia,
          geo::Region::kOther}) {
      out << ',' << core::day_period_name(core::day_period(region, hour));
    }
    out << ',' << point.shard;
    for (std::uint64_t value : point.values) out << ',' << value;
    out << '\n';
  }
}

// Same shape as the PipelineReport "timeline" block, standalone.
void write_timeline_json(std::ostream& out,
                         const std::vector<p2pgen::obs::TimelinePoint>& points,
                         double tick_seconds) {
  using namespace p2pgen;
  char num[64];
  std::snprintf(num, sizeof(num), "%.9f", tick_seconds);
  out << "{\n  \"tick_seconds\": " << num << ",\n  \"series\": [";
  for (std::size_t s = 0; s < obs::kTimelineSeriesCount; ++s) {
    out << (s == 0 ? "" : ", ") << '"'
        << obs::timeline_series_name(static_cast<obs::TimelineSeries>(s))
        << '"';
  }
  out << "],\n  \"points\": [";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const obs::TimelinePoint& point = points[i];
    std::snprintf(num, sizeof(num), "%.9f", point.time);
    out << (i == 0 ? "\n    [" : ",\n    [") << num << ", " << point.shard;
    for (std::uint64_t value : point.values) out << ", " << value;
    out << "]";
  }
  out << (points.empty() ? "]\n}\n" : "\n  ]\n}\n");
}

int usage_error(const std::string& problem) {
  std::cerr << "measurement_pipeline: " << problem
            << " (usage: measurement_pipeline [days] [arrival_rate] "
               "[faults|none] [shards] [threads] [--<flag>=<value>...])\n";
  return 1;
}

// Bounds for parse_number: "> 0" is ">= the smallest positive double".
constexpr double kPositive = std::numeric_limits<double>::denorm_min();
constexpr double kUnbounded = std::numeric_limits<double>::max();

// The whole of `text` as a finite number in [lo, hi].
bool parse_number(const char* text, double lo, double hi, double& out) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value) || value < lo ||
      value > hi) {
    return false;
  }
  out = value;
  return true;
}

// The whole of `text` as a decimal integer in [lo, hi].
template <typename T>
bool parse_integer(const char* text, T lo, T hi, T& out) {
  const char* end = text + std::strlen(text);
  T value{};
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc{} || ptr != end || value < lo || value > hi) return false;
  out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace p2pgen;

  std::string metrics_path;
  std::string trace_json_path;
  std::string scenario_arg;
  std::string query_trace_dir;
  std::string timeline_dir;
  double qtrace_sample = 0.0;
  double timeline_tick = 0.0;
  behavior::DurabilityConfig durability;
  std::vector<const char*> args;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--metrics=", 10) == 0) {
      metrics_path = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--trace-json=", 13) == 0) {
      trace_json_path = argv[i] + 13;
    } else if (std::strncmp(argv[i], "--checkpoint-dir=", 17) == 0) {
      durability.dir = argv[i] + 17;
    } else if (std::strncmp(argv[i], "--checkpoint-interval=", 22) == 0) {
      if (!parse_integer<std::uint64_t>(
              argv[i] + 22, 0, std::numeric_limits<std::uint64_t>::max(),
              durability.sync_interval_records)) {
        return usage_error("--checkpoint-interval must be an integer >= 0");
      }
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      durability.resume = true;
    } else if (std::strcmp(argv[i], "--salvage") == 0) {
      durability.salvage = true;
    } else if (std::strncmp(argv[i], "--scenario=", 11) == 0) {
      scenario_arg = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--qtrace-sample=", 16) == 0) {
      if (!parse_number(argv[i] + 16, 0.0, 1.0, qtrace_sample)) {
        return usage_error("--qtrace-sample must be a number from 0 to 1");
      }
    } else if (std::strncmp(argv[i], "--query-trace=", 14) == 0) {
      query_trace_dir = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--timeline=", 11) == 0) {
      timeline_dir = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--timeline-tick=", 16) == 0) {
      if (!parse_number(argv[i] + 16, 0.0, kUnbounded, timeline_tick)) {
        return usage_error("--timeline-tick must be a finite number >= 0");
      }
    } else if (std::strncmp(argv[i], "--heartbeat=", 12) == 0) {
      if (!parse_number(argv[i] + 12, 0.0, kUnbounded,
                        durability.heartbeat_interval_seconds)) {
        return usage_error("--heartbeat must be a finite number >= 0");
      }
    } else if (std::strcmp(argv[i], "--list-scenarios") == 0) {
      std::cout << "curated scenarios (--scenario=<name>):\n";
      for (const auto& spec :
           scenario::curated_scenarios(/*duration_days=*/1.0)) {
        std::cout << "  " << std::left << std::setw(24) << spec.name
                  << spec.description << "\n";
      }
      std::cout << "client mixes (scenario \"client_mix\" field):";
      for (const auto& mix : behavior::ClientPopulation::known_mixes()) {
        std::cout << " " << mix;
      }
      std::cout << "\n";
      return 0;
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      return usage_error(std::string("unknown flag ") + argv[i]);
    } else {
      args.push_back(argv[i]);
    }
  }
  if (args.size() > 5) return usage_error("too many arguments");
  double days = 1.0;
  double arrival_rate = 1.0;
  bool faults_on = false;
  unsigned shards = 1;
  unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  if (args.size() > 0 && !parse_number(args[0], kPositive, kUnbounded, days)) {
    return usage_error("days must be a positive number");
  }
  if (args.size() > 1 &&
      !parse_number(args[1], kPositive, kUnbounded, arrival_rate)) {
    return usage_error("arrival_rate must be a positive number");
  }
  if (args.size() > 2) {
    const std::string mode = args[2];
    if (mode != "faults" && mode != "1" && mode != "none" && mode != "0") {
      return usage_error("the third argument must be faults, 1, none or 0");
    }
    faults_on = mode == "faults" || mode == "1";
  }
  constexpr unsigned kMaxCount = std::numeric_limits<unsigned>::max();
  if (args.size() > 3 && !parse_integer(args[3], 1u, kMaxCount, shards)) {
    return usage_error("shards must be a positive integer");
  }
  if (args.size() > 4 && !parse_integer(args[4], 1u, kMaxCount, threads)) {
    return usage_error("threads must be a positive integer");
  }
  if (durability.resume && durability.dir.empty()) {
    std::cerr << "measurement_pipeline: --resume needs --checkpoint-dir=\n";
    return 1;
  }
  if (durability.salvage && durability.dir.empty()) {
    std::cerr << "measurement_pipeline: --salvage needs --checkpoint-dir= "
                 "(there is no spool to salvage without one)\n";
    return 1;
  }
  if (!query_trace_dir.empty() && qtrace_sample <= 0.0) {
    std::cerr << "measurement_pipeline: --query-trace needs "
                 "--qtrace-sample=<rate> > 0 (nothing would be recorded)\n";
    return 1;
  }
  if (durability.heartbeat_interval_seconds > 0.0 && durability.dir.empty()) {
    std::cerr << "measurement_pipeline: --heartbeat needs --checkpoint-dir= "
                 "(the beat file lives next to the MANIFEST)\n";
    return 1;
  }
  // A dump directory without an explicit tick means "give me the default
  // diurnal resolution" (10 sim-minutes, the paper's time-of-day scale).
  if (!timeline_dir.empty() && timeline_tick <= 0.0) timeline_tick = 600.0;
  // Span tracing buffers grow while enabled, so it is opt-in.
  if (!trace_json_path.empty()) obs::TraceLog::global().set_enabled(true);

  behavior::TraceSimulationConfig config;
  config.duration_days = days;
  config.arrival_rate = arrival_rate;
  config.seed = 20040315;
  config.qtrace.sample_rate = qtrace_sample;
  config.timeline.tick_seconds = timeline_tick;

  if (faults_on) {
    config.faults.loss_prob = 0.03;
    config.faults.corrupt_prob = 0.01;
    config.faults.duplicate_prob = 0.02;
    config.faults.jitter_seconds = 0.5;
    config.faults.crash_rate = 1.0 / 3600.0;
    config.faults.half_open_prob = 0.05;
    config.faults.half_open_after_mean = 300.0;
    config.node.forward_fanout = 4;
    config.node.forward_retry_max = 3;
  }

  // A scenario applies ON TOP of the base (and fault-preset) config:
  // curated name first, JSON file otherwise.
  std::string scenario_name;
  std::uint64_t scenario_digest_value = 0;
  if (!scenario_arg.empty()) {
    try {
      auto spec = scenario::find_curated(scenario_arg, config.duration_days);
      if (!spec) spec = scenario::ScenarioSpec::from_json_file(scenario_arg);
      config = spec->apply(config);
      scenario_name = spec->name;
      scenario_digest_value = behavior::simulation_config_digest(config);
    } catch (const std::exception& e) {
      std::cerr << "measurement_pipeline: --scenario: " << e.what() << "\n"
                << "(--list-scenarios prints the curated names)\n";
      return 1;
    }
  }

  std::cout << "== 1. simulating " << config.duration_days
            << " day(s) of measurement"
            << (shards > 1 ? " x " + std::to_string(shards) + " shards on " +
                                 std::to_string(threads) + " thread(s)"
                           : std::string())
            << (faults_on ? " on a hostile overlay" : "") << " ==\n";
  if (!scenario_name.empty()) {
    std::cout << "  scenario:            " << scenario_name << "\n"
              << "  scenario digest:     " << std::hex << std::setfill('0')
              << std::setw(16) << scenario_digest_value << std::dec
              << std::setfill(' ') << "\n";
  }
  trace::Trace trace;
  std::vector<behavior::ShardStats> shard_stats;
  std::vector<obs::QueryHopEvent> qtrace;
  std::vector<obs::TimelinePoint> timeline;
  // Salvage loss accounting of the streaming pass (empty without
  // --salvage or with a clean checkpoint).
  trace::SalvageReport salvage_report;
  std::optional<analysis::StreamingResult> streaming;
  if (!durability.dir.empty()) {
    behavior::RecoverySummary recovery;
    try {
      const auto spool_dirs = behavior::simulate_to_spools(
          core::WorkloadModel::paper_default(), config, shards, threads,
          durability, &recovery, &shard_stats, &qtrace, &timeline);
      std::cout << "  checkpoint dir:      " << durability.dir << "\n"
                << "  recovery: " << recovery.records_recovered
                << " records recovered, " << recovery.records_truncated
                << " truncated (" << recovery.bytes_truncated << " bytes), "
                << recovery.events_replayed << " events replayed, "
                << recovery.shards_completed_prior
                << " shard(s) loaded complete, " << recovery.sidecars_rebuilt
                << " sidecar set(s) rebuilt, " << recovery.spools_reset
                << " spool(s) reset\n";
      analysis::StreamingOptions streaming_options;
      streaming_options.threads = threads;
      streaming_options.salvage = durability.salvage;
      for (const auto& s : shard_stats) {
        streaming_options.shard_records.push_back(s.events);
      }
      streaming = analysis::analyze_spools(
          spool_dirs, geo::GeoIpDatabase::synthetic(), streaming_options);
    } catch (const behavior::CheckpointStopped& e) {
      // Clean stop (disk full / write error): durable state is intact
      // and the MANIFEST records why.  EX_TEMPFAIL tells supervisors
      // (tools/supervise.py) this is retryable with --resume.
      std::cerr << "measurement_pipeline: " << e.what() << "\n";
      return 75;
    } catch (const std::exception& e) {
      std::cerr << "measurement_pipeline: " << e.what() << "\n";
      return 1;
    }
    salvage_report = std::move(streaming->salvage);
    // Mirror the materialized path's merge counter so the metric surface
    // the equivalence CI diffs is the same on both.
    obs::Registry::global().counter("sim.merged_events").add(streaming->events);
    std::cout << "  streaming pass:      " << streaming->streaming.segments_read
              << " segment(s), at most "
              << streaming->streaming.max_decoded_chunks
              << " chunk(s) decoded at once, max open sessions "
              << streaming->streaming.max_open_sessions << " (tracked "
              << streaming->streaming.max_tracked_sessions << ")\n";
  } else {
    trace = behavior::simulate_trace_sharded(core::WorkloadModel::paper_default(),
                                             config, shards, threads,
                                             &shard_stats, &qtrace, &timeline);
    for (unsigned k = 0; k < shards; ++k) {
      std::cout << "  shard " << k << ": seed " << shard_stats[k].seed << ", "
                << shard_stats[k].events << " events, "
                << shard_stats[k].peers_spawned << " peers\n";
    }
  }

  // The streaming pass computed these while it read the spools; an
  // in-memory run makes one pass over the merged trace for each.
  trace::TraceStats stats;
  std::uint64_t trace_digest = 0;
  if (streaming) {
    stats = streaming->stats;
    trace_digest = streaming->trace_digest;
  } else {
    {
      obs::ObsSpan span("analysis.trace_stats");
      stats = trace.stats();
    }
    obs::ObsSpan span("analysis.binary_digest");
    trace_digest = trace::binary_digest(trace);
  }
  const std::uint64_t trace_events =
      streaming ? streaming->events : trace.size();
  // The byte-identity handle: grep-able by the kill-and-resume and
  // streaming-equivalence CI jobs, equal across thread counts, across
  // SIGKILL + --resume, and across checkpointed vs in-memory runs.
  std::cout << "  trace digest:        " << std::hex << std::setfill('0')
            << std::setw(16) << trace_digest << std::dec
            << std::setfill(' ') << "\n";
  std::cout << "  trace events:        " << trace_events << "\n"
            << "  direct connections:  " << stats.direct_connections << "\n"
            << "  QUERY messages:      " << stats.query_messages << "\n"
            << "  hop-1 queries:       " << stats.hop1_queries << "\n"
            << "  PING/PONG:           " << stats.ping_messages << " / "
            << stats.pong_messages << "\n"
            << "  ultrapeer share:     "
            << static_cast<double>(stats.ultrapeer_connections) /
                   static_cast<double>(std::max<std::uint64_t>(
                       1, stats.direct_connections))
            << "\n";
  if (config.qtrace.sample_rate > 0.0) {
    // publish_qtrace_metrics already counted the distinct sampled
    // queries while aggregating; read it back rather than re-deriving.
    const auto qsnap = obs::Registry::global().snapshot();
    std::cout << "  qtrace:              " << qtrace.size()
              << " hop events across "
              << qsnap.counter_value("qtrace.sampled_queries")
              << " sampled queries (rate " << config.qtrace.sample_rate
              << ")\n";
  }
  if (config.timeline.tick_seconds > 0.0) {
    std::cout << "  timeline:            " << timeline.size()
              << " tick point(s) at " << config.timeline.tick_seconds
              << " s/tick, digest " << std::hex << std::setfill('0')
              << std::setw(16) << obs::timeline_digest(timeline) << std::dec
              << std::setfill(' ') << "\n";
  }

  // The pipeline report wants the robustness rows whether or not faults
  // were injected (on a clean overlay they are simply zero).
  analysis::RobustnessReport robustness =
      scenario::robustness_rows(behavior::sum_shard_stats(shard_stats));
  if (streaming) {
    // The streaming pass already counted every SessionEnd by reason —
    // exactly what add_trace() derives from a materialized trace.
    using trace::EndReason;
    const auto& ends = streaming->end_reason_counts;
    robustness.bye_ends += ends[static_cast<std::size_t>(EndReason::kBye)];
    robustness.teardown_ends +=
        ends[static_cast<std::size_t>(EndReason::kTeardown)];
    robustness.probe_ends +=
        ends[static_cast<std::size_t>(EndReason::kIdleProbe)];
    robustness.error_ends += ends[static_cast<std::size_t>(EndReason::kError)];
  } else {
    robustness.add_trace(trace);
  }
  if (faults_on) {
    if (shards > 1) {
      std::cout << "\n(robustness rows summed over " << shards << " shards)\n";
    } else {
      std::cout << "\n";
    }
    analysis::print_robustness_report(std::cout, robustness);
  }

  std::cout << "\n== 2. session reconstruction + filter rules ==\n";
  // Either the materialized chain (build_dataset -> apply_filters ->
  // measures -> fits) of an in-memory run or the numbers the one-pass
  // analysis of a checkpoint already produced; CI's streaming-equivalence
  // job asserts they never differ.
  std::optional<analysis::TraceDataset> dataset;
  analysis::FilterReport report;
  if (streaming) {
    report = streaming->filters;
  } else {
    {
      obs::ObsSpan span("analysis.build_dataset");
      dataset.emplace(
          analysis::build_dataset(trace, geo::GeoIpDatabase::synthetic()));
    }
    report = analysis::apply_filters(*dataset);
  }
  if (salvage_report.damaged()) {
    std::cout << "  salvage: " << salvage_report.ranges.size()
              << " damaged range(s), " << salvage_report.frames_lost
              << " frame(s) lost (" << salvage_report.bytes_quarantined
              << " bytes quarantined), " << salvage_report.censored_sessions
              << " session(s) / " << salvage_report.censored_queries
              << " query(ies) censored\n";
  }
  std::cout << "  initial sessions/queries: " << report.initial_sessions << " / "
            << report.initial_queries << "\n"
            << "  rule 1 (SHA1) removed:    " << report.rule1_removed << "\n"
            << "  rule 2 (repeats) removed: " << report.rule2_removed << "\n"
            << "  rule 3 (<64 s) removed:   " << report.rule3_removed_queries
            << " queries, " << report.rule3_removed_sessions << " sessions\n"
            << "  final sessions/queries:   " << report.final_sessions << " / "
            << report.final_queries << "\n"
            << "  rules 4/5 excluded (IA):  " << report.rule4_excluded << " / "
            << report.rule5_excluded << "\n";

  std::cout << "\n== 3. characterization ==\n";
  const auto passive =
      streaming ? streaming->passive : analysis::passive_fraction(*dataset);
  for (geo::Region r : geo::kMainRegions) {
    std::cout << "  passive fraction " << std::setw(13)
              << geo::region_name(r) << ": "
              << passive.overall[geo::region_index(r)] << "\n";
  }

  std::cout << "\n== 4. closed loop: Appendix fits (ground truth vs recovered) ==\n";
  const auto fits =
      streaming ? streaming->fits
                : analysis::fit_appendix_tables(analysis::session_measures(*dataset));
  const auto na = geo::region_index(geo::Region::kNorthAmerica);
  std::cout << std::fixed << std::setprecision(3);
  std::cout << "  Table A.2 (#queries, NA):     paper mu=-0.067 sigma=1.360 | "
            << "fit mu=" << fits.queries[na].mu
            << " sigma=" << fits.queries[na].sigma << "\n";
  const auto& a1 =
      fits.passive[na][static_cast<std::size_t>(core::DayPeriod::kPeak)];
  std::cout << "  Table A.1 (passive, NA peak): paper body 75% ln(2.108,2.502)"
            << " tail ln(6.397,2.749)\n"
            << "                                fit   body "
            << 100.0 * a1.body_weight << "% ln(" << a1.body.mu << ","
            << a1.body.sigma << ") tail ln(" << a1.tail.mu << ","
            << a1.tail.sigma << ")\n";
  const auto& a4 =
      fits.interarrival[na][static_cast<std::size_t>(core::DayPeriod::kPeak)];
  std::cout << "  Table A.4 (interarrival, NA peak): paper ln(3.353,1.625)+"
            << "Pareto(0.904)\n"
            << "                                fit   ln(" << a4.body.mu << ","
            << a4.body.sigma << ")+Pareto(" << a4.tail_alpha << ")\n";

  std::cout << "\n== 5. full refit -> generator-ready model ==\n";
  core::WorkloadModel refit;
  if (streaming) {
    refit = streaming->model;
  } else {
    obs::ObsSpan span("analysis.refit");
    refit = analysis::fit_workload_model_from_parts(
        analysis::geographic_distribution(*dataset), passive, fits,
        analysis::DailyQueryTables(*dataset));
  }
  std::cout << "  refit passive fraction NA: " << refit.passive_fraction[na]
            << " (ground truth 0.825)\n"
            << "  refit drift: " << refit.popularity.daily_drift
            << " (ground truth 0.65)\n"
            << "  model validates: yes\n";

  obs::publish_process_metrics();
  if (!metrics_path.empty() || !trace_json_path.empty() ||
      !query_trace_dir.empty() || !timeline_dir.empty()) {
    std::cout << "\n== 6. pipeline health report ==\n";
  }
  if (!query_trace_dir.empty()) {
    try {
      std::filesystem::create_directories(query_trace_dir);
      obs::Sidecar dump;
      dump.qtrace_rate = config.qtrace.sample_rate;
      dump.qtrace = qtrace;
      obs::save_sidecar(query_trace_dir + "/qtrace.bin", dump);
      const std::string json_path = query_trace_dir + "/qtrace.json";
      std::ofstream json_out(json_path);
      obs::write_qtrace_json(json_out, qtrace);
      if (!json_out) {
        throw std::runtime_error("failed writing " + json_path);
      }
    } catch (const std::exception& e) {
      std::cerr << "measurement_pipeline: --query-trace: " << e.what() << "\n";
      return 1;
    }
    std::cout << "  qtrace:  " << query_trace_dir << "/qtrace.{bin,json} ("
              << qtrace.size() << " hop events)\n";
  }
  if (!timeline_dir.empty()) {
    try {
      std::filesystem::create_directories(timeline_dir);
      const std::string csv_path = timeline_dir + "/timeline.csv";
      std::ofstream csv_out(csv_path);
      write_timeline_csv(csv_out, timeline, config.timeline.tick_seconds);
      if (!csv_out) throw std::runtime_error("failed writing " + csv_path);
      const std::string json_path = timeline_dir + "/timeline.json";
      std::ofstream json_out(json_path);
      write_timeline_json(json_out, timeline, config.timeline.tick_seconds);
      if (!json_out) throw std::runtime_error("failed writing " + json_path);
    } catch (const std::exception& e) {
      std::cerr << "measurement_pipeline: --timeline: " << e.what() << "\n";
      return 1;
    }
    std::cout << "  timeline: " << timeline_dir << "/timeline.{csv,json} ("
              << timeline.size() << " tick points)\n";
  }
  if (!metrics_path.empty()) {
    auto pipeline = analysis::PipelineReport::capture(robustness, report);
    pipeline.timeline = timeline;
    pipeline.timeline_tick_seconds = config.timeline.tick_seconds;
    pipeline.salvage = salvage_report;
    pipeline.salvage_trace_end = stats.last_time;
    std::ofstream json_out(metrics_path);
    pipeline.write_json(json_out);
    json_out << "\n";
    std::ofstream prom_out(metrics_path + ".prom");
    pipeline.write_prometheus(prom_out);
    if (!json_out || !prom_out) {
      std::cerr << "measurement_pipeline: failed writing " << metrics_path
                << "\n";
      return 1;
    }
    std::cout << "  metrics: " << metrics_path << " (+ " << metrics_path
              << ".prom)\n";
  }
  if (!trace_json_path.empty()) {
    auto& log = obs::TraceLog::global();
    std::ofstream trace_out(trace_json_path);
    // Sampled query journeys ride along as flow events (each hop a slice
    // on the shard's track, arrows chaining the causal path) and the
    // merged timeline as stacked counter tracks per shard.
    log.write_chrome_json(trace_out, [&](std::ostream& out, bool any_prior) {
      obs::write_qtrace_flow_events(out, qtrace, any_prior);
      obs::write_timeline_counter_events(out, timeline,
                                         any_prior || !qtrace.empty());
    });
    if (!trace_out) {
      std::cerr << "measurement_pipeline: failed writing " << trace_json_path
                << "\n";
      return 1;
    }
    std::cout << "  trace:   " << trace_json_path << " (" << log.size()
              << " spans, load in chrome://tracing or ui.perfetto.dev)\n";
    log.write_summary(std::cout);
  }
  return 0;
}
