// perfbench — the three workloads.  Each repeats its timed work until the
// timed phases add up to --seconds; every repetition is checked.
#include <algorithm>
#include <exception>
#include <filesystem>
#include <functional>
#include <optional>
#include <stdexcept>
#include <thread>

#include "analysis/dataset.hpp"
#include "analysis/measures.hpp"
#include "behavior/checkpoint.hpp"
#include "behavior/sharded_simulation.hpp"
#include "bench.hpp"
#include "geo/geoip.hpp"
#include "scenario/curated.hpp"
#include "trace/spool.hpp"
#include "trace/trace_io.hpp"

namespace perfbench {
namespace {

namespace pg = p2pgen;
namespace fs = std::filesystem;

// Input sizes.  Every workload warms its shards up before measuring, so
// the connection slots are in equilibrium when the timed phase starts.
constexpr double kWarmupDays = 0.05;
constexpr double kCleanDays = 0.1;
constexpr double kHostileDays = 0.15;
constexpr double kReplayDays = 0.1;
constexpr unsigned kTwoShards = 2;
/// The streaming workloads cycle through this many inputs, made from
/// --seed.  How many decoded spool segments the two-thread streaming pass
/// holds at its peak (3 or 4) is fixed by the input, so one input alone
/// would make peak_rss_mb jump between two levels from seed to seed; the
/// run's peak is the higher level unless every input is at the lower.
constexpr unsigned kStreamingInputs = 8;
/// The least share of a traced repetition's timed phase that named layer
/// spans must cover.
constexpr double kMinSpanCoverage = 0.9;

/// Seed of input `k` of a run: input 0 is the run's seed itself, the others
/// are splitmix64-scrambled from it, so runs at nearby seeds share none.
std::uint64_t input_seed(std::uint64_t seed, unsigned k) {
  if (k == 0) return seed;
  std::uint64_t z = seed + k * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

pg::behavior::TraceSimulationConfig base_config(std::uint64_t seed,
                                                double days) {
  pg::behavior::TraceSimulationConfig config;
  config.seed = seed;
  config.duration_days = days;
  config.warmup_days = kWarmupDays;
  return config;
}

/// Repeats `rep_fn(traced, input)` until the timed phases add up to
/// options.seconds and there is one per input, cycling through `inputs`
/// inputs.  In the traced run every other repetition records spans, so
/// traced and untraced throughput come from one process; it runs at least
/// two, and each traced repetition and the untraced one after it share an
/// input.
/// Every repetition is bracketed by the host-speed calibration; the second
/// calibration runs after `rep_fn` has returned, so the repetition's
/// objects are gone by then.  A repetition with a set-up of its own adds
/// it to run.setups.
void repeat_for(const Options& options, SpanRecorder& spans, Checks& checks,
                WorkloadRun& run, unsigned inputs,
                const std::function<Rep(bool, unsigned)>& rep_fn) {
  double timed = 0.0;
  const std::size_t min_reps = std::max(options.trace ? 2u : 1u, inputs);
  for (std::size_t i = 0; timed < options.seconds || i < min_reps; ++i) {
    const bool traced = options.trace && i % 2 == 0;
    const auto input = static_cast<unsigned>((options.trace ? i / 2 : i) % inputs);
    spans.set_enabled(traced);
    checks.begin_rep();
    HostSpeed host;
    Rep rep;
    bool threw = false;
    try {
      rep = rep_fn(traced, input);
      if (traced) {
        checks.expect(rep.coverage >= kMinSpanCoverage,
                      "layer spans cover " + std::to_string(rep.coverage) +
                          " of the timed phase");
      }
    } catch (const std::exception& e) {
      checks.expect(false, std::string("repetition threw: ") + e.what());
      threw = true;
    }
    checks.end_rep();
    rep.host_speed = host.finish();
    rep.traced = traced;
    if (rep.setup_s > 0.0) run.setups.push_back({rep.setup_s, rep.host_speed});
    timed += rep.timed_s;
    run.reps.push_back(std::move(rep));
    if (threw) break;
  }
  spans.set_enabled(options.trace);
}

void check_streaming(Checks& checks, const Options& options, unsigned input,
                     const pg::analysis::StreamingResult& result,
                     std::uint64_t produced_events) {
  checks.expect(result.events == produced_events,
                "streaming events " + std::to_string(result.events) +
                    " != events produced " + std::to_string(produced_events));
  check_digest(checks, options, input, result.trace_digest);
  check_analysis(checks, result.filters, result.fits, result.model);
}

void fill_streaming(WorkloadRun& run,
                    const pg::analysis::StreamingResult& result) {
  run.filters = result.filters;
  run.streaming = result.streaming;
  run.digest = result.trace_digest;
}

/// Spool directories of two shards under `root`.
std::vector<std::string> shard_dirs(const fs::path& root) {
  std::vector<std::string> dirs;
  for (unsigned k = 0; k < kTwoShards; ++k) {
    dirs.push_back((root / ("shard-" + std::to_string(k))).string());
  }
  return dirs;
}

/// Loads each spool's trace for the layer micro-timings.
std::vector<pg::trace::Trace> read_spools(const std::vector<std::string>& dirs) {
  std::vector<pg::trace::Trace> traces;
  for (const auto& dir : dirs) traces.push_back(pg::trace::read_spool(dir));
  return traces;
}

}  // namespace

void SimCounters::add(pg::behavior::TraceSimulation& simulation) {
  events_executed += simulation.simulator().executed();
  const auto& net = simulation.network();
  delivered += net.messages_delivered();
  dropped += net.messages_dropped();
  const auto& f = simulation.fault_counters();
  faults_injected += f.messages_lost + f.messages_corrupted +
                     f.messages_duplicated + f.messages_delayed +
                     f.node_crashes + f.half_open_links +
                     f.sends_into_dead_link;
  const auto& node = simulation.node();
  decode_errors += node.decode_errors();
  peers_spawned += simulation.peers_spawned();
  messages_recorded += node.messages_recorded();
  forwarded += node.forwarded_messages();
  qrp_suppressed += node.qrp_suppressed();
  forward_retries += node.forward_retries();
  shed_queries += node.shed_queries();
}

SimCounters& SimCounters::operator+=(const SimCounters& o) {
  events_executed += o.events_executed;
  delivered += o.delivered;
  dropped += o.dropped;
  faults_injected += o.faults_injected;
  decode_errors += o.decode_errors;
  peers_spawned += o.peers_spawned;
  messages_recorded += o.messages_recorded;
  forwarded += o.forwarded;
  qrp_suppressed += o.qrp_suppressed;
  forward_retries += o.forward_retries;
  shed_queries += o.shed_queries;
  return *this;
}

// clean-shard: one clean shard of paper_default() in memory on one
// thread, then the materialized analysis chain.
WorkloadRun run_clean_shard(const Options& options, SpanRecorder& spans,
                            Checks& checks) {
  WorkloadRun run;
  run.shards = 1;
  auto config = base_config(options.seed, kCleanDays);
  config.seed = pg::behavior::shard_seed(options.seed, 0);

  repeat_for(options, spans, checks, run, 1, [&](bool traced, unsigned) {
    Rep rep;
    const auto t0 = Clock::now();
    Span rep_span(spans, "rep.clean-shard");
    const int parent = rep_span.id();
    pg::trace::Trace trace;
    GateSink sink(trace);
    std::optional<pg::behavior::TraceSimulation> simulation;
    std::optional<pg::geo::GeoIpDatabase> geodb;
    {
      Span span(spans, "behavior.construct", parent);
      geodb.emplace(pg::geo::GeoIpDatabase::synthetic());
      simulation.emplace(pg::core::WorkloadModel::paper_default(), config,
                         sink);
    }
    {
      Span span(spans, "behavior.simulate", parent);
      simulation->run();
    }
    const auto sim_end = Clock::now();
    pg::trace::TraceStats stats;
    {
      Span span(spans, "trace.stats", parent);
      stats = trace.stats();
    }
    std::uint64_t digest = 0;
    {
      Span span(spans, "trace.digest", parent);
      digest = pg::trace::binary_digest(trace);
    }
    std::optional<pg::analysis::TraceDataset> dataset;
    {
      Span span(spans, "analysis.build_dataset", parent);
      dataset.emplace(pg::analysis::build_dataset(trace, *geodb));
    }
    pg::analysis::FilterReport filters;
    {
      Span span(spans, "analysis.filters", parent);
      filters = pg::analysis::apply_filters(*dataset);
    }
    pg::analysis::SessionMeasures measures;
    {
      Span span(spans, "analysis.measures", parent);
      measures = pg::analysis::session_measures(*dataset);
    }
    pg::analysis::AppendixFits fits;
    {
      Span span(spans, "analysis.fits", parent);
      fits = pg::analysis::fit_appendix_tables(measures);
    }
    std::optional<pg::core::WorkloadModel> refit;
    {
      Span span(spans, "analysis.refit", parent);
      refit.emplace(pg::analysis::fit_workload_model(*dataset));
    }
    const auto end = Clock::now();
    const auto gate = sink.gate_or(end);

    rep.setup_s = seconds_between(t0, gate);
    rep.timed_s = seconds_between(gate, end);
    rep.events = sink.events();
    rep.digest = digest;
    rep.shard_walls = {seconds_between(t0, sim_end)};
    rep.coverage =
        spans.child_coverage(parent, spans.at(gate), spans.at(end));

    checks.expect(sink.events() == trace.size(),
                  "sink saw " + std::to_string(sink.events()) +
                      " events, trace holds " + std::to_string(trace.size()));
    check_tally(checks, sink.tally(), stats, std::nullopt);
    checks.expect(sink.tally().sessions_started == dataset->sessions.size(),
                  "sink saw " + std::to_string(sink.tally().sessions_started) +
                      " sessions start, the dataset holds " +
                      std::to_string(dataset->sessions.size()));
    check_digest(checks, options, 0, digest);
    check_analysis(checks, filters, fits, *refit);

    if (traced) {
      run.sim = {};
      run.sim.add(*simulation);
      run.filters = filters;
      run.digest = digest;
      run.shard_traces.clear();
      run.shard_traces.push_back(std::move(trace));
    }
    return rep;
  });
  return run;
}

// hostile-durable: the curated hostile-overlay scenario, two shards on two
// threads, each streamed into an fsync'd spool at the durable defaults,
// then the streaming analysis over those spools.
WorkloadRun run_hostile_durable(const Options& options, SpanRecorder& spans,
                                Checks& checks) {
  WorkloadRun run;
  run.shards = kTwoShards;
  const auto spec = pg::scenario::find_curated("hostile-overlay", kHostileDays);
  if (!spec) throw std::runtime_error("no curated hostile-overlay scenario");
  const pg::behavior::DurabilityConfig durable;  // the durable defaults
  const pg::trace::SpoolConfig spool{durable.segment_max_records,
                                     durable.sync_interval_records};
  const fs::path root = fs::path(options.work_dir) / "hostile-durable";
  const auto dirs = shard_dirs(root);

  repeat_for(options, spans, checks, run, kStreamingInputs,
             [&](bool traced, unsigned input) {
    fs::remove_all(root);
    const auto base = spec->apply(
        base_config(input_seed(options.seed, input), kHostileDays));
    Rep rep;
    const auto t0 = Clock::now();
    Span rep_span(spans, "rep.hostile-durable");
    const int parent = rep_span.id();
    const auto model = pg::core::WorkloadModel::paper_default();
    const auto geodb = pg::geo::GeoIpDatabase::synthetic();

    struct Shard {
      Tally tally;
      Clock::time_point gate{};
      Clock::time_point end{};
      SimCounters counters;
      std::exception_ptr error;
    };
    std::vector<Shard> shards(kTwoShards);
    auto run_shard = [&](unsigned k) {
      Shard& out = shards[k];
      try {
        auto config = base;
        config.seed = pg::behavior::shard_seed(base.seed, k);
        std::optional<pg::trace::SpoolWriter> writer;
        std::optional<GateSink> sink;
        std::optional<pg::behavior::TraceSimulation> simulation;
        {
          Span span(spans, "behavior.construct", parent, k);
          writer.emplace(dirs[k], spool);
          sink.emplace(*writer);
          simulation.emplace(model, config, *sink);
        }
        {
          Span span(spans, "behavior.simulate", parent, k);
          simulation->run();
        }
        {
          Span span(spans, "trace.spool.close", parent, k);
          writer->close();
        }
        out.end = Clock::now();
        out.gate = sink->gate_or(out.end);
        out.tally = sink->tally();
        out.counters.add(*simulation);
      } catch (...) {
        out.error = std::current_exception();
      }
    };
    {
      std::thread second(run_shard, 1u);
      run_shard(0);
      second.join();
    }
    for (const auto& shard : shards) {
      if (shard.error) std::rethrow_exception(shard.error);
    }
    std::optional<pg::analysis::StreamingResult> result;
    {
      Span span(spans, "analysis.streaming", parent);
      pg::analysis::StreamingOptions streaming;
      streaming.threads = kTwoShards;
      const auto start = Clock::now();
      result.emplace(pg::analysis::analyze_spools(dirs, geodb, streaming));
      rep.streaming_s = seconds_between(start, Clock::now());
    }
    const auto end = Clock::now();
    const auto gate = std::min(shards[0].gate, shards[1].gate);

    rep.setup_s = seconds_between(t0, gate);
    rep.timed_s = seconds_between(gate, end);
    SimCounters sim;
    Tally tally;
    for (const auto& shard : shards) {
      tally += shard.tally;
      rep.shard_walls.push_back(seconds_between(t0, shard.end));
      sim += shard.counters;
    }
    rep.events = tally.events;
    rep.digest = result->trace_digest;
    rep.coverage =
        spans.child_coverage(parent, spans.at(gate), spans.at(end));
    // The streaming pass reads the spools back from disk, so its counts
    // are independent of the sink's.
    check_streaming(checks, options, input, *result, rep.events);
    std::uint64_t ended = 0;
    for (const auto n : result->end_reason_counts) ended += n;
    check_tally(checks, tally, result->stats, ended);
    if (traced) {
      run.sim = sim;
      fill_streaming(run, *result);
      run.spool_bytes = tree_bytes(root.string());
      run.shard_traces = read_spools(dirs);
    }
    return rep;
  });
  fs::remove_all(root);
  return run;
}

// spool-replay: set-up builds one clean two-shard checkpoint per input;
// the timed phase only reads them, in turn, with the streaming analysis
// on two threads.
WorkloadRun run_spool_replay(const Options& options, SpanRecorder& spans,
                             Checks& checks) {
  WorkloadRun run;
  run.shards = kTwoShards;
  const fs::path root = fs::path(options.work_dir) / "spool-replay";
  fs::remove_all(root);
  struct Checkpoint {
    std::vector<std::string> dirs;
    std::uint64_t produced = 0;  ///< events the producer reported
    fs::path root;
  };
  std::vector<Checkpoint> checkpoints(kStreamingInputs);
  for (unsigned k = 0; k < kStreamingInputs; ++k) {
    Checkpoint& cp = checkpoints[k];
    cp.root = root / ("input-" + std::to_string(k));
    pg::behavior::DurabilityConfig durable;
    durable.dir = cp.root.string();
    HostSpeed host;
    const auto t0 = Clock::now();
    {
      Span span(spans, "setup.checkpoint");
      std::vector<pg::behavior::ShardStats> stats;
      cp.dirs = pg::behavior::simulate_to_spools(
          pg::core::WorkloadModel::paper_default(),
          base_config(input_seed(options.seed, k), kReplayDays), kTwoShards,
          kTwoShards, durable, nullptr, &stats);
      for (const auto& s : stats) cp.produced += s.events;
    }
    const double build_s = seconds_between(t0, Clock::now());
    run.setups.push_back({build_s, host.finish()});
  }
  const auto geodb = pg::geo::GeoIpDatabase::synthetic();

  repeat_for(options, spans, checks, run, kStreamingInputs,
             [&](bool traced, unsigned input) {
    const Checkpoint& cp = checkpoints[input];
    Rep rep;
    const auto t0 = Clock::now();
    Span rep_span(spans, "rep.spool-replay");
    std::optional<pg::analysis::StreamingResult> result;
    {
      Span span(spans, "analysis.streaming", rep_span.id());
      pg::analysis::StreamingOptions streaming;
      streaming.threads = kTwoShards;
      result.emplace(pg::analysis::analyze_spools(cp.dirs, geodb, streaming));
    }
    const auto end = Clock::now();
    rep.timed_s = seconds_between(t0, end);
    rep.streaming_s = rep.timed_s;
    rep.events = result->events;
    rep.digest = result->trace_digest;
    rep.coverage =
        spans.child_coverage(rep_span.id(), spans.at(t0), spans.at(end));
    check_streaming(checks, options, input, *result, cp.produced);
    if (traced) {
      fill_streaming(run, *result);
      run.spool_bytes = tree_bytes(cp.root.string());
      run.shard_traces = read_spools(cp.dirs);
    }
    return rep;
  });
  fs::remove_all(root);
  return run;
}

}  // namespace perfbench
