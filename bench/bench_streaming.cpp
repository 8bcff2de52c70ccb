// Streaming-vs-materialized pipeline bench — the memory-regression gate.
//
// Peak RSS (getrusage ru_maxrss) is a process-lifetime high-water mark,
// so the two analysis paths cannot be compared inside one process: the
// parent builds ONE durable checkpoint at bench scale, then re-execs
// itself twice as single-phase children
//
//   bench_streaming --phase=materialized --dir=<ckpt>
//   bench_streaming --phase=streaming    --dir=<ckpt>
//
// each of which reads the shared checkpoint, runs its full analysis
// chain (load_checkpoint+dataset+filters+measures+fits vs a resume into
// analyze_spools) and prints a one-line JSON record with wall clock,
// events/sec, peak RSS, trace digest and the Table-2 filter rows.  The
// parent then enforces:
//
//   * trace digest, event count and every filter row identical (hard
//     fail — this is the equivalence contract, CI's first gate);
//   * streaming peak RSS below a fraction of materialized peak RSS
//     (hard fail — the memory-regression gate).  At tiny scales both
//     processes are dominated by fixed overhead, so when materialized
//     RSS is under a floor the gate relaxes to "streaming not worse".
//
// Environment (on top of P2PGEN_DAYS / P2PGEN_SHARDS / P2PGEN_THREADS):
//   P2PGEN_STREAMING_JSON=<path>      write the outcome record as JSON
//                                     (the BENCH_streaming.json format)
//   P2PGEN_STREAMING_BASELINE=<path>  committed baseline; events/sec
//                                     drift beyond 10% prints a warning
//                                     (never a failure — CI hardware
//                                     varies)
//   P2PGEN_STREAMING_RSS_FRACTION=<f> gate fraction (default 0.85)
//   P2PGEN_STREAMING_RSS_FLOOR_MB=<m> materialized-RSS floor below which
//                                     the fraction gate relaxes
//                                     (default 96)
//   P2PGEN_STREAMING_DIR=<dir>        checkpoint directory (default
//                                     bench_streaming_ckpt, recreated)
#include "bench_common.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "analysis/dataset.hpp"
#include "analysis/streaming.hpp"
#include "behavior/checkpoint.hpp"
#include "geo/geoip.hpp"
#include "obs/metrics.hpp"
#include "obs/process.hpp"
#include "scenario/json.hpp"
#include "trace/trace_io.hpp"

namespace {

using namespace p2pgen;

// The bench config: standard bench scale plus the hostile-overlay preset
// (fault churn is what stresses the open-session table, and unmatched
// query/end events only exist on faulted traces — the equivalence gate
// should cover them).
behavior::TraceSimulationConfig streaming_bench_config(
    const bench::BenchScale& scale) {
  behavior::TraceSimulationConfig config = bench::bench_simulation_config(scale);
  config.faults.loss_prob = 0.03;
  config.faults.corrupt_prob = 0.01;
  config.faults.duplicate_prob = 0.02;
  config.faults.jitter_seconds = 0.5;
  config.faults.crash_rate = 1.0 / 3600.0;
  config.faults.half_open_prob = 0.05;
  config.faults.half_open_after_mean = 300.0;
  config.node.forward_fanout = 4;
  config.node.forward_retry_max = 3;
  return config;
}

/// What one child phase measured; also the parsed form of a child's JSON.
struct PhaseOutcome {
  std::uint64_t events = 0;
  double wall_ms = 0.0;
  double events_per_sec = 0.0;
  std::uint64_t peak_rss_bytes = 0;
  std::uint64_t trace_digest = 0;
  analysis::FilterReport filters;
};

void write_filter_json(std::ostream& out, const analysis::FilterReport& f) {
  out << "{\"initial_queries\":" << f.initial_queries
      << ",\"initial_sessions\":" << f.initial_sessions
      << ",\"rule1_removed\":" << f.rule1_removed
      << ",\"rule2_removed\":" << f.rule2_removed
      << ",\"rule3_removed_queries\":" << f.rule3_removed_queries
      << ",\"rule3_removed_sessions\":" << f.rule3_removed_sessions
      << ",\"final_queries\":" << f.final_queries
      << ",\"final_sessions\":" << f.final_sessions
      << ",\"rule4_excluded\":" << f.rule4_excluded
      << ",\"rule5_excluded\":" << f.rule5_excluded
      << ",\"interarrival_queries\":" << f.interarrival_queries << "}";
}

void write_phase_json(std::ostream& out, const PhaseOutcome& o) {
  out << "{\"events\":" << o.events << ",\"wall_ms\":" << std::fixed
      << std::setprecision(3) << o.wall_ms << ",\"events_per_sec\":"
      << std::setprecision(1) << o.events_per_sec
      << std::defaultfloat  // restore stream state for later writers
      << ",\"peak_rss_bytes\":" << o.peak_rss_bytes << ",\"trace_digest\":\""
      << std::hex << std::setfill('0') << std::setw(16) << o.trace_digest
      << std::dec << std::setfill(' ') << "\",\"filters\":";
  write_filter_json(out, o.filters);
  out << "}";
}

std::uint64_t parse_digest_hex(const std::string& hex) {
  return std::stoull(hex, nullptr, 16);
}

std::uint64_t number_field(const scenario::Json& obj, const char* key) {
  const scenario::Json* v = obj.find(key);
  if (v == nullptr) throw scenario::JsonError(std::string("missing ") + key);
  return static_cast<std::uint64_t>(v->as_number());
}

PhaseOutcome parse_phase_json(const scenario::Json& obj) {
  PhaseOutcome o;
  o.events = number_field(obj, "events");
  o.wall_ms = obj.find("wall_ms")->as_number();
  o.events_per_sec = obj.find("events_per_sec")->as_number();
  o.peak_rss_bytes = number_field(obj, "peak_rss_bytes");
  o.trace_digest = parse_digest_hex(obj.find("trace_digest")->as_string());
  const scenario::Json* f = obj.find("filters");
  if (f == nullptr) throw scenario::JsonError("missing filters");
  o.filters.initial_queries = number_field(*f, "initial_queries");
  o.filters.initial_sessions = number_field(*f, "initial_sessions");
  o.filters.rule1_removed = number_field(*f, "rule1_removed");
  o.filters.rule2_removed = number_field(*f, "rule2_removed");
  o.filters.rule3_removed_queries = number_field(*f, "rule3_removed_queries");
  o.filters.rule3_removed_sessions = number_field(*f, "rule3_removed_sessions");
  o.filters.final_queries = number_field(*f, "final_queries");
  o.filters.final_sessions = number_field(*f, "final_sessions");
  o.filters.rule4_excluded = number_field(*f, "rule4_excluded");
  o.filters.rule5_excluded = number_field(*f, "rule5_excluded");
  o.filters.interarrival_queries = number_field(*f, "interarrival_queries");
  return o;
}

bool filters_equal(const analysis::FilterReport& a,
                   const analysis::FilterReport& b) {
  return a.initial_queries == b.initial_queries &&
         a.initial_sessions == b.initial_sessions &&
         a.rule1_removed == b.rule1_removed &&
         a.rule2_removed == b.rule2_removed &&
         a.rule3_removed_queries == b.rule3_removed_queries &&
         a.rule3_removed_sessions == b.rule3_removed_sessions &&
         a.final_queries == b.final_queries &&
         a.final_sessions == b.final_sessions &&
         a.rule4_excluded == b.rule4_excluded &&
         a.rule5_excluded == b.rule5_excluded &&
         a.interarrival_queries == b.interarrival_queries;
}

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atof(v) : fallback;
}

// ---------------------------------------------------------------------------
// Child phases: read the shared checkpoint, run one analysis path, print
// exactly one JSON line on stdout (all narration goes to stderr).

int run_child(const std::string& phase, const std::string& dir) {
  const auto scale = bench::bench_scale();
  const auto config = streaming_bench_config(scale);

  behavior::DurabilityConfig durability;
  durability.dir = dir;
  durability.resume = true;

  PhaseOutcome out;
  // Baseline for the per-phase registry delta reported below: everything
  // the phase publishes is read as Registry::delta(pre_phase), so the
  // numbers are the phase's own contribution even if this process ever
  // grows pre-phase metric traffic.
  const obs::MetricsSnapshot pre_phase = obs::Registry::global().snapshot();
  const auto t0 = std::chrono::steady_clock::now();
  if (phase == "materialized") {
    const trace::Trace trace = behavior::load_checkpoint(dir);
    out.events = trace.size();
    out.trace_digest = trace::binary_digest(trace);
    analysis::TraceDataset dataset =
        analysis::build_dataset(trace, geo::GeoIpDatabase::synthetic());
    out.filters = analysis::apply_filters(dataset);
    const auto measures = analysis::session_measures(dataset);
    const auto fits = analysis::fit_appendix_tables(measures);
    const auto model = analysis::fit_workload_model(dataset);
    (void)fits;
    (void)model;
  } else if (phase == "streaming") {
    std::vector<behavior::ShardStats> stats;
    const auto spool_dirs = behavior::simulate_to_spools(
        core::WorkloadModel::paper_default(), config, scale.shards,
        static_cast<unsigned>(scale.threads), durability, nullptr, &stats);
    analysis::StreamingOptions options;
    options.threads = static_cast<unsigned>(scale.threads);
    for (const auto& s : stats) options.shard_records.push_back(s.events);
    const auto result = analysis::analyze_spools(
        spool_dirs, geo::GeoIpDatabase::synthetic(), options);
    out.events = result.events;
    out.trace_digest = result.trace_digest;
    out.filters = result.filters;
    std::cerr << "[bench] streaming: " << result.streaming.segments_read
              << " segment(s), max decoded chunks "
              << result.streaming.max_decoded_chunks << ", max open " << result.streaming.max_open_sessions
              << " tracked " << result.streaming.max_tracked_sessions << "\n";
  } else {
    std::cerr << "[bench] unknown --phase=" << phase << "\n";
    return 2;
  }
  const auto t1 = std::chrono::steady_clock::now();
  const auto phase_delta = obs::Registry::global().delta(pre_phase);
  std::cerr << "[bench] phase " << phase << " delta: merged_events="
            << phase_delta.counter_value("sim.merged_events")
            << " transport_delivered="
            << phase_delta.counter_value("transport.messages_delivered")
            << " recovery_loaded="
            << phase_delta.counter_value("recovery.shards_completed_prior")
            << "\n";
  out.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  out.events_per_sec =
      out.wall_ms > 0.0
          ? static_cast<double>(out.events) / (out.wall_ms / 1000.0)
          : 0.0;
  out.peak_rss_bytes = obs::process_peak_rss_bytes();

  write_phase_json(std::cout, out);
  std::cout << "\n";
  return 0;
}

/// Runs one child phase via popen on our own binary, parses its JSON line.
PhaseOutcome run_phase(const std::string& self, const std::string& phase,
                       const std::string& dir) {
  const std::string cmd =
      "'" + self + "' --phase=" + phase + " --dir='" + dir + "'";
  std::FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    throw std::runtime_error("popen failed for phase " + phase);
  }
  std::string output;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    output.append(buf, n);
  }
  const int status = ::pclose(pipe);
  if (status != 0) {
    throw std::runtime_error("phase " + phase + " child exited with status " +
                             std::to_string(status) + "; output: " + output);
  }
  return parse_phase_json(scenario::Json::parse(output));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace p2pgen;

  std::string phase;
  std::string dir;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--phase=", 8) == 0) phase = arg + 8;
    if (std::strncmp(arg, "--dir=", 6) == 0) dir = arg + 6;
  }
  if (!phase.empty()) {
    try {
      return run_child(phase, dir);
    } catch (const std::exception& e) {
      std::cerr << "[bench] phase " << phase << ": " << e.what() << "\n";
      return 1;
    }
  }

  bench::print_header("Streaming pipeline",
                      "one-pass spool analysis vs materialized, RSS gate");

  const auto scale = bench::bench_scale();
  const auto config = streaming_bench_config(scale);
  const char* dir_env = std::getenv("P2PGEN_STREAMING_DIR");
  const std::string ckpt = dir_env != nullptr ? dir_env : "bench_streaming_ckpt";

  // Fresh checkpoint: both children must resume the SAME spools, and a
  // stale directory from a different scale would be refused anyway.
  std::error_code ec;
  std::filesystem::remove_all(ckpt, ec);
  behavior::DurabilityConfig durability;
  durability.dir = ckpt;
  std::cerr << "[bench] building shared checkpoint in " << ckpt << " ("
            << scale.days << " day(s) x " << scale.shards << " shard(s))\n";
  behavior::simulate_to_spools(core::WorkloadModel::paper_default(), config,
                               scale.shards,
                               static_cast<unsigned>(scale.threads),
                               durability);

  PhaseOutcome mat;
  PhaseOutcome str;
  try {
    mat = run_phase(argv[0], "materialized", ckpt);
    str = run_phase(argv[0], "streaming", ckpt);
  } catch (const std::exception& e) {
    std::cerr << "[bench] " << e.what() << "\n";
    return 1;
  }

  const double mib = 1024.0 * 1024.0;
  const double ratio =
      mat.peak_rss_bytes > 0
          ? static_cast<double>(str.peak_rss_bytes) / mat.peak_rss_bytes
          : 0.0;
  std::cout << std::left << std::setw(14) << "path" << std::right
            << std::setw(10) << "events" << std::setw(11) << "wall ms"
            << std::setw(13) << "events/sec" << std::setw(13) << "peak MiB"
            << std::setw(18) << "trace digest" << "\n";
  for (const auto* o : {&mat, &str}) {
    std::cout << std::left << std::setw(14)
              << (o == &mat ? "materialized" : "streaming") << std::right
              << std::setw(10) << o->events << std::setw(11) << std::fixed
              << std::setprecision(0) << o->wall_ms << std::setw(13)
              << o->events_per_sec << std::setw(13) << std::setprecision(1)
              << (static_cast<double>(o->peak_rss_bytes) / mib)
              << std::defaultfloat << std::setw(18) << std::hex
              << o->trace_digest << std::dec << "\n";
  }
  std::cout << "peak-RSS ratio (streaming / materialized): " << std::fixed
            << std::setprecision(3) << ratio << std::defaultfloat << "\n";

  // Gate 1: equivalence — the whole point of the streaming pass.
  bool ok = true;
  if (mat.trace_digest != str.trace_digest) {
    std::cerr << "[bench] FAIL: trace digest diverged\n";
    ok = false;
  }
  if (mat.events != str.events) {
    std::cerr << "[bench] FAIL: event counts diverged\n";
    ok = false;
  }
  if (!filters_equal(mat.filters, str.filters)) {
    std::cerr << "[bench] FAIL: Table-2 filter rows diverged\n";
    ok = false;
  }

  // Gate 2: memory regression.  Below the floor both processes are mostly
  // fixed overhead (allocator, code, geo tables), so require only "not
  // worse"; above it require the real fraction.
  const double fraction = env_double("P2PGEN_STREAMING_RSS_FRACTION", 0.85);
  const double floor_mb = env_double("P2PGEN_STREAMING_RSS_FLOOR_MB", 96.0);
  const bool above_floor =
      static_cast<double>(mat.peak_rss_bytes) >= floor_mb * mib;
  const double limit = above_floor ? fraction : 1.05;
  if (ratio > limit) {
    std::cerr << "[bench] FAIL: streaming peak RSS is " << std::fixed
              << std::setprecision(3) << ratio << "x materialized (limit "
              << limit << (above_floor ? "" : ", under floor") << ")\n";
    ok = false;
  }

  // Baseline drift: warn only — CI hardware varies run to run.
  if (const char* path = std::getenv("P2PGEN_STREAMING_BASELINE")) {
    try {
      std::ifstream in(path);
      std::stringstream ss;
      ss << in.rdbuf();
      const auto base = scenario::Json::parse(ss.str());
      const scenario::Json* bs = base.find("streaming");
      if (bs != nullptr) {
        const double base_eps = bs->find("events_per_sec")->as_number();
        if (base_eps > 0.0 && str.events_per_sec < 0.9 * base_eps) {
          std::cout << "baseline drift: streaming events/sec "
                    << std::fixed << std::setprecision(0)
                    << str.events_per_sec << " is >10% below baseline "
                    << base_eps << std::defaultfloat << "\n";
        }
        const std::uint64_t base_digest =
            parse_digest_hex(bs->find("trace_digest")->as_string());
        if (base_digest != str.trace_digest) {
          std::cout << "baseline drift: trace digest differs from baseline "
                       "(simulation-visible change?)\n";
        }
      }
    } catch (const std::exception& e) {
      std::cerr << "[bench] baseline " << path << " unreadable: " << e.what()
                << "\n";
    }
  }

  if (const char* path = std::getenv("P2PGEN_STREAMING_JSON")) {
    std::ofstream out(path);
    out << "{\n  \"config\": {\"days\": " << scale.days
        << ", \"arrival_rate\": " << scale.arrival_rate
        << ", \"shards\": " << scale.shards << ", \"seed\": " << scale.seed
        << ", \"config_digest\": \"" << std::hex << std::setfill('0')
        << std::setw(16) << behavior::simulation_config_digest(config)
        << std::dec << std::setfill(' ') << "\"},\n  \"materialized\": ";
    write_phase_json(out, mat);
    out << ",\n  \"streaming\": ";
    write_phase_json(out, str);
    out << ",\n  \"rss_ratio\": " << std::fixed << std::setprecision(3)
        << ratio << std::defaultfloat << "\n}\n";
    if (!out) {
      std::cerr << "[bench] failed writing " << path << "\n";
      return 1;
    }
    std::cout << "streaming outcomes: " << path << "\n";
  }

  if (!ok) return 1;
  std::cout << "\nstreaming equivalence + memory gates green\n";
  return 0;
}
