// perfbench — the p2pgen benchmark program.
//
//   perfbench --workload <clean-shard|hostile-durable|spool-replay>
//             [--seed N] [--seconds S] [--trace 0|1] [--work-dir DIR]
//
// Runs one workload in this process, repeating its timed work for about
// S seconds, checks every repetition's outputs and prints one JSON line:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1.  The traced run also writes its spans to
// DIR/spans-<workload>.json.  See perfbench/README.md.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace perfbench {
namespace {

const std::map<std::string, Workload>& workloads() {
  static const std::map<std::string, Workload> table = {
      {"clean-shard", run_clean_shard},
      {"hostile-durable", run_hostile_durable},
      {"spool-replay", run_spool_replay},
  };
  return table;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (workloads().count(o.workload) == 0) {
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
  }
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

template <class F>
std::vector<double> collect(const std::vector<Rep>& reps, bool traced, F&& f) {
  std::vector<double> out;
  for (const auto& rep : reps) {
    if (rep.traced == traced && rep.timed_s > 0.0) out.push_back(f(rep));
  }
  return out;
}

double median_setup(const WorkloadRun& run) {
  std::vector<double> scaled;
  for (const auto& s : run.setups) scaled.push_back(s.scaled());
  return median(scaled);
}

std::vector<Metric> end_to_end(const WorkloadRun& run) {
  const unsigned shards = run.shards;
  return {
      {"events_per_s_per_shard",
       median(collect(run.reps, false,
                      [&](const Rep& r) { return r.scaled_rate(shards); })),
       "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"setup_s", median_setup(run), "s"},
  };
}

std::vector<Metric> per_layer(const Options& options, const WorkloadRun& run,
                              SpanRecorder& spans, Checks& checks) {
  const unsigned shards = run.shards;
  const auto& sim = run.sim;
  auto traced = [&](auto f) { return median(collect(run.reps, true, f)); };
  const double sim_wall_sum = traced([](const Rep& r) {
    double sum = 0.0;
    for (double w : r.shard_walls) sum += w;
    return sum;
  });
  auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  const double traced_rate =
      traced([&](const Rep& r) { return r.scaled_rate(shards); });
  const double untraced_rate = median(
      collect(run.reps, false, [&](const Rep& r) { return r.scaled_rate(shards); }));
  const auto& f = run.filters;
  const auto streaming = run.streaming.value_or(p2pgen::analysis::StreamingStats{});
  const double streaming_s = traced([](const Rep& r) { return r.streaming_s; });

  std::vector<Metric> m = {
      {"sim.run_s", sim_wall_sum / shards, "s"},
      {"sim.events_executed", count(sim.events_executed), "count"},
      {"sim.ns_per_event",
       sim.events_executed ? 1e9 * sim_wall_sum / count(sim.events_executed) : 0.0,
       "ns"},
      {"sim.trace_events_per_sim_event",
       sim.events_executed
           ? traced([](const Rep& r) { return static_cast<double>(r.events); }) /
                 count(sim.events_executed)
           : 0.0,
       "ratio"},
      {"sim.network.delivered", count(sim.delivered), "count"},
      {"sim.network.dropped", count(sim.dropped), "count"},
      {"sim.fault.injected", count(sim.faults_injected), "count"},
      {"gnutella.decode_errors", count(sim.decode_errors), "count"},
      {"behavior.peers_spawned", count(sim.peers_spawned), "count"},
      {"behavior.node.messages_recorded", count(sim.messages_recorded), "count"},
      {"behavior.node.forwarded", count(sim.forwarded), "count"},
      {"behavior.node.qrp_suppressed", count(sim.qrp_suppressed), "count"},
      {"behavior.node.forward_retries", count(sim.forward_retries), "count"},
      {"behavior.node.shed_queries", count(sim.shed_queries), "count"},
      {"behavior.shard_wall_max_s",
       traced([](const Rep& r) {
         return r.shard_walls.empty()
                    ? 0.0
                    : *std::max_element(r.shard_walls.begin(), r.shard_walls.end());
       }),
       "s"},
      {"behavior.shard_wall_min_s",
       traced([](const Rep& r) {
         return r.shard_walls.empty()
                    ? 0.0
                    : *std::min_element(r.shard_walls.begin(), r.shard_walls.end());
       }),
       "s"},
      {"trace.sink.events",
       traced([](const Rep& r) { return static_cast<double>(r.events); }), "count"},
      {"trace.spool.bytes", count(run.spool_bytes), "B"},
      {"analysis.streaming.analyze_s", streaming_s, "s"},
      {"analysis.streaming.events_per_s",
       streaming_s > 0.0 ? count(streaming.events) / streaming_s : 0.0, "1/s"},
      {"analysis.streaming.segments_read", count(streaming.segments_read), "count"},
      {"analysis.streaming.max_tracked_sessions",
       count(streaming.max_tracked_sessions), "count"},
      {"analysis.streaming.unmatched_events",
       count(streaming.unmatched_query_events + streaming.unmatched_end_events),
       "count"},
      {"analysis.filters.final_query_yield",
       f.initial_queries ? count(f.final_queries) / count(f.initial_queries) : 0.0,
       "ratio"},
      {"obs.tracing_overhead_pct",
       untraced_rate > 0.0 ? 100.0 * (untraced_rate - traced_rate) / untraced_rate
                           : 0.0,
       "%"},
      {"obs.host_ops_per_s",
       median(collect(run.reps, false, [](const Rep& r) { return r.host_speed; })),
       "1/s"},
      {"obs.raw_events_per_s_per_shard",
       median(collect(run.reps, false, [&](const Rep& r) { return r.rate(shards); })),
       "1/s"},
      {"obs.span_coverage_pct", 100.0 * traced([](const Rep& r) { return r.coverage; }),
       "%"},
  };
  micro_timings(options, run, spans, checks, m);
  return m;
}

void print_result(bool correct, const Checks& checks,
                  const std::vector<Metric>& metrics) {
  std::cout << std::setprecision(12) << "{\"correct\": "
            << (correct ? "true" : "false")
            << ", \"attempted\": " << checks.attempted()
            << ", \"failed\": " << checks.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::cout << (i ? ", " : "") << '"' << m.name << "\": {\"value\": " << value
              << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // A fixed mmap threshold (glibc's initial one) turns off glibc's dynamic
  // threshold, which otherwise rises after the first large free and keeps
  // later large blocks cached in the heap: 10-20 MB more stay resident, by
  // an amount that depends on the process's allocation history, so
  // peak_rss_mb read 47-65 MB across runs of one streaming workload.
  // Fixed, it tracks the memory p2pgen holds.  See perfbench/README.md,
  // "Inputs and peak memory".
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Options options;
  try {
    options = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n"
              << "usage: perfbench --workload "
                 "<clean-shard|hostile-durable|spool-replay> [--seed N] "
                 "[--seconds S] [--trace 0|1] [--work-dir DIR]\n";
    return 2;
  }
  try {
    std::filesystem::create_directories(options.work_dir);
    SpanRecorder spans;
    spans.set_enabled(options.trace);
    Checks checks;
    const WorkloadRun run = workloads().at(options.workload)(options, spans, checks);
    const auto metrics = options.trace ? per_layer(options, run, spans, checks)
                                       : end_to_end(run);
    if (options.trace) {
      std::ofstream out(std::filesystem::path(options.work_dir) /
                        ("spans-" + options.workload + ".json"));
      spans.write_json(out);
    }
    for (std::size_t i = 0; i < run.reps.size(); ++i) {
      const auto& r = run.reps[i];
      std::cerr << "perfbench: rep " << i << (r.traced ? " traced" : "")
                << ": setup " << r.setup_s << " s, timed " << r.timed_s
                << " s, " << r.events << " events, " << r.rate(run.shards)
                << " /s/shard, host " << r.host_speed << " ops/s, digest "
                << std::hex << r.digest << std::dec << "\n";
    }
    std::cerr << "perfbench: " << options.workload << ": " << run.reps.size()
              << " repetitions\n";
    print_result(checks.failed() == 0, checks, metrics);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
