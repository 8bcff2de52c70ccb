// bench_parallel_scaling — wall-clock speedup of the deterministic
// parallel engine (DESIGN.md §7).
//
// Runs the same sharded simulation (P2PGEN_SHARDS replicas of
// P2PGEN_DAYS days each; defaults 4 x 2) at 1, 2, 4 and 8 threads,
// checks that every merged trace is byte-identical (the determinism
// contract), and then times the durable checkpoint path at several
// fsync cadences against the in-memory run.  Emits a single JSON object
// on stdout — the artifact the CI bench-smoke job uploads — while the
// human-readable progress goes to stderr.
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <vector>

#include "behavior/checkpoint.hpp"
#include "behavior/sharded_simulation.hpp"
#include "bench_common.hpp"
#include "obs/metrics.hpp"
#include "trace/trace_io.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main() {
  using namespace p2pgen;

  bench::BenchScale scale = bench::bench_scale();
  if (std::getenv("P2PGEN_SHARDS") == nullptr) scale.shards = 4;
  const behavior::TraceSimulationConfig config =
      bench::bench_simulation_config(scale);
  const core::WorkloadModel model = core::WorkloadModel::paper_default();
  const std::vector<unsigned> thread_counts = {1, 2, 4, 8};

  std::cerr << "[scaling] " << scale.shards << " shard(s) x " << scale.days
            << " day(s), thread counts 1/2/4/8\n";

  struct SimRun {
    unsigned threads;
    double seconds;
    std::uint64_t digest;
    std::size_t events;
  };
  std::vector<SimRun> sim_runs;
  for (const unsigned threads : thread_counts) {
    const auto start = std::chrono::steady_clock::now();
    const trace::Trace run_trace =
        behavior::simulate_trace_sharded(model, config, scale.shards, threads);
    const double elapsed = seconds_since(start);
    sim_runs.push_back(
        {threads, elapsed, trace::binary_digest(run_trace), run_trace.size()});
    std::cerr << "[scaling] simulate threads=" << threads << "  "
              << std::fixed << std::setprecision(2) << elapsed << " s  ("
              << run_trace.size() << " events)\n";
  }
  bool identical = true;
  for (const auto& run : sim_runs) {
    identical = identical && run.digest == sim_runs.front().digest;
  }
  // Durability overhead: the same sharded simulation through the durable
  // checkpoint path (DESIGN.md §9) at several fsync cadences, against
  // the in-memory run at the same thread count.  Sync interval 0 syncs
  // only at shard completion (cheapest); smaller intervals buy less
  // re-simulation after a SIGKILL at the price shown here.
  struct DurabilityRun {
    std::uint64_t sync_interval;
    double seconds;
    std::uint64_t digest;
  };
  const unsigned durability_threads = 4;
  double plain_seconds = 0.0;
  {
    const auto start = std::chrono::steady_clock::now();
    trace::Trace plain = behavior::simulate_trace_sharded(
        model, config, scale.shards, durability_threads);
    plain_seconds = seconds_since(start);
    (void)plain;
  }
  std::vector<DurabilityRun> durability_runs;
  for (const std::uint64_t interval : {std::uint64_t{0}, std::uint64_t{65536},
                                       std::uint64_t{4096}}) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() /
                         ("p2pgen_scaling_ckpt_" + std::to_string(interval));
    fs::remove_all(dir);
    behavior::DurabilityConfig durability;
    durability.dir = dir.string();
    durability.sync_interval_records = interval;
    const auto start = std::chrono::steady_clock::now();
    trace::Trace durable = behavior::simulate_trace_durable(
        model, config, scale.shards, durability_threads, durability);
    const double elapsed = seconds_since(start);
    durability_runs.push_back({interval, elapsed, trace::binary_digest(durable)});
    identical = identical && durability_runs.back().digest ==
                                 sim_runs.front().digest;
    std::cerr << "[scaling] durable sync_interval=" << interval << "  "
              << std::fixed << std::setprecision(2) << elapsed << " s  ("
              << std::setprecision(3)
              << (plain_seconds > 0.0 ? elapsed / plain_seconds : 0.0)
              << "x plain)\n";
    fs::remove_all(dir);
  }

  std::ostringstream json;
  json << std::fixed << std::setprecision(4);
  json << "{\n"
       << "  \"bench\": \"parallel_scaling\",\n"
       << "  \"shards\": " << scale.shards << ",\n"
       << "  \"days_per_shard\": " << scale.days << ",\n"
       << "  \"events\": " << sim_runs.front().events << ",\n"
       << "  \"byte_identical\": " << (identical ? "true" : "false") << ",\n"
       << "  \"simulation\": [\n";
  for (std::size_t i = 0; i < sim_runs.size(); ++i) {
    const auto& run = sim_runs[i];
    json << "    {\"threads\": " << run.threads << ", \"seconds\": "
         << run.seconds << ", \"speedup\": "
         << (run.seconds > 0.0 ? sim_runs.front().seconds / run.seconds : 0.0)
         << ", \"digest\": \"" << std::hex << run.digest << std::dec << "\"}"
         << (i + 1 < sim_runs.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"durability\": {\n"
       << "    \"threads\": " << durability_threads << ",\n"
       << "    \"plain_seconds\": " << plain_seconds << ",\n"
       << "    \"runs\": [\n";
  for (std::size_t i = 0; i < durability_runs.size(); ++i) {
    const auto& run = durability_runs[i];
    json << "      {\"sync_interval_records\": " << run.sync_interval
         << ", \"seconds\": " << run.seconds << ", \"overhead\": "
         << (plain_seconds > 0.0 ? run.seconds / plain_seconds : 0.0)
         << ", \"digest\": \"" << std::hex << run.digest << std::dec << "\"}"
         << (i + 1 < durability_runs.size() ? "," : "") << "\n";
  }
  json << "    ]\n  },\n  \"metrics\": ";
  obs::Registry::global().snapshot().write_json(json);
  json << "\n}\n";
  std::cout << json.str();

  return identical ? 0 : 1;
}
