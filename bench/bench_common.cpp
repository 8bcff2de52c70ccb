#include "bench_common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <span>
#include <sstream>

#include "behavior/sharded_simulation.hpp"
#include "obs/metrics.hpp"
#include "trace/trace_io.hpp"
#include "util/thread_pool.hpp"

namespace p2pgen::bench {
namespace {

// P2PGEN_METRICS=<path>: write the global metrics snapshot as JSON when
// the bench exits, so CI can archive pipeline health next to the tables.
void write_metrics_at_exit() {
  const char* path = std::getenv("P2PGEN_METRICS");
  if (path == nullptr) return;
  std::ofstream out(path);
  obs::Registry::global().snapshot().write_json(out);
  out << "\n";
  if (!out) std::cerr << "[bench] failed writing metrics to " << path << "\n";
}

// The shard cache lives in the working directory across bench runs, so a
// truncated write (killed bench, full disk) or a stale file must not
// silently skew every table.  Each cached shard carries a sidecar with
// its trace::binary_digest; a shard only counts as cached when the
// re-computed digest of the loaded trace matches the sidecar.
std::string digest_sidecar_path(const std::string& path) {
  return path + ".digest";
}

void write_digest_sidecar(const trace::Trace& trace, const std::string& path) {
  std::ofstream out(digest_sidecar_path(path));
  out << std::hex << trace::binary_digest(trace) << "\n";
}

bool digest_sidecar_matches(const trace::Trace& trace,
                            const std::string& path) {
  std::ifstream in(digest_sidecar_path(path));
  if (!in) return false;
  std::uint64_t expected = 0;
  in >> std::hex >> expected;
  return in && trace::binary_digest(trace) == expected;
}

}  // namespace

BenchScale bench_scale() {
  // Every bench goes through bench_scale(), so this is the one choke
  // point to arm the exit hook (once per process).
  static const bool metrics_hook_armed = [] {
    if (std::getenv("P2PGEN_METRICS") != nullptr) {
      std::atexit(write_metrics_at_exit);
    }
    return true;
  }();
  (void)metrics_hook_armed;

  BenchScale scale;
  scale.threads = util::ThreadPool::recommended_threads();
  if (const char* shards = std::getenv("P2PGEN_SHARDS")) {
    const long n = std::atol(shards);
    if (n > 0) scale.shards = static_cast<unsigned>(std::min(n, 4096L));
  }
  if (const char* full = std::getenv("P2PGEN_FULL"); full && full[0] == '1') {
    scale.days = 40.0;
    scale.full = true;
    return scale;
  }
  if (const char* days = std::getenv("P2PGEN_DAYS")) {
    const double d = std::atof(days);
    if (d > 0.0) scale.days = d;
  }
  return scale;
}

behavior::TraceSimulationConfig bench_simulation_config(
    const BenchScale& scale) {
  behavior::TraceSimulationConfig config;
  config.duration_days = scale.days;
  config.warmup_days = 1.0;  // let the slot population reach equilibrium
  config.arrival_rate = scale.arrival_rate;
  config.seed = scale.seed;
  return config;
}

std::string bench_shard_cache_path(const BenchScale& scale, unsigned shard) {
  const behavior::TraceSimulationConfig config = bench_simulation_config(scale);
  std::ostringstream os;
  // The cache key embeds simulation_config_digest, which covers EVERY
  // trace-shaping field — client mix, replenish and degradation knobs,
  // scenario schedules included — not just the fault block.  A bench run
  // under any config variation can therefore never pick up a stale shard
  // cached under a different one (the bug class PR 2 fixed for faults and
  // shard counts, closed for all remaining fields).
  os << "p2pgen_bench_shard_" << scale.days << "d_" << scale.arrival_rate
     << "r_w" << config.warmup_days << "_" << scale.seed << "_c" << std::hex
     << behavior::simulation_config_digest(config) << std::dec << "_s" << shard
     << "of" << scale.shards << ".bin";
  return os.str();
}

const trace::Trace& bench_trace() {
  static const trace::Trace trace = [] {
    const BenchScale scale = bench_scale();
    const behavior::TraceSimulationConfig config =
        bench_simulation_config(scale);
    const bool no_cache = std::getenv("P2PGEN_NO_CACHE") != nullptr;

    std::vector<trace::Trace> shards(scale.shards);
    std::vector<unsigned> missing;
    for (unsigned k = 0; k < scale.shards; ++k) {
      const std::string path = bench_shard_cache_path(scale, k);
      if (!no_cache) {
        try {
          trace::Trace cached = trace::load_binary(path);
          if (digest_sidecar_matches(cached, path)) {
            shards[k] = std::move(cached);
            std::cerr << "[bench] loaded cached shard " << k << " ("
                      << shards[k].size() << " events) from " << path << "\n";
            continue;
          }
          std::cerr << "[bench] cached shard " << k
                    << " failed digest validation, regenerating: " << path
                    << "\n";
        } catch (const std::exception&) {
          // fall through to simulation
        }
      }
      missing.push_back(k);
    }

    if (!missing.empty()) {
      std::cerr << "[bench] simulating " << missing.size() << " shard(s) of "
                << scale.days << " day(s) each on " << scale.threads
                << " thread(s) (master seed " << scale.seed << ")...\n";
      const core::WorkloadModel model = core::WorkloadModel::paper_default();
      util::ThreadPool pool(std::min<std::size_t>(scale.threads,
                                                  missing.size()));
      pool.run_indexed(missing.size(), [&](std::size_t i) {
        const unsigned k = missing[i];
        shards[k] = behavior::simulate_shard(model, config, k);
        if (!no_cache) {
          try {
            const std::string path = bench_shard_cache_path(scale, k);
            trace::save_binary(shards[k], path);
            write_digest_sidecar(shards[k], path);
          } catch (const std::exception& e) {
            std::cerr << "[bench] shard cache write failed: " << e.what()
                      << "\n";
          }
        }
      });
      for (const unsigned k : missing) {
        std::cerr << "[bench] simulated shard " << k << " ("
                  << shards[k].size() << " events)\n";
      }
      util::publish_pool_stats("pool.bench_sim", pool.stats());
    }

    trace::Trace merged = trace::merge_traces(std::move(shards));
    std::cerr << "[bench] standard trace: " << merged.size() << " events, "
              << scale.shards << " shard(s)\n";
    return merged;
  }();
  return trace;
}

const BenchData& bench_data() {
  static const BenchData data = [] {
    BenchData d{analysis::build_dataset(bench_trace(),
                                        geo::GeoIpDatabase::synthetic()),
                {}};
    d.report = analysis::apply_filters(d.dataset);
    return d;
  }();
  return data;
}

const analysis::SessionMeasures& bench_measures() {
  static const analysis::SessionMeasures measures =
      analysis::session_measures(bench_data().dataset);
  return measures;
}

void print_header(const std::string& experiment, const std::string& what) {
  const BenchScale scale = bench_scale();
  std::cout << "==============================================================\n"
            << experiment << " — " << what << "\n"
            << "(Klemm et al., IMC'04 reproduction; simulated scale: "
            << scale.days << " days"
            << (scale.shards > 1
                    ? " x " + std::to_string(scale.shards) + " shards"
                    : std::string())
            << (scale.full ? " [paper scale]" : "") << ")\n"
            << "==============================================================\n";
}

void print_ccdf_family(const std::string& x_label,
                       const std::vector<std::string>& labels,
                       const std::vector<const std::vector<double>*>& samples,
                       double lo_floor, std::size_t points) {
  // Shared grid spanning all samples; a null sample prints as "-".
  double lo = lo_floor;
  double hi = lo_floor * 10.0;
  std::vector<stats::Ecdf> ecdfs;
  ecdfs.reserve(samples.size());
  for (const auto* sample : samples) {
    if (sample == nullptr) {
      ecdfs.emplace_back(std::span<const double>{});
      continue;
    }
    ecdfs.emplace_back(*sample);
    if (!sample->empty()) {
      hi = std::max(hi, *std::max_element(sample->begin(), sample->end()));
    }
  }
  const auto grid = stats::log_space(lo, hi, points);

  std::cout << std::left << std::setw(14) << x_label;
  for (const auto& label : labels) std::cout << std::setw(16) << label;
  std::cout << "\n";
  std::cout << std::setw(14) << "(n =";
  for (const auto& e : ecdfs) {
    std::cout << std::setw(16) << e.size();
  }
  std::cout << ")\n";
  for (double x : grid) {
    std::cout << std::setw(14) << std::setprecision(5) << x;
    for (const auto& e : ecdfs) {
      if (e.empty()) {
        std::cout << std::setw(16) << "-";
      } else {
        std::cout << std::setw(16) << std::setprecision(4) << e.ccdf(x);
      }
    }
    std::cout << "\n";
  }
}

void print_compare(const std::string& label, double paper, double measured) {
  std::cout << "  " << std::left << std::setw(44) << label << " paper "
            << std::right << std::setw(10) << std::setprecision(4) << paper
            << "   measured " << std::setw(10) << std::setprecision(4)
            << measured << "\n";
}

}  // namespace p2pgen::bench
