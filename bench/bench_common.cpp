#include "bench_common.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <span>
#include <sstream>
#include <thread>

#include "behavior/checkpoint.hpp"
#include "obs/metrics.hpp"

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

// The standard trace is cached as a checkpoint directory in the working
// directory, named by its run identity (model, every trace-shaping config
// field and the shard count), so differently-configured traces never
// alias.  The MANIFEST identity and each spool frame's CRC stand in for
// a digest: a checkpoint that fails to load is removed and simulated
// again, and a half-written one (a killed bench) resumes.
trace::Trace cached_trace(const core::WorkloadModel& model,
                          const behavior::TraceSimulationConfig& config,
                          const BenchScale& scale) {
  std::ostringstream name;
  name << "p2pgen_bench_ckpt_" << std::hex
       << behavior::run_identity_digest(model, config, scale.shards);
  behavior::DurabilityConfig durability;
  durability.dir = name.str();
  for (int attempt = 0; attempt < 2; ++attempt) {
    try {
      const bool cached =
          behavior::checkpoint_exists(durability.dir) &&
          behavior::read_checkpoint_status(durability.dir).complete;
      std::cerr << "[bench] "
                << (cached ? "loading cached checkpoint "
                           : "simulating into checkpoint ")
                << durability.dir << "\n";
      behavior::simulate_to_spools(model, config, scale.shards, scale.threads,
                                   durability);
      return behavior::load_checkpoint(durability.dir);
    } catch (const std::exception& e) {
      std::cerr << "[bench] checkpoint " << durability.dir
                << " failed to load (" << e.what() << "); "
                << (attempt == 0 ? "removing it and simulating again"
                                 : "simulating without a cache")
                << "\n";
      std::error_code ignored;
      std::filesystem::remove_all(durability.dir, ignored);
    }
  }
  return behavior::simulate_trace_sharded(model, config, scale.shards,
                                          scale.threads);
}

// The whole of environment variable `name` as a number in [lo, hi], or
// `fallback` when it is unset.  Anything else ends the bench with a
// one-line error naming `what` it must be: "4x" or "abc" must not run
// some other experiment.
template <typename T>
T env_number(const char* name, T lo, T hi, T fallback, const char* what) {
  const char* text = std::getenv(name);
  if (text == nullptr) return fallback;
  const char* end = text + std::strlen(text);
  T value{};
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc{} || ptr != end || !(value >= lo && value <= hi)) {
    std::cerr << "bench: " << name << "=" << text << " is not " << what
              << "\n";
    std::exit(1);
  }
  return value;
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
  scale.threads = env_number(
      "P2PGEN_THREADS", 1u, std::numeric_limits<unsigned>::max(),
      std::max(std::thread::hardware_concurrency(), 1u),
      "a positive integer");
  scale.shards = env_number("P2PGEN_SHARDS", 1u, 4096u, scale.shards,
                            "an integer from 1 to 4096");
  if (const char* full = std::getenv("P2PGEN_FULL"); full && full[0] == '1') {
    scale.days = 40.0;
    scale.full = true;
    return scale;
  }
  scale.days = env_number("P2PGEN_DAYS", std::numeric_limits<double>::min(),
                          std::numeric_limits<double>::max(), scale.days,
                          "a positive number");
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

const trace::Trace& bench_trace() {
  static const trace::Trace trace = [] {
    const BenchScale scale = bench_scale();
    const behavior::TraceSimulationConfig config =
        bench_simulation_config(scale);
    const core::WorkloadModel model = core::WorkloadModel::paper_default();
    trace::Trace merged =
        std::getenv("P2PGEN_NO_CACHE") != nullptr
            ? behavior::simulate_trace_sharded(model, config, scale.shards,
                                               scale.threads)
            : cached_trace(model, config, scale);
    std::cerr << "[bench] standard trace: " << merged.size() << " events, "
              << scale.shards << " shard(s) of " << scale.days
              << " day(s), master seed " << scale.seed << "\n";
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
