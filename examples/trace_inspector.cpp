// p2pgen trace inspector — CLI over measurement traces (commands in
// kUsage).  `simulate` runs the measurement simulation into a spool
// directory (trace/spool.hpp); the others read one back: Table-1 style
// counters, the Table-2 filter report, the longest sessions, figure CSVs
// + gnuplot, or a CSV dump.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <iostream>

#include "analysis/filters.hpp"
#include "analysis/report.hpp"
#include "behavior/trace_simulation.hpp"
#include "geo/geoip.hpp"
#include "trace/spool.hpp"
#include "trace/spool_reader.hpp"
#include "trace/trace_io.hpp"

namespace {

using namespace p2pgen;

constexpr const char* kUsage =
    "usage:\n"
    "  trace_inspector simulate <dir> [days] [seed]\n"
    "  trace_inspector stats <dir>\n"
    "  trace_inspector filters <dir>\n"
    "  trace_inspector sessions <dir> [n]\n"
    "  trace_inspector figures <dir> <out-dir>\n"
    "  trace_inspector csv <dir>\n";

int usage_error(const std::string& problem) {
  std::cerr << "trace_inspector: " << problem << "\n" << kUsage;
  return 2;
}

// The whole of `text` as a T: false on an empty string, a leftover
// character or an out-of-range value.
template <typename T>
bool parse_whole(const char* text, T& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc{} && ptr == end;
}

int cmd_simulate(const std::string& dir, double days, std::uint64_t seed) {
  behavior::TraceSimulationConfig config;
  config.duration_days = days;
  config.seed = seed;
  // Start a fresh spool, as a file writer truncates its file: segments
  // left by an earlier run would otherwise be extended, not replaced.
  for (const auto& segment : trace::spool_segment_paths(dir)) {
    std::filesystem::remove(segment);
  }
  trace::SpoolWriter writer(dir);
  behavior::TraceSimulation sim(core::WorkloadModel::paper_default(), config,
                                writer);
  std::cerr << "simulating " << days << " day(s), seed " << seed << "...\n";
  sim.run();
  writer.close();
  std::cerr << "wrote " << writer.records() << " events to " << dir << "\n";
  // Session-teardown histogram straight from the node's per-reason
  // counters — no second pass over the spool needed.
  const auto& ends = sim.node().session_ends();
  const std::uint64_t total =
      std::max<std::uint64_t>(1, ends[0] + ends[1] + ends[2] + ends[3]);
  static constexpr const char* kReasonNames[] = {"bye", "idle-probe",
                                                 "teardown", "error"};
  std::cerr << "session teardown histogram:\n";
  for (std::size_t r = 0; r < 4; ++r) {
    std::cerr << "  " << kReasonNames[r] << ": " << ends[r] << " ("
              << 100.0 * static_cast<double>(ends[r]) /
                     static_cast<double>(total)
              << "%)\n";
  }
  return 0;
}

// Reads the spool under `dir`.  A torn tail (a writer killed mid-frame)
// is dropped with a warning; a path that holds no spool is an error.
trace::Trace load_spool(const std::string& dir) {
  if (!std::filesystem::is_directory(dir) ||
      trace::spool_segment_paths(dir).empty()) {
    throw std::runtime_error(dir + " is not a spool directory");
  }
  trace::SpoolRecoveryReport report;
  trace::Trace trace = trace::read_spool(dir, &report);
  if (report.torn) {
    std::cerr << "warning: dropped a torn tail of " << report.bytes_truncated
              << " byte(s) from " << report.bad_segment << "\n";
  }
  return trace;
}

int cmd_stats(const trace::Trace& trace) {
  const auto s = trace.stats();
  std::cout << "trace period (days):     " << (s.last_time - s.first_time) / 86400.0
            << "\n"
            << "events:                  " << trace.size() << "\n"
            << "QUERY messages:          " << s.query_messages << "\n"
            << "QUERYHIT messages:       " << s.queryhit_messages << "\n"
            << "PING messages:           " << s.ping_messages << "\n"
            << "PONG messages:           " << s.pong_messages << "\n"
            << "BYE messages:            " << s.bye_messages << "\n"
            << "direct connections:      " << s.direct_connections << "\n"
            << "  ultrapeer / leaf:      " << s.ultrapeer_connections << " / "
            << s.leaf_connections << "\n"
            << "hop-1 queries:           " << s.hop1_queries << "\n";
  return 0;
}

int cmd_filters(const trace::Trace& trace) {
  auto dataset = analysis::build_dataset(trace, geo::GeoIpDatabase::synthetic());
  const auto r = analysis::apply_filters(dataset);
  std::cout << "initial queries/sessions:   " << r.initial_queries << " / "
            << r.initial_sessions << "\n"
            << "rule 1 (SHA1):              " << r.rule1_removed << "\n"
            << "rule 2 (repeats):           " << r.rule2_removed << "\n"
            << "rule 3 (<64 s):             " << r.rule3_removed_queries
            << " queries, " << r.rule3_removed_sessions << " sessions\n"
            << "final queries/sessions:     " << r.final_queries << " / "
            << r.final_sessions << "\n"
            << "rule 4 (interarrival <1 s): " << r.rule4_excluded << "\n"
            << "rule 5 (identical gaps):    " << r.rule5_excluded << "\n"
            << "interarrival sample size:   " << r.interarrival_queries << "\n";
  return 0;
}

int cmd_sessions(const trace::Trace& trace, std::size_t n) {
  auto dataset = analysis::build_dataset(trace, geo::GeoIpDatabase::synthetic());
  analysis::apply_filters(dataset);
  std::vector<const analysis::ObservedSession*> sessions;
  for (const auto& s : dataset.sessions) {
    if (s.has_end) sessions.push_back(&s);
  }
  std::sort(sessions.begin(), sessions.end(),
            [](const auto* a, const auto* b) {
              return a->duration() > b->duration();
            });
  std::cout << "id        start(s)    dur(s)     region          ua                    queries\n";
  for (std::size_t i = 0; i < std::min(n, sessions.size()); ++i) {
    const auto& s = *sessions[i];
    std::cout << s.id << "    " << s.start << "    " << s.duration() << "    "
              << (s.region ? geo::region_name(*s.region) : "unknown") << "    "
              << s.user_agent << "    " << s.counted_queries() << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    return usage_error(argc < 2 ? "missing the command"
                                : "missing the spool directory");
  }
  const std::string command = argv[1];
  const std::string path = argv[2];
  try {
    if (command == "simulate") {
      double days = 0.5;
      std::uint64_t seed = 20040315;
      if (argc > 3 && !(parse_whole(argv[3], days) && std::isfinite(days) &&
                        days > 0.0)) {
        return usage_error("days must be a positive number");
      }
      if (argc > 4 && !parse_whole(argv[4], seed)) {
        return usage_error("seed must be a non-negative integer");
      }
      return cmd_simulate(path, days, seed);
    }
    if (command != "stats" && command != "filters" && command != "sessions" &&
        command != "figures" && command != "csv") {
      return usage_error("unknown command " + command);
    }
    std::uint64_t n = 20;
    if (command == "sessions" && argc > 3 && !parse_whole(argv[3], n)) {
      return usage_error("n must be a non-negative integer");
    }
    if (command == "figures" && argc < 4) {
      return usage_error("missing the output directory");
    }
    const trace::Trace trace = load_spool(path);
    if (command == "stats") return cmd_stats(trace);
    if (command == "filters") return cmd_filters(trace);
    if (command == "sessions") {
      return cmd_sessions(trace, static_cast<std::size_t>(n));
    }
    if (command == "figures") {
      auto dataset =
          analysis::build_dataset(trace, geo::GeoIpDatabase::synthetic());
      analysis::apply_filters(dataset);
      const auto inventory = analysis::export_figure_data(dataset, argv[3]);
      std::cerr << "wrote " << inventory.files.size() << " files to "
                << inventory.directory << "\n";
      return 0;
    }
    trace::write_csv(trace, std::cout);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
