#include "scenario/runner.hpp"

#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "analysis/dataset.hpp"
#include "analysis/model_fit.hpp"
#include "behavior/sharded_simulation.hpp"
#include "trace/trace_io.hpp"

namespace p2pgen::scenario {
namespace {

std::string hex_digest(std::uint64_t digest) {
  std::ostringstream out;
  out << std::hex << std::setfill('0') << std::setw(16) << digest;
  return out.str();
}

void json_escape(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out << "\\u" << std::hex << std::setfill('0') << std::setw(4)
              << static_cast<int>(c) << std::dec << std::setfill(' ');
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

}  // namespace

behavior::TraceSimulationConfig base_config(const RunConfig& run) {
  behavior::TraceSimulationConfig config;
  config.duration_days = run.duration_days;
  config.warmup_days = run.warmup_days;
  config.arrival_rate = run.arrival_rate;
  config.seed = run.seed;
  return config;
}

analysis::RobustnessReport robustness_rows(const behavior::ShardStats& totals) {
  analysis::RobustnessReport rows;
  rows.injected = totals.faults;
  rows.transport_delivered = totals.transport_delivered;
  rows.transport_dropped = totals.transport_dropped;
  rows.decode_errors = totals.decode_errors;
  rows.clean_bytes_before_error = totals.clean_bytes_before_error;
  rows.forward_retries = totals.forward_retries;
  rows.forward_retries_exhausted = totals.forward_retries_exhausted;
  rows.shed_connections = totals.shed_connections;
  rows.shed_queries = totals.shed_queries;
  rows.outage_crashes = totals.outage_crashes;
  return rows;
}

ScenarioOutcome run_scenario(const ScenarioSpec& spec, const RunConfig& run) {
  const auto t0 = std::chrono::steady_clock::now();
  ScenarioOutcome outcome;
  outcome.name = spec.name;

  // Spec/config validation errors propagate: a malformed spec is a caller
  // bug, not a survival failure of the node under test.
  const behavior::TraceSimulationConfig config =
      spec.apply(base_config(run));
  outcome.scenario_digest = behavior::simulation_config_digest(config);

  trace::Trace trace;
  std::vector<behavior::ShardStats> shard_stats;
  try {
    trace = behavior::simulate_trace_sharded(core::WorkloadModel::paper_default(),
                                             config, run.shards, run.threads,
                                             &shard_stats);
    outcome.completed = true;
  } catch (const std::exception& e) {
    outcome.violations.push_back(std::string("simulation threw: ") + e.what());
    outcome.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return outcome;
  }

  outcome.trace_digest = trace::binary_digest(trace);
  outcome.totals = behavior::sum_shard_stats(shard_stats);
  const behavior::ShardStats& totals = outcome.totals;
  outcome.robustness = robustness_rows(totals);
  outcome.robustness.add_trace(trace);

  // Full analysis pass: the invariant is not just "didn't crash" but
  // "still yields a well-formed characterization".
  try {
    auto dataset = analysis::build_dataset(trace, geo::GeoIpDatabase::synthetic());
    outcome.filters = analysis::apply_filters(dataset);
    const auto measures = analysis::session_measures(dataset);
    const auto fits = analysis::fit_appendix_tables(measures);
    const auto na = geo::region_index(geo::Region::kNorthAmerica);
    if (!std::isfinite(fits.queries[na].mu) ||
        !std::isfinite(fits.queries[na].sigma)) {
      outcome.violations.push_back("Appendix query fit is not finite");
    }
    outcome.analysis_ok = true;
  } catch (const std::exception& e) {
    outcome.violations.push_back(std::string("analysis threw: ") + e.what());
  }

  // Survival invariants ---------------------------------------------------
  auto check = [&](bool ok, const std::string& what) {
    if (!ok) outcome.violations.push_back(what);
  };
  check(totals.events > 0, "trace is empty");

  // The trace's teardown mix must agree exactly with the node-side
  // histogram: every SessionEnd the nodes counted is in the trace and
  // vice versa (the geo-outage satellite's cross-check).
  check(totals.session_ends[static_cast<std::size_t>(
            trace::EndReason::kBye)] == outcome.robustness.bye_ends,
        "BYE teardown count disagrees between node and trace");
  check(totals.session_ends[static_cast<std::size_t>(
            trace::EndReason::kIdleProbe)] == outcome.robustness.probe_ends,
        "idle-probe teardown count disagrees between node and trace");
  check(totals.session_ends[static_cast<std::size_t>(
            trace::EndReason::kTeardown)] == outcome.robustness.teardown_ends,
        "transport teardown count disagrees between node and trace");
  check(totals.session_ends[static_cast<std::size_t>(
            trace::EndReason::kError)] == outcome.robustness.error_ends,
        "error teardown count disagrees between node and trace");

  // Recovery counters stay bounded: every spawn was scheduled, and every
  // scheduled timer traces back to a session death or a follow-on fire.
  const std::uint64_t total_ends = outcome.robustness.bye_ends +
                                   outcome.robustness.probe_ends +
                                   outcome.robustness.teardown_ends +
                                   outcome.robustness.error_ends;
  check(totals.replenish_spawns <= totals.replenish_scheduled,
        "replenish spawns exceed scheduled timers");
  check(totals.replenish_scheduled <= total_ends + totals.replenish_spawns,
        "replenish timers exceed session deaths + follow-on fires");
  if (!config.node.replenish) {
    check(totals.replenish_scheduled == 0,
          "replenish disabled but timers were armed");
  }

  // Degradation counters only move when their knob is on.
  if (config.node.query_shed_rate <= 0.0) {
    check(totals.shed_queries == 0, "query shedding disabled but queries shed");
  }
  if (config.node.max_pending_handshakes == 0) {
    check(totals.shed_connections == 0,
          "admission cap disabled but connections shed");
  }

  // Outage accounting: crashes only under a declared outage, only in the
  // outage's regions, and never more than the overlay spawned.
  check(totals.outage_crashes <= totals.peers_spawned,
        "outage crashes exceed spawned peers");
  std::uint64_t by_region_total = 0;
  for (std::size_t r = 0; r < geo::kRegionCount; ++r) {
    by_region_total += totals.outage_crashes_by_region[r];
    bool region_has_outage = false;
    for (const auto& outage : config.outages) {
      if (geo::region_index(outage.region) == r && outage.severity > 0.0) {
        region_has_outage = true;
      }
    }
    if (!region_has_outage) {
      check(totals.outage_crashes_by_region[r] == 0,
            std::string("outage crashes in ") +
                std::string(geo::region_name(geo::kAllRegions[r])) +
                " without a declared outage");
    }
  }
  check(by_region_total == totals.outage_crashes,
        "per-region outage crashes do not sum to the total");
  if (config.outages.empty()) {
    check(totals.outage_crashes == 0, "outage crashes without any outage");
  }

  if (!run.report_dir.empty()) {
    std::filesystem::create_directories(run.report_dir);
    const auto path = std::filesystem::path(run.report_dir) /
                      (outcome.name + ".report.json");
    const auto report =
        analysis::PipelineReport::capture(outcome.robustness, outcome.filters);
    std::ofstream out(path);
    report.write_json(out);
    out << "\n";
    if (!out) {
      outcome.violations.push_back("failed writing " + path.string());
    }
  }

  outcome.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return outcome;
}

std::vector<ScenarioOutcome> run_matrix(const std::vector<ScenarioSpec>& specs,
                                        const RunConfig& run) {
  std::vector<ScenarioOutcome> outcomes;
  outcomes.reserve(specs.size());
  for (const auto& spec : specs) outcomes.push_back(run_scenario(spec, run));
  return outcomes;
}

bool all_green(const std::vector<ScenarioOutcome>& outcomes) {
  for (const auto& outcome : outcomes) {
    if (!outcome.green()) return false;
  }
  return !outcomes.empty();
}

void write_outcomes_json(std::ostream& out,
                         const std::vector<ScenarioOutcome>& outcomes,
                         const RunConfig& run) {
  out << "{\n  \"config\": {\"duration_days\": " << run.duration_days
      << ", \"arrival_rate\": " << run.arrival_rate
      << ", \"warmup_days\": " << run.warmup_days << ", \"seed\": " << run.seed
      << ", \"shards\": " << run.shards << "},\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto& o = outcomes[i];
    const auto& t = o.totals;
    out << "    {\"name\": ";
    json_escape(out, o.name);
    out << ", \"scenario_digest\": \"" << hex_digest(o.scenario_digest)
        << "\", \"trace_digest\": \"" << hex_digest(o.trace_digest)
        << "\",\n     \"events\": " << t.events
        << ", \"peers_spawned\": " << t.peers_spawned
        << ", \"outage_crashes\": " << t.outage_crashes
        << ", \"shed_connections\": " << t.shed_connections
        << ", \"shed_queries\": " << t.shed_queries
        << ",\n     \"replenish_scheduled\": " << t.replenish_scheduled
        << ", \"replenish_spawns\": " << t.replenish_spawns
        << ", \"session_ends\": [" << t.session_ends[0] << ", "
        << t.session_ends[1] << ", " << t.session_ends[2] << ", "
        << t.session_ends[3] << "]"
        << ",\n     \"final_sessions\": " << o.filters.final_sessions
        << ", \"final_queries\": " << o.filters.final_queries
        << ", \"green\": " << (o.green() ? "true" : "false")
        << ", \"violations\": [";
    for (std::size_t v = 0; v < o.violations.size(); ++v) {
      if (v > 0) out << ", ";
      json_escape(out, o.violations[v]);
    }
    out << "]}" << (i + 1 < outcomes.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace p2pgen::scenario
