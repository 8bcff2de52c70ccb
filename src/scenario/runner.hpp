// p2pgen — scenario execution and the survival-invariant harness.
//
// run_scenario drives one ScenarioSpec through the full measurement
// pipeline — sharded simulation, session reconstruction, filter rules,
// session measures, Appendix refits — and checks the survival invariants
// the chaos layer exists to enforce: the pipeline completes, the analysis
// stays well-formed, recovery counters stay bounded, and the trace's
// session-teardown mix agrees exactly with the node-side counters.
// run_matrix runs the curated matrix (or any spec list) and aggregates
// the outcomes; write_outcomes_json is the BENCH_scenarios.json format.
//
// Everything here inherits the simulation's determinism contract: for a
// fixed (spec, base config, shards) the trace digest — and therefore the
// whole outcome apart from wall_seconds — is byte-identical at any
// thread count.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "analysis/filters.hpp"
#include "analysis/report.hpp"
#include "behavior/sharded_simulation.hpp"
#include "scenario/spec.hpp"

namespace p2pgen::scenario {

/// How to run a scenario (or a matrix of them).
struct RunConfig {
  /// Base simulation parameters the specs are applied to.
  double duration_days = 0.05;
  double arrival_rate = 1.2;
  double warmup_days = 0.0;
  std::uint64_t seed = 20040315;

  unsigned shards = 2;
  unsigned threads = 1;

  /// When non-empty, run_scenario writes the scenario's unified
  /// PipelineReport as <report_dir>/<name>.report.json (the CI artifact).
  std::string report_dir;
};

/// The base TraceSimulationConfig run_scenario applies each spec to.
behavior::TraceSimulationConfig base_config(const RunConfig& run);

/// The robustness rows of a run whose shards sum to `totals`
/// (behavior::sum_shard_stats): injected faults, transport totals, node
/// hardening and the scenario-layer rows.  The session-end mix is the
/// trace's own; add it with RobustnessReport::add_trace() or from a
/// streaming pass's end-reason counts.
analysis::RobustnessReport robustness_rows(const behavior::ShardStats& totals);

/// What one scenario run produced.
struct ScenarioOutcome {
  std::string name;
  std::uint64_t scenario_digest = 0;  ///< identity of the applied config
  std::uint64_t trace_digest = 0;     ///< byte-identity of the merged trace

  behavior::ShardStats totals;  ///< the shards' counters, summed
  analysis::RobustnessReport robustness;
  analysis::FilterReport filters;

  bool completed = false;    ///< simulation ran to the horizon
  bool analysis_ok = false;  ///< reconstruction + filters + fits succeeded
  double wall_seconds = 0.0;

  /// Broken survival invariants, human-readable; empty means the scenario
  /// is green.
  std::vector<std::string> violations;

  bool green() const noexcept {
    return completed && analysis_ok && violations.empty();
  }
};

/// Runs one scenario end to end.  Never throws for in-scenario failures —
/// a crash or analysis error becomes a violation in the outcome; only
/// spec/config validation errors propagate.
ScenarioOutcome run_scenario(const ScenarioSpec& spec, const RunConfig& run);

/// Runs every spec in order (scenarios are sequential; shards within one
/// scenario use run.threads).
std::vector<ScenarioOutcome> run_matrix(const std::vector<ScenarioSpec>& specs,
                                        const RunConfig& run);

/// True when every outcome is green.
bool all_green(const std::vector<ScenarioOutcome>& outcomes);

/// Writes the outcome list as a JSON array (the BENCH_scenarios.json
/// format): digests as zero-padded hex strings, counters as numbers,
/// violations as strings.  wall_seconds is deliberately omitted — the
/// file must be byte-stable across machines for a fixed configuration.
void write_outcomes_json(std::ostream& out,
                         const std::vector<ScenarioOutcome>& outcomes,
                         const RunConfig& run);

}  // namespace p2pgen::scenario
