// Chaos-scenario matrix — survival under adversarial workloads.
//
// Runs the curated scenario matrix (src/scenario/curated.hpp) through the
// full measurement pipeline at bench scale and prints one row per
// scenario: its config digest, trace digest, event volume, what the chaos
// layer did (outage crashes, shed load, healing activity) and whether
// every survival invariant held.  This is the standing robustness
// regression: the digests in BENCH_scenarios.json must only change when a
// simulation-visible layer changes deliberately.
//
// Environment (on top of the usual P2PGEN_DAYS / P2PGEN_SHARDS):
//   P2PGEN_SCENARIO_JSON=<path>  write the outcome list as JSON
//                                (the BENCH_scenarios.json format)
//   P2PGEN_SCENARIO_REPORTS=<dir> write one PipelineReport JSON per
//                                scenario into <dir> (the CI artifact)
#include "bench_common.hpp"

#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>

#include "scenario/curated.hpp"
#include "scenario/runner.hpp"

int main() {
  using namespace p2pgen;
  bench::print_header("Chaos matrix",
                      "Curated adversarial scenarios, survival invariants");

  const auto scale = bench::bench_scale();
  scenario::RunConfig run;
  run.duration_days = scale.days;
  run.arrival_rate = scale.arrival_rate;
  run.warmup_days = 0.0;  // scenarios stress the whole window
  run.seed = scale.seed;
  run.shards = scale.shards;
  run.threads = static_cast<unsigned>(scale.threads);
  if (const char* dir = std::getenv("P2PGEN_SCENARIO_REPORTS")) {
    run.report_dir = dir;
  }

  const auto specs = scenario::curated_scenarios(run.duration_days);
  const auto outcomes = scenario::run_matrix(specs, run);

  std::cout << std::left << std::setw(24) << "scenario" << std::right
            << std::setw(10) << "events" << std::setw(9) << "peers"
            << std::setw(9) << "crashes" << std::setw(9) << "shed_c"
            << std::setw(9) << "shed_q" << std::setw(9) << "heals"
            << std::setw(18) << "trace digest" << std::setw(7) << "green"
            << "\n";
  for (const auto& o : outcomes) {
    const auto& t = o.totals;
    std::cout << std::left << std::setw(24) << o.name << std::right
              << std::setw(10) << t.events << std::setw(9) << t.peers_spawned
              << std::setw(9) << t.outage_crashes << std::setw(9)
              << t.shed_connections << std::setw(9) << t.shed_queries
              << std::setw(9) << t.replenish_spawns << std::setw(18)
              << std::hex << o.trace_digest << std::dec << std::setw(7)
              << (o.green() ? "yes" : "NO") << "\n";
    for (const auto& violation : o.violations) {
      std::cout << "    violation: " << violation << "\n";
    }
  }

  if (const char* path = std::getenv("P2PGEN_SCENARIO_JSON")) {
    std::ofstream out(path);
    scenario::write_outcomes_json(out, outcomes, run);
    if (!out) {
      std::cerr << "[bench] failed writing " << path << "\n";
      return 1;
    }
    std::cout << "\nscenario outcomes: " << path << "\n";
  }

  if (!scenario::all_green(outcomes)) {
    std::cerr << "[bench] scenario matrix has violations\n";
    return 1;
  }
  std::cout << "\nall " << outcomes.size() << " scenarios green\n";
  return 0;
}
