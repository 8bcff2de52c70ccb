// Chaos-scenario subsystem tests (DESIGN.md §10):
//   * spec/schedule validation rejects malformed input with clear errors;
//   * the JSON reader is strict (unknown keys, duplicate keys, bad
//     escapes are all errors);
//   * a zero-severity scenario is byte-identical to the no-scenario
//     baseline, and enabled-but-never-triggering degradation likewise;
//   * geo-correlated outages fail one region's peers together,
//     deterministically, and the teardown mix in the trace agrees exactly
//     with the node-side counters;
//   * the robustness rows come from the shards, so they are the same with
//     the metrics registry disabled;
//   * the curated matrix is green and digest-identical at 1/2/8 threads.
#include "scenario/runner.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>

#include "behavior/sharded_simulation.hpp"
#include "obs/metrics.hpp"
#include "scenario/curated.hpp"
#include "scenario/json.hpp"
#include "trace/trace_io.hpp"
#include "util/backoff.hpp"

namespace p2pgen {
namespace {

behavior::TraceSimulationConfig tiny_config() {
  behavior::TraceSimulationConfig config;
  config.duration_days = 0.02;
  config.arrival_rate = 1.0;
  config.seed = 20040315;
  return config;
}

scenario::RunConfig tiny_run() {
  scenario::RunConfig run;
  run.duration_days = 0.01;
  run.arrival_rate = 1.2;
  run.warmup_days = 0.0;
  run.seed = 20040315;
  run.shards = 2;
  run.threads = 1;
  return run;
}

// JSON reader ------------------------------------------------------------

TEST(Json, ParsesScalarsContainersAndEscapes) {
  const auto v = scenario::Json::parse(
      R"({"a": [1, 2.5, -3e2], "b": {"t": true, "n": null}, "s": "x\n\u00e9"})");
  ASSERT_TRUE(v.is_object());
  const auto& a = v.find("a")->as_array();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a[0].as_number(), 1.0);
  EXPECT_DOUBLE_EQ(a[1].as_number(), 2.5);
  EXPECT_DOUBLE_EQ(a[2].as_number(), -300.0);
  EXPECT_TRUE(v.find("b")->find("t")->as_bool());
  EXPECT_TRUE(v.find("b")->find("n")->is_null());
  EXPECT_EQ(v.find("s")->as_string(), "x\n\xc3\xa9");
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_THROW(scenario::Json::parse("{"), scenario::JsonError);
  EXPECT_THROW(scenario::Json::parse("{} extra"), scenario::JsonError);
  EXPECT_THROW(scenario::Json::parse("{\"a\": 1, \"a\": 2}"),
               scenario::JsonError);
  EXPECT_THROW(scenario::Json::parse("[1,]"), scenario::JsonError);
  EXPECT_THROW(scenario::Json::parse("\"\\q\""), scenario::JsonError);
  EXPECT_THROW(scenario::Json::parse("01"), scenario::JsonError);
  EXPECT_THROW(scenario::Json::parse("1."), scenario::JsonError);
  EXPECT_THROW(scenario::Json::parse("tru"), scenario::JsonError);
  EXPECT_THROW(scenario::Json::parse("\"\\ud800\""), scenario::JsonError);
}

TEST(Json, TypeAccessErrorsAreTyped) {
  const auto v = scenario::Json::parse("42");
  EXPECT_THROW(v.as_string(), scenario::JsonError);
  EXPECT_THROW(v.as_object(), scenario::JsonError);
  EXPECT_DOUBLE_EQ(v.as_number(), 42.0);
}

// Validation (the reject-bad-input satellite) ----------------------------

TEST(ScenarioValidation, RejectsOutOfRangeFaultProbabilities) {
  sim::FaultConfig faults;
  faults.loss_prob = 1.5;
  EXPECT_THROW(behavior::validate(faults), std::invalid_argument);
  faults = {};
  faults.corrupt_prob = -0.1;
  EXPECT_THROW(behavior::validate(faults), std::invalid_argument);
  faults = {};
  faults.crash_rate = -1.0;
  EXPECT_THROW(behavior::validate(faults), std::invalid_argument);
  faults = {};
  faults.half_open_after_mean = 0.0;
  EXPECT_THROW(behavior::validate(faults), std::invalid_argument);
  EXPECT_NO_THROW(behavior::validate(sim::FaultConfig{}));
}

TEST(ScenarioValidation, RejectsNonMonotonicScheduleBoundaries) {
  behavior::ArrivalSchedule arrivals;
  arrivals.points = {{0.5, 1.0}, {0.5, 2.0}};  // not strictly increasing
  EXPECT_THROW(behavior::validate(arrivals), std::invalid_argument);
  arrivals.points = {{0.5, 1.0}, {0.2, 2.0}};
  EXPECT_THROW(behavior::validate(arrivals), std::invalid_argument);
  arrivals.points = {{0.0, 1.0}, {0.5, -1.0}};  // negative multiplier
  EXPECT_THROW(behavior::validate(arrivals), std::invalid_argument);

  behavior::FaultSchedule phases;
  phases.phases = {{0.4, {}}, {0.2, {}}};
  EXPECT_THROW(behavior::validate(phases), std::invalid_argument);

  behavior::RegionalOutage outage;
  outage.severity = 2.0;
  EXPECT_THROW(behavior::validate(outage), std::invalid_argument);
  outage.severity = 0.5;
  outage.duration_days = -1.0;
  EXPECT_THROW(behavior::validate(outage), std::invalid_argument);
}

TEST(ScenarioValidation, ConstructingASimulationWithBadSchedulesThrows) {
  auto config = tiny_config();
  config.faults.loss_prob = 7.0;
  trace::Trace trace;
  EXPECT_THROW(behavior::TraceSimulation(core::WorkloadModel::paper_default(),
                                         config, trace),
               std::invalid_argument);
}

TEST(ScenarioSpec, RejectsUnknownKeysMixesAndRegions) {
  EXPECT_THROW(scenario::ScenarioSpec::from_json(R"({"tpyo_knob": 1})"),
               std::invalid_argument);
  EXPECT_THROW(
      scenario::ScenarioSpec::from_json(R"({"client_mix": "botnet"})"),
      std::invalid_argument);
  EXPECT_THROW(scenario::ScenarioSpec::from_json(
                   R"({"outages": [{"at_days": 0, "region": "atlantis"}]})"),
               std::invalid_argument);
  EXPECT_THROW(scenario::ScenarioSpec::from_json(
                   R"({"faults": {"loss_prob": 1.01}})"),
               std::invalid_argument);
  EXPECT_THROW(scenario::ScenarioSpec::from_json(R"({"duration_days": 0})"),
               std::invalid_argument);
}

TEST(ScenarioSpec, JsonRoundTripAppliesToBaseConfig) {
  const auto spec = scenario::ScenarioSpec::from_json(R"({
    "name": "storm", "description": "test storm",
    "arrival_rate": 2.0, "client_mix": "spammer",
    "faults": {"loss_prob": 0.01},
    "fault_phases": [{"at_days": 0.002,
                      "faults": {"crash_rate": 0.001, "loss_prob": 0.05}}],
    "arrival_schedule": [{"at_days": 0.0, "multiplier": 1.0},
                         {"at_days": 0.005, "multiplier": 3.0}],
    "outages": [{"at_days": 0.004, "duration_days": 0.002,
                 "region": "europe", "severity": 0.5}],
    "node": {"forward_fanout": 4, "replenish": true, "query_shed_rate": 25}
  })");
  EXPECT_EQ(spec.name, "storm");

  const auto base = tiny_config();
  const auto applied = spec.apply(base);
  EXPECT_DOUBLE_EQ(applied.arrival_rate, 2.0);
  EXPECT_EQ(applied.client_mix, "spammer");
  EXPECT_DOUBLE_EQ(applied.faults.loss_prob, 0.01);
  ASSERT_EQ(applied.fault_schedule.phases.size(), 1u);
  EXPECT_DOUBLE_EQ(applied.fault_schedule.phases[0].faults.crash_rate, 0.001);
  ASSERT_EQ(applied.arrival_schedule.points.size(), 2u);
  ASSERT_EQ(applied.outages.size(), 1u);
  EXPECT_EQ(applied.outages[0].region, geo::Region::kEurope);
  EXPECT_EQ(applied.node.forward_fanout, 4);
  EXPECT_TRUE(applied.node.replenish);
  EXPECT_DOUBLE_EQ(applied.node.query_shed_rate, 25.0);
  // Untouched fields keep the base's values.
  EXPECT_DOUBLE_EQ(applied.duration_days, base.duration_days);
  EXPECT_EQ(applied.seed, base.seed);
  EXPECT_EQ(applied.node.max_connections, base.node.max_connections);

  EXPECT_NE(scenario::scenario_digest(spec, base),
            behavior::simulation_config_digest(base));
}

// Config digest (the stale-cache-key satellite) --------------------------

TEST(ConfigDigest, CoversClientMixReplenishAndDegradationFields) {
  const auto base = tiny_config();
  const auto d0 = behavior::simulation_config_digest(base);
  EXPECT_EQ(behavior::simulation_config_digest(tiny_config()), d0);

  auto mix = base;
  mix.client_mix = "spammer";
  EXPECT_NE(behavior::simulation_config_digest(mix), d0);

  auto replenish = base;
  replenish.node.replenish = true;
  EXPECT_NE(behavior::simulation_config_digest(replenish), d0);

  auto shed = base;
  shed.node.query_shed_rate = 10.0;
  EXPECT_NE(behavior::simulation_config_digest(shed), d0);

  auto schedule = base;
  schedule.arrival_schedule.points = {{0.0, 1.0}, {0.01, 2.0}};
  EXPECT_NE(behavior::simulation_config_digest(schedule), d0);

  auto outage = base;
  outage.outages.push_back({0.005, 0.002, geo::Region::kAsia, 0.5, -1.0});
  EXPECT_NE(behavior::simulation_config_digest(outage), d0);
}

// Backoff unification ----------------------------------------------------

TEST(Backoff, DoublesAndHonorsCap) {
  EXPECT_DOUBLE_EQ(util::backoff_delay(2.0, 0.0, 0), 2.0);
  EXPECT_DOUBLE_EQ(util::backoff_delay(2.0, 0.0, 3), 16.0);
  EXPECT_DOUBLE_EQ(util::backoff_delay(2.0, 5.0, 3), 5.0);
  EXPECT_DOUBLE_EQ(util::backoff_delay(1.0, 64.0, 10), 64.0);
  // Negative attempts clamp to 0; huge attempts saturate instead of UB.
  EXPECT_DOUBLE_EQ(util::backoff_delay(2.0, 0.0, -5), 2.0);
  EXPECT_DOUBLE_EQ(util::backoff_delay(1.0, 128.0, 1000), 128.0);
}

// Byte-identity contracts ------------------------------------------------

TEST(ScenarioIdentity, ZeroSeverityScenarioMatchesBaselineByteForByte) {
  const auto model = core::WorkloadModel::paper_default();
  const auto base = tiny_config();
  const auto calm =
      scenario::find_curated("calm-zero", base.duration_days);
  ASSERT_TRUE(calm.has_value());
  const auto with_scenario = calm->apply(base);
  // The scenario is present (schedules installed, phase events scheduled)…
  ASSERT_FALSE(with_scenario.arrival_schedule.empty());
  ASSERT_FALSE(with_scenario.fault_schedule.empty());
  ASSERT_FALSE(with_scenario.outages.empty());
  // …but the merged trace must not change by a single byte.
  const auto baseline = behavior::simulate_trace_sharded(model, base, 2, 2);
  const auto chaos =
      behavior::simulate_trace_sharded(model, with_scenario, 2, 2);
  EXPECT_EQ(trace::binary_digest(baseline), trace::binary_digest(chaos));
  ASSERT_GT(baseline.size(), 0u);
}

TEST(ScenarioIdentity, ArmedButNeverTriggeredDegradationIsByteIdentical) {
  const auto model = core::WorkloadModel::paper_default();
  const auto base = tiny_config();
  auto armed = base;
  armed.node.max_pending_handshakes = 100000;  // never reached
  armed.node.query_shed_rate = 1e9;            // bucket never empties
  const auto baseline = behavior::simulate_trace_sharded(model, base, 2, 1);
  const auto degraded = behavior::simulate_trace_sharded(model, armed, 2, 1);
  EXPECT_EQ(trace::binary_digest(baseline), trace::binary_digest(degraded));
}

TEST(ScenarioDegradation, TriggeredSheddingDropsQueriesAndCountsThem) {
  const auto model = core::WorkloadModel::paper_default();
  auto config = tiny_config();
  config.node.query_shed_rate = 0.05;  // ~3 admitted queries per minute
  config.node.query_shed_burst = 1.0;
  std::vector<behavior::ShardStats> stats;
  const auto trace =
      behavior::simulate_trace_sharded(model, config, 1, 1, &stats);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_GT(stats[0].shed_queries, 0u);
  // Shedding must strictly reduce the recorded volume vs the baseline.
  const auto baseline = behavior::simulate_trace_sharded(model, tiny_config(), 1, 1);
  EXPECT_LT(trace.size(), baseline.size());
}

// Geo-correlated outages (the regional-failure satellite) ----------------

TEST(ScenarioOutage, RegionFailsTogetherDeterministically) {
  const auto model = core::WorkloadModel::paper_default();
  auto config = tiny_config();
  behavior::RegionalOutage outage;
  outage.at_days = 0.5 * config.duration_days;
  outage.duration_days = 0.25 * config.duration_days;
  outage.region = geo::Region::kEurope;
  outage.severity = 1.0;  // every connected European peer crashes at onset
  config.outages = {outage};

  auto run_once = [&](std::uint64_t* crashes,
                      std::array<std::uint64_t, geo::kRegionCount>* by_region,
                      std::array<std::uint64_t, 4>* ends) {
    trace::Trace trace;
    behavior::TraceSimulation simulation(model, config, trace);
    simulation.run();
    *crashes = simulation.outage_crashes();
    *by_region = simulation.outage_crashes_by_region();
    *ends = simulation.node().session_ends();
    return trace;
  };

  std::uint64_t crashes_a = 0;
  std::array<std::uint64_t, geo::kRegionCount> by_region_a{};
  std::array<std::uint64_t, 4> ends_a{};
  const auto trace_a = run_once(&crashes_a, &by_region_a, &ends_a);

  // With severity 1.0 the region's entire connected population crashes.
  EXPECT_GT(crashes_a, 0u);
  EXPECT_EQ(by_region_a[geo::region_index(geo::Region::kEurope)], crashes_a);
  for (geo::Region r : {geo::Region::kNorthAmerica, geo::Region::kAsia,
                        geo::Region::kOther}) {
    EXPECT_EQ(by_region_a[geo::region_index(r)], 0u)
        << "crash outside the outage region " << geo::region_name(r);
  }

  // Deterministic: an identical run reproduces the crash set and trace.
  std::uint64_t crashes_b = 0;
  std::array<std::uint64_t, geo::kRegionCount> by_region_b{};
  std::array<std::uint64_t, 4> ends_b{};
  const auto trace_b = run_once(&crashes_b, &by_region_b, &ends_b);
  EXPECT_EQ(crashes_a, crashes_b);
  EXPECT_EQ(by_region_a, by_region_b);
  EXPECT_EQ(trace::binary_digest(trace_a), trace::binary_digest(trace_b));

  // The teardown-reason mix in the trace must agree exactly with the
  // node-side histogram (RobustnessReport's cross-check), and crashed
  // peers surface as idle-probe reaps — the only way the node can see a
  // silent crash.
  analysis::RobustnessReport robustness;
  robustness.add_trace(trace_a);
  EXPECT_EQ(ends_a[static_cast<std::size_t>(trace::EndReason::kBye)],
            robustness.bye_ends);
  EXPECT_EQ(ends_a[static_cast<std::size_t>(trace::EndReason::kIdleProbe)],
            robustness.probe_ends);
  EXPECT_EQ(ends_a[static_cast<std::size_t>(trace::EndReason::kTeardown)],
            robustness.teardown_ends);
  EXPECT_EQ(ends_a[static_cast<std::size_t>(trace::EndReason::kError)],
            robustness.error_ends);
  EXPECT_GT(robustness.probe_ends, 0u);
}

TEST(ScenarioRobustness, RowsComeFromTheShardsNotTheMetricsRegistry) {
  const auto run = tiny_run();
  const auto spec =
      scenario::find_curated("hostile-overlay", run.duration_days);
  ASSERT_TRUE(spec.has_value());
  obs::Registry& registry = obs::Registry::global();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);
  const auto enabled = scenario::run_scenario(*spec, run);
  registry.set_enabled(false);
  const auto disabled = scenario::run_scenario(*spec, run);
  registry.set_enabled(was_enabled);

  const analysis::RobustnessReport& on = enabled.robustness;
  const analysis::RobustnessReport& off = disabled.robustness;
  EXPECT_GT(on.transport_delivered, 0u);
  EXPECT_GT(on.transport_dropped, 0u);
  EXPECT_GT(on.decode_errors, 0u);
  EXPECT_GT(on.clean_bytes_before_error, 0u);
  EXPECT_EQ(off.transport_delivered, on.transport_delivered);
  EXPECT_EQ(off.transport_dropped, on.transport_dropped);
  EXPECT_EQ(off.decode_errors, on.decode_errors);
  EXPECT_EQ(off.clean_bytes_before_error, on.clean_bytes_before_error);
  EXPECT_EQ(off.forward_retries, on.forward_retries);
  EXPECT_EQ(off.forward_retries_exhausted, on.forward_retries_exhausted);
}

// The curated matrix (the tentpole's invariant harness) ------------------

TEST(ScenarioMatrix, CuratedNamesCoverTheRequiredAdversaries) {
  const auto names = scenario::curated_names();
  EXPECT_GE(names.size(), 8u);
  const std::set<std::string> set(names.begin(), names.end());
  EXPECT_TRUE(set.count("calm-zero"));
  EXPECT_TRUE(set.count("flash-crowd"));
  EXPECT_TRUE(set.count("churn-storm"));
  EXPECT_TRUE(set.count("regional-outage-na"));
  EXPECT_TRUE(set.count("spammer-flood"));
  EXPECT_TRUE(set.count("free-rider-drain"));
  EXPECT_FALSE(scenario::find_curated("no-such-scenario", 1.0).has_value());
}

TEST(ScenarioMatrix, AllScenariosGreenAndThreadCountInvariant) {
  const auto run = tiny_run();
  const auto model = core::WorkloadModel::paper_default();
  const auto specs = scenario::curated_scenarios(run.duration_days);
  const auto outcomes = scenario::run_matrix(specs, run);
  ASSERT_EQ(outcomes.size(), specs.size());
  EXPECT_TRUE(scenario::all_green(outcomes));

  const auto baseline_digest = trace::binary_digest(
      behavior::simulate_trace_sharded(model, scenario::base_config(run),
                                       run.shards, run.threads));
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto& outcome = outcomes[i];
    EXPECT_TRUE(outcome.green()) << outcome.name << ": "
                                 << (outcome.violations.empty()
                                         ? "not green"
                                         : outcome.violations.front());
    EXPECT_GT(outcome.totals.events, 0u) << outcome.name;

    // Byte-identity at 1 (the matrix run), 2 and 8 threads.
    const auto config = specs[i].apply(scenario::base_config(run));
    const auto two =
        behavior::simulate_trace_sharded(model, config, run.shards, 2);
    const auto eight =
        behavior::simulate_trace_sharded(model, config, run.shards, 8);
    EXPECT_EQ(outcome.trace_digest, trace::binary_digest(two))
        << outcome.name << " diverges at 2 threads";
    EXPECT_EQ(outcome.trace_digest, trace::binary_digest(eight))
        << outcome.name << " diverges at 8 threads";

    if (outcome.name == "calm-zero") {
      EXPECT_EQ(outcome.trace_digest, baseline_digest)
          << "zero-severity scenario must match the no-scenario baseline";
    } else {
      EXPECT_NE(outcome.trace_digest, baseline_digest)
          << outcome.name << " should perturb the trace";
    }
  }

  // The chaos layer actually did something in the scenarios built for it.
  auto by_name = [&](const std::string& name) -> const scenario::ScenarioOutcome& {
    for (const auto& o : outcomes) {
      if (o.name == name) return o;
    }
    throw std::logic_error("missing scenario " + name);
  };
  EXPECT_GT(by_name("regional-outage-na").totals.outage_crashes, 0u);
  EXPECT_GT(by_name("churn-storm").robustness.injected.node_crashes, 0u);
  EXPECT_GT(by_name("churn-storm").totals.replenish_spawns, 0u);
  EXPECT_GT(by_name("flash-crowd").totals.peers_spawned,
            by_name("calm-zero").totals.peers_spawned);

  // The outcome JSON is well-formed enough to parse back.
  std::ostringstream json;
  scenario::write_outcomes_json(json, outcomes, run);
  EXPECT_NO_THROW(scenario::Json::parse(json.str()));
}

}  // namespace
}  // namespace p2pgen
