// Absolute trace-digest pins.  The other determinism suites compare runs
// against each other (thread counts, resume, streaming vs materialized),
// so a change that shifts every run the same way passes them all.  These
// pins compare a clean, a faulted and a hostile-overlay short shard
// against fixed `binary_digest` values: any change to event ordering, RNG
// consumption or trace encoding shows up here.  Update a pin only for a
// deliberate change of the simulated trace, and say so in the change log.
#include <gtest/gtest.h>

#include <cstdint>

#include "behavior/trace_simulation.hpp"
#include "core/model.hpp"
#include "scenario/curated.hpp"
#include "trace/trace_io.hpp"

namespace p2pgen {
namespace {

behavior::TraceSimulationConfig short_shard(sim::FaultConfig faults) {
  behavior::TraceSimulationConfig config;
  config.duration_days = 0.02;
  config.arrival_rate = 1.5;
  config.seed = 20040315;
  config.faults = faults;
  return config;
}

std::uint64_t digest_of(const behavior::TraceSimulationConfig& config) {
  trace::Trace trace;
  behavior::TraceSimulation sim(core::WorkloadModel::paper_default(), config,
                                trace);
  sim.run();
  return trace::binary_digest(trace);
}

TEST(DigestPins, CleanShard) {
  EXPECT_EQ(digest_of(short_shard(sim::FaultConfig{})),
            0xffd55e49205330f9ULL);
}

TEST(DigestPins, FaultedShard) {
  // Every fault kind on, jitter included, so deliveries reach the
  // simulator out of time order and take the heap path.
  sim::FaultConfig faults;
  faults.loss_prob = 0.05;
  faults.corrupt_prob = 0.05;
  faults.duplicate_prob = 0.05;
  faults.jitter_seconds = 0.5;
  faults.crash_rate = 1.0 / 1800.0;
  faults.half_open_prob = 0.1;
  faults.half_open_after_mean = 60.0;
  EXPECT_EQ(digest_of(short_shard(faults)), 0xb97f979b8ecc0567ULL);
}

TEST(DigestPins, HostileOverlayShard) {
  // The only pin whose node forwards: QRP suppression, forward retries,
  // query shedding and replenish all run under piecewise fault regimes.
  // The measurement node picks forwarding targets in the iteration order
  // of its sessions, a hash map keyed by connection id, so this pin also
  // guards the transport's connection ids: scrambling them moves it,
  // while the clean and faulted pins stay put.
  const auto base = short_shard(sim::FaultConfig{});
  const auto spec =
      scenario::find_curated("hostile-overlay", base.duration_days);
  ASSERT_TRUE(spec.has_value());
  trace::Trace trace;
  behavior::TraceSimulation sim(core::WorkloadModel::paper_default(),
                                spec->apply(base), trace);
  sim.run();
  const auto& node = sim.node();
  EXPECT_GT(node.forwarded_messages(), 0u);
  EXPECT_GT(node.qrp_suppressed(), 0u);
  EXPECT_GT(node.forward_retries(), 0u);
  EXPECT_GT(node.shed_queries(), 0u);
  EXPECT_EQ(trace::binary_digest(trace), 0x9fd7e8a0c4f91832ULL);
}

}  // namespace
}  // namespace p2pgen
