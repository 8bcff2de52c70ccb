// Absolute trace-digest pins.  The other determinism suites compare runs
// against each other (thread counts, resume, streaming vs materialized),
// so a change that shifts every run the same way passes them all.  These
// pins compare one clean and one faulted short shard against fixed
// `binary_digest` values: any change to event ordering, RNG consumption
// or trace encoding shows up here.  Update a pin only for a deliberate
// change of the simulated trace, and say so in the change log.
#include <gtest/gtest.h>

#include <cstdint>

#include "behavior/trace_simulation.hpp"
#include "core/model.hpp"
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

}  // namespace
}  // namespace p2pgen
