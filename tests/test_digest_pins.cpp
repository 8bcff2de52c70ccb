// Absolute trace-digest pins.  The other determinism suites compare runs
// against each other (thread counts, resume, streaming vs materialized),
// so a change that shifts every run the same way passes them all.  These
// pins compare a clean, a faulted and a hostile-overlay short shard
// against fixed `binary_digest` values and fixed counts of executed
// simulator events, so "same trace" also means "same events": any change
// to event ordering, RNG consumption or trace encoding shows up here.  A
// fourth pin hashes the encoded sends of seeded peer plans.  Update a pin
// only for a deliberate change of the simulated trace, and say so in the
// change log.
#include <gtest/gtest.h>

#include <cstdint>

#include "behavior/trace_simulation.hpp"
#include "core/model.hpp"
#include "gnutella/codec.hpp"
#include "scenario/curated.hpp"
#include "trace/trace_io.hpp"
#include "util/fnv1a.hpp"

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

struct ShardPin {
  std::uint64_t digest = 0;
  std::uint64_t executed = 0;  // simulator events run
};

ShardPin pin_of(const behavior::TraceSimulationConfig& config) {
  trace::Trace trace;
  behavior::TraceSimulation sim(core::WorkloadModel::paper_default(), config,
                                trace);
  sim.run();
  return {trace::binary_digest(trace), sim.simulator().executed()};
}

TEST(DigestPins, CleanShard) {
  const ShardPin pin = pin_of(short_shard(sim::FaultConfig{}));
  EXPECT_EQ(pin.digest, 0xffd55e49205330f9ULL);
  EXPECT_EQ(pin.executed, 134535u);
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
  const ShardPin pin = pin_of(short_shard(faults));
  EXPECT_EQ(pin.digest, 0xb97f979b8ecc0567ULL);
  EXPECT_EQ(pin.executed, 104692u);
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
  EXPECT_EQ(sim.simulator().executed(), 157982u);
}

TEST(DigestPins, PlannedSends) {
  // Seeded plans across two days of catalog drift, hashed as the node
  // receives them: each send's offset and wire bytes, then the plan's
  // shared keywords.  Pins the planner's RNG draws and the rendering of
  // its sends independently of the overlay.
  core::SessionSampler sampler{core::WorkloadModel::paper_default(),
                               20040315};
  const auto geodb = geo::GeoIpDatabase::synthetic();
  geo::IpAllocator allocator{geodb};
  behavior::PeerPlanner planner{sampler, allocator,
                                behavior::BackgroundTrafficConfig{}};
  const auto clients = behavior::ClientPopulation::default_population();
  stats::Rng rng{20040315};
  std::uint64_t hash = util::kFnvOffsetBasis;
  std::size_t sends = 0;
  std::size_t sha1 = 0;
  std::size_t shared = 0;
  for (std::size_t i = 0; i < 400; ++i) {
    const auto region = geo::kAllRegions[i % geo::kRegionCount];
    const auto plan = planner.plan(450.0 * static_cast<double>(i), region,
                                   clients.sample(rng), rng);
    for (const auto& send : plan.sends) {
      const gnutella::Message message = send.render();
      hash = util::fnv1a_update(hash, &send.at, sizeof send.at);
      const auto wire = gnutella::encode(message);
      hash = util::fnv1a_update(hash, wire.data(), wire.size());
      sha1 += std::get<gnutella::QueryPayload>(message.payload).has_sha1();
    }
    for (const std::string* keywords : plan.shared_keywords) {
      hash = util::fnv1a_update(hash, keywords->data(), keywords->size());
    }
    sends += plan.sends.size();
    shared += plan.shared_keywords.size();
  }
  EXPECT_EQ(sends, 879u);
  EXPECT_EQ(sha1, 358u);
  EXPECT_EQ(shared, 2735u);
  EXPECT_EQ(hash, 0xcfb469db00720778ULL);
}

}  // namespace
}  // namespace p2pgen
