#include "behavior/sharded_simulation.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/parallel_for.hpp"

namespace p2pgen::behavior {
namespace {

/// Tag offsetting shard stream ids away from the small ids other layers
/// split off the same master seed.
constexpr std::uint64_t kShardStreamTag = 0x5348415244ULL;  // "SHARD"

void fill_stats(ShardStats& stats, TraceSimulation& simulation,
                std::uint64_t seed, std::uint64_t events) {
  stats.seed = seed;
  stats.peers_spawned = simulation.peers_spawned();
  stats.events = events;
  stats.faults = simulation.fault_counters();
  stats.transport_delivered = simulation.network().messages_delivered();
  stats.transport_dropped = simulation.network().messages_dropped();
  stats.outage_crashes = simulation.outage_crashes();
  stats.outage_crashes_by_region = simulation.outage_crashes_by_region();
  const MeasurementNode& node = simulation.node();
  stats.messages_recorded = node.messages_recorded();
  stats.rejected_connections = node.rejected_connections();
  stats.duplicate_messages = node.duplicate_messages();
  stats.forwarded_messages = node.forwarded_messages();
  stats.qrp_suppressed = node.qrp_suppressed();
  stats.decode_errors = node.decode_errors();
  stats.clean_bytes_before_error = node.clean_bytes_before_error();
  stats.forward_retries = node.forward_retries();
  stats.forward_retries_exhausted = node.forward_retries_exhausted();
  stats.shed_connections = node.shed_connections();
  stats.shed_queries = node.shed_queries();
  stats.probe_closed_sessions = node.probe_closed_sessions();
  stats.replenish_scheduled = node.replenish_scheduled();
  stats.replenish_spawns = node.replenish_spawns();
  stats.session_ends = node.session_ends();
  stats.replenish_by_reason = node.replenish_by_reason();
  stats.qtrace = simulation.take_qtrace();
  stats.timeline = simulation.take_timeline();
}

}  // namespace

std::uint64_t shard_seed(std::uint64_t master_seed,
                         unsigned shard_index) noexcept {
  return stats::derive_stream_seed(master_seed, kShardStreamTag + shard_index);
}

void simulate_shard(const core::WorkloadModel& model,
                    const TraceSimulationConfig& base, unsigned shard_index,
                    trace::TraceSink& sink, ShardStats* stats) {
  obs::ObsSpan span("sim.shard");
  TraceSimulationConfig config = base;
  config.seed = shard_seed(base.seed, shard_index);

  // Counts events on the way through: a plain sink has no size().
  struct CountingSink final : trace::TraceSink {
    explicit CountingSink(trace::TraceSink& wrapped) : inner(wrapped) {}
    void on_event(const trace::TraceEvent& event) override {
      inner.on_event(event);
      ++events;
    }
    trace::TraceSink& inner;
    std::uint64_t events = 0;
  } counting(sink);

  TraceSimulation simulation(model, config, counting);
  simulation.run();

  if (stats != nullptr) {
    fill_stats(*stats, simulation, config.seed, counting.events);
  }
}

ShardStats sum_shard_stats(const std::vector<ShardStats>& shards) {
  ShardStats sum;
  for (const ShardStats& s : shards) {
    sum.events += s.events;
    for_each_counter(
        [](std::string_view, std::uint64_t& total, std::uint64_t value) {
          total += value;
        },
        sum, s);
  }
  return sum;
}

void publish_shards(const TraceSimulationConfig& base,
                    std::vector<ShardStats>& stats,
                    std::vector<obs::QueryHopEvent>* qtrace,
                    std::vector<obs::TimelinePoint>* timeline) {
  auto& registry = obs::Registry::global();
  if (registry.enabled()) {
    const ShardStats totals = sum_shard_stats(stats);
    for_each_counter(
        [&](std::string_view name, std::uint64_t value) {
          // A region's outage counter exists once an outage crashed a
          // peer there.
          if (value == 0 && name.starts_with(kOutageRegionPrefix)) return;
          registry.counter(name).add(value);
        },
        totals);
  }
  if (base.qtrace.sample_rate > 0.0) {
    std::vector<std::vector<obs::QueryHopEvent>> per_shard;
    for (ShardStats& s : stats) per_shard.push_back(std::move(s.qtrace));
    std::vector<obs::QueryHopEvent> merged =
        obs::merge_qtrace(std::move(per_shard));
    obs::publish_qtrace_metrics(merged);
    if (qtrace != nullptr) *qtrace = std::move(merged);
  }
  if (base.timeline.tick_seconds > 0.0) {
    std::vector<std::vector<obs::TimelinePoint>> per_shard;
    for (ShardStats& s : stats) per_shard.push_back(std::move(s.timeline));
    std::vector<obs::TimelinePoint> merged =
        obs::merge_timeline(std::move(per_shard));
    obs::publish_timeline_metrics(merged);
    if (timeline != nullptr) *timeline = std::move(merged);
  }
}

trace::Trace simulate_trace_sharded(const core::WorkloadModel& model,
                                    const TraceSimulationConfig& base,
                                    unsigned n_shards, unsigned n_threads,
                                    std::vector<ShardStats>* stats,
                                    std::vector<obs::QueryHopEvent>* qtrace,
                                    std::vector<obs::TimelinePoint>* timeline) {
  if (n_shards == 0) {
    throw std::invalid_argument("simulate_trace_sharded: n_shards must be > 0");
  }
  std::vector<trace::Trace> shards(n_shards);
  std::vector<ShardStats> shard_stats(n_shards);

  // Shards are fully independent (disjoint RNG streams, own simulator,
  // own trace buffer), so they may run in any order; the merge below is
  // what pins the output ordering.
  util::parallel_for(n_shards, n_threads, [&](std::size_t k) {
    simulate_shard(model, base, static_cast<unsigned>(k), shards[k],
                   &shard_stats[k]);
  });
  obs::Registry::global().counter("sim.shards_run").add(n_shards);

  publish_shards(base, shard_stats, qtrace, timeline);
  if (stats != nullptr) *stats = std::move(shard_stats);
  trace::Trace merged;
  {
    obs::ObsSpan span("trace.merge");
    merged = trace::merge_traces(std::move(shards));
  }
  obs::Registry::global().counter("sim.merged_events").add(merged.size());
  return merged;
}

}  // namespace p2pgen::behavior
