#include "behavior/sharded_simulation.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/thread_pool.hpp"

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
  simulation.publish_metrics();

  if (stats != nullptr) {
    fill_stats(*stats, simulation, config.seed, counting.events);
  }
}

ShardStats sum_shard_stats(const std::vector<ShardStats>& shards) {
  ShardStats sum;
  for (const ShardStats& s : shards) {
    sum.peers_spawned += s.peers_spawned;
    sum.events += s.events;
    sum.faults.messages_lost += s.faults.messages_lost;
    sum.faults.messages_corrupted += s.faults.messages_corrupted;
    sum.faults.messages_duplicated += s.faults.messages_duplicated;
    sum.faults.messages_delayed += s.faults.messages_delayed;
    sum.faults.node_crashes += s.faults.node_crashes;
    sum.faults.half_open_links += s.faults.half_open_links;
    sum.faults.sends_into_dead_link += s.faults.sends_into_dead_link;
    sum.transport_delivered += s.transport_delivered;
    sum.transport_dropped += s.transport_dropped;
    sum.decode_errors += s.decode_errors;
    sum.clean_bytes_before_error += s.clean_bytes_before_error;
    sum.forward_retries += s.forward_retries;
    sum.forward_retries_exhausted += s.forward_retries_exhausted;
    sum.outage_crashes += s.outage_crashes;
    for (std::size_t r = 0; r < geo::kRegionCount; ++r) {
      sum.outage_crashes_by_region[r] += s.outage_crashes_by_region[r];
    }
    sum.shed_connections += s.shed_connections;
    sum.shed_queries += s.shed_queries;
    sum.probe_closed_sessions += s.probe_closed_sessions;
    sum.replenish_scheduled += s.replenish_scheduled;
    sum.replenish_spawns += s.replenish_spawns;
    for (std::size_t r = 0; r < sum.session_ends.size(); ++r) {
      sum.session_ends[r] += s.session_ends[r];
    }
  }
  return sum;
}

void merge_and_publish_streams(const TraceSimulationConfig& base,
                               std::vector<ShardStats>& stats,
                               std::vector<obs::QueryHopEvent>* qtrace,
                               std::vector<obs::TimelinePoint>* timeline) {
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
  // own trace buffer), so the pool may run them in any order; the merge
  // below is what pins the output ordering.
  util::ThreadPool pool(std::min(n_threads, n_shards));
  pool.run_indexed(n_shards, [&](std::size_t k) {
    simulate_shard(model, base, static_cast<unsigned>(k), shards[k],
                   &shard_stats[k]);
  });
  util::publish_pool_stats("pool.sim", pool.stats());
  obs::Registry::global().counter("sim.shards_run").add(n_shards);

  merge_and_publish_streams(base, shard_stats, qtrace, timeline);
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
