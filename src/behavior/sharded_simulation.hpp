// p2pgen — deterministic sharded trace simulation.
//
// The substitute for running the paper's 40-day measurement on one core:
// N independently-seeded replica simulations ("shards") observe the same
// measurement window from N vantage points — the multi-vantage-point
// shape of the eDonkey honeypot measurements (Allali, Latapy & Magnien,
// arXiv:0904.3215) — and their traces are merged into one measurement
// log by a stable, shard-index-ordered reduction (trace::merge_traces).
//
// Determinism contract: the merged trace is a pure function of
// (model, config, n_shards).  Shard k's RNG stream is split from the
// master seed via stats::derive_stream_seed, so streams are disjoint and
// each shard is independent of every other; shards therefore run
// concurrently without synchronization, and the merged output is
// byte-identical for ANY thread count, including n_threads = 1.
//
// Replicas add sessions but do not remove the finite-window bias of
// Benamara & Magnien (arXiv:1104.3694): a session counts only if it
// starts and ends inside its shard's window, and every replica observes
// the same time-of-day slice, so many short shards under-sample long
// sessions more than one long shard of the same exposure does
// (EXPERIMENTS.md, "Scaling note").
#pragma once

#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "behavior/trace_simulation.hpp"
#include "geo/region.hpp"
#include "obs/qtrace.hpp"
#include "obs/timeline.hpp"

namespace p2pgen::behavior {

/// Post-run record of one shard: its identity, every counter it
/// publishes (for_each_counter) and its observational streams.  The one
/// form in which a shard's numbers leave the simulation; a resumed done
/// shard reads the same record back from its sidecar.
struct ShardStats {
  std::uint64_t seed = 0;           ///< the shard's derived master seed
  std::uint64_t peers_spawned = 0;  ///< peers the shard's overlay produced
  std::uint64_t events = 0;         ///< trace events the shard emitted
  sim::FaultCounters faults{};      ///< the shard's fault-layer counters

  // Transport totals and measurement-node counters — the transport and
  // node rows of analysis::RobustnessReport among them.
  std::uint64_t transport_delivered = 0;
  std::uint64_t transport_dropped = 0;
  std::uint64_t messages_recorded = 0;
  std::uint64_t rejected_connections = 0;
  std::uint64_t duplicate_messages = 0;
  std::uint64_t forwarded_messages = 0;
  std::uint64_t qrp_suppressed = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t clean_bytes_before_error = 0;
  std::uint64_t forward_retries = 0;
  std::uint64_t forward_retries_exhausted = 0;

  // Scenario-layer and degradation counters (all zero when the scenario
  // layer is off) — the scenario runner's invariant checks sum these
  // across shards and compare them against the merged-trace analysis.
  std::uint64_t outage_crashes = 0;  ///< peers killed by regional outages
  std::array<std::uint64_t, geo::kRegionCount> outage_crashes_by_region{};
  std::uint64_t shed_connections = 0;  ///< admission-cap 503 refusals
  std::uint64_t shed_queries = 0;      ///< queries dropped by the token bucket
  std::uint64_t probe_closed_sessions = 0;  ///< idle+probe reaps
  std::uint64_t replenish_scheduled = 0;    ///< healing timers armed
  std::uint64_t replenish_spawns = 0;       ///< replacement peers requested
  /// SessionEnd histogram by trace::EndReason value.
  std::array<std::uint64_t, 4> session_ends{};
  /// Healing timers armed, by the trace::EndReason that lost the link.
  std::array<std::uint64_t, 4> replenish_by_reason{};

  /// The shard's query-lifecycle hop events (empty when qtrace sampling
  /// is off).  Time-ordered within the shard; obs::merge_qtrace pins the
  /// cross-shard order.
  std::vector<obs::QueryHopEvent> qtrace;

  /// The shard's timeline ticks (empty when timelines are off).
  /// Time-ordered within the shard; obs::merge_timeline pins the
  /// cross-shard order.
  std::vector<obs::TimelinePoint> timeline;
};

/// Name prefix of the per-region outage counters, which are published
/// only when nonzero.
inline constexpr std::string_view kOutageRegionPrefix =
    "scenario.outage_crashes.";

/// The one list of a shard's counters: calls visit(name, stats.field...)
/// once per counter, in a fixed order, passing the same field of every
/// `stats` argument.  It drives the sum over shards, the publishing under
/// the registry names and the sidecar's counter block.  seed, events and
/// the streams are not counters.
template <typename Visit, typename... Stats>
void for_each_counter(Visit&& visit, Stats&... stats) {
  // Indexed by trace::EndReason value.
  static constexpr std::array<std::string_view, 4> kSessionEnds = {
      "node.session_end.bye", "node.session_end.idle_probe",
      "node.session_end.teardown", "node.session_end.error"};
  static constexpr std::array<std::string_view, 4> kReplenishes = {
      "recovery.replenish.bye", "recovery.replenish.idle_probe",
      "recovery.replenish.teardown", "recovery.replenish.error"};
  visit("sim.peers_spawned", stats.peers_spawned...);
  visit("transport.messages_delivered", stats.transport_delivered...);
  visit("transport.messages_dropped", stats.transport_dropped...);
  visit("node.messages_recorded", stats.messages_recorded...);
  visit("node.rejected_connections", stats.rejected_connections...);
  visit("node.duplicate_messages", stats.duplicate_messages...);
  visit("node.forwarded_messages", stats.forwarded_messages...);
  visit("node.qrp_suppressed", stats.qrp_suppressed...);
  visit("node.decode_errors", stats.decode_errors...);
  visit("node.clean_bytes_before_error", stats.clean_bytes_before_error...);
  visit("node.forward_retries", stats.forward_retries...);
  visit("node.forward_retries_exhausted",
        stats.forward_retries_exhausted...);
  visit("node.probe_closed_sessions", stats.probe_closed_sessions...);
  visit("node.shed.connections", stats.shed_connections...);
  visit("node.shed.queries", stats.shed_queries...);
  visit("fault.messages_lost", stats.faults.messages_lost...);
  visit("fault.messages_corrupted", stats.faults.messages_corrupted...);
  visit("fault.messages_duplicated", stats.faults.messages_duplicated...);
  visit("fault.messages_delayed", stats.faults.messages_delayed...);
  visit("fault.node_crashes", stats.faults.node_crashes...);
  visit("fault.half_open_links", stats.faults.half_open_links...);
  visit("fault.sends_into_dead_link", stats.faults.sends_into_dead_link...);
  visit("recovery.replenish.scheduled", stats.replenish_scheduled...);
  visit("recovery.replenish.spawns", stats.replenish_spawns...);
  visit("scenario.outage_crashes", stats.outage_crashes...);
  for (std::size_t i = 0; i < kSessionEnds.size(); ++i) {
    visit(kSessionEnds[i], stats.session_ends[i]...);
    visit(kReplenishes[i], stats.replenish_by_reason[i]...);
  }
  for (const geo::Region region : geo::kAllRegions) {
    const std::string name =
        std::string(kOutageRegionPrefix).append(geo::region_name(region));
    visit(std::string_view(name),
          stats.outage_crashes_by_region[geo::region_index(region)]...);
  }
}

/// Seed of shard `shard_index` under `master_seed`.  Every shard —
/// including shard 0 — gets a derived seed, so the set of shard streams
/// is uniform and pairwise disjoint from each other and from the serial
/// TraceSimulation stream of the master seed itself.
std::uint64_t shard_seed(std::uint64_t master_seed,
                         unsigned shard_index) noexcept;

/// Runs one replica shard: `base` with its seed replaced by
/// shard_seed(base.seed, shard_index), streaming its events into `sink`
/// (pass a trace::Trace to buffer them; the durable-checkpoint path of
/// trace/spool.hpp passes a per-shard redo log).  Deterministic in
/// (model, base, shard_index); usable on any thread.
void simulate_shard(const core::WorkloadModel& model,
                    const TraceSimulationConfig& base, unsigned shard_index,
                    trace::TraceSink& sink, ShardStats* stats = nullptr);

/// Counter-wise sum of `shards`: events and every counter of the result
/// are the sums over the shards; seed, qtrace and timeline are left empty.
ShardStats sum_shard_stats(const std::vector<ShardStats>& shards);

/// Publishes the shards' summed counters under their registry names
/// (for_each_counter; a per-region outage counter only when nonzero),
/// then merges the shards' qtrace and timeline buffers in (time, shard)
/// order (obs::merge_qtrace, obs::merge_timeline), moving them out of
/// `stats`, and publishes each merged stream's aggregates — each stream
/// only when `base` turns it on, so an off stream is neither merged nor
/// published.  Pass `qtrace` / `timeline` to receive the merged streams.
/// The one publication of both producers, simulate_trace_sharded and
/// simulate_to_spools, so their counters, streams and metrics are the
/// same for any resume history.
void publish_shards(const TraceSimulationConfig& base,
                    std::vector<ShardStats>& stats,
                    std::vector<obs::QueryHopEvent>* qtrace,
                    std::vector<obs::TimelinePoint>* timeline);

/// Runs `n_shards` replica shards on up to `n_threads` threads and merges
/// their traces (see file comment for the determinism contract).  Each
/// shard simulates the full base.duration_days window.  When `stats` is
/// non-null it receives one entry per shard, in shard order.  The shards'
/// records go through publish_shards, so ShardStats.qtrace / .timeline
/// come back empty; pass `qtrace` /
/// `timeline` to receive the merged streams.
trace::Trace simulate_trace_sharded(
    const core::WorkloadModel& model, const TraceSimulationConfig& base,
    unsigned n_shards, unsigned n_threads,
    std::vector<ShardStats>* stats = nullptr,
    std::vector<obs::QueryHopEvent>* qtrace = nullptr,
    std::vector<obs::TimelinePoint>* timeline = nullptr);

}  // namespace p2pgen::behavior
