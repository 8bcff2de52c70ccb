// p2pgen — end-to-end trace simulation (the paper's measurement setup).
//
// Assembles the full substitute for the paper's 40-day Gnutella
// measurement (DESIGN.md §1): a measurement ultrapeer with up to 200
// connection slots, a Poisson stream of arriving peers whose region
// follows the Figure 1 diurnal mix, ground-truth user behavior drawn from
// a WorkloadModel (by default the paper's own fitted parameters), client
// software artifacts per ClientPopulation, and background remote traffic.
// The output is a trace, consumed by p2pgen::analysis exactly as the
// paper's scripts consumed the mutella logs.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <unordered_map>

#include "behavior/measurement_node.hpp"
#include "behavior/peer.hpp"
#include "behavior/peer_plan.hpp"
#include "behavior/schedule.hpp"
#include "core/generator.hpp"
#include "geo/geoip.hpp"
#include "obs/qtrace.hpp"
#include "obs/timeline.hpp"
#include "sim/network.hpp"
#include "trace/trace.hpp"

namespace p2pgen::behavior {

/// Configuration of a trace simulation run.
struct TraceSimulationConfig {
  /// Length of the measurement period, days (the paper: 40).
  double duration_days = 2.0;

  /// Warm-up period simulated BEFORE the measurement starts, days.  The
  /// node's connection slots fill with heavy-tailed sessions over the
  /// first hours; recording from a cold start would overweight the
  /// transient in every time-of-day figure.  Events during warm-up are
  /// not delivered to the sink; the trace then begins at
  /// t = warmup_days * 86400 with the slot population in equilibrium.
  double warmup_days = 0.0;

  /// Mean peer arrival rate, peers/second.  With the default client
  /// population's session lengths, ~1.8/s keeps the 200 slots mostly
  /// occupied without heavy rejection, mirroring the paper's setup.
  double arrival_rate = 1.8;

  /// Amplitude of the diurnal modulation of the arrival rate (0..1);
  /// the phase peaks around midnight at the measurement node, where
  /// Figure 3's total load is highest.
  double diurnal_amplitude = 0.25;

  std::uint64_t seed = 20040315;  // trace start date, as a number

  /// Arrival-rate correction per region.  Figure 1 describes the *stock*
  /// of connected peers; regions with longer sessions (Europe) would be
  /// over-represented in the stock if arrivals followed the stock mix
  /// directly, so arrival probabilities are weighted by mix * correction,
  /// with corrections ~ 1 / relative mean session duration.  Calibrated
  /// empirically against the measured Figure 1 reproduction.
  std::array<double, geo::kRegionCount> region_flow_correction = {1.0, 0.45,
                                                                  1.4, 1.0};

  MeasurementNode::Config node{};
  BackgroundTrafficConfig background{};
  sim::Network::Config network{};

  /// Fault-injection layer (sim/fault.hpp).  All-zero (the default) is
  /// guaranteed byte-identical to a run without the fault layer: the
  /// injector is always installed but draws nothing and schedules nothing
  /// until a probability is nonzero.
  sim::FaultConfig faults{};

  // Scenario layer (behavior/schedule.hpp, src/scenario/) ---------------
  //
  // All of these default to "off" and are then byte-identical to a run
  // without the scenario layer.  Schedule times are measurement days
  // (day 0 = end of warm-up).

  /// Time-varying multiplier on the arrival rate (flash crowds, lulls).
  ArrivalSchedule arrival_schedule{};

  /// Piecewise fault regimes; `faults` applies before the first boundary.
  FaultSchedule fault_schedule{};

  /// Geo-correlated regional failures.
  std::vector<RegionalOutage> outages{};

  /// Named client population driving peer behavior ("default", "clean",
  /// "spammer", "free_rider" — ClientPopulation::named).  Used by run();
  /// run_with_clients ignores it.
  std::string client_mix = "default";

  /// Query-lifecycle tracing (obs/qtrace.hpp, DESIGN.md §12).  Strictly
  /// observational, so deliberately EXCLUDED from
  /// simulation_config_digest: configs differing only in sampling share
  /// bench caches and durable-run identities.  gate_time is managed by
  /// TraceSimulation (set to the warm-up gate); only sample_rate is a
  /// user knob.
  obs::QtraceConfig qtrace{};

  /// Sim-time metric timelines (obs/timeline.hpp, DESIGN.md §13).  Like
  /// qtrace, strictly observational and deliberately EXCLUDED from
  /// simulation_config_digest: configs differing only in the tick rate
  /// share bench caches and durable-run identities.  gate_time is managed
  /// by TraceSimulation (set to the warm-up gate); only tick_seconds is a
  /// user knob.
  obs::TimelineConfig timeline{};
};

/// Order-sensitive FNV-1a digest over every TraceSimulationConfig field
/// that shapes the simulated trace: base knobs, node config (replenish
/// and degradation included), background, network, faults, schedules,
/// outages and the client mix.  The bench shard cache and the durable-run
/// identity both key on it, so two configs produce the same digest iff
/// they would produce the same trace.
std::uint64_t simulation_config_digest(const TraceSimulationConfig& config);

/// Owns the simulator, network, node, peers and drives the run.
class TraceSimulation {
 public:
  /// `ground_truth` seeds user behavior; `sink` receives the trace.
  TraceSimulation(core::WorkloadModel ground_truth, TraceSimulationConfig config,
                  trace::TraceSink& sink);

  /// Uses the default client population.
  void run();

  /// Runs with a custom client mix (e.g. the no-artifacts ablation).
  void run_with_clients(const ClientPopulation& clients);

  /// Post-run statistics.
  std::uint64_t peers_spawned() const noexcept { return peers_spawned_; }
  const MeasurementNode& node() const noexcept { return node_; }
  const sim::Network& network() const noexcept { return net_; }
  sim::Simulator& simulator() noexcept { return sim_; }

  /// The fault layer's counters (all zero when faults are disabled).
  const sim::FaultCounters& fault_counters() const noexcept {
    return fault_injector_.counters();
  }

  /// Peers crashed by regional outages, total and per region.
  std::uint64_t outage_crashes() const noexcept { return outage_crashes_; }
  const std::array<std::uint64_t, geo::kRegionCount>&
  outage_crashes_by_region() const noexcept {
    return outage_crashes_by_region_;
  }

  /// The query-lifecycle tracer, or nullptr when sample_rate == 0.
  const obs::QueryTracer* query_tracer() const noexcept {
    return qtracer_.get();
  }

  /// Takes the recorded hop events (empty when tracing is off).  The
  /// per-shard buffer is time-ordered; merge with obs::merge_qtrace.
  std::vector<obs::QueryHopEvent> take_qtrace() {
    return qtracer_ ? qtracer_->take() : std::vector<obs::QueryHopEvent>{};
  }

  /// Takes the recorded timeline points (empty when timelines are off),
  /// flushing the trailing ticks up to the simulation horizon first so
  /// every shard emits the identical tick grid.  The per-shard buffer is
  /// time-ordered; merge with obs::merge_timeline.
  std::vector<obs::TimelinePoint> take_timeline() {
    if (!timeline_) return {};
    timeline_->finish(horizon_);
    return timeline_->take();
  }

 private:
  void schedule_next_arrival(const ClientPopulation& clients);
  void spawn_peer(const ClientPopulation& clients);
  core::Region sample_arrival_region(double now);
  double arrival_rate_at(double t) const;
  void install_scenario_events();
  void begin_outage(std::size_t index);

  /// Drops events before the warm-up gate.
  class GatingSink : public trace::TraceSink {
   public:
    GatingSink(trace::TraceSink& inner, double gate)
        : inner_(inner), gate_(gate) {}
    void on_event(const trace::TraceEvent& event) override {
      if (trace::event_time(event) >= gate_) inner_.on_event(event);
    }

   private:
    trace::TraceSink& inner_;
    double gate_;
  };

  /// Observes the node's event stream for the timeline — query/QUERYHIT
  /// arrivals with per-region attribution, session starts/ends, the
  /// active-session level — and forwards every event unchanged.  Sits
  /// UPSTREAM of the warm-up gate on purpose: the session-to-region map
  /// and the active-session level must include warm-up sessions (the
  /// recorder itself drops pre-gate counts).  With no recorder installed
  /// it is a pure pass-through.
  class TimelineSink : public trace::TraceSink {
   public:
    TimelineSink(trace::TraceSink& inner, const geo::GeoIpDatabase& geodb)
        : inner_(inner), geodb_(geodb) {}
    void set_recorder(obs::TimelineRecorder* recorder) noexcept {
      recorder_ = recorder;
    }
    void on_event(const trace::TraceEvent& event) override;

   private:
    void observe(const trace::TraceEvent& event);

    trace::TraceSink& inner_;
    const geo::GeoIpDatabase& geodb_;
    obs::TimelineRecorder* recorder_ = nullptr;
    std::unordered_map<std::uint64_t, geo::Region> session_region_;
  };

  TraceSimulationConfig config_;
  GatingSink gated_sink_;
  sim::Simulator sim_;
  sim::FaultInjector fault_injector_;
  sim::Network net_;
  geo::GeoIpDatabase geodb_;
  TimelineSink tsink_;
  geo::IpAllocator allocator_;
  core::SessionSampler sampler_;
  PeerPlanner planner_;
  MeasurementNode node_;
  stats::Rng rng_;
  /// Constructed only when qtrace.sample_rate > 0; wired into the
  /// network and node so every instrumentation site is one null check.
  std::unique_ptr<obs::QueryTracer> qtracer_;
  /// Constructed only when timeline.tick_seconds > 0; wired into the
  /// network, the node and the timeline sink, same null-check discipline.
  std::unique_ptr<obs::TimelineRecorder> timeline_;

  struct LivePeer {
    std::unique_ptr<SimulatedPeer> peer;
    core::Region region = core::Region::kOther;
  };
  /// Every live peer with its region, ordered by NodeId so outage draws
  /// iterate deterministically on every platform.
  std::map<sim::NodeId, LivePeer> peers_;
  /// Dedicated RNG stream for outage crash draws; constructed always,
  /// consulted only when an outage with severity > 0 fires.
  stats::Rng scenario_rng_;
  /// True while outage i's suppression window is active.
  std::vector<char> outage_active_;
  std::uint64_t outage_crashes_ = 0;
  std::array<std::uint64_t, geo::kRegionCount> outage_crashes_by_region_{};
  sim::NodeId node_id_ = 0;
  double horizon_ = 0.0;
  std::uint64_t peers_spawned_ = 0;
  bool ran_ = false;
};

}  // namespace p2pgen::behavior
