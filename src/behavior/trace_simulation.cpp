#include "behavior/trace_simulation.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

#include "util/fnv1a.hpp"

namespace p2pgen::behavior {

namespace {

// FNV-1a over raw bytes; the digest is order-sensitive so every field —
// including newly added ones — perturbs it.
std::uint64_t fnv_u64(std::uint64_t h, std::uint64_t v) {
  return util::fnv1a_update(h, &v, sizeof(v));
}

std::uint64_t fnv_f64(std::uint64_t h, double v) {
  return fnv_u64(h, std::bit_cast<std::uint64_t>(v));
}

std::uint64_t fnv_str(std::uint64_t h, const std::string& s) {
  h = fnv_u64(h, s.size());
  return util::fnv1a_update(h, s.data(), s.size());
}

}  // namespace

std::uint64_t simulation_config_digest(const TraceSimulationConfig& config) {
  std::uint64_t d = util::kFnvOffsetBasis;
  d = fnv_f64(d, config.duration_days);
  d = fnv_f64(d, config.warmup_days);
  d = fnv_f64(d, config.arrival_rate);
  d = fnv_f64(d, config.diurnal_amplitude);
  d = fnv_u64(d, config.seed);
  for (const double c : config.region_flow_correction) d = fnv_f64(d, c);

  const MeasurementNode::Config& node = config.node;
  d = fnv_u64(d, node.max_connections);
  d = fnv_f64(d, node.idle_threshold);
  d = fnv_f64(d, node.probe_timeout);
  d = fnv_str(d, node.user_agent);
  d = fnv_u64(d, node.ip);
  d = fnv_u64(d, node.shared_files);
  d = fnv_u64(d, static_cast<std::uint64_t>(node.forward_fanout));
  d = fnv_u64(d, static_cast<std::uint64_t>(node.forward_retry_max));
  d = fnv_f64(d, node.forward_retry_base);
  d = fnv_f64(d, node.forward_retry_max_delay);
  d = fnv_u64(d, node.replenish ? 1 : 0);
  d = fnv_u64(d, node.replenish_target);
  d = fnv_f64(d, node.replenish_backoff_base);
  d = fnv_f64(d, node.replenish_backoff_max);
  d = fnv_u64(d, node.max_pending_handshakes);
  d = fnv_f64(d, node.query_shed_rate);
  d = fnv_f64(d, node.query_shed_burst);

  d = fnv_f64(d, config.background.query_rate);
  d = fnv_f64(d, config.background.ping_rate);
  d = fnv_f64(d, config.background.pong_rate);
  d = fnv_f64(d, config.background.queryhit_rate);

  d = fnv_f64(d, config.network.latency_seconds);
  d = fnv_u64(d, config.network.count_wire_bytes ? 1 : 0);

  d = fnv_u64(d, sim::fault_config_digest(config.faults));

  d = fnv_u64(d, config.arrival_schedule.points.size());
  for (const ArrivalPoint& p : config.arrival_schedule.points) {
    d = fnv_f64(d, p.at_days);
    d = fnv_f64(d, p.multiplier);
  }
  d = fnv_u64(d, config.fault_schedule.phases.size());
  for (const FaultPhase& phase : config.fault_schedule.phases) {
    d = fnv_f64(d, phase.at_days);
    d = fnv_u64(d, sim::fault_config_digest(phase.faults));
  }
  d = fnv_u64(d, config.outages.size());
  for (const RegionalOutage& outage : config.outages) {
    d = fnv_f64(d, outage.at_days);
    d = fnv_f64(d, outage.duration_days);
    d = fnv_u64(d, geo::region_index(outage.region));
    d = fnv_f64(d, outage.severity);
    d = fnv_f64(d, outage.arrival_suppression);
  }
  d = fnv_str(d, config.client_mix);
  return d;
}

TraceSimulation::TraceSimulation(core::WorkloadModel ground_truth,
                                 TraceSimulationConfig config,
                                 trace::TraceSink& sink)
    : config_(config),
      gated_sink_(sink, config.warmup_days * sim::kSecondsPerDay),
      fault_injector_(config.faults, config.seed ^ 0x0F0F0F0F0F0F0F0FULL),
      net_(sim_, config.network),
      geodb_(geo::GeoIpDatabase::synthetic()),
      tsink_(gated_sink_, geodb_),
      allocator_(geodb_),
      sampler_(std::move(ground_truth), config.seed ^ 0x1234567890ABCDEFULL),
      planner_(sampler_, allocator_, config.background),
      node_(net_, tsink_, config.node, config.seed ^ 0xFEDCBA0987654321ULL),
      rng_(config.seed),
      scenario_rng_(config.seed ^ 0x5C5C5C5C5C5C5C5CULL),
      outage_active_(config.outages.size(), 0) {
  if (!(config_.duration_days > 0.0)) {
    throw std::invalid_argument("TraceSimulation: duration must be > 0");
  }
  if (!(config_.arrival_rate > 0.0)) {
    throw std::invalid_argument("TraceSimulation: arrival rate must be > 0");
  }
  if (config_.diurnal_amplitude < 0.0 || config_.diurnal_amplitude >= 1.0) {
    throw std::invalid_argument(
        "TraceSimulation: diurnal amplitude must be in [0, 1)");
  }
  if (config_.warmup_days < 0.0) {
    throw std::invalid_argument("TraceSimulation: negative warmup");
  }
  // Malformed fault configs and schedules are rejected here with the
  // offending field named — never silently clamped.
  validate(config_.faults);
  validate(config_.arrival_schedule);
  validate(config_.fault_schedule);
  for (const RegionalOutage& outage : config_.outages) validate(outage);
  node_id_ = node_.attach();
  // The measurement node is the paper's own ultrapeer: it stayed up for
  // the whole 40 days, so injected crashes only ever kill peers.
  net_.set_fault_injector(&fault_injector_);
  net_.protect_node(node_id_);
  horizon_ = (config_.warmup_days + config_.duration_days) * sim::kSecondsPerDay;
  // Query-lifecycle tracing: only constructed when sampling is on, so a
  // rate-0 run takes the exact same code paths as a build without the
  // subsystem.  Hop events are gated at the same warm-up boundary as the
  // trace itself.
  if (config_.qtrace.sample_rate > 0.0) {
    obs::QtraceConfig qconfig = config_.qtrace;
    qconfig.gate_time = config_.warmup_days * sim::kSecondsPerDay;
    qtracer_ = std::make_unique<obs::QueryTracer>(qconfig);
    net_.set_query_tracer(qtracer_.get());
    node_.set_query_tracer(qtracer_.get());
  }
  // Sim-time timelines (DESIGN.md §13): same discipline — only
  // constructed when a tick rate is set, gated at the warm-up boundary.
  if (config_.timeline.tick_seconds > 0.0) {
    obs::TimelineConfig tconfig = config_.timeline;
    tconfig.gate_time = config_.warmup_days * sim::kSecondsPerDay;
    timeline_ = std::make_unique<obs::TimelineRecorder>(tconfig);
    net_.set_timeline(timeline_.get());
    node_.set_timeline(timeline_.get());
    tsink_.set_recorder(timeline_.get());
  }
}

void TraceSimulation::TimelineSink::on_event(const trace::TraceEvent& event) {
  if (recorder_ != nullptr) observe(event);
  inner_.on_event(event);
}

void TraceSimulation::TimelineSink::observe(const trace::TraceEvent& event) {
  if (const auto* start = std::get_if<trace::SessionStart>(&event)) {
    // Region attribution happens once per session, from the same GeoIP
    // database the analysis layer uses; unknown prefixes land in kOther.
    const auto region = geodb_.lookup(start->ip);
    session_region_[start->session_id] =
        region.value_or(geo::Region::kOther);
    recorder_->count(start->time, obs::TimelineSeries::kSessionsStarted);
    recorder_->level(start->time, obs::TimelineSeries::kActiveSessions, 1);
    return;
  }
  if (const auto* message = std::get_if<trace::MessageEvent>(&event)) {
    if (message->type == gnutella::MessageType::kQuery) {
      recorder_->count(message->time, obs::TimelineSeries::kQueries);
      auto region_series = obs::TimelineSeries::kQueriesOther;
      const auto it = session_region_.find(message->session_id);
      if (it != session_region_.end()) {
        switch (it->second) {
          case geo::Region::kNorthAmerica:
            region_series = obs::TimelineSeries::kQueriesNorthAmerica;
            break;
          case geo::Region::kEurope:
            region_series = obs::TimelineSeries::kQueriesEurope;
            break;
          case geo::Region::kAsia:
            region_series = obs::TimelineSeries::kQueriesAsia;
            break;
          case geo::Region::kOther:
            break;
        }
      }
      recorder_->count(message->time, region_series);
    } else if (message->type == gnutella::MessageType::kQueryHit) {
      recorder_->count(message->time, obs::TimelineSeries::kQueryHits);
    }
    return;
  }
  if (const auto* end = std::get_if<trace::SessionEnd>(&event)) {
    recorder_->count(end->time, obs::TimelineSeries::kSessionsEnded);
    recorder_->level(end->time, obs::TimelineSeries::kActiveSessions, -1);
    session_region_.erase(end->session_id);
  }
}

double TraceSimulation::arrival_rate_at(double t) const {
  // Peaks around ~01:00 at the node (Figure 3: the global query load is
  // highest in the night hours, when North America is most active).
  const double phase =
      2.0 * M_PI * (sim::time_of_day(t) - 3600.0) / sim::kSecondsPerDay;
  double rate = config_.arrival_rate *
                (1.0 + config_.diurnal_amplitude * std::cos(phase));
  if (!config_.arrival_schedule.empty()) {
    // Schedule times are measurement days: day 0 is the end of warm-up.
    const double t_days =
        t / sim::kSecondsPerDay - config_.warmup_days;
    rate *= config_.arrival_schedule.multiplier_at(t_days);
  }
  return rate;
}

void TraceSimulation::install_scenario_events() {
  const double warmup_seconds = config_.warmup_days * sim::kSecondsPerDay;
  for (const FaultPhase& phase : config_.fault_schedule.phases) {
    const double at = warmup_seconds + phase.at_days * sim::kSecondsPerDay;
    sim_.schedule_at(at, [this, faults = phase.faults] {
      fault_injector_.set_config(faults);
    });
  }
  for (std::size_t i = 0; i < config_.outages.size(); ++i) {
    const RegionalOutage& outage = config_.outages[i];
    // An outage with zero severity AND zero suppression is a no-op; skip
    // it entirely so the zero-severity scenario stays byte-identical to a
    // scenario-free baseline.
    if (outage.severity <= 0.0 && outage.suppression() <= 0.0) continue;
    const double start = warmup_seconds + outage.at_days * sim::kSecondsPerDay;
    sim_.schedule_at(start, [this, i] { begin_outage(i); });
    sim_.schedule_at(start + outage.duration_days * sim::kSecondsPerDay,
                     [this, i] { outage_active_[i] = 0; });
  }
}

void TraceSimulation::begin_outage(std::size_t index) {
  const RegionalOutage& outage = config_.outages[index];
  outage_active_[index] = 1;
  if (outage.severity <= 0.0) return;
  // The failure is geo-correlated: every currently-connected peer of the
  // region fails together with probability `severity`, drawn from the
  // dedicated scenario stream in ascending NodeId order so the set of
  // casualties is a pure function of (seed, scenario).  Crashes are
  // silent — the measurement node only finds out via its idle probe,
  // exactly like fault-layer crashes.
  for (const auto& [id, live] : peers_) {
    if (live.region != outage.region || net_.is_crashed(id)) continue;
    if (!scenario_rng_.bernoulli(outage.severity)) continue;
    net_.crash_node(id);
    ++outage_crashes_;
    ++outage_crashes_by_region_[geo::region_index(live.region)];
  }
}

void TraceSimulation::schedule_next_arrival(const ClientPopulation& clients) {
  // Thinning-free approximation: draw the gap from the rate at "now".
  const double gap = rng_.exponential(arrival_rate_at(sim_.now()));
  const double at = sim_.now() + gap;
  if (at >= horizon_) return;
  sim_.schedule_at(at, [this, &clients] {
    spawn_peer(clients);
    schedule_next_arrival(clients);
  });
}

core::Region TraceSimulation::sample_arrival_region(double now) {
  const auto hour = static_cast<std::size_t>(sim::hour_of_day(now));
  const auto& mix = sampler_.model().region_mix[hour];
  std::array<double, geo::kRegionCount> weights{};
  double total = 0.0;
  for (std::size_t r = 0; r < geo::kRegionCount; ++r) {
    weights[r] = mix[r] * config_.region_flow_correction[r];
    total += weights[r];
  }
  // Active regional outages suppress new arrivals from their region (the
  // region's users cannot reach the overlay).  Overlapping outages of the
  // same region compound.
  for (std::size_t i = 0; i < config_.outages.size(); ++i) {
    if (!outage_active_[i]) continue;
    const RegionalOutage& outage = config_.outages[i];
    const std::size_t r = geo::region_index(outage.region);
    total -= weights[r];
    weights[r] *= 1.0 - outage.suppression();
    total += weights[r];
  }
  double u = rng_.uniform() * total;
  for (std::size_t r = 0; r < geo::kRegionCount; ++r) {
    u -= weights[r];
    if (u < 0.0) return static_cast<core::Region>(r);
  }
  return core::Region::kOther;
}

void TraceSimulation::spawn_peer(const ClientPopulation& clients) {
  const double now = sim_.now();
  const core::Region region = sample_arrival_region(now);
  const ClientProfile& profile = clients.sample(rng_);
  const bool ultrapeer = rng_.bernoulli(profile.ultrapeer_prob);
  const geo::IpV4 ip = allocator_.allocate(region, rng_);
  PeerPlan plan = planner_.plan(now, region, profile, rng_);

  auto peer = std::make_unique<SimulatedPeer>(
      net_, planner_, std::move(plan), profile.user_agent, ultrapeer,
      profile.ping_interval, rng_.split(peers_spawned_ + 1),
      [this](sim::NodeId id) {
        // Destroy the peer via a deferred event: the callback runs inside
        // the peer's own on_connection_closed frame.
        sim_.schedule_after(0.0, [this, id] {
          peers_.erase(id);
        });
      });
  peer->start(node_id_, ip);
  // Ids ascend, so every peer goes in at the end.
  const sim::NodeId id = peer->id();
  peers_.emplace_hint(peers_.end(), id, LivePeer{std::move(peer), region});
  ++peers_spawned_;
}

void TraceSimulation::run() {
  run_with_clients(ClientPopulation::named(config_.client_mix));
}

void TraceSimulation::run_with_clients(const ClientPopulation& clients) {
  if (ran_) throw std::logic_error("TraceSimulation: already ran");
  ran_ = true;
  if (config_.node.replenish) {
    // The hook captures `clients` by reference; valid because run blocks
    // until the horizon and the hook never outlives this frame.
    node_.set_replenish_hook([this, &clients] { spawn_peer(clients); });
  }
  install_scenario_events();
  schedule_next_arrival(clients);
  // The measurement simply stops at the horizon, like the paper's trace:
  // sessions still open at that point have no SessionEnd record and the
  // analysis layer ignores them.
  sim_.run_until(horizon_);
}

}  // namespace p2pgen::behavior
