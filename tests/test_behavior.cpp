// Tests for the behavior layer: client profiles, peer plans, the
// measurement node's protocol mechanics, and short end-to-end trace
// simulations.
#include <gtest/gtest.h>

#include <unordered_set>

#include "analysis/dataset.hpp"
#include "analysis/filters.hpp"
#include "behavior/trace_simulation.hpp"
#include "gnutella/codec.hpp"

namespace p2pgen::behavior {
namespace {

TEST(ClientPopulation, WeightsAreRespected) {
  std::vector<ClientProfile> profiles(2);
  profiles[0].user_agent = "A";
  profiles[0].weight = 3.0;
  profiles[1].user_agent = "B";
  profiles[1].weight = 1.0;
  ClientPopulation population(std::move(profiles));
  stats::Rng rng(1);
  int a = 0;
  constexpr int kN = 40000;
  for (int i = 0; i < kN; ++i) {
    a += population.sample(rng).user_agent == "A" ? 1 : 0;
  }
  EXPECT_NEAR(a / static_cast<double>(kN), 0.75, 0.01);
}

TEST(ClientPopulation, RejectsEmptyAndBadWeights) {
  EXPECT_THROW(ClientPopulation({}), std::invalid_argument);
  std::vector<ClientProfile> profiles(1);
  profiles[0].weight = 0.0;
  EXPECT_THROW(ClientPopulation(std::move(profiles)), std::invalid_argument);
}

TEST(ClientPopulation, DefaultPopulationQuickDisconnectCalibrated) {
  // The aggregate quick-disconnect probability sits a little below the
  // paper's 70 % because silent user sessions near the 64 s boundary are
  // also measured as short (see the calibration note in
  // default_population()); the *measured* sub-64 s share is ~0.70, which
  // TraceSimulation.QuickDisconnectShareNearPaper asserts.
  const auto population = ClientPopulation::default_population();
  double weighted = 0.0;
  double total = 0.0;
  for (const auto& p : population.profiles()) {
    weighted += p.weight * p.quick_disconnect_prob;
    total += p.weight;
  }
  EXPECT_NEAR(weighted / total, 0.66, 0.03);
}

TEST(QuickDisconnectDuration, MatchesRule3Spectrum) {
  stats::Rng rng(2);
  int under10 = 0;
  int in20to25 = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    const double d = sample_quick_disconnect_duration(rng);
    ASSERT_GT(d, 0.0);
    ASSERT_LT(d, 64.0);
    under10 += d < 10.0 ? 1 : 0;
    in20to25 += (d >= 20.0 && d <= 25.0) ? 1 : 0;
  }
  // Within quick disconnects: 29/70 under 10 s, 32/70 in 20-25 s.
  EXPECT_NEAR(under10 / static_cast<double>(kN), 0.414, 0.02);
  EXPECT_NEAR(in20to25 / static_cast<double>(kN), 0.457, 0.02);
}

struct PlannerFixture : ::testing::Test {
  core::SessionSampler sampler{core::WorkloadModel::paper_default(), 3};
  geo::GeoIpDatabase geodb = geo::GeoIpDatabase::synthetic();
  geo::IpAllocator allocator{geodb};
  PeerPlanner planner{sampler, allocator, BackgroundTrafficConfig{}};
  stats::Rng rng{4};
};

TEST_F(PlannerFixture, QuickPlansAreShortAndVisiblyClosed) {
  ClientProfile profile;
  profile.quick_disconnect_prob = 1.0;
  for (int i = 0; i < 200; ++i) {
    const auto plan = planner.plan(0.0, core::Region::kNorthAmerica,
                                   ClientPopulation({profile}).profiles()[0],
                                   rng);
    EXPECT_TRUE(plan.quick_disconnect);
    EXPECT_LT(plan.duration, 64.0);
    EXPECT_NE(plan.end_mode, EndMode::kSilent);
  }
}

TEST_F(PlannerFixture, SendsAreSortedByTime) {
  ClientProfile profile = ClientPopulation::default_population().profiles()[0];
  profile.quick_disconnect_prob = 0.0;
  ClientPopulation one({profile});
  for (int i = 0; i < 100; ++i) {
    const auto plan = planner.plan(1000.0, core::Region::kEurope,
                                   one.profiles()[0], rng);
    for (std::size_t k = 1; k < plan.sends.size(); ++k) {
      EXPECT_GE(plan.sends[k].at, plan.sends[k - 1].at);
    }
  }
}

TEST_F(PlannerFixture, ArtifactsCarryRule1And2Signatures) {
  ClientProfile profile;
  profile.quick_disconnect_prob = 0.0;
  profile.sha1_requery_rate = 0.05;
  profile.auto_requery_interval = 30.0;
  profile.auto_requery_max = 5;
  ClientPopulation one({profile});
  bool saw_sha1 = false;
  bool saw_repeat = false;
  for (int i = 0; i < 300 && !(saw_sha1 && saw_repeat); ++i) {
    const auto plan = planner.plan(0.0, core::Region::kNorthAmerica,
                                   one.profiles()[0], rng);
    std::unordered_set<std::string> texts;
    for (const auto& send : plan.sends) {
      const gnutella::Message message = send.render();
      const auto* q = std::get_if<gnutella::QueryPayload>(&message.payload);
      if (q == nullptr) continue;
      if (q->has_sha1() && q->keywords.empty()) saw_sha1 = true;
      if (!q->keywords.empty() && !texts.insert(q->keywords).second) {
        saw_repeat = true;
      }
    }
  }
  EXPECT_TRUE(saw_sha1);
  EXPECT_TRUE(saw_repeat);
}

TEST_F(PlannerFixture, RenderedTextsSurviveVocabularyGrowth) {
  // Plans point into the vocabulary's catalogs instead of copying them;
  // 30 more days of drift must leave every rendered send unchanged.
  const auto clients = ClientPopulation::default_population();
  std::vector<PeerPlan> plans;
  std::vector<std::vector<std::uint8_t>> before;
  std::vector<std::string> shared_before;
  for (int i = 0; i < 200; ++i) {
    plans.push_back(planner.plan(60.0 * i, core::Region::kEurope,
                                 clients.sample(rng), rng));
    for (const auto& send : plans.back().sends) {
      before.push_back(gnutella::encode(send.render()));
    }
    for (const std::string* k : plans.back().shared_keywords) {
      shared_before.push_back(*k);
    }
  }
  ASSERT_FALSE(before.empty());
  ASSERT_FALSE(shared_before.empty());
  const std::size_t later = sampler.vocabulary().current_day() + 30;
  (void)sampler.vocabulary().query_string(core::QueryClass::kAll, 1, later);
  ASSERT_EQ(sampler.vocabulary().current_day(), later);
  std::size_t i = 0;
  std::size_t k = 0;
  for (const auto& plan : plans) {
    for (const auto& send : plan.sends) {
      EXPECT_EQ(gnutella::encode(send.render()), before[i++]);
    }
    for (const std::string* shared : plan.shared_keywords) {
      EXPECT_EQ(*shared, shared_before[k++]);
    }
  }
}

TEST_F(PlannerFixture, RemoteMessagesHaveRemoteHops) {
  for (int i = 0; i < 100; ++i) {
    const auto q = planner.remote_query(1000.0, rng);
    EXPECT_GE(q.hops, 2);
    EXPECT_LE(q.hops, 7);
    const auto p = planner.remote_pong(1000.0, rng);
    EXPECT_GE(p.hops, 2);
    const auto& pong = std::get<gnutella::PongPayload>(p.payload);
    EXPECT_TRUE(geodb.lookup(pong.ip).has_value());
  }
}

// ------------------------------------------------------- trace simulation

behavior::TraceSimulationConfig tiny_config(double days = 0.02) {
  behavior::TraceSimulationConfig config;
  config.duration_days = days;
  config.arrival_rate = 1.0;
  config.seed = 77;
  return config;
}

TEST(TraceSimulation, ProducesWellFormedTrace) {
  trace::Trace trace;
  behavior::TraceSimulation sim(core::WorkloadModel::paper_default(),
                                tiny_config(), trace);
  sim.run();
  ASSERT_GT(trace.size(), 100u);
  const auto stats = trace.stats();
  EXPECT_GT(stats.direct_connections, 100u);
  EXPECT_GT(stats.hop1_queries, 0u);
  EXPECT_GT(stats.ping_messages, 0u);
  EXPECT_GT(stats.pong_messages, 0u);
  // Events are time-ordered.
  double prev = 0.0;
  for (const auto& event : trace.events()) {
    const double t = trace::event_time(event);
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(TraceSimulation, DeterministicForSameSeed) {
  auto run_once = [] {
    trace::Trace trace;
    behavior::TraceSimulation sim(core::WorkloadModel::paper_default(),
                                  tiny_config(), trace);
    sim.run();
    return trace.stats();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.query_messages, b.query_messages);
  EXPECT_EQ(a.direct_connections, b.direct_connections);
  EXPECT_EQ(a.hop1_queries, b.hop1_queries);
}

TEST(TraceSimulation, EverySessionEndsAtMostOnce) {
  trace::Trace trace;
  behavior::TraceSimulation sim(core::WorkloadModel::paper_default(),
                                tiny_config(), trace);
  sim.run();
  std::unordered_set<std::uint64_t> started;
  std::unordered_set<std::uint64_t> ended;
  for (const auto& event : trace.events()) {
    if (const auto* s = std::get_if<trace::SessionStart>(&event)) {
      EXPECT_TRUE(started.insert(s->session_id).second);
    } else if (const auto* e = std::get_if<trace::SessionEnd>(&event)) {
      EXPECT_TRUE(ended.insert(e->session_id).second);
      EXPECT_TRUE(started.count(e->session_id));
    }
  }
  // Almost all sessions should have ended (a handful may be open at the
  // horizon).
  EXPECT_GE(ended.size() + 250, started.size());
}

TEST(TraceSimulation, MessagesBelongToLiveSessions) {
  trace::Trace trace;
  behavior::TraceSimulation sim(core::WorkloadModel::paper_default(),
                                tiny_config(), trace);
  sim.run();
  std::unordered_set<std::uint64_t> live;
  for (const auto& event : trace.events()) {
    if (const auto* s = std::get_if<trace::SessionStart>(&event)) {
      live.insert(s->session_id);
    } else if (const auto* e = std::get_if<trace::SessionEnd>(&event)) {
      live.erase(e->session_id);
    } else {
      const auto& m = std::get<trace::MessageEvent>(event);
      EXPECT_TRUE(live.count(m.session_id)) << "orphan message";
    }
  }
}

TEST(TraceSimulation, RespectsConnectionCap) {
  trace::Trace trace;
  auto config = tiny_config(0.05);
  config.arrival_rate = 8.0;       // overload
  config.node.max_connections = 50;
  behavior::TraceSimulation sim(core::WorkloadModel::paper_default(), config,
                                trace);
  sim.run();
  EXPECT_GT(sim.node().rejected_connections(), 0u);
  EXPECT_LE(sim.node().active_sessions(), 50u);
  // Verify concurrency never exceeded the cap by replaying the trace.
  std::size_t live = 0;
  std::size_t max_live = 0;
  for (const auto& event : trace.events()) {
    if (std::holds_alternative<trace::SessionStart>(event)) {
      max_live = std::max(max_live, ++live);
    } else if (std::holds_alternative<trace::SessionEnd>(event)) {
      --live;
    }
  }
  EXPECT_LE(max_live, 50u);
}

TEST(TraceSimulation, SilentPeersAreReapedByIdleProbe) {
  trace::Trace trace;
  behavior::TraceSimulation sim(core::WorkloadModel::paper_default(),
                                tiny_config(0.03), trace);
  sim.run();
  std::size_t idle_probe = 0;
  std::size_t bye = 0;
  std::size_t teardown = 0;
  for (const auto& event : trace.events()) {
    if (const auto* e = std::get_if<trace::SessionEnd>(&event)) {
      switch (e->reason) {
        case trace::EndReason::kIdleProbe: ++idle_probe; break;
        case trace::EndReason::kBye: ++bye; break;
        case trace::EndReason::kTeardown: ++teardown; break;
        case trace::EndReason::kError: break;  // needs fault injection
      }
    }
  }
  EXPECT_GT(idle_probe, 0u);
  EXPECT_GT(bye, 0u);
  EXPECT_GT(teardown, 0u);
}

// A hand-rolled peer that completes the handshake, sends one query, and
// then dies silently — no BYE, no close.  Only the idle probe can tell.
class SilentTestPeer : public sim::Node {
 public:
  explicit SilentTestPeer(sim::Network& network) : network_(network) {}

  void start(sim::NodeId target) {
    id_ = network_.add_node(*this);
    network_.set_address(id_, 0x0A000001u);
    network_.connect(id_, target);
  }

  void on_connection_open(sim::ConnId conn, sim::NodeId /*peer*/) override {
    network_.send_handshake(
        conn, id_, gnutella::Handshake::connect_request("SilentTest", false));
  }
  void on_handshake(sim::ConnId conn,
                    const gnutella::Handshake& handshake) override {
    if (handshake.is_connect_request || handshake.status_code != 200) return;
    network_.send_handshake(
        conn, id_, gnutella::Handshake::ok_response("SilentTest", false));
    stats::Rng rng(9);
    network_.send(conn, id_, gnutella::make_query(rng, "silent peer"));
    query_sent_at_ = network_.simulator().now();
    // ... and then nothing, ever again.
  }
  void on_message(sim::ConnId, const gnutella::Message&) override {}
  void on_connection_closed(sim::ConnId) override {}

  double query_sent_at() const { return query_sent_at_; }

 private:
  sim::Network& network_;
  sim::NodeId id_ = 0;
  double query_sent_at_ = -1.0;
};

TEST(MeasurementNode, SilentDeathDetectedWithinIdleProbeWindow) {
  // Paper Section 3.2: a silently departed peer is noticed only when it
  // stays idle for idle_threshold seconds and then fails to answer a probe
  // within probe_timeout — so the recorded end overestimates the real one
  // by ~30 s with the paper's 15 s + 15 s rule.
  sim::Simulator simulator;
  sim::Network network(simulator);
  trace::Trace trace;
  behavior::MeasurementNode::Config config;  // idle 15 s, probe 15 s
  behavior::MeasurementNode node(network, trace, config, 42);
  const sim::NodeId node_id = node.attach();

  SilentTestPeer peer(network);
  peer.start(node_id);
  simulator.run_until(300.0);

  ASSERT_GE(peer.query_sent_at(), 0.0);
  const double latency = sim::Network::Config().latency_seconds;
  // The node's clock of "last activity" is the query's arrival.
  const double last_activity = peer.query_sent_at() + latency;

  const trace::SessionEnd* end = nullptr;
  for (const auto& event : trace.events()) {
    if (const auto* e = std::get_if<trace::SessionEnd>(&event)) end = e;
  }
  ASSERT_NE(end, nullptr) << "silent peer was never reaped";
  EXPECT_EQ(end->reason, trace::EndReason::kIdleProbe);
  EXPECT_EQ(node.probe_closed_sessions(), 1u);

  // Detected at last_activity + idle_threshold + probe_timeout (~30 s
  // overestimate), never sooner than the idle window allows.
  const double overestimate = end->time - last_activity;
  EXPECT_GE(overestimate, config.idle_threshold + config.probe_timeout - 0.01);
  EXPECT_LE(overestimate, config.idle_threshold + config.probe_timeout + 1.0);
}

TEST(TraceSimulation, UltrapeerShareNearPaper) {
  trace::Trace trace;
  behavior::TraceSimulation sim(core::WorkloadModel::paper_default(),
                                tiny_config(0.05), trace);
  sim.run();
  const auto stats = trace.stats();
  const double share = static_cast<double>(stats.ultrapeer_connections) /
                       static_cast<double>(stats.direct_connections);
  EXPECT_NEAR(share, 0.40, 0.05);  // paper: ~40 % ultrapeers
}

TEST(TraceSimulation, QuickDisconnectShareNearPaper) {
  trace::Trace trace;
  behavior::TraceSimulation sim(core::WorkloadModel::paper_default(),
                                tiny_config(0.05), trace);
  sim.run();
  auto ds = analysis::build_dataset(trace, geo::GeoIpDatabase::synthetic());
  analysis::FilterReport report = analysis::apply_filters(ds);
  const double short_share =
      static_cast<double>(report.rule3_removed_sessions) /
      static_cast<double>(report.initial_sessions);
  EXPECT_NEAR(short_share, 0.70, 0.06);  // paper: ~70 % under 64 s
}

TEST(TraceSimulation, RunTwiceThrows) {
  trace::Trace trace;
  behavior::TraceSimulation sim(core::WorkloadModel::paper_default(),
                                tiny_config(0.01), trace);
  sim.run();
  EXPECT_THROW(sim.run(), std::logic_error);
}

}  // namespace
}  // namespace p2pgen::behavior
