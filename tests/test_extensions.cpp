// Tests for the extension modules: Spearman correlation, the Section 4.5
// correlation report, and the future-work hit-rate characterization
// (query forwarding + responders + GUID correlation).
#include <gtest/gtest.h>

#include "analysis/correlations.hpp"
#include "analysis/filters.hpp"
#include "analysis/hitrate.hpp"
#include "behavior/trace_simulation.hpp"
#include "stats/summary.hpp"

namespace p2pgen {
namespace {

constexpr std::uint32_t kNaIp = 0x18000001;

TEST(Spearman, MonotoneRelationsScoreOne) {
  const std::vector<double> xs = {1, 2, 3, 4, 5, 6};
  const std::vector<double> ys = {2, 8, 9, 100, 101, 3000};  // monotone
  EXPECT_NEAR(stats::spearman_correlation(xs, ys), 1.0, 1e-12);
  std::vector<double> zs(ys.rbegin(), ys.rend());
  EXPECT_NEAR(stats::spearman_correlation(xs, zs), -1.0, 1e-12);
}

TEST(Spearman, RobustToOutliersUnlikePearson) {
  // A single extreme outlier dominates Pearson but barely moves Spearman.
  std::vector<double> xs;
  std::vector<double> ys;
  stats::Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    xs.push_back(static_cast<double>(i));
    ys.push_back(rng.uniform());  // independent noise
  }
  xs.push_back(1000.0);
  ys.push_back(1e9);  // outlier aligned with large x
  const double pearson = stats::pearson_correlation(xs, ys);
  const double spearman = stats::spearman_correlation(xs, ys);
  EXPECT_GT(pearson, 0.5);
  EXPECT_LT(std::abs(spearman), 0.2);
}

TEST(Spearman, HandlesTies) {
  const std::vector<double> xs = {1, 1, 2, 2, 3, 3};
  const std::vector<double> ys = {5, 5, 6, 6, 7, 7};
  EXPECT_NEAR(stats::spearman_correlation(xs, ys), 1.0, 1e-12);
  const std::vector<double> one = {1.0};
  const std::vector<double> two = {2.0};
  EXPECT_THROW(stats::spearman_correlation(one, two), std::invalid_argument);
}

TEST(CorrelationReport, RecoversPlantedDurationCorrelation) {
  // Sessions where duration = 100 * queries: rho(duration, queries) ~ 1.
  trace::Trace t;
  stats::Rng rng(2);
  double clock = 0.0;
  for (std::uint64_t id = 1; id <= 200; ++id) {
    const std::size_t n = 1 + rng.uniform_index(9);
    const double duration = 100.0 * static_cast<double>(n) + rng.uniform();
    t.append(trace::SessionStart{clock, id, kNaIp, false, "X"});
    double qt = clock + 5.0;
    for (std::size_t q = 0; q < n; ++q) {
      t.append(trace::MessageEvent{qt, id, gnutella::MessageType::kQuery, 6, 1,
                                   "q" + std::to_string(id * 100 + q), false,
                                   0, 0, id * 1000 + q});
      qt += 30.0 + rng.uniform(0.0, 20.0);
    }
    t.append(trace::SessionEnd{clock + duration, id,
                               trace::EndReason::kTeardown});
    clock += duration + 10.0;
  }
  auto ds = analysis::build_dataset(t, geo::GeoIpDatabase::synthetic());
  analysis::apply_filters(ds);
  const auto report = analysis::correlation_report(ds);
  const auto& na =
      report.regions[geo::region_index(geo::Region::kNorthAmerica)];
  EXPECT_GT(na.active_sessions, 100u);
  EXPECT_GT(na.duration_vs_queries, 0.9);
}

TEST(HitRate, CountsHitsByGuid) {
  trace::Trace t;
  t.append(trace::SessionStart{0.0, 1, kNaIp, false, "X"});
  // Query with guid hash 42: two hits; query 43: none.
  t.append(trace::MessageEvent{10.0, 1, gnutella::MessageType::kQuery, 6, 1,
                               "answered query", false, 0, 0, 42});
  t.append(trace::MessageEvent{80.0, 1, gnutella::MessageType::kQuery, 6, 1,
                               "silent query", false, 0, 0, 43});
  t.append(trace::MessageEvent{11.0, 1, gnutella::MessageType::kQueryHit, 6, 1,
                               "", false, kNaIp, 0, 42});
  t.append(trace::MessageEvent{12.0, 1, gnutella::MessageType::kQueryHit, 5, 2,
                               "", false, kNaIp, 0, 42});
  t.append(trace::SessionEnd{200.0, 1, trace::EndReason::kTeardown});

  auto ds = analysis::build_dataset(t, geo::GeoIpDatabase::synthetic());
  analysis::apply_filters(ds);
  const auto report = analysis::hit_rate_report(ds);
  EXPECT_EQ(report.queries, 2u);
  EXPECT_EQ(report.answered, 1u);
  EXPECT_EQ(report.total_hits, 2u);
  EXPECT_DOUBLE_EQ(report.answered_fraction(), 0.5);
  EXPECT_DOUBLE_EQ(report.hits_per_answered(), 2.0);
}

TEST(HitRate, EndToEndWithForwardingProducesHits) {
  trace::Trace trace;
  behavior::TraceSimulationConfig config;
  config.duration_days = 0.03;
  config.arrival_rate = 1.5;
  config.seed = 4242;
  config.node.forward_fanout = 12;
  behavior::TraceSimulation sim(core::WorkloadModel::paper_default(), config,
                                trace);
  sim.run();
  EXPECT_GT(sim.node().forwarded_messages(), 100u);

  auto ds = analysis::build_dataset(trace, geo::GeoIpDatabase::synthetic());
  analysis::apply_filters(ds);
  const auto report = analysis::hit_rate_report(ds);
  ASSERT_GT(report.queries, 20u);
  // Some queries must be answered; not all (the content model is sparse).
  EXPECT_GT(report.answered, 0u);
  EXPECT_LT(report.answered_fraction(), 0.9);
  EXPECT_EQ(report.hits_per_query.size(), report.queries);
}

TEST(HitRate, NoForwardingMeansNoHits) {
  trace::Trace trace;
  behavior::TraceSimulationConfig config;
  config.duration_days = 0.02;
  config.arrival_rate = 1.0;
  config.seed = 4243;
  config.node.forward_fanout = 0;  // default: record-only ultrapeer
  behavior::TraceSimulation sim(core::WorkloadModel::paper_default(), config,
                                trace);
  sim.run();
  auto ds = analysis::build_dataset(trace, geo::GeoIpDatabase::synthetic());
  analysis::apply_filters(ds);
  const auto report = analysis::hit_rate_report(ds);
  EXPECT_EQ(report.answered, 0u);
}

}  // namespace
}  // namespace p2pgen
