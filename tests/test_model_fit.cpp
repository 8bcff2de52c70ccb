// Unit tests for analysis::fit_appendix_tables / fit_workload_model on
// synthetic measures with known generating parameters — the fitters must
// recover them, and sparse conditions must fall back gracefully.
#include <gtest/gtest.h>

#include "analysis/filters.hpp"
#include "analysis/model_fit.hpp"
#include "core/generator.hpp"
#include "obs/metrics.hpp"

namespace p2pgen::analysis {
namespace {

using core::DayPeriod;
using core::Region;

constexpr auto kNa = geo::region_index(Region::kNorthAmerica);
constexpr auto kPeak = static_cast<std::size_t>(DayPeriod::kPeak);

std::vector<double> draw(const stats::Distribution& d, std::size_t n,
                         std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<double> xs(n);
  for (double& x : xs) x = d.sample(rng);
  return xs;
}

TEST(FitAppendixTables, RecoversTableA1FromSyntheticSamples) {
  SessionMeasures m;
  auto truth = stats::bimodal_split(stats::make_lognormal(2.108, 2.502),
                                    stats::make_lognormal(6.397, 2.749), 120.0,
                                    0.75, 64.0);
  m.passive_duration_by_day_period[kNa][kPeak] = draw(*truth, 30000, 1);
  const auto fits = fit_appendix_tables(m);
  const auto& fit = fits.passive[kNa][kPeak];
  EXPECT_NEAR(fit.body_weight, 0.75, 0.02);
  EXPECT_NEAR(fit.tail.mu, 6.397, 0.3);
  EXPECT_NEAR(fit.tail.sigma, 2.749, 0.3);
}

TEST(FitAppendixTables, RecoversTableA3FromSyntheticSamples) {
  SessionMeasures m;
  auto truth = stats::bimodal_split(stats::make_weibull(1.477, 0.005252),
                                    stats::make_lognormal(5.091, 2.905), 45.0,
                                    0.5);
  m.first_query_by_period_class[kNa][kPeak][0] = draw(*truth, 30000, 2);
  const auto fits = fit_appendix_tables(m);
  const auto& fit = fits.first_query[kNa][kPeak][0];
  EXPECT_NEAR(fit.body_weight, 0.5, 0.02);
  EXPECT_NEAR(fit.body.alpha, 1.477, 0.25);
  EXPECT_NEAR(fit.tail.mu, 5.091, 0.4);
}

TEST(FitAppendixTables, ZeroFirstQueryGapIsLeftOutOfTableA3) {
  // A query in the same tick as its connection measures a first-query gap
  // of exactly 0, which the Weibull body's MLE cannot take.
  auto truth = stats::bimodal_split(stats::make_weibull(1.477, 0.005252),
                                    stats::make_lognormal(5.091, 2.905), 45.0,
                                    0.5);
  SessionMeasures clean;
  clean.first_query_by_period_class[kNa][kPeak][0] = draw(*truth, 2000, 5);
  SessionMeasures with_zero = clean;
  auto& cell = with_zero.first_query_by_period_class[kNa][kPeak][0];
  cell.insert(cell.begin() + 100, 0.0);

  const auto counter = [] {
    return obs::Registry::global().snapshot().counter_value(
        "fit.first_query_nonpositive");
  };
  const std::uint64_t before = counter();
  AppendixFits fits;
  ASSERT_NO_THROW(fits = fit_appendix_tables(with_zero));
  EXPECT_EQ(fits.first_query_nonpositive, 1u);
  EXPECT_EQ(counter() - before, 1u);

  // The zero is left out: the fit is the fit of the positive draws alone.
  const AppendixFits want = fit_appendix_tables(clean);
  EXPECT_EQ(want.first_query_nonpositive, 0u);
  EXPECT_EQ(counter() - before, 1u);
  const auto& got = fits.first_query[kNa][kPeak][0];
  const auto& expected = want.first_query[kNa][kPeak][0];
  EXPECT_GT(got.body_weight, 0.0);
  EXPECT_EQ(got.body_weight, expected.body_weight);
  EXPECT_EQ(got.body.alpha, expected.body.alpha);
  EXPECT_EQ(got.body.lambda, expected.body.lambda);
  EXPECT_EQ(got.tail.mu, expected.tail.mu);
  EXPECT_EQ(got.tail.sigma, expected.tail.sigma);
}

TEST(FitAppendixTables, RecoversTableA4FromSyntheticSamples) {
  SessionMeasures m;
  auto truth = stats::bimodal_split(stats::make_lognormal(3.353, 1.625),
                                    stats::make_pareto(0.9041, 103.0), 103.0,
                                    0.68);
  m.interarrival_by_day_period[kNa][kPeak] = draw(*truth, 30000, 3);
  const auto fits = fit_appendix_tables(m);
  const auto& fit = fits.interarrival[kNa][kPeak];
  EXPECT_NEAR(fit.body_weight, 0.68, 0.02);
  EXPECT_NEAR(fit.body.mu, 3.353, 0.35);
  EXPECT_NEAR(fit.tail_alpha, 0.9041, 0.05);
}

TEST(FitAppendixTables, RecoversTableA5FromSyntheticSamples) {
  SessionMeasures m;
  const stats::LogNormal truth(5.686, 2.259);
  m.after_last_by_period_class[kNa][kPeak][1] = draw(truth, 30000, 4);
  const auto fits = fit_appendix_tables(m);
  const auto& fit = fits.after_last[kNa][kPeak][1];
  EXPECT_NEAR(fit.mu, 5.686, 0.05);
  EXPECT_NEAR(fit.sigma, 2.259, 0.05);
}

TEST(FitAppendixTables, SparseConditionsAreMarkedUnfit) {
  SessionMeasures m;  // everything empty
  m.queries_by_region[kNa] = {1.0, 2.0, 3.0};  // below min_samples
  const auto fits = fit_appendix_tables(m, {}, 50);
  EXPECT_EQ(fits.queries[kNa].sigma, 0.0);
  EXPECT_EQ(fits.passive[kNa][kPeak].body_weight, 0.0);
  EXPECT_EQ(fits.first_query[kNa][kPeak][0].body_weight, 0.0);
  EXPECT_EQ(fits.interarrival[kNa][kPeak].body_weight, 0.0);
  EXPECT_EQ(fits.after_last[kNa][kPeak][0].sigma, 0.0);
}

TEST(FitWorkloadModel, EmptyDatasetInheritsFallbackEverywhere) {
  TraceDataset empty;
  const auto fallback = core::WorkloadModel::paper_default();
  const auto model = fit_workload_model(empty, fallback);
  EXPECT_NO_THROW(model.validate());
  for (std::size_t h = 0; h < 24; ++h) {
    for (std::size_t r = 0; r < geo::kRegionCount; ++r) {
      EXPECT_DOUBLE_EQ(model.region_mix[h][r], fallback.region_mix[h][r]);
    }
  }
  EXPECT_DOUBLE_EQ(model.passive_fraction[kNa], fallback.passive_fraction[kNa]);
  EXPECT_DOUBLE_EQ(model.popularity.daily_drift,
                   fallback.popularity.daily_drift);
}

TEST(FitWorkloadModel, UsesMeasuredPassiveFraction) {
  // A crafted dataset: 4 NA sessions, 1 active -> passive fraction 0.75.
  trace::Trace t;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    t.append(trace::SessionStart{100.0 * static_cast<double>(id), id,
                                 0x18000001, false, "X"});
    if (id == 1) {
      t.append(trace::MessageEvent{100.0 * static_cast<double>(id) + 5.0, id,
                                   gnutella::MessageType::kQuery, 6, 1, "q",
                                   false, 0, 0});
    }
    t.append(trace::SessionEnd{100.0 * static_cast<double>(id) + 90.0, id,
                               trace::EndReason::kTeardown});
  }
  auto dataset = build_dataset(t, geo::GeoIpDatabase::synthetic());
  apply_filters(dataset);
  const auto model = fit_workload_model(dataset);
  EXPECT_NEAR(model.passive_fraction[kNa], 0.75, 1e-9);
  EXPECT_NO_THROW(model.validate());
}

TEST(FitWorkloadModel, RefitModelIsGeneratorReady) {
  TraceDataset empty;
  const auto model = fit_workload_model(empty);
  core::WorkloadGenerator::Config config;
  config.num_peers = 20;
  config.duration = 600.0;
  config.seed = 9;
  core::WorkloadGenerator gen(model, config);
  std::size_t count = 0;
  gen.generate([&](const core::GeneratedSession&) { ++count; });
  EXPECT_GT(count, 0u);
}

}  // namespace
}  // namespace p2pgen::analysis
