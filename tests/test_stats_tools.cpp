// Tests for the statistics toolkit: summaries, ECDF, histograms,
// day-binning, Zipf tables, and goodness-of-fit machinery.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/distributions.hpp"
#include "stats/ecdf.hpp"
#include "stats/gof.hpp"
#include "stats/histogram.hpp"
#include "stats/summary.hpp"
#include "stats/zipf.hpp"

namespace p2pgen::stats {
namespace {

TEST(Summary, BasicMoments) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 5.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.variance, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
}

TEST(Summary, EmptyIsZero) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Summary, QuantileInterpolates) {
  const std::vector<double> xs = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 10.0);
  EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(quantile(xs, 1.5), std::invalid_argument);
}

TEST(Summary, PearsonCorrelation) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  const std::vector<double> ys = {2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson_correlation(xs, ys), 1.0, 1e-12);
  const std::vector<double> zs = {10, 8, 6, 4, 2};
  EXPECT_NEAR(pearson_correlation(xs, zs), -1.0, 1e-12);
  const std::vector<double> flat = {3, 3, 3, 3, 3};
  EXPECT_EQ(pearson_correlation(xs, flat), 0.0);
}

TEST(Ecdf, StepFunctionValues) {
  const std::vector<double> xs = {1.0, 2.0, 2.0, 4.0};
  Ecdf e(xs);
  EXPECT_DOUBLE_EQ(e.cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(e.cdf(1.0), 0.25);
  EXPECT_DOUBLE_EQ(e.cdf(2.0), 0.75);
  EXPECT_DOUBLE_EQ(e.cdf(3.0), 0.75);
  EXPECT_DOUBLE_EQ(e.cdf(100.0), 1.0);
  EXPECT_DOUBLE_EQ(e.ccdf(2.0), 0.25);
}

TEST(Ecdf, LogGridSpansSample) {
  Rng rng(1);
  std::vector<double> xs(1000);
  LogNormal d(3.0, 1.0);
  for (double& x : xs) x = d.sample(rng);
  const auto curve = Ecdf(xs).ccdf_log_grid(50);
  ASSERT_EQ(curve.size(), 50u);
  EXPECT_GE(curve.front().y, curve.back().y);  // CCDF decreasing overall
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GT(curve[i].x, curve[i - 1].x);
    EXPECT_LE(curve[i].y, curve[i - 1].y + 1e-12);
  }
}

TEST(Ecdf, KsDistanceBetweenIdenticalSamplesIsZero) {
  const std::vector<double> xs = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(ks_distance(Ecdf(xs), Ecdf(xs)), 0.0);
}

TEST(LogSpace, EndpointsAndMonotonicity) {
  const auto xs = log_space(1.0, 1000.0, 4);
  ASSERT_EQ(xs.size(), 4u);
  EXPECT_DOUBLE_EQ(xs.front(), 1.0);
  EXPECT_DOUBLE_EQ(xs.back(), 1000.0);
  EXPECT_NEAR(xs[1], 10.0, 1e-9);
  EXPECT_THROW(log_space(0.0, 10.0, 5), std::invalid_argument);
}

TEST(Histogram, BinningAndOverflow) {
  Histogram h(0.0, 10.0, 5);
  h.add(-1.0);
  h.add(0.0);
  h.add(3.9);
  h.add(9.99);
  h.add(10.0);
  EXPECT_DOUBLE_EQ(h.underflow(), 1.0);
  EXPECT_DOUBLE_EQ(h.overflow(), 1.0);
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(1), 1.0);
  EXPECT_DOUBLE_EQ(h.count(4), 1.0);
  EXPECT_DOUBLE_EQ(h.total(), 5.0);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 1.0);
}

TEST(DayBinSeries, AggregatesAcrossDays) {
  DayBinSeries s(3600);
  ASSERT_EQ(s.bins_per_day(), 24u);
  s.add(0.0);            // day 0, bin 0
  s.add(3600.0 * 5);     // day 0, bin 5
  s.add(86400.0 + 10.0); // day 1, bin 0
  s.add(86400.0 + 20.0); // day 1, bin 0
  const auto stats = s.stats();
  EXPECT_DOUBLE_EQ(stats[0].min, 1.0);
  EXPECT_DOUBLE_EQ(stats[0].max, 2.0);
  EXPECT_DOUBLE_EQ(stats[0].mean, 1.5);
  EXPECT_DOUBLE_EQ(stats[5].mean, 0.5);
  EXPECT_DOUBLE_EQ(s.totals()[0], 3.0);
}

TEST(DayBinSeries, RejectsNonDivisorBin) {
  EXPECT_THROW(DayBinSeries(7000), std::invalid_argument);
  EXPECT_THROW(DayBinSeries(0), std::invalid_argument);
}

TEST(ZipfLike, PmfDecreasesAndNormalizes) {
  const auto z = ZipfLike::single(100, 0.8);
  double total = 0.0;
  for (std::size_t r = 1; r <= 100; ++r) {
    total += z.pmf(r);
    if (r > 1) {
      EXPECT_LE(z.pmf(r), z.pmf(r - 1));
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_NEAR(z.cdf(100), 1.0, 1e-12);
}

TEST(ZipfLike, SampleFrequenciesMatchPmf) {
  const auto z = ZipfLike::single(10, 1.0);
  Rng rng(2);
  std::array<int, 10> counts{};
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) counts[z.sample(rng) - 1] += 1;
  for (std::size_t r = 1; r <= 10; ++r) {
    EXPECT_NEAR(counts[r - 1] / static_cast<double>(kN), z.pmf(r), 0.005);
  }
}

TEST(ZipfLike, FittedAlphaRecoversExponent) {
  for (double alpha : {0.223, 0.386, 0.9, 1.5}) {
    const auto z = ZipfLike::single(100, alpha);
    EXPECT_NEAR(z.fitted_alpha(1, 100), alpha, 1e-6) << alpha;
  }
}

TEST(ZipfLike, TwoPieceIsContinuousAtSplit) {
  const auto z = ZipfLike::two_piece(100, 45, 0.453, 4.67);
  // No jump: pmf(46)/pmf(45) should follow the tail slope, not collapse.
  const double ratio = z.pmf(46) / z.pmf(45);
  const double expected = std::pow(46.0 / 45.0, -4.67);
  EXPECT_NEAR(ratio, expected, 1e-9);
}

TEST(ZipfLike, TwoPieceFitRecoversBothSlopes) {
  const auto z = ZipfLike::two_piece(100, 45, 0.453, 4.67);
  std::vector<double> pmf;
  for (std::size_t r = 1; r <= 100; ++r) pmf.push_back(z.pmf(r));
  EXPECT_NEAR(fit_zipf_alpha(pmf, 1, 45), 0.453, 0.02);
  EXPECT_NEAR(fit_zipf_alpha(pmf, 46, 100), 4.67, 0.02);
}

// sample() must return exactly the first rank whose CDF reaches the
// uniform it draws; the reference replays that uniform from a copy of
// the generator and binary-searches the public cdf().
void expect_exact_draws(const ZipfLike& z, std::uint64_t seed, int draws) {
  Rng rng(seed);
  for (int i = 0; i < draws; ++i) {
    Rng replay = rng;
    const double u = replay.uniform();
    std::size_t lo = 1;
    std::size_t hi = z.size();
    while (lo < hi) {  // first rank r in [1, size] with cdf(r) >= u
      const std::size_t mid = lo + (hi - lo) / 2;
      if (z.cdf(mid) < u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    ASSERT_EQ(z.sample(rng), lo) << z.name() << " draw " << i << " u=" << u;
  }
}

TEST(ZipfLike, SampleIsTheFirstRankReachingTheUniform) {
  expect_exact_draws(ZipfLike::single(1, 0.0), 1, 1000);
  expect_exact_draws(ZipfLike::single(10, 1.0), 2, 100000);
  expect_exact_draws(ZipfLike::single(100000, 0.9), 3, 200000);
  expect_exact_draws(ZipfLike::two_piece(1000, 45, 0.453, 4.67), 4, 200000);
  expect_exact_draws(ZipfLike::two_piece(2, 1, 0.0, 30.0), 5, 100000);
}

TEST(ZipfLike, SampleIsExactAcrossCdfPlateaus) {
  // Near-zero weights add nothing the CDF can represent, so runs of ranks
  // share one CDF value; the guide table must still land on the first.
  std::vector<double> weights;
  Rng shape(6);
  for (int i = 0; i < 2000; ++i) {
    const double pick = shape.uniform();
    weights.push_back(pick < 0.6   ? 1e-300
                      : pick < 0.7 ? 1e-17
                                   : shape.uniform());
  }
  expect_exact_draws(ZipfLike::from_weights(weights), 7, 200000);
  expect_exact_draws(ZipfLike::from_weights({1e-300, 1e-300, 1.0, 1e-300}), 8,
                     100000);
  expect_exact_draws(ZipfLike::from_weights({1.0}), 9, 1000);
}

TEST(ZipfLike, InvalidArguments) {
  EXPECT_THROW(ZipfLike::single(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfLike::single(10, -0.1), std::invalid_argument);
  EXPECT_THROW(ZipfLike::two_piece(10, 10, 1.0, 2.0), std::invalid_argument);
  EXPECT_THROW(ZipfLike::from_weights({}), std::invalid_argument);
  EXPECT_THROW(ZipfLike::from_weights({1.0, 0.0}), std::invalid_argument);
}

TEST(Gof, KsAcceptsTrueModelRejectsWrongModel) {
  LogNormal truth(2.0, 1.0);
  LogNormal wrong(3.0, 1.0);
  Rng rng(3);
  std::vector<double> xs(2000);
  for (double& x : xs) x = truth.sample(rng);
  EXPECT_GT(ks_test(xs, truth), 0.01);
  EXPECT_LT(ks_test(xs, wrong), 1e-6);
}

TEST(Gof, ChiSquareAcceptsTrueModel) {
  Exponential truth(0.2);
  Rng rng(4);
  std::vector<double> xs(5000);
  for (double& x : xs) x = truth.sample(rng);
  const double stat = chi_square_statistic(xs, truth, 20);
  EXPECT_GT(chi_square_pvalue(stat, 19), 0.001);
}

TEST(Gof, GammaQEdgeValues) {
  EXPECT_DOUBLE_EQ(gamma_q(1.0, 0.0), 1.0);
  EXPECT_NEAR(gamma_q(0.5, 100.0), 0.0, 1e-12);
  // Q(1, x) = exp(-x).
  EXPECT_NEAR(gamma_q(1.0, 2.0), std::exp(-2.0), 1e-10);
}

TEST(Gof, KsPvalueMonotoneInStatistic) {
  EXPECT_GT(ks_pvalue(0.01, 1000), ks_pvalue(0.05, 1000));
  EXPECT_GT(ks_pvalue(0.05, 1000), ks_pvalue(0.10, 1000));
  EXPECT_DOUBLE_EQ(ks_pvalue(0.0, 10), 1.0);
  EXPECT_DOUBLE_EQ(ks_pvalue(1.0, 10), 0.0);
}

}  // namespace
}  // namespace p2pgen::stats
