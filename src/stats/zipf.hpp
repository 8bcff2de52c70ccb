// p2pgen — Zipf-like rank distributions.
//
// The paper models per-day query popularity as Zipf-like: the frequency of
// the query with rank r is proportional to 1/r^alpha (Section 4.6,
// Figure 11).  The intersection class (queries issued from two regions) has
// a "flattened head" and is fit by TWO Zipf pieces with different exponents
// (alpha_body for ranks 1..split, alpha_tail beyond).  ZipfLike covers both
// through a per-rank weight table, sampled through a guide table: one
// entry per rank, O(1) expected steps per draw, and exactly the rank a
// binary search over the CDF would return.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "stats/rng.hpp"

namespace p2pgen::stats {

/// A discrete distribution over ranks 1..n with Zipf-like weights.
class ZipfLike {
 public:
  /// Classic Zipf-like: weight(r) = 1/r^alpha, r = 1..n.  alpha >= 0.
  static ZipfLike single(std::size_t n, double alpha);

  /// Two-piece Zipf (paper Figure 11(c)): ranks 1..split use alpha_body,
  /// ranks split+1..n continue from the body's endpoint with slope
  /// alpha_tail, so the pmf is continuous at the split.
  static ZipfLike two_piece(std::size_t n, std::size_t split, double alpha_body,
                            double alpha_tail);

  /// Arbitrary positive weights over ranks 1..weights.size().
  static ZipfLike from_weights(std::vector<double> weights);

  /// Number of ranks.
  std::size_t size() const noexcept { return pmf_.size(); }

  /// Probability of rank r (1-based).  Requires 1 <= r <= size().
  double pmf(std::size_t rank) const;

  /// P[R <= r] (1-based; pmf cumulated).
  double cdf(std::size_t rank) const;

  /// Draws a rank in [1, size()]: the first rank r with cdf(r) >= u for
  /// one u = rng.uniform().
  std::size_t sample(Rng& rng) const;

  /// Least-squares slope of log(pmf) vs log(rank) over ranks [lo, hi] —
  /// the standard way the paper (and prior work) estimates the Zipf alpha.
  double fitted_alpha(std::size_t lo, std::size_t hi) const;

  std::string name() const;

 private:
  explicit ZipfLike(std::vector<double> pmf);

  std::vector<double> pmf_;   // normalized, index 0 == rank 1
  std::vector<double> cdf_;   // inclusive cumulative sums
  // guide_[k]: first index i with cdf_[i] >= k / size(), where sample()
  // starts its search for a u in [k / size(), (k + 1) / size()).
  std::vector<std::uint32_t> guide_;
  std::string label_;
};

/// Fits the Zipf exponent alpha by least squares on log(frequency) vs
/// log(rank) for the given (rank 1-based) frequency table, using ranks
/// [lo, hi].  Returns the negated slope (so alpha > 0 for decaying pmfs).
double fit_zipf_alpha(const std::vector<double>& frequencies, std::size_t lo,
                      std::size_t hi);

}  // namespace p2pgen::stats
