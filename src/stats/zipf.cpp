#include "stats/zipf.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace p2pgen::stats {

ZipfLike::ZipfLike(std::vector<double> pmf) : pmf_(std::move(pmf)) {
  if (pmf_.empty()) throw std::invalid_argument("ZipfLike: empty weight table");
  double total = 0.0;
  for (double w : pmf_) {
    if (!(w > 0.0)) throw std::invalid_argument("ZipfLike: weights must be > 0");
    total += w;
  }
  cdf_.resize(pmf_.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < pmf_.size(); ++i) {
    pmf_[i] /= total;
    acc += pmf_[i];
    cdf_[i] = acc;
  }
  cdf_.back() = 1.0;  // guard against rounding drift
  const std::size_t n = cdf_.size();
  guide_.resize(n);
  std::size_t i = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const double lo = static_cast<double>(k) / static_cast<double>(n);
    while (cdf_[i] < lo) ++i;
    guide_[k] = static_cast<std::uint32_t>(i);
  }
}

ZipfLike ZipfLike::single(std::size_t n, double alpha) {
  if (n == 0) throw std::invalid_argument("ZipfLike::single: n must be > 0");
  if (alpha < 0.0) throw std::invalid_argument("ZipfLike::single: alpha must be >= 0");
  std::vector<double> weights(n);
  for (std::size_t r = 1; r <= n; ++r) {
    weights[r - 1] = std::pow(static_cast<double>(r), -alpha);
  }
  ZipfLike z(std::move(weights));
  std::ostringstream os;
  os << "zipf(n=" << n << ", alpha=" << alpha << ")";
  z.label_ = os.str();
  return z;
}

ZipfLike ZipfLike::two_piece(std::size_t n, std::size_t split, double alpha_body,
                             double alpha_tail) {
  if (n == 0 || split == 0 || split >= n) {
    throw std::invalid_argument("ZipfLike::two_piece: requires 0 < split < n");
  }
  std::vector<double> weights(n);
  for (std::size_t r = 1; r <= split; ++r) {
    weights[r - 1] = std::pow(static_cast<double>(r), -alpha_body);
  }
  // Continue from the body endpoint so the pmf has no jump at the split.
  const double anchor = std::pow(static_cast<double>(split), -alpha_body);
  for (std::size_t r = split + 1; r <= n; ++r) {
    weights[r - 1] =
        anchor * std::pow(static_cast<double>(r) / static_cast<double>(split),
                          -alpha_tail);
  }
  ZipfLike z(std::move(weights));
  std::ostringstream os;
  os << "zipf2(n=" << n << ", split=" << split << ", body=" << alpha_body
     << ", tail=" << alpha_tail << ")";
  z.label_ = os.str();
  return z;
}

ZipfLike ZipfLike::from_weights(std::vector<double> weights) {
  ZipfLike z(std::move(weights));
  std::ostringstream os;
  os << "zipf_weights(n=" << z.size() << ")";
  z.label_ = os.str();
  return z;
}

double ZipfLike::pmf(std::size_t rank) const {
  if (rank == 0 || rank > pmf_.size()) {
    throw std::out_of_range("ZipfLike::pmf: rank out of range");
  }
  return pmf_[rank - 1];
}

double ZipfLike::cdf(std::size_t rank) const {
  if (rank == 0) return 0.0;
  if (rank >= cdf_.size()) return 1.0;
  return cdf_[rank - 1];
}

std::size_t ZipfLike::sample(Rng& rng) const {
  const double u = rng.uniform();
  // floor(u * n) may round up past u's bucket, so step back first; then
  // step forward to the first cdf >= u.  Both loops keep the answer
  // equal to lower_bound(cdf_, u) for every u, rounding included.
  const std::size_t n = cdf_.size();
  const auto bucket = static_cast<std::size_t>(u * static_cast<double>(n));
  std::size_t i = guide_[std::min(bucket, n - 1)];
  while (i > 0 && cdf_[i - 1] >= u) --i;
  while (cdf_[i] < u) ++i;
  return i + 1;
}

double ZipfLike::fitted_alpha(std::size_t lo, std::size_t hi) const {
  std::vector<double> freq(pmf_.begin(), pmf_.end());
  return fit_zipf_alpha(freq, lo, hi);
}

std::string ZipfLike::name() const { return label_; }

double fit_zipf_alpha(const std::vector<double>& frequencies, std::size_t lo,
                      std::size_t hi) {
  if (lo == 0 || hi < lo || hi > frequencies.size()) {
    throw std::invalid_argument("fit_zipf_alpha: invalid rank range");
  }
  // Least squares on (log r, log f): slope = cov / var; alpha = -slope.
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  std::size_t n = 0;
  for (std::size_t r = lo; r <= hi; ++r) {
    const double f = frequencies[r - 1];
    if (!(f > 0.0)) continue;  // skip empty ranks
    const double x = std::log(static_cast<double>(r));
    const double y = std::log(f);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    ++n;
  }
  if (n < 2) throw std::invalid_argument("fit_zipf_alpha: need >= 2 nonzero ranks");
  const double denom = static_cast<double>(n) * sxx - sx * sx;
  if (denom == 0.0) throw std::invalid_argument("fit_zipf_alpha: degenerate ranks");
  const double slope = (static_cast<double>(n) * sxy - sx * sy) / denom;
  return -slope;
}

}  // namespace p2pgen::stats
