#include "util/random.h"

#include <algorithm>
#include <cmath>

namespace lmkg::util {

Pcg32::Pcg32(uint64_t seed, uint64_t stream) {
  state_ = 0u;
  inc_ = (stream << 1u) | 1u;
  Next();
  state_ += seed;
  Next();
}

double Pcg32::NextDouble() {
  // 53 random mantissa bits.
  return static_cast<double>(Next53()) * 0x1.0p-53;
}

uint32_t Pcg32::UniformInt(uint32_t bound) {
  LMKG_CHECK_GT(bound, 0u);
  // Debiased modulo (Lemire-style rejection on the low range).
  uint32_t threshold = (-bound) % bound;
  for (;;) {
    uint32_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

int64_t Pcg32::UniformInt64(int64_t lo, int64_t hi) {
  LMKG_CHECK_LE(lo, hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<int64_t>(Next64());  // full 64-bit range
  // Rejection sampling over the top of the range.
  uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  for (;;) {
    uint64_t r = Next64();
    if (r < limit) return lo + static_cast<int64_t>(r % span);
  }
}

double Pcg32::Uniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Pcg32::NextGaussian() {
  if (has_gaussian_) {
    has_gaussian_ = false;
    return next_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  double u2 = NextDouble();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  next_gaussian_ = r * std::sin(theta);
  has_gaussian_ = true;
  return r * std::cos(theta);
}

bool Pcg32::Bernoulli(double p) { return NextDouble() < p; }

uint64_t Pcg32::BernoulliThreshold(double p) {
  // u * 2^-53 is exact for a 53-bit u, so NextDouble() < p holds exactly
  // when the integer u is below the real p * 2^53 (also exact: a power-of-
  // two scale), i.e. below its ceiling.
  if (!(p > 0.0)) return 0;
  if (p >= 1.0) return uint64_t{1} << 53;
  return static_cast<uint64_t>(std::ceil(p * 0x1.0p53));
}

ZipfDistribution::ZipfDistribution(size_t n, double s) {
  LMKG_CHECK_GT(n, 0u);
  cdf_.resize(n);
  double sum = 0.0;
  for (size_t k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = sum;
  }
  for (size_t k = 0; k < n; ++k) cdf_[k] /= sum;
  cdf_.back() = 1.0;
}

size_t ZipfDistribution::Sample(Pcg32& rng) const {
  double u = rng.NextDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return static_cast<size_t>(it - cdf_.begin());
}

double ZipfDistribution::Pmf(size_t k) const {
  LMKG_CHECK_LT(k, cdf_.size());
  return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
}

DiscreteDistribution::DiscreteDistribution(const std::vector<double>& weights)
    : total_(0.0) {
  LMKG_CHECK(!weights.empty());
  cdf_.resize(weights.size());
  for (size_t i = 0; i < weights.size(); ++i) {
    LMKG_CHECK_GE(weights[i], 0.0);
    total_ += weights[i];
    cdf_[i] = total_;
  }
  LMKG_CHECK_GT(total_, 0.0) << "all weights zero";
}

size_t DiscreteDistribution::Sample(Pcg32& rng) const {
  double u = rng.NextDouble() * total_;
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return static_cast<size_t>(it - cdf_.begin());
}

}  // namespace lmkg::util
