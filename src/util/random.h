#ifndef LMKG_UTIL_RANDOM_H_
#define LMKG_UTIL_RANDOM_H_

#include <cstdint>
#include <vector>

#include "util/check.h"

namespace lmkg::util {

/// PCG32 pseudo-random generator (O'Neill, pcg-random.org). Deterministic,
/// fast, and seedable — every stochastic component in LMKG takes one of
/// these so experiments are reproducible.
class Pcg32 {
 public:
  explicit Pcg32(uint64_t seed = 0x853c49e6748fea9bULL,
                 uint64_t stream = 0xda3e39cb94b95bdbULL);

  /// Uniform 32 random bits.
  uint32_t Next() {
    const uint64_t old = state_;
    state_ = old * kMultiplier + inc_;
    return Output(old);
  }
  /// Uniform 64 random bits: the outputs of two Next() calls, high word
  /// first. The state advances both steps in one multiply-add by the
  /// squared multiplier, so the dependency chain is half as long.
  uint64_t Next64() {
    const uint64_t s0 = state_;
    const uint64_t s1 = s0 * kMultiplier + inc_;
    state_ = s0 * (kMultiplier * kMultiplier) + inc_ * (kMultiplier + 1);
    return (static_cast<uint64_t>(Output(s0)) << 32) | Output(s1);
  }
  /// Uniform 53 random bits — NextDouble() is exactly Next53() * 2^-53.
  uint64_t Next53() { return Next64() >> 11; }
  /// Uniform double in [0, 1).
  double NextDouble();
  /// Uniform integer in [0, bound). Requires bound > 0.
  uint32_t UniformInt(uint32_t bound);
  /// Uniform integer in [lo, hi]. Requires lo <= hi.
  int64_t UniformInt64(int64_t lo, int64_t hi);
  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);
  /// Standard normal via Box-Muller.
  double NextGaussian();
  /// True with probability p.
  bool Bernoulli(double p);
  /// Integer form of Bernoulli(p) for hot loops: on the same stream,
  /// `Next53() < BernoulliThreshold(p)` is true for exactly the draws on
  /// which `Bernoulli(p)` is.
  static uint64_t BernoulliThreshold(double p);

  /// Uniformly chosen element of a non-empty vector.
  template <typename T>
  const T& Choice(const std::vector<T>& v) {
    LMKG_CHECK(!v.empty());
    return v[UniformInt(static_cast<uint32_t>(v.size()))];
  }

  /// Fisher-Yates in-place shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = UniformInt(static_cast<uint32_t>(i));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

 private:
  static constexpr uint64_t kMultiplier = 6364136223846793005ULL;

  // The output permutation (XSH RR) of a pre-advance state.
  static uint32_t Output(uint64_t state) {
    const auto xorshifted =
        static_cast<uint32_t>(((state >> 18u) ^ state) >> 27u);
    const auto rot = static_cast<uint32_t>(state >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((-rot) & 31u));
  }

  uint64_t state_;
  uint64_t inc_;
  bool has_gaussian_ = false;
  double next_gaussian_ = 0.0;
};

/// Zipf distribution over ranks {0, ..., n-1}: P(k) ∝ 1/(k+1)^s.
/// Used by the synthetic dataset generators to produce the skewed degree
/// and predicate distributions real knowledge graphs exhibit.
class ZipfDistribution {
 public:
  ZipfDistribution(size_t n, double s);

  size_t Sample(Pcg32& rng) const;
  size_t size() const { return cdf_.size(); }
  /// Probability mass of rank k.
  double Pmf(size_t k) const;

 private:
  std::vector<double> cdf_;
};

/// General discrete distribution given unnormalized non-negative weights.
/// Sampling is O(log n) by binary search over the cumulative sums.
class DiscreteDistribution {
 public:
  explicit DiscreteDistribution(const std::vector<double>& weights);

  size_t Sample(Pcg32& rng) const;
  size_t size() const { return cdf_.size(); }
  double total_weight() const { return total_; }

 private:
  std::vector<double> cdf_;
  double total_;
};

}  // namespace lmkg::util

#endif  // LMKG_UTIL_RANDOM_H_
