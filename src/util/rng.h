#ifndef DFLOW_UTIL_RNG_H_
#define DFLOW_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dflow {

/// Deterministic xoshiro256++ generator. Every stochastic component in this
/// library draws from an explicitly seeded Rng so experiments replay
/// bit-for-bit; nothing reads entropy from the environment.
class Rng {
 public:
  /// Seeds the four words of state from `seed` via SplitMix64, so nearby
  /// seeds produce uncorrelated streams.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform in [0, 1).
  double NextDouble();

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t Uniform(int64_t lo, int64_t hi);

  /// Uniform real in [lo, hi).
  double UniformReal(double lo, double hi);

  /// Standard normal via the Marsaglia polar method.
  double Normal(double mean = 0.0, double stddev = 1.0);

  /// Writes n standard normals to out[0, n): the same floats, from the same
  /// draws, as n calls of static_cast<float>(Normal(0.0, 1.0)), including
  /// a pending spare on entry and the spare left for the next Normal().
  /// Accepted polar points are batched so the acceptance test, std::log
  /// and the sqrt/divide/multiply each run as a loop of their own.
  void FillStandardNormal(float* out, size_t n);

  /// Exponential with the given rate (mean 1/rate). Requires rate > 0.
  double Exponential(double rate);

  /// Poisson-distributed count with the given mean (Knuth for small means,
  /// normal approximation above 64).
  int64_t Poisson(double mean);

  /// Zipf-distributed rank in [1, n] with exponent `s` (s=1 is classic
  /// Zipf). Uses an inverted-CDF table built lazily per (n, s).
  int64_t Zipf(int64_t n, double s);

  /// True with probability p.
  bool Bernoulli(double p);

  /// Fisher-Yates shuffle of `v`.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(Uniform(0, static_cast<int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Derives an independent child generator; used to give each parallel
  /// component its own stream from one experiment seed.
  Rng Fork();

 private:
  uint64_t s_[4];
  // Cached state for the polar method (generates normals in pairs).
  bool has_spare_normal_ = false;
  double spare_normal_ = 0.0;
  // Lazily built Zipf CDF, keyed by the last (n, s) requested.
  int64_t zipf_n_ = 0;
  double zipf_s_ = 0.0;
  std::vector<double> zipf_cdf_;
};

}  // namespace dflow

#endif  // DFLOW_UTIL_RNG_H_
