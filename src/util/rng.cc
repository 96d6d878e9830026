#include "util/rng.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace dflow {

namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// The Marsaglia polar method, shared by Normal() and FillStandardNormal():
// draw u, then v, uniform in [-1, 1); accept the point when
// s = u^2 + v^2 lies inside the unit circle and off the origin; then
// u * factor and v * factor are two independent standard normals.
double PolarPoint(Rng& rng, double* u, double* v) {
  *u = rng.UniformReal(-1.0, 1.0);
  *v = rng.UniformReal(-1.0, 1.0);
  return *u * *u + *v * *v;
}

bool PolarAccepts(double s) { return s < 1.0 && s != 0.0; }

double PolarFactor(double s, double log_s) {
  return std::sqrt(-2.0 * log_s / s);
}

// Accepted points per FillStandardNormal batch (two normals each).
constexpr size_t kPolarBatch = 128;

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t x = seed;
  for (auto& word : s_) {
    word = SplitMix64(x);
  }
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

int64_t Rng::Uniform(int64_t lo, int64_t hi) {
  DFLOW_CHECK(lo <= hi) << "Uniform(" << lo << ", " << hi << ")";
  // Unsigned arithmetic: hi - lo exceeds INT64_MAX on wide ranges, and the
  // full range wraps to 0.
  const uint64_t range =
      static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  if (range == 0) {
    return static_cast<int64_t>(Next());  // Full 64-bit range.
  }
  // Rejection sampling to avoid modulo bias.
  uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  uint64_t value = Next();
  while (value >= limit) {
    value = Next();
  }
  return static_cast<int64_t>(static_cast<uint64_t>(lo) + value % range);
}

double Rng::UniformReal(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::Normal(double mean, double stddev) {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return mean + stddev * spare_normal_;
  }
  double u, v, s;
  do {
    s = PolarPoint(*this, &u, &v);
  } while (!PolarAccepts(s));
  const double factor = PolarFactor(s, std::log(s));
  spare_normal_ = v * factor;
  has_spare_normal_ = true;
  return mean + stddev * u * factor;
}

void Rng::FillStandardNormal(float* out, size_t n) {
  // Normal(0.0, 1.0) returns 0.0 + 1.0 * u * factor, which equals
  // u * factor: the sum differs only for -0.0, and u, v = -1 + 2 * d are
  // exact and never -0.0. So each pair below is what two Normal() calls
  // return, the second one's value being the first one's spare.
  size_t i = 0;
  if (n > 0 && has_spare_normal_) {
    out[i++] = static_cast<float>(Normal(0.0, 1.0));
  }
  double u[kPolarBatch], v[kPolarBatch], s[kPolarBatch], log_s[kPolarBatch];
  while (n - i >= 2) {
    const size_t pairs = std::min(kPolarBatch, (n - i) / 2);
    // Every candidate lands in slot k and only an accepted one moves k on,
    // so rejection costs no branch.
    for (size_t k = 0; k < pairs;) {
      s[k] = PolarPoint(*this, &u[k], &v[k]);
      k += PolarAccepts(s[k]) ? 1 : 0;
    }
    for (size_t k = 0; k < pairs; ++k) {
      log_s[k] = std::log(s[k]);
    }
    float* pair_out = out + i;
    for (size_t k = 0; k < pairs; ++k) {
      const double factor = PolarFactor(s[k], log_s[k]);
      pair_out[2 * k] = static_cast<float>(u[k] * factor);
      pair_out[2 * k + 1] = static_cast<float>(v[k] * factor);
    }
    i += 2 * pairs;
  }
  if (i < n) {
    // An odd tail draws one more pair and leaves its spare pending.
    out[i] = static_cast<float>(Normal(0.0, 1.0));
  }
}

double Rng::Exponential(double rate) {
  DFLOW_CHECK(rate > 0.0);
  return -std::log(1.0 - NextDouble()) / rate;
}

int64_t Rng::Poisson(double mean) {
  DFLOW_CHECK(mean >= 0.0);
  if (mean == 0.0) {
    return 0;
  }
  if (mean > 64.0) {
    // Normal approximation, clamped at zero.
    double x = Normal(mean, std::sqrt(mean));
    return std::max<int64_t>(0, static_cast<int64_t>(std::lround(x)));
  }
  double l = std::exp(-mean);
  int64_t k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= NextDouble();
  } while (p > l);
  return k - 1;
}

int64_t Rng::Zipf(int64_t n, double s) {
  DFLOW_CHECK(n >= 1);
  if (zipf_n_ != n || zipf_s_ != s) {
    zipf_n_ = n;
    zipf_s_ = s;
    zipf_cdf_.resize(static_cast<size_t>(n));
    double sum = 0.0;
    for (int64_t k = 1; k <= n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k), s);
      zipf_cdf_[static_cast<size_t>(k - 1)] = sum;
    }
    for (auto& c : zipf_cdf_) {
      c /= sum;
    }
  }
  double u = NextDouble();
  auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  return static_cast<int64_t>(it - zipf_cdf_.begin()) + 1;
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

Rng Rng::Fork() { return Rng(Next()); }

}  // namespace dflow
