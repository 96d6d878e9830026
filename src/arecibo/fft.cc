#include "arecibo/fft.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <mutex>
#include <numbers>

#include "simd/simd.h"
#include "util/logging.h"

namespace dflow::arecibo {

const std::vector<std::complex<double>>& FftTwiddleTable(size_t n) {
  DFLOW_CHECK(n >= 1 && (n & (n - 1)) == 0)
      << "FftTwiddleTable size must be a power of two, got " << n;
  // One slot per power of two; entries are never evicted (the survey
  // touches a handful of distinct sizes). Steady state is one acquire
  // load; the mutex only serializes first-time construction per size.
  using Table = std::vector<std::complex<double>>;
  static std::array<std::atomic<const Table*>, 64> slots{};
  std::atomic<const Table*>& slot =
      slots[static_cast<size_t>(std::countr_zero(n))];
  const Table* table = slot.load(std::memory_order_acquire);
  if (table != nullptr) {
    return *table;
  }
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  table = slot.load(std::memory_order_relaxed);
  if (table == nullptr) {
    auto* fresh = new Table(n / 2);
    for (size_t j = 0; j < n / 2; ++j) {
      const double angle = -2.0 * std::numbers::pi * static_cast<double>(j) /
                           static_cast<double>(n);
      (*fresh)[j] = std::complex<double>(std::cos(angle), std::sin(angle));
    }
    slot.store(fresh, std::memory_order_release);
    table = fresh;
  }
  return *table;
}

size_t NextPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

Status Fft(std::vector<std::complex<double>>& data, bool inverse) {
  const size_t n = data.size();
  if (n == 0 || (n & (n - 1)) != 0) {
    return Status::InvalidArgument("FFT size must be a power of two");
  }
  // Bit-reversal permutation.
  for (size_t i = 1, j = 0; i < n; ++i) {
    size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) {
      j ^= bit;
    }
    j ^= bit;
    if (i < j) {
      std::swap(data[i], data[j]);
    }
  }
  // Butterflies with cached twiddles (conjugated on the fly for the
  // inverse), dispatched through the SIMD kernel layer. The kernel table
  // is resolved once per transform, and the twiddle lookup is a single
  // acquire load in the steady state — nothing is re-derived per stage.
  const std::vector<std::complex<double>>& twiddles = FftTwiddleTable(n);
  const simd::KernelTable& kernels = simd::Kernels();
  for (size_t len = 2; len <= n; len <<= 1) {
    kernels.fft_stage(data.data(), n, len, twiddles.data(), n / len, inverse);
  }
  if (inverse) {
    kernels.div_f64(reinterpret_cast<double*>(data.data()),
                    static_cast<int64_t>(2 * n), static_cast<double>(n));
  }
  return Status::OK();
}

std::vector<std::complex<double>>& FftScratch::Complex(size_t n) {
  const std::complex<double>* before = buffer_.data();
  const size_t capacity_before = buffer_.capacity();
  buffer_.assign(n, std::complex<double>(0.0, 0.0));
  if (buffer_.capacity() != capacity_before || buffer_.data() != before) {
    ++allocations_;
  }
  return buffer_;
}

void PowerSpectrum(const std::vector<double>& series, FftScratch* scratch,
                   std::vector<double>* power) {
  const size_t n = NextPowerOfTwo(std::max<size_t>(series.size(), 2));
  std::vector<std::complex<double>>& buffer = scratch->Complex(n);
  for (size_t i = 0; i < series.size(); ++i) {
    buffer[i] = std::complex<double>(series[i], 0.0);
  }
  Status s = Fft(buffer);
  (void)s;  // Size is a power of two by construction.
  power->assign(n / 2, 0.0);
  // power[0] stays 0: suppress DC.
  for (size_t k = 1; k < n / 2; ++k) {
    (*power)[k] = std::norm(buffer[k]);
  }
}

Status PowerSpectrumPair(const std::vector<double>& a,
                         const std::vector<double>& b, FftScratch* scratch,
                         std::vector<double>* power_a,
                         std::vector<double>* power_b) {
  const size_t n = NextPowerOfTwo(std::max<size_t>(a.size(), 2));
  if (NextPowerOfTwo(std::max<size_t>(b.size(), 2)) != n) {
    return Status::InvalidArgument(
        "PowerSpectrumPair requires both series to pad to the same power "
        "of two");
  }
  std::vector<std::complex<double>>& buffer = scratch->Complex(n);
  const size_t shared = std::min(a.size(), b.size());
  for (size_t i = 0; i < shared; ++i) {
    buffer[i] = std::complex<double>(a[i], b[i]);
  }
  for (size_t i = shared; i < a.size(); ++i) {
    buffer[i] = std::complex<double>(a[i], 0.0);
  }
  for (size_t i = shared; i < b.size(); ++i) {
    buffer[i] = std::complex<double>(0.0, b[i]);
  }
  Status s = Fft(buffer);
  (void)s;  // Size is a power of two by construction.
  power_a->assign(n / 2, 0.0);
  power_b->assign(n / 2, 0.0);
  // X_k = A_k + i*B_k with A, B conjugate-symmetric:
  //   A_k = (X_k + conj(X_{n-k})) / 2
  //   B_k = (X_k - conj(X_{n-k})) / (2i)
  // DC bins stay 0 (suppressed), matching the single-series path.
  for (size_t k = 1; k < n / 2; ++k) {
    const std::complex<double> x = buffer[k];
    const std::complex<double> y = std::conj(buffer[n - k]);
    const std::complex<double> ak = 0.5 * (x + y);
    const std::complex<double> bk =
        std::complex<double>(0.0, -0.5) * (x - y);
    (*power_a)[k] = std::norm(ak);
    (*power_b)[k] = std::norm(bk);
  }
  return Status::OK();
}

}  // namespace dflow::arecibo
