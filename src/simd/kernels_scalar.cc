// Scalar reference kernels. This TU is compiled with -ffp-contract=off so
// the mul/add sequences here are the literal IEEE op sequences the vector
// tiers must reproduce — the differential gate compares against THIS code,
// not against whatever the surrounding library happened to compile to.

#include "simd/kernels.h"

namespace dflow::simd::detail {

namespace {

void AddF32ToF64(const float* src, double* acc, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    acc[i] += static_cast<double>(src[i]);
  }
}

void Add4F32ToF64(const float* r0, const float* r1, const float* r2,
                  const float* r3, double* acc, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    double sum = acc[i];
    sum += static_cast<double>(r0[i]);
    sum += static_cast<double>(r1[i]);
    sum += static_cast<double>(r2[i]);
    sum += static_cast<double>(r3[i]);
    acc[i] = sum;
  }
}

void ScaleF64(double* data, int64_t n, double factor) {
  for (int64_t i = 0; i < n; ++i) {
    data[i] *= factor;
  }
}

void DivF64(double* data, int64_t n, double divisor) {
  for (int64_t i = 0; i < n; ++i) {
    data[i] /= divisor;
  }
}

void FftStage(std::complex<double>* cdata, size_t n, size_t len,
              const std::complex<double>* ctwiddles, size_t stride,
              bool inverse) {
  // Operate on the interleaved (re, im) doubles directly: the complex
  // multiply is spelled out as mul/mul/sub + mul/mul/add so scalar and
  // vector lanes execute the identical op sequence.
  double* d = reinterpret_cast<double*>(cdata);
  const double* tw = reinterpret_cast<const double*>(ctwiddles);
  const size_t half = len / 2;
  for (size_t i = 0; i < n; i += len) {
    for (size_t k = 0; k < half; ++k) {
      const size_t a = 2 * (i + k);
      const size_t b = a + 2 * half;
      const double wr = tw[2 * k * stride];
      const double wi =
          inverse ? -tw[2 * k * stride + 1] : tw[2 * k * stride + 1];
      const double br = d[b];
      const double bi = d[b + 1];
      const double vr = br * wr - bi * wi;
      const double vi = bi * wr + br * wi;
      const double ur = d[a];
      const double ui = d[a + 1];
      d[a] = ur + vr;
      d[a + 1] = ui + vi;
      d[b] = ur - vr;
      d[b + 1] = ui - vi;
    }
  }
}

void StridedAddF64(double* acc, const double* src, int64_t stride,
                   int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    acc[i] += src[i * stride];
  }
}

void SnrBestUpdate(const double* summed, int64_t n, double bias,
                   double denom, int fold, double* best_snr,
                   int* best_fold) {
  for (int64_t i = 0; i < n; ++i) {
    const double snr = (summed[i] - bias) / denom;
    if (snr > best_snr[i]) {
      best_snr[i] = snr;
      best_fold[i] = fold;
    }
  }
}

void RankContrib(const double* rank, const int64_t* offsets, double* contrib,
                 int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const int64_t degree = offsets[i + 1] - offsets[i];
    contrib[i] =
        degree == 0 ? 0.0 : rank[i] / static_cast<double>(degree);
  }
}

}  // namespace

void FillScalar(KernelTable* table) {
  table->add_f32_to_f64 = &AddF32ToF64;
  table->add4_f32_to_f64 = &Add4F32ToF64;
  table->scale_f64 = &ScaleF64;
  table->div_f64 = &DivF64;
  table->fft_stage = &FftStage;
  table->strided_add_f64 = &StridedAddF64;
  table->snr_best_update = &SnrBestUpdate;
  table->rank_contrib = &RankContrib;
}

}  // namespace dflow::simd::detail
