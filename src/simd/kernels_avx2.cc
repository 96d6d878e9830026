// AVX2 tier: 4-wide double kernels. Compiled with -mavx2 -mno-fma
// -ffp-contract=off — FMA would fuse the mul/add sequences the
// bit-identity contract pins, so it is explicitly disabled even though the
// host supports it.

#include "simd/kernels.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace dflow::simd::detail {

namespace {

void AddF32ToF64(const float* src, double* acc, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d wide = _mm256_cvtps_pd(_mm_loadu_ps(src + i));
    _mm256_storeu_pd(acc + i, _mm256_add_pd(_mm256_loadu_pd(acc + i), wide));
  }
  for (; i < n; ++i) {
    acc[i] += static_cast<double>(src[i]);
  }
}

// Two 4-lane accumulators per step; each lane adds r0, r1, r2, r3 in
// order, exactly as the scalar loop does.
void Add4F32ToF64(const float* r0, const float* r1, const float* r2,
                  const float* r3, double* acc, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256d lo = _mm256_loadu_pd(acc + i);
    __m256d hi = _mm256_loadu_pd(acc + i + 4);
    const auto add_row = [&](const float* row) {
      lo = _mm256_add_pd(lo, _mm256_cvtps_pd(_mm_loadu_ps(row + i)));
      hi = _mm256_add_pd(hi, _mm256_cvtps_pd(_mm_loadu_ps(row + i + 4)));
    };
    add_row(r0);
    add_row(r1);
    add_row(r2);
    add_row(r3);
    _mm256_storeu_pd(acc + i, lo);
    _mm256_storeu_pd(acc + i + 4, hi);
  }
  for (; i < n; ++i) {
    double sum = acc[i];
    sum += static_cast<double>(r0[i]);
    sum += static_cast<double>(r1[i]);
    sum += static_cast<double>(r2[i]);
    sum += static_cast<double>(r3[i]);
    acc[i] = sum;
  }
}

void ScaleF64(double* data, int64_t n, double factor) {
  const __m256d f = _mm256_set1_pd(factor);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(data + i, _mm256_mul_pd(_mm256_loadu_pd(data + i), f));
  }
  for (; i < n; ++i) {
    data[i] *= factor;
  }
}

void DivF64(double* data, int64_t n, double divisor) {
  const __m256d f = _mm256_set1_pd(divisor);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(data + i, _mm256_div_pd(_mm256_loadu_pd(data + i), f));
  }
  for (; i < n; ++i) {
    data[i] /= divisor;
  }
}

// Scalar butterfly used for tails / tiny stages; identical op sequence to
// the scalar reference kernel.
inline void ButterflyScalar(double* d, const double* tw, size_t a,
                            size_t half, size_t k, size_t stride,
                            bool inverse) {
  const size_t b = a + 2 * half;
  const double wr = tw[2 * k * stride];
  const double wi = inverse ? -tw[2 * k * stride + 1] : tw[2 * k * stride + 1];
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

void FftStage(std::complex<double>* cdata, size_t n, size_t len,
              const std::complex<double>* ctwiddles, size_t stride,
              bool inverse) {
  double* d = reinterpret_cast<double*>(cdata);
  const double* tw = reinterpret_cast<const double*>(ctwiddles);
  const size_t half = len / 2;
  if (half < 2) {
    // len == 2: twiddle is 1+0i; still run the uniform sequence.
    for (size_t i = 0; i < n; i += len) {
      ButterflyScalar(d, tw, 2 * i, half, 0, stride, inverse);
    }
    return;
  }
  // Negate the odd (imaginary) lanes to conjugate two packed twiddles.
  const __m256d neg_odd = _mm256_castsi256_pd(_mm256_set_epi64x(
      static_cast<long long>(0x8000000000000000ull), 0,
      static_cast<long long>(0x8000000000000000ull), 0));
  for (size_t i = 0; i < n; i += len) {
    size_t k = 0;
    for (; k + 2 <= half; k += 2) {
      const size_t a = 2 * (i + k);
      const size_t b = a + 2 * half;
      // Two packed twiddles [wr0, wi0, wr1, wi1].
      __m256d w;
      if (stride == 1) {
        w = _mm256_loadu_pd(tw + 2 * k);
      } else {
        w = _mm256_set_m128d(_mm_loadu_pd(tw + 2 * (k + 1) * stride),
                             _mm_loadu_pd(tw + 2 * k * stride));
      }
      if (inverse) {
        w = _mm256_xor_pd(w, neg_odd);
      }
      const __m256d wr = _mm256_movedup_pd(w);        // [wr0,wr0,wr1,wr1]
      const __m256d wi = _mm256_permute_pd(w, 0xF);   // [wi0,wi0,wi1,wi1]
      const __m256d bv = _mm256_loadu_pd(d + b);      // [br0,bi0,br1,bi1]
      const __m256d bs = _mm256_permute_pd(bv, 0x5);  // [bi0,br0,bi1,br1]
      // addsub: even lanes t1-t2 = br*wr - bi*wi, odd lanes t1+t2 =
      // bi*wr + br*wi — exactly the scalar formula, lane for lane.
      const __m256d v = _mm256_addsub_pd(_mm256_mul_pd(bv, wr),
                                         _mm256_mul_pd(bs, wi));
      const __m256d u = _mm256_loadu_pd(d + a);
      _mm256_storeu_pd(d + a, _mm256_add_pd(u, v));
      _mm256_storeu_pd(d + b, _mm256_sub_pd(u, v));
    }
    for (; k < half; ++k) {
      ButterflyScalar(d, tw, 2 * (i + k), half, k, stride, inverse);
    }
  }
}

void StridedAddF64(double* acc, const double* src, int64_t stride,
                   int64_t n) {
  int64_t i = 0;
  if (stride == 1) {
    for (; i + 4 <= n; i += 4) {
      _mm256_storeu_pd(acc + i, _mm256_add_pd(_mm256_loadu_pd(acc + i),
                                              _mm256_loadu_pd(src + i)));
    }
  } else {
    const __m256i idx =
        _mm256_setr_epi64x(0, stride, 2 * stride, 3 * stride);
    for (; i + 4 <= n; i += 4) {
      const __m256d gathered =
          _mm256_i64gather_pd(src + i * stride, idx, 8);
      _mm256_storeu_pd(acc + i,
                       _mm256_add_pd(_mm256_loadu_pd(acc + i), gathered));
    }
  }
  for (; i < n; ++i) {
    acc[i] += src[i * stride];
  }
}

void SnrBestUpdate(const double* summed, int64_t n, double bias,
                   double denom, int fold, double* best_snr,
                   int* best_fold) {
  const __m256d vbias = _mm256_set1_pd(bias);
  const __m256d vdenom = _mm256_set1_pd(denom);
  const __m128i vfold = _mm_set1_epi32(fold);
  // Narrow the 4x64-bit compare mask to 4x32 for the best_fold blend:
  // pick dwords 0,2,4,6 (the low half of each 64-bit lane).
  const __m256i narrow_idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d snr = _mm256_div_pd(
        _mm256_sub_pd(_mm256_loadu_pd(summed + i), vbias), vdenom);
    const __m256d best = _mm256_loadu_pd(best_snr + i);
    const __m256d gt = _mm256_cmp_pd(snr, best, _CMP_GT_OQ);
    _mm256_storeu_pd(best_snr + i, _mm256_blendv_pd(best, snr, gt));
    const __m128i gt32 = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
        _mm256_castpd_si256(gt), narrow_idx));
    const __m128i old_fold =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(best_fold + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(best_fold + i),
                     _mm_blendv_epi8(old_fold, vfold, gt32));
  }
  for (; i < n; ++i) {
    const double snr = (summed[i] - bias) / denom;
    if (snr > best_snr[i]) {
      best_snr[i] = snr;
      best_fold[i] = fold;
    }
  }
}

void RankContrib(const double* rank, const int64_t* offsets, double* contrib,
                 int64_t n) {
  const __m256i zero = _mm256_setzero_si256();
  // Dwords 0,2,4,6 of the 4x64 degree vector == the low 32 bits of each
  // degree (degrees are non-negative and < 2^31 in practice; the scalar
  // tail handles everything, and int64 degrees that large would mean a
  // single node with 2 billion out-edges).
  const __m256i narrow_idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i off_lo = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(offsets + i));
    const __m256i off_hi = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(offsets + i + 1));
    const __m256i deg64 = _mm256_sub_epi64(off_hi, off_lo);
    const __m128i deg32 = _mm256_castsi256_si128(
        _mm256_permutevar8x32_epi32(deg64, narrow_idx));
    const __m256d deg = _mm256_cvtepi32_pd(deg32);
    const __m256d q = _mm256_div_pd(_mm256_loadu_pd(rank + i), deg);
    // Zero out lanes where degree == 0 (q is inf/nan there).
    const __m256d zero_mask =
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(deg64, zero));
    _mm256_storeu_pd(contrib + i, _mm256_andnot_pd(zero_mask, q));
  }
  for (; i < n; ++i) {
    const int64_t degree = offsets[i + 1] - offsets[i];
    contrib[i] = degree == 0 ? 0.0 : rank[i] / static_cast<double>(degree);
  }
}

}  // namespace

void FillAvx2(KernelTable* table) {
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

#else  // !x86

namespace dflow::simd::detail {
void FillAvx2(KernelTable*) {}
}  // namespace dflow::simd::detail

#endif
