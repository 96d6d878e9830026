#ifndef DFLOW_SIMD_SIMD_H_
#define DFLOW_SIMD_SIMD_H_

#include <complex>
#include <cstdint>

#include "obs/metrics.h"

namespace dflow::simd {

/// Instruction-set tiers the kernel layer can dispatch to: the scalar
/// reference and AVX2. The values are what the "simd.dispatch" gauge
/// publishes, so they stay fixed.
enum class Isa {
  kScalar = 0,
  kAvx2 = 2,
};

/// Stable lowercase name ("scalar" / "avx2") — the same tokens the
/// DFLOW_SIMD environment override accepts.
const char* IsaName(Isa isa);

/// The hot inner loops of the three case studies, as a flat function
/// table. One table exists per ISA tier; dispatch picks a table ONCE at
/// first use (cpuid + DFLOW_SIMD override) and every call after that is a
/// plain indirect call — no per-call feature checks.
///
/// Determinism contract (the same one dflow::par enforces for thread
/// counts): every kernel performs, per output element, the exact IEEE-754
/// operation sequence of its scalar reference — widening loads, one
/// add/mul/div per element, no FMA contraction, no reassociation — so the
/// scalar and AVX2 tables produce byte-identical output. The kernel
/// translation units are compiled with -ffp-contract=off to pin that down.
struct KernelTable {
  /// acc[i] += (double)src[i]. The dedispersion shift-sum: float->double
  /// widening is exact, one add per element in index order.
  void (*add_f32_to_f64)(const float* src, double* acc, int64_t n);

  /// acc[i] = (((acc[i] + (double)r0[i]) + (double)r1[i]) + (double)r2[i])
  ///          + (double)r3[i]. Four dedispersion channel rows per pass, in
  /// row order: the adds of four add_f32_to_f64 calls, in their order,
  /// with one load and one store of acc[i] instead of four.
  void (*add4_f32_to_f64)(const float* r0, const float* r1, const float* r2,
                          const float* r3, double* acc, int64_t n);

  /// data[i] *= factor. Dedispersion normalization; one multiply each.
  void (*scale_f64)(double* data, int64_t n, double factor);

  /// data[i] /= divisor. Inverse-FFT 1/N normalization; one divide each.
  void (*div_f64)(double* data, int64_t n, double divisor);

  /// One radix-2 Cooley-Tukey butterfly stage over the whole length-n
  /// array: for every block of `len` and every k < len/2, with
  /// w = twiddles[k * stride] (conjugated when `inverse`),
  ///   v  = data[i+k+len/2] * w   computed as (br*wr - bi*wi,
  ///                                           bi*wr + br*wi),
  ///   data[i+k]        = u + v,
  ///   data[i+k+len/2]  = u - v.
  /// Each lane performs that exact mul/mul/sub + mul/mul/add sequence, so
  /// vector output is bit-identical to the scalar stage.
  void (*fft_stage)(std::complex<double>* data, size_t n, size_t len,
                    const std::complex<double>* twiddles, size_t stride,
                    bool inverse);

  /// acc[i] += src[i * stride]. The harmonic-summing fold gather: one add
  /// per element in index order (vector tiers may gather, but the add
  /// itself is elementwise — exact).
  void (*strided_add_f64)(double* acc, const double* src, int64_t stride,
                          int64_t n);

  /// snr = (summed[i] - bias) / denom; if snr > best_snr[i] then
  /// { best_snr[i] = snr; best_fold[i] = fold; }. Sub, div, ordered
  /// greater-than, and a select per element — all exact.
  void (*snr_best_update)(const double* summed, int64_t n, double bias,
                          double denom, int fold, double* best_snr,
                          int* best_fold);

  /// contrib[i] = deg == 0 ? 0.0 : rank[i] / (double)deg, with
  /// deg = offsets[i+1] - offsets[i]. The PageRank contribution pass:
  /// int->double conversion and one divide per element — exact.
  void (*rank_contrib)(const double* rank, const int64_t* offsets,
                       double* contrib, int64_t n);
};

/// Best tier the host CPU supports (cpuid probe; kScalar off x86).
Isa BestSupportedIsa();

/// Whether the host can execute `isa`'s kernels. kScalar is always true.
bool IsaSupported(Isa isa);

/// The tier the process dispatched to: BestSupportedIsa() clamped by the
/// DFLOW_SIMD environment override (scalar | avx2 | auto; unknown values
/// and unsupported requests fall back with a warning). Resolved once on
/// first call and latched.
Isa ActiveIsa();

/// The kernel table for ActiveIsa(). Callers resolve a reference once per
/// region (not per element) and call through it.
const KernelTable& Kernels();

/// Table for an explicit tier — the differential tests compare
/// KernelsFor(kScalar) against KernelsFor(kAvx2) within one binary.
/// Returns nullptr if the host cannot execute `isa`.
const KernelTable* KernelsFor(Isa isa);

/// Test/bench hook: re-point Kernels()/ActiveIsa() at `isa` (which must be
/// supported on this host; returns false otherwise). Not for production
/// code paths — the whole point of the layer is to dispatch once.
bool ForceIsaForTest(Isa isa);

/// Publishes the chosen tier into `registry` as the "simd.dispatch" gauge
/// (0 = scalar, 2 = avx2), so benches and scenario fingerprints can
/// assert which path produced their numbers. No-op on null.
void PublishDispatch(obs::MetricsRegistry* registry);

}  // namespace dflow::simd

#endif  // DFLOW_SIMD_SIMD_H_
