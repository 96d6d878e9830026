// Differential gate for the dflow::simd kernel layer: on a host that runs
// it, the AVX2 table must produce BYTE-IDENTICAL output to the scalar
// reference table, per kernel and end-to-end through the four ported hot
// loops (dedispersion, FFT, harmonic search, PageRank) at 1-8 threads.

#include <complex>
#include <cstring>
#include <limits>
#include <numbers>
#include <vector>

#include <gtest/gtest.h>

#include "arecibo/dedisperse.h"
#include "arecibo/fft.h"
#include "arecibo/search.h"
#include "arecibo/spectrometer.h"
#include "obs/metrics.h"
#include "par/par.h"
#include "simd/simd.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "weblab/web_graph.h"

namespace {

using namespace dflow;
using simd::Isa;
using simd::KernelTable;

std::vector<Isa> SupportedVectorTiers() {
  std::vector<Isa> tiers;
  if (simd::KernelsFor(Isa::kAvx2) != nullptr) {
    tiers.push_back(Isa::kAvx2);
  }
  return tiers;
}

template <typename T>
void ExpectBytesEqual(const std::vector<T>& a, const std::vector<T>& b,
                      const char* what, Isa isa) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), sizeof(T) * a.size()))
      << what << ": " << simd::IsaName(isa) << " diverges from scalar";
}

TEST(SimdDispatch, TableAvailabilityMatchesSupport) {
  EXPECT_NE(simd::KernelsFor(Isa::kScalar), nullptr);
  EXPECT_TRUE(simd::IsaSupported(Isa::kScalar));
  EXPECT_EQ(simd::IsaSupported(Isa::kAvx2),
            simd::KernelsFor(Isa::kAvx2) != nullptr);
  // The active tier is always one the host can actually execute.
  EXPECT_TRUE(simd::IsaSupported(simd::ActiveIsa()));
}

TEST(SimdKernels, AddF32ToF64ByteIdentical) {
  Rng rng(101);
  // Odd length exercises every tail path.
  const int64_t n = 4097;
  std::vector<float> src(static_cast<size_t>(n));
  for (auto& x : src) {
    x = static_cast<float>(rng.Normal());
  }
  std::vector<double> scalar_acc(static_cast<size_t>(n), 0.75);
  simd::KernelsFor(Isa::kScalar)->add_f32_to_f64(src.data(),
                                                 scalar_acc.data(), n);
  for (Isa isa : SupportedVectorTiers()) {
    std::vector<double> acc(static_cast<size_t>(n), 0.75);
    simd::KernelsFor(isa)->add_f32_to_f64(src.data(), acc.data(), n);
    ExpectBytesEqual(scalar_acc, acc, "add_f32_to_f64", isa);
  }
}

TEST(SimdKernels, Add4F32ToF64ByteIdenticalAtEveryLengthAndOffset) {
  Rng rng(109);
  // Four rows of one buffer, with signed zeros and infinities mixed in.
  // The NaN is the one inf - inf gives on this host, so every NaN an add
  // meets or makes has one encoding, whichever operand order the compiler
  // picks.
  const volatile float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {0.0f, -0.0f, inf, -inf, inf - inf};
  const int64_t kRow = 64;
  std::vector<float> rows(4 * kRow);
  for (auto& x : rows) {
    x = rng.Bernoulli(0.1)
            ? specials[rng.Uniform(0, 4)]
            : static_cast<float>(rng.Normal());
  }
  std::vector<double> base(48);
  for (auto& x : base) {
    x = rng.Normal() * 4.0;
  }
  const KernelTable& scalar = *simd::KernelsFor(Isa::kScalar);
  for (int64_t row_offset : {0, 1, 3}) {
    for (int64_t acc_offset : {0, 1, 3}) {
      for (int64_t n = 0; n <= 37; ++n) {
        const float* r[4];
        for (int k = 0; k < 4; ++k) {
          r[k] = rows.data() + k * kRow + row_offset;
        }
        // The reference: four single-row adds, in row order.
        std::vector<double> ref(base);
        for (int k = 0; k < 4; ++k) {
          scalar.add_f32_to_f64(r[k], ref.data() + acc_offset, n);
        }
        std::vector<double> acc(base);
        scalar.add4_f32_to_f64(r[0], r[1], r[2], r[3],
                               acc.data() + acc_offset, n);
        ExpectBytesEqual(ref, acc, "add4_f32_to_f64 vs add_f32_to_f64",
                         Isa::kScalar);
        for (Isa isa : SupportedVectorTiers()) {
          std::vector<double> out(base);
          simd::KernelsFor(isa)->add4_f32_to_f64(
              r[0], r[1], r[2], r[3], out.data() + acc_offset, n);
          ExpectBytesEqual(ref, out, "add4_f32_to_f64", isa);
        }
      }
    }
  }
}

TEST(SimdKernels, ScaleAndDivByteIdentical) {
  Rng rng(102);
  const int64_t n = 1023;
  std::vector<double> base(static_cast<size_t>(n));
  for (auto& x : base) {
    x = rng.Normal() * 3.7;
  }
  std::vector<double> scaled_ref(base);
  std::vector<double> divided_ref(base);
  simd::KernelsFor(Isa::kScalar)->scale_f64(scaled_ref.data(), n, 1.7e-3);
  simd::KernelsFor(Isa::kScalar)->div_f64(divided_ref.data(), n, 977.0);
  for (Isa isa : SupportedVectorTiers()) {
    std::vector<double> scaled(base);
    std::vector<double> divided(base);
    simd::KernelsFor(isa)->scale_f64(scaled.data(), n, 1.7e-3);
    simd::KernelsFor(isa)->div_f64(divided.data(), n, 977.0);
    ExpectBytesEqual(scaled_ref, scaled, "scale_f64", isa);
    ExpectBytesEqual(divided_ref, divided, "div_f64", isa);
  }
}

TEST(SimdKernels, FftStageByteIdenticalBothDirections) {
  Rng rng(103);
  const size_t n = 1 << 10;
  std::vector<std::complex<double>> data(n);
  for (auto& x : data) {
    x = {rng.Normal(), rng.Normal()};
  }
  std::vector<std::complex<double>> twiddles(n / 2);
  for (size_t j = 0; j < n / 2; ++j) {
    double angle = -2.0 * std::numbers::pi * static_cast<double>(j) /
                   static_cast<double>(n);
    twiddles[j] = {std::cos(angle), std::sin(angle)};
  }
  for (bool inverse : {false, true}) {
    std::vector<std::complex<double>> ref(data);
    const KernelTable& scalar = *simd::KernelsFor(Isa::kScalar);
    for (size_t len = 2; len <= n; len <<= 1) {
      scalar.fft_stage(ref.data(), n, len, twiddles.data(), n / len,
                       inverse);
    }
    for (Isa isa : SupportedVectorTiers()) {
      std::vector<std::complex<double>> out(data);
      const KernelTable& table = *simd::KernelsFor(isa);
      for (size_t len = 2; len <= n; len <<= 1) {
        table.fft_stage(out.data(), n, len, twiddles.data(), n / len,
                        inverse);
      }
      ExpectBytesEqual(ref, out,
                       inverse ? "fft_stage(inverse)" : "fft_stage", isa);
    }
  }
}

TEST(SimdKernels, StridedAddByteIdenticalAcrossStrides) {
  Rng rng(104);
  const int64_t n = 2049;
  std::vector<double> src(static_cast<size_t>(n) * 7);
  for (auto& x : src) {
    x = rng.Normal();
  }
  for (int64_t stride : {int64_t{1}, int64_t{2}, int64_t{3}, int64_t{7}}) {
    std::vector<double> ref(static_cast<size_t>(n), 0.5);
    simd::KernelsFor(Isa::kScalar)->strided_add_f64(ref.data(), src.data(),
                                                    stride, n);
    for (Isa isa : SupportedVectorTiers()) {
      std::vector<double> acc(static_cast<size_t>(n), 0.5);
      simd::KernelsFor(isa)->strided_add_f64(acc.data(), src.data(), stride,
                                             n);
      ExpectBytesEqual(ref, acc, "strided_add_f64", isa);
    }
  }
}

TEST(SimdKernels, SnrBestUpdateByteIdentical) {
  Rng rng(105);
  const int64_t n = 1537;
  std::vector<double> summed(static_cast<size_t>(n));
  for (auto& x : summed) {
    x = 8.0 + rng.Normal() * 2.0;
  }
  std::vector<double> ref_snr(static_cast<size_t>(n), 0.0);
  std::vector<int> ref_fold(static_cast<size_t>(n), 1);
  const KernelTable& scalar = *simd::KernelsFor(Isa::kScalar);
  scalar.snr_best_update(summed.data(), n, 8.0, 2.0, 2, ref_snr.data(),
                         ref_fold.data());
  scalar.snr_best_update(summed.data(), n, 7.5, 1.9, 4, ref_snr.data(),
                         ref_fold.data());
  for (Isa isa : SupportedVectorTiers()) {
    std::vector<double> snr(static_cast<size_t>(n), 0.0);
    std::vector<int> fold(static_cast<size_t>(n), 1);
    const KernelTable& table = *simd::KernelsFor(isa);
    table.snr_best_update(summed.data(), n, 8.0, 2.0, 2, snr.data(),
                          fold.data());
    table.snr_best_update(summed.data(), n, 7.5, 1.9, 4, snr.data(),
                          fold.data());
    ExpectBytesEqual(ref_snr, snr, "snr_best_update(snr)", isa);
    ExpectBytesEqual(ref_fold, fold, "snr_best_update(fold)", isa);
  }
}

TEST(SimdKernels, RankContribByteIdenticalIncludingZeroDegrees) {
  Rng rng(106);
  const int64_t n = 1025;
  std::vector<double> rank(static_cast<size_t>(n));
  for (auto& x : rank) {
    x = rng.Normal() * 0.01 + 1.0 / static_cast<double>(n);
  }
  std::vector<int64_t> offsets(static_cast<size_t>(n) + 1);
  offsets[0] = 0;
  for (int64_t i = 0; i < n; ++i) {
    // ~1/3 zero-degree (dangling) nodes: the masked-divide path.
    int64_t deg = rng.Uniform(0, 2) == 0 ? 0 : rng.Uniform(1, 9);
    offsets[static_cast<size_t>(i) + 1] =
        offsets[static_cast<size_t>(i)] + deg;
  }
  std::vector<double> ref(static_cast<size_t>(n), -2.0);
  simd::KernelsFor(Isa::kScalar)->rank_contrib(rank.data(), offsets.data(),
                                               ref.data(), n);
  for (Isa isa : SupportedVectorTiers()) {
    std::vector<double> contrib(static_cast<size_t>(n), -2.0);
    simd::KernelsFor(isa)->rank_contrib(rank.data(), offsets.data(),
                                        contrib.data(), n);
    ExpectBytesEqual(ref, contrib, "rank_contrib", isa);
  }
}

// --- End-to-end: the four ported consumers, forced scalar vs forced
// best-vector, at several thread counts. ---------------------------------

class ForcedIsa {
 public:
  explicit ForcedIsa(Isa isa) { EXPECT_TRUE(simd::ForceIsaForTest(isa)); }
  ~ForcedIsa() { simd::ForceIsaForTest(simd::BestSupportedIsa()); }
};

TEST(SimdDispatch, PublishDispatchWritesTheTierNumber) {
  // The "simd.dispatch" gauge carries the enum's value, so the numbering
  // is part of the published contract.
  static_assert(static_cast<int>(Isa::kScalar) == 0);
  static_assert(static_cast<int>(Isa::kAvx2) == 2);
  const Isa best = simd::BestSupportedIsa();
  {
    ForcedIsa forced(best);
    obs::MetricsRegistry registry;
    simd::PublishDispatch(&registry);
    EXPECT_EQ(registry.GetGauge("simd.dispatch")->Value(),
              best == Isa::kAvx2 ? 2.0 : 0.0);
  }
  {
    ForcedIsa forced(Isa::kScalar);
    obs::MetricsRegistry registry;
    registry.GetGauge("simd.dispatch")->Set(-1.0);
    simd::PublishDispatch(&registry);
    EXPECT_EQ(registry.GetGauge("simd.dispatch")->Value(), 0.0);
  }
}

TEST(SimdEndToEnd, DedisperseAndSearchByteIdenticalAcrossIsaAndThreads) {
  using namespace dflow::arecibo;
  SpectrometerModel model(32, 1 << 11, 6.4e-5, 7);
  PulsarParams pulsar;
  pulsar.period_sec = 0.05;
  pulsar.dm = 60.0;
  pulsar.pulse_amplitude = 5.0;
  DynamicSpectrum spectrum = model.Generate({pulsar}, {});
  Dedisperser dedisperser(MakeDmTrials(120.0, 4));

  std::vector<TimeSeries> ref_series;
  std::vector<Candidate> ref_candidates;
  {
    ForcedIsa forced(Isa::kScalar);
    par::SerialOverride serial;
    ref_series = dedisperser.DedisperseAll(spectrum);
    PeriodicitySearch search{SearchConfig{}};
    ref_candidates = search.Search(ref_series[1]);
  }

  const Isa best = simd::BestSupportedIsa();
  for (int threads : {1, 2, 4, 8}) {
    ForcedIsa forced(best);
    ThreadPool pool(threads);
    par::ScopedPool scoped(&pool);
    std::vector<TimeSeries> series = dedisperser.DedisperseAll(spectrum);
    ASSERT_EQ(series.size(), ref_series.size());
    for (size_t i = 0; i < series.size(); ++i) {
      ExpectBytesEqual(series[i].samples, ref_series[i].samples,
                       "DedisperseAll", best);
    }
    PeriodicitySearch search{SearchConfig{}};
    std::vector<Candidate> candidates = search.Search(series[1]);
    ASSERT_EQ(candidates.size(), ref_candidates.size()) << threads;
    for (size_t i = 0; i < candidates.size(); ++i) {
      EXPECT_EQ(std::memcmp(&candidates[i].snr, &ref_candidates[i].snr,
                            sizeof(double)),
                0);
      EXPECT_EQ(candidates[i].harmonics, ref_candidates[i].harmonics);
    }
  }
}

TEST(SimdEndToEnd, FftByteIdenticalAcrossIsa) {
  using namespace dflow::arecibo;
  Rng rng(108);
  std::vector<std::complex<double>> data(1 << 11);
  for (auto& x : data) {
    x = {rng.Normal(), rng.Normal()};
  }
  std::vector<std::complex<double>> ref(data);
  {
    ForcedIsa forced(Isa::kScalar);
    ASSERT_TRUE(Fft(ref).ok());
    ASSERT_TRUE(Fft(ref, /*inverse=*/true).ok());
  }
  for (Isa isa : SupportedVectorTiers()) {
    ForcedIsa forced(isa);
    std::vector<std::complex<double>> out(data);
    ASSERT_TRUE(Fft(out).ok());
    ASSERT_TRUE(Fft(out, /*inverse=*/true).ok());
    ExpectBytesEqual(ref, out, "Fft forward+inverse", isa);
  }
}

TEST(SimdEndToEnd, PageRankByteIdenticalAcrossIsaAndThreads) {
  using dflow::weblab::WebGraph;
  Rng rng(109);
  std::vector<std::pair<std::string, std::string>> edges;
  for (int i = 0; i < 4000; ++i) {
    edges.emplace_back("u" + std::to_string(rng.Uniform(0, 399)),
                       "u" + std::to_string(rng.Uniform(0, 399)));
  }
  WebGraph graph = WebGraph::Build(edges);

  std::vector<double> ref;
  {
    ForcedIsa forced(Isa::kScalar);
    par::SerialOverride serial;
    ref = graph.PageRank(15);
  }
  const Isa best = simd::BestSupportedIsa();
  for (int threads : {1, 2, 4, 8}) {
    ForcedIsa forced(best);
    ThreadPool pool(threads);
    par::ScopedPool scoped(&pool);
    std::vector<double> rank = graph.PageRank(15);
    ExpectBytesEqual(ref, rank, "PageRank", best);
  }
}

}  // namespace
