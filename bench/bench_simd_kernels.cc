// S1 -- the raw-speed pass: runtime-dispatched SIMD kernels.
// Paper (Section 2.1): PALFA's compute estimate is "50 to 200 processors"
// of brute-force signal processing; every factor the inner loops gain is
// processors the survey does not have to buy. This bench pins the kernel
// layer's two promises:
//
//   * determinism (always enforced): for every kernel the scalar table
//     and, on a host that runs it, the AVX2 table produce BYTE-IDENTICAL
//     output (memcmp).
//   * speed (enforced on AVX2 hosts, advisory elsewhere or with
//     DFLOW_BENCH_SIMD_ADVISORY set): >= 2.0x scalar->vector speedup on at
//     least one kernel.
//
// The "determinism" output lines hash the ACTIVE table's output (the table
// DFLOW_SIMD selects), so CI runs this binary twice — DFLOW_SIMD=scalar
// and DFLOW_SIMD=auto — and diffs those lines: any divergence means the
// dispatch layer broke bit-identity in production configuration. An
// unknown DFLOW_SIMD token falls back to the best tier, so the "active
// ISA" line then names the same tier as the "best supported ISA" line.
//
// Also emitted: the stored-bytes vs recall-latency tradeoff curve for the
// chunked tape compression (wlzc) at several block sizes, using the
// TapeLibrary timing model (mount + stored/stream + raw/decompress).
// Results land in BENCH_simd.json.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numbers>
#include <string>
#include <vector>

#include "bench/report.h"
#include "simd/simd.h"
#include "storage/tape.h"
#include "util/compress.h"
#include "util/md5.h"
#include "util/rng.h"

namespace {

using dflow::Md5;
using dflow::Rng;
using dflow::WlzChunkedStats;
using dflow::simd::Isa;
using dflow::simd::IsaName;
using dflow::simd::KernelTable;

std::string Fmt(const char* format, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), format, value);
  return buffer;
}

/// Keeps the optimizer from deleting a benchmark loop body.
inline void Escape(const void* p) {
  asm volatile("" : : "g"(p) : "memory");
}

/// Median-of-passes timing of `body` (which must already loop enough to
/// take microseconds); returns seconds per call of `body`.
template <typename F>
double TimeSec(F&& body, int passes = 5) {
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(passes));
  for (int p = 0; p < passes; ++p) {
    auto t0 = std::chrono::steady_clock::now();
    body();
    auto t1 = std::chrono::steady_clock::now();
    samples.push_back(std::chrono::duration<double>(t1 - t0).count());
  }
  std::sort(samples.begin(), samples.end());
  return samples[static_cast<size_t>(passes) / 2];
}

std::string_view Bytes(const void* p, size_t n) {
  return std::string_view(static_cast<const char*>(p), n);
}

struct KernelResult {
  std::string name;
  int64_t n = 0;
  double scalar_sec = 0.0;
  double vector_sec = 0.0;
  bool byte_identical = true;  // memcmp scalar vs AVX2 (when supported).
  std::string active_md5;      // Hash of the ACTIVE table's output.

  double speedup() const {
    return vector_sec > 0.0 ? scalar_sec / vector_sec : 0.0;
  }
};

constexpr int64_t kN = 1 << 16;
constexpr int kReps = 200;

/// Runs `fill` on the scalar table and, when the host supports it, the
/// AVX2 table, each into a fresh output buffer, and memcmps the two; also
/// hashes the ACTIVE tier's output. `fill(table, out)` must write the
/// kernel's full output into `out`.
template <typename FillFn>
void CheckIdentity(KernelResult* result, size_t out_bytes, FillFn fill) {
  std::vector<unsigned char> scalar_out(out_bytes);
  fill(*dflow::simd::KernelsFor(Isa::kScalar), scalar_out.data());
  if (const KernelTable* avx2 = dflow::simd::KernelsFor(Isa::kAvx2)) {
    std::vector<unsigned char> vec_out(out_bytes);
    fill(*avx2, vec_out.data());
    if (std::memcmp(scalar_out.data(), vec_out.data(), out_bytes) != 0) {
      result->byte_identical = false;
      dflow::bench::Note(result->name + ": " + IsaName(Isa::kAvx2) +
                         " output DIVERGES from scalar");
    }
  }
  std::vector<unsigned char> active_out(out_bytes);
  fill(dflow::simd::Kernels(), active_out.data());
  result->active_md5 = Md5::HexOf(Bytes(active_out.data(), out_bytes));
}

KernelResult BenchAddF32ToF64(const KernelTable& scalar,
                              const KernelTable& vec) {
  KernelResult r;
  r.name = "add_f32_to_f64";
  r.n = kN;
  Rng rng(11);
  std::vector<float> src(kN);
  for (auto& x : src) {
    x = static_cast<float>(rng.Normal());
  }
  std::vector<double> acc(kN, 0.0);
  auto run = [&](const KernelTable& t) {
    for (int i = 0; i < kReps; ++i) {
      t.add_f32_to_f64(src.data(), acc.data(), kN);
      Escape(acc.data());
    }
  };
  r.scalar_sec = TimeSec([&] { run(scalar); });
  r.vector_sec = TimeSec([&] { run(vec); });
  CheckIdentity(&r, sizeof(double) * kN,
                [&](const KernelTable& t, unsigned char* out) {
                  std::vector<double> a(kN, 1.5);
                  t.add_f32_to_f64(src.data(), a.data(), kN);
                  std::memcpy(out, a.data(), sizeof(double) * kN);
                });
  return r;
}

KernelResult BenchAdd4F32ToF64(const KernelTable& scalar,
                               const KernelTable& vec) {
  KernelResult r;
  r.name = "add4_f32_to_f64";
  r.n = kN;
  Rng rng(18);
  std::vector<float> rows(4 * kN);
  for (auto& x : rows) {
    x = static_cast<float>(rng.Normal());
  }
  const float* r0 = rows.data();
  const float* r1 = r0 + kN;
  const float* r2 = r1 + kN;
  const float* r3 = r2 + kN;
  std::vector<double> acc(kN, 0.0);
  auto run = [&](const KernelTable& t) {
    for (int i = 0; i < kReps; ++i) {
      t.add4_f32_to_f64(r0, r1, r2, r3, acc.data(), kN);
      Escape(acc.data());
    }
  };
  r.scalar_sec = TimeSec([&] { run(scalar); });
  r.vector_sec = TimeSec([&] { run(vec); });
  CheckIdentity(&r, sizeof(double) * kN,
                [&](const KernelTable& t, unsigned char* out) {
                  std::vector<double> a(kN, 1.5);
                  t.add4_f32_to_f64(r0, r1, r2, r3, a.data(), kN);
                  std::memcpy(out, a.data(), sizeof(double) * kN);
                });
  return r;
}

KernelResult BenchScaleF64(const KernelTable& scalar, const KernelTable& vec) {
  KernelResult r;
  r.name = "scale_f64";
  r.n = kN;
  Rng rng(12);
  std::vector<double> data(kN);
  for (auto& x : data) {
    x = rng.Normal();
  }
  auto run = [&](const KernelTable& t) {
    for (int i = 0; i < kReps; ++i) {
      t.scale_f64(data.data(), kN, 1.0000001);
      Escape(data.data());
    }
  };
  r.scalar_sec = TimeSec([&] { run(scalar); });
  r.vector_sec = TimeSec([&] { run(vec); });
  CheckIdentity(&r, sizeof(double) * kN,
                [&](const KernelTable& t, unsigned char* out) {
                  std::vector<double> d(data);
                  t.scale_f64(d.data(), kN, 0.9999371);
                  std::memcpy(out, d.data(), sizeof(double) * kN);
                });
  return r;
}

KernelResult BenchFftStage(const KernelTable& scalar, const KernelTable& vec) {
  KernelResult r;
  r.name = "fft_stage";
  const size_t n = 1 << 14;
  r.n = static_cast<int64_t>(n);
  Rng rng(13);
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
  auto all_stages = [&](const KernelTable& t,
                        std::vector<std::complex<double>>& d) {
    for (size_t len = 2; len <= n; len <<= 1) {
      t.fft_stage(d.data(), n, len, twiddles.data(), n / len, false);
    }
  };
  auto run = [&](const KernelTable& t) {
    for (int i = 0; i < 8; ++i) {
      auto copy = data;
      all_stages(t, copy);
      Escape(copy.data());
    }
  };
  r.scalar_sec = TimeSec([&] { run(scalar); });
  r.vector_sec = TimeSec([&] { run(vec); });
  CheckIdentity(&r, sizeof(std::complex<double>) * n,
                [&](const KernelTable& t, unsigned char* out) {
                  auto copy = data;
                  all_stages(t, copy);
                  std::memcpy(out, copy.data(),
                              sizeof(std::complex<double>) * n);
                });
  return r;
}

KernelResult BenchStridedAdd(const KernelTable& scalar,
                             const KernelTable& vec) {
  KernelResult r;
  r.name = "strided_add_f64";
  r.n = kN;
  Rng rng(14);
  std::vector<double> src(kN * 3);
  for (auto& x : src) {
    x = rng.Normal();
  }
  std::vector<double> acc(kN, 0.0);
  auto run = [&](const KernelTable& t) {
    for (int i = 0; i < kReps; ++i) {
      t.strided_add_f64(acc.data(), src.data(), 3, kN);
      Escape(acc.data());
    }
  };
  r.scalar_sec = TimeSec([&] { run(scalar); });
  r.vector_sec = TimeSec([&] { run(vec); });
  CheckIdentity(&r, sizeof(double) * kN,
                [&](const KernelTable& t, unsigned char* out) {
                  std::vector<double> a(kN, 0.25);
                  t.strided_add_f64(a.data(), src.data(), 3, kN);
                  t.strided_add_f64(a.data(), src.data(), 1, kN);
                  std::memcpy(out, a.data(), sizeof(double) * kN);
                });
  return r;
}

KernelResult BenchSnrBestUpdate(const KernelTable& scalar,
                                const KernelTable& vec) {
  KernelResult r;
  r.name = "snr_best_update";
  r.n = kN;
  Rng rng(15);
  std::vector<double> summed(kN);
  for (auto& x : summed) {
    x = 4.0 + rng.Normal();
  }
  std::vector<double> best_snr(kN, 0.0);
  std::vector<int> best_fold(kN, 1);
  auto run = [&](const KernelTable& t) {
    for (int i = 0; i < kReps; ++i) {
      t.snr_best_update(summed.data(), kN, 4.0, 2.0, 4, best_snr.data(),
                        best_fold.data());
      Escape(best_snr.data());
    }
  };
  r.scalar_sec = TimeSec([&] { run(scalar); });
  r.vector_sec = TimeSec([&] { run(vec); });
  CheckIdentity(&r, (sizeof(double) + sizeof(int)) * kN,
                [&](const KernelTable& t, unsigned char* out) {
                  std::vector<double> snr(kN, 0.1);
                  std::vector<int> fold(kN, 1);
                  t.snr_best_update(summed.data(), kN, 4.0, 2.0, 8,
                                    snr.data(), fold.data());
                  std::memcpy(out, snr.data(), sizeof(double) * kN);
                  std::memcpy(out + sizeof(double) * kN, fold.data(),
                              sizeof(int) * kN);
                });
  return r;
}

KernelResult BenchRankContrib(const KernelTable& scalar,
                              const KernelTable& vec) {
  KernelResult r;
  r.name = "rank_contrib";
  r.n = kN;
  Rng rng(16);
  std::vector<double> rank(kN);
  for (auto& x : rank) {
    x = 1.0 / kN + rng.Normal() * 1e-6;
  }
  std::vector<int64_t> offsets(kN + 1);
  offsets[0] = 0;
  for (int64_t i = 0; i < kN; ++i) {
    offsets[static_cast<size_t>(i) + 1] =
        offsets[static_cast<size_t>(i)] + rng.Uniform(0, 7);
  }
  std::vector<double> contrib(kN, 0.0);
  auto run = [&](const KernelTable& t) {
    for (int i = 0; i < kReps; ++i) {
      t.rank_contrib(rank.data(), offsets.data(), contrib.data(), kN);
      Escape(contrib.data());
    }
  };
  r.scalar_sec = TimeSec([&] { run(scalar); });
  r.vector_sec = TimeSec([&] { run(vec); });
  CheckIdentity(&r, sizeof(double) * kN,
                [&](const KernelTable& t, unsigned char* out) {
                  std::vector<double> c(kN, -1.0);
                  t.rank_contrib(rank.data(), offsets.data(), c.data(), kN);
                  std::memcpy(out, c.data(), sizeof(double) * kN);
                });
  return r;
}

/// One point of the stored-bytes vs recall-latency curve.
struct TradeoffPoint {
  int64_t block_bytes = 0;  // 0 = uncompressed.
  int64_t stored_bytes = 0;
  double ratio = 0.0;
  double recall_seconds = 0.0;
};

/// TapeLibrary recall-time model with default config rates.
double ModelRecallSeconds(int64_t stored, int64_t raw, bool compressed) {
  dflow::storage::TapeLibraryConfig config;
  double t = config.mount_seconds +
             static_cast<double>(stored) / config.stream_bytes_per_sec;
  if (compressed) {
    t += static_cast<double>(raw) / config.decompress_bytes_per_sec;
  }
  return t;
}

}  // namespace

int main() {
  const Isa best = dflow::simd::BestSupportedIsa();
  const Isa active = dflow::simd::ActiveIsa();
  const KernelTable& scalar = *dflow::simd::KernelsFor(Isa::kScalar);
  const KernelTable& vec = *dflow::simd::KernelsFor(best);

  dflow::bench::Header(
      "S1: SIMD kernel layer -- dispatch, bit-identity, speedup",
      "\"50 to 200 processors\" of brute-force signal processing (2.1); "
      "every kernel-layer factor is processors the survey does not buy");
  dflow::bench::Row("best supported ISA", IsaName(best));
  dflow::bench::Row("active ISA (DFLOW_SIMD)", IsaName(active));

  std::vector<KernelResult> results;
  results.push_back(BenchAddF32ToF64(scalar, vec));
  results.push_back(BenchAdd4F32ToF64(scalar, vec));
  results.push_back(BenchScaleF64(scalar, vec));
  results.push_back(BenchFftStage(scalar, vec));
  results.push_back(BenchStridedAdd(scalar, vec));
  results.push_back(BenchSnrBestUpdate(scalar, vec));
  results.push_back(BenchRankContrib(scalar, vec));

  bool all_identical = true;
  double best_speedup = 0.0;
  std::string best_kernel;
  for (const KernelResult& r : results) {
    dflow::bench::Row(
        r.name + " (n=" + std::to_string(r.n) + ")",
        Fmt("%.2f", r.speedup()) + "x " + IsaName(best) + " vs scalar" +
            (r.byte_identical ? ", byte-identical" : ", DIVERGED"));
    if (!r.byte_identical) {
      all_identical = false;
    }
    if (r.speedup() > best_speedup) {
      best_speedup = r.speedup();
      best_kernel = r.name;
    }
  }

  // The determinism lines CI diffs between DFLOW_SIMD=scalar and =auto:
  // hashes of the ACTIVE table's output for every kernel.
  for (const KernelResult& r : results) {
    std::printf("  determinism %-18s md5=%s\n", r.name.c_str(),
                r.active_md5.c_str());
  }

  // --- Compression tradeoff curve. --------------------------------------
  // Mixed survey-like payload: compressible header text + noisy samples.
  Rng rng(23);
  std::string payload;
  payload.reserve(4 << 20);
  static const char* kWords[] = {"beam", "trial", "dm", "candidate",
                                 "spectra"};
  while (payload.size() < (4u << 20)) {
    // Catalog-style records (highly repetitive) with a short noisy tail —
    // the 2-5x-on-text regime the codec documents.
    for (int field = 0; field < 6; ++field) {
      payload += kWords[rng.Uniform(0, 4)];
      payload += '=';
      payload += std::to_string(rng.Uniform(0, 9999));
      payload += ';';
    }
    for (int i = 0; i < 8; ++i) {
      payload.push_back(static_cast<char>(rng.Uniform(0, 255)));
    }
    payload += '\n';
  }
  std::vector<TradeoffPoint> curve;
  {
    TradeoffPoint raw_point;
    raw_point.block_bytes = 0;
    raw_point.stored_bytes = static_cast<int64_t>(payload.size());
    raw_point.ratio = 1.0;
    raw_point.recall_seconds = ModelRecallSeconds(
        raw_point.stored_bytes, raw_point.stored_bytes, false);
    curve.push_back(raw_point);
  }
  for (int64_t block : {4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}) {
    WlzChunkedStats stats;
    dflow::WlzChunkedCompress(payload, static_cast<size_t>(block), &stats);
    TradeoffPoint point;
    point.block_bytes = block;
    point.stored_bytes = stats.stored_bytes;
    point.ratio = stats.ratio();
    point.recall_seconds =
        ModelRecallSeconds(stats.stored_bytes, stats.raw_bytes, true);
    curve.push_back(point);
  }
  dflow::bench::Note("tape tradeoff (4 MiB payload, default drive rates):");
  for (const TradeoffPoint& p : curve) {
    dflow::bench::Row(
        p.block_bytes == 0
            ? std::string("  uncompressed")
            : "  block=" + std::to_string(p.block_bytes / 1024) + "KiB",
        "stored=" + std::to_string(p.stored_bytes) + "B ratio=" +
            Fmt("%.2f", p.ratio) + " recall=" +
            Fmt("%.2f", p.recall_seconds) + "s");
  }

  // --- Gates. -----------------------------------------------------------
  const bool advisory_env =
      std::getenv("DFLOW_BENCH_SIMD_ADVISORY") != nullptr;
  const bool enforce_speedup = best == Isa::kAvx2 && !advisory_env;
  const bool speedup_ok = best_speedup >= 2.0;
  dflow::bench::Row("best speedup",
                    Fmt("%.2f", best_speedup) + "x (" + best_kernel + ")");
  if (!enforce_speedup) {
    dflow::bench::Note(std::string("speedup gate advisory (") +
                       (advisory_env ? "DFLOW_BENCH_SIMD_ADVISORY set"
                                     : "host lacks AVX2") +
                       ")");
  }
  const bool shape_holds =
      all_identical && (speedup_ok || !enforce_speedup);

  // --- BENCH_simd.json. -------------------------------------------------
  {
    std::ofstream json("BENCH_simd.json");
    json << "{\n";
    json << "  \"bench\": \"bench_simd_kernels\",\n";
    json << "  \"best_isa\": \"" << IsaName(best) << "\",\n";
    json << "  \"active_isa\": \"" << IsaName(active) << "\",\n";
    json << "  \"kernels\": [";
    for (size_t i = 0; i < results.size(); ++i) {
      const KernelResult& r = results[i];
      json << (i == 0 ? "" : ", ") << "{\"name\": \"" << r.name
           << "\", \"n\": " << r.n << ", \"speedup\": "
           << Fmt("%.3f", r.speedup()) << ", \"byte_identical\": "
           << (r.byte_identical ? "true" : "false") << "}";
    }
    json << "],\n";
    json << "  \"speedup_gate\": {\"floor\": 2.0, \"enforced\": "
         << (enforce_speedup ? "true" : "false") << ", \"best\": "
         << Fmt("%.3f", best_speedup) << ", \"kernel\": \"" << best_kernel
         << "\"},\n";
    json << "  \"tape_tradeoff\": [";
    for (size_t i = 0; i < curve.size(); ++i) {
      const TradeoffPoint& p = curve[i];
      json << (i == 0 ? "" : ", ") << "{\"block_bytes\": " << p.block_bytes
           << ", \"stored_bytes\": " << p.stored_bytes << ", \"ratio\": "
           << Fmt("%.3f", p.ratio) << ", \"recall_seconds\": "
           << Fmt("%.3f", p.recall_seconds) << "}";
    }
    json << "],\n";
    json << "  \"byte_identical\": " << (all_identical ? "true" : "false")
         << ",\n";
    json << "  \"shape_holds\": " << (shape_holds ? "true" : "false")
         << "\n";
    json << "}\n";
  }

  dflow::bench::Footer(shape_holds);
  return shape_holds ? 0 : 1;
}
