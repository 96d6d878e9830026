// Runtime dispatch: probe cpuid once, honor the DFLOW_SIMD override, latch
// a kernel table. After the first call every Kernels() read is one relaxed
// atomic load — no per-call feature checks anywhere on the hot paths.

#include "simd/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "simd/kernels.h"
#include "util/logging.h"

namespace dflow::simd {

namespace {

struct Tables {
  KernelTable scalar;
  KernelTable avx2;
};

// Built once, immutable afterwards. The AVX2 table starts from the scalar
// one, so an entry it does not install stays the exact reference kernel.
const Tables& AllTables() {
  static const Tables tables = [] {
    Tables t;
    detail::FillScalar(&t.scalar);
    t.avx2 = t.scalar;
    detail::FillAvx2(&t.avx2);
    return t;
  }();
  return tables;
}

const KernelTable* TableFor(Isa isa) {
  const Tables& t = AllTables();
  return isa == Isa::kAvx2 ? &t.avx2 : &t.scalar;
}

Isa ProbeBestIsa() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2")) return Isa::kAvx2;
#endif
  return Isa::kScalar;
}

/// Parses DFLOW_SIMD. Unknown tokens and requests the host cannot run are
/// clamped to the best supported tier, with a warning — a bad override
/// must never silently change results or crash with SIGILL.
Isa ResolveIsa() {
  const Isa best = BestSupportedIsa();
  const char* env = std::getenv("DFLOW_SIMD");
  if (env == nullptr || *env == '\0' || std::strcmp(env, "auto") == 0) {
    return best;
  }
  Isa requested = best;
  if (std::strcmp(env, "scalar") == 0) {
    requested = Isa::kScalar;
  } else if (std::strcmp(env, "avx2") == 0) {
    requested = Isa::kAvx2;
  } else {
    DFLOW_LOG(Warning) << "DFLOW_SIMD=" << env
                       << " not recognized (want scalar|avx2|auto); using "
                       << IsaName(best);
    return best;
  }
  if (!IsaSupported(requested)) {
    DFLOW_LOG(Warning) << "DFLOW_SIMD=" << env
                       << " not supported on this host; using "
                       << IsaName(best);
    return best;
  }
  return requested;
}

std::atomic<int> g_active_isa{-1};
std::atomic<const KernelTable*> g_active_table{nullptr};
std::once_flag g_dispatch_once;

void EnsureDispatched() {
  std::call_once(g_dispatch_once, [] {
    const Isa isa = ResolveIsa();
    g_active_table.store(TableFor(isa), std::memory_order_release);
    g_active_isa.store(static_cast<int>(isa), std::memory_order_release);
  });
}

}  // namespace

const char* IsaName(Isa isa) {
  return isa == Isa::kAvx2 ? "avx2" : "scalar";
}

Isa BestSupportedIsa() {
  static const Isa best = ProbeBestIsa();
  return best;
}

bool IsaSupported(Isa isa) {
  return static_cast<int>(isa) <= static_cast<int>(BestSupportedIsa());
}

Isa ActiveIsa() {
  EnsureDispatched();
  return static_cast<Isa>(g_active_isa.load(std::memory_order_acquire));
}

const KernelTable& Kernels() {
  EnsureDispatched();
  return *g_active_table.load(std::memory_order_acquire);
}

const KernelTable* KernelsFor(Isa isa) {
  if (!IsaSupported(isa)) return nullptr;
  return TableFor(isa);
}

bool ForceIsaForTest(Isa isa) {
  if (!IsaSupported(isa)) return false;
  EnsureDispatched();
  g_active_table.store(TableFor(isa), std::memory_order_release);
  g_active_isa.store(static_cast<int>(isa), std::memory_order_release);
  return true;
}

void PublishDispatch(obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  registry->GetGauge("simd.dispatch")
      ->Set(static_cast<double>(static_cast<int>(ActiveIsa())));
}

}  // namespace dflow::simd
