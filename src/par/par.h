#ifndef DFLOW_PAR_PAR_H_
#define DFLOW_PAR_PAR_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "util/thread_pool.h"

namespace dflow::obs {
class MetricsRegistry;
class Tracer;
}  // namespace dflow::obs

namespace dflow::par {

/// Deterministic data-parallel layer over util::ThreadPool.
///
/// The contract every helper here honors (and every caller may rely on):
/// the RESULT of a parallel region is a pure function of its inputs — it
/// does not depend on the number of worker threads, on scheduling order,
/// or on whether the region ran serially. That is what lets the Arecibo /
/// WebLab / CLEO kernels keep their same-seed byte-identical outputs (and
/// the PR 3 golden-trace fingerprints) while using every core:
///
///  * Chunk boundaries are a fixed function of (range size, grain,
///    max_chunks) — never of the thread count. Which thread executes a
///    chunk is scheduling-dependent; what the chunk computes is not.
///  * ParallelMap writes each result into a pre-sized slot, so output
///    order is thread-count-invariant by construction.
///  * ParallelReduce combines per-chunk partials in a fixed pairwise tree
///    (never first-come-first-served), so floating-point reductions are
///    bit-stable across thread counts.
///
/// Execution model: the calling thread always participates (it grabs
/// chunks from the same shared cursor as the pool helpers), so a region
/// completes even if the shared pool is saturated with unrelated work —
/// there is no deadlock mode. Nested regions (a parallel body that opens
/// another region) run the inner region inline on the calling worker;
/// this keeps the pool non-reentrant and is still deterministic by the
/// contract above.

/// Threads the shared pool was (or would be) built with: the DFLOW_THREADS
/// environment variable if set to a positive integer, else
/// std::thread::hardware_concurrency() (minimum 1). Latched on first use.
int ConfiguredThreads();

/// Parses a DFLOW_THREADS-style value; returns fallback for null, empty,
/// non-numeric, or non-positive input. Exposed for tests.
int ParseThreadsValue(const char* value, int fallback);

/// Lazily-constructed process-wide pool with ConfiguredThreads() workers.
/// Returns nullptr when ConfiguredThreads() == 1 (fully serial process —
/// no pool is ever built). The pool is intentionally never destroyed, so
/// static-destruction order can't race in-flight work.
ThreadPool* SharedPool();

/// RAII: while alive, every parallel region in the process runs inline on
/// its calling thread (the determinism contract makes this observationally
/// equivalent; tests use it to get single-threaded replay and clean
/// coverage). Nestable; counts are balanced in the destructor.
class SerialOverride {
 public:
  SerialOverride();
  ~SerialOverride();
  SerialOverride(const SerialOverride&) = delete;
  SerialOverride& operator=(const SerialOverride&) = delete;
};

/// True when a SerialOverride is active or the calling thread is already
/// inside a parallel region (nested regions serialize).
bool SerialActive();

/// RAII: overrides the pool used by parallel regions issued from the
/// current thread (benches use it to sweep 1/2/4/8-thread pools in one
/// process). Passing nullptr forces serial execution for the scope.
/// Nestable; the innermost override wins.
class ScopedPool {
 public:
  explicit ScopedPool(ThreadPool* pool);
  ~ScopedPool();
  ScopedPool(const ScopedPool&) = delete;
  ScopedPool& operator=(const ScopedPool&) = delete;

 private:
  ThreadPool* previous_;
  bool had_previous_;
};

/// Observability: parallel regions publish deterministic counters into
/// `registry` ("par.regions", "par.regions_serial", "par.chunks",
/// "par.chunks_inline", "par.items") and one span per region ("par" /
/// label) into `tracer`. Both default to null; the disabled path is one
/// relaxed atomic load per region, matching the PR 3 convention. The
/// counters count structure (regions / fixed chunk boundaries / items),
/// not scheduling, so same work => same counter values at any thread
/// count.
void SetMetricsRegistry(obs::MetricsRegistry* registry);
void SetTracer(obs::Tracer* tracer);

struct Options {
  /// Explicit executor; nullptr means "ambient": the innermost ScopedPool
  /// if one is active on this thread, else SharedPool().
  ThreadPool* pool = nullptr;
  /// Minimum items per chunk (amortizes per-chunk overhead on cheap
  /// bodies). Chunk count = clamp((end-begin)/grain, 1, max_chunks).
  int64_t grain = 1;
  /// Cap on chunk count; 0 means kDefaultMaxChunks. Fixed per call site —
  /// NEVER derived from the thread count, or determinism would break.
  int max_chunks = 0;
  /// Region name for the "par" trace span and for profiling; defaults to
  /// "par.region".
  const char* label = nullptr;
};

inline constexpr int kDefaultMaxChunks = 64;

/// The deterministic chunk decomposition of [begin, end): contiguous
/// half-open spans covering the range exactly once. Exposed so tests can
/// pin the thread-count independence of the boundaries themselves.
std::vector<std::pair<int64_t, int64_t>> ChunkRanges(int64_t begin,
                                                     int64_t end,
                                                     const Options& options);

/// Runs body(chunk_begin, chunk_end) over the deterministic chunk
/// decomposition of [begin, end), in parallel on the resolved pool (the
/// caller participates). Returns after every chunk has run. The body must
/// only write state disjoint per index (or per chunk) — the usual
/// data-parallel contract.
void ParallelFor(int64_t begin, int64_t end,
                 const std::function<void(int64_t, int64_t)>& body,
                 const Options& options = {});

/// out[i] = fn(i) for i in [0, n), each result written into its pre-sized
/// slot — output order is thread-count-invariant by construction. T must
/// be default-constructible and movable.
template <typename T, typename Fn>
std::vector<T> ParallelMap(int64_t n, Fn&& fn, const Options& options = {}) {
  std::vector<T> out(static_cast<size_t>(n < 0 ? 0 : n));
  ParallelFor(
      0, n,
      [&out, &fn](int64_t chunk_begin, int64_t chunk_end) {
        for (int64_t i = chunk_begin; i < chunk_end; ++i) {
          out[static_cast<size_t>(i)] = fn(i);
        }
      },
      options);
  return out;
}

namespace internal {
/// Pairwise tree fold of partials[0..count): ((p0⊕p1)⊕(p2⊕p3))⊕... —
/// a fixed combine order independent of which thread produced which
/// partial. Requires count >= 1.
template <typename T, typename CombineFn>
T TreeCombine(std::vector<T>& partials, CombineFn&& combine) {
  size_t count = partials.size();
  while (count > 1) {
    size_t next = 0;
    for (size_t i = 0; i + 1 < count; i += 2) {
      partials[next++] = combine(std::move(partials[i]),
                                 std::move(partials[i + 1]));
    }
    if (count % 2 == 1) {
      partials[next++] = std::move(partials[count - 1]);
    }
    count = next;
  }
  return std::move(partials[0]);
}
}  // namespace internal

/// Deterministic parallel reduction: partial[i] = map(chunk_i_begin,
/// chunk_i_end) computed in parallel into fixed slots, then combined with
/// a pairwise tree in fixed order. Because both the chunk boundaries and
/// the combine tree are independent of the thread count, floating-point
/// results are bit-identical at 1, 2, 4, or 8 threads. Returns `identity`
/// for an empty range.
template <typename T, typename MapFn, typename CombineFn>
T ParallelReduce(int64_t begin, int64_t end, T identity, MapFn&& map,
                 CombineFn&& combine, const Options& options = {}) {
  if (begin >= end) {
    return identity;
  }
  const std::vector<std::pair<int64_t, int64_t>> chunks =
      ChunkRanges(begin, end, options);
  std::vector<T> partials(chunks.size());
  Options chunk_options = options;
  chunk_options.grain = 1;
  chunk_options.max_chunks = static_cast<int>(chunks.size());
  ParallelFor(
      0, static_cast<int64_t>(chunks.size()),
      [&partials, &chunks, &map](int64_t chunk_begin, int64_t chunk_end) {
        for (int64_t i = chunk_begin; i < chunk_end; ++i) {
          const auto& span = chunks[static_cast<size_t>(i)];
          partials[static_cast<size_t>(i)] = map(span.first, span.second);
        }
      },
      chunk_options);
  T folded = internal::TreeCombine(partials, combine);
  return combine(std::move(identity), std::move(folded));
}

}  // namespace dflow::par

#endif  // DFLOW_PAR_PAR_H_
