#include "par/par.h"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace dflow::par {

namespace {

/// Process-wide serial override depth (SerialOverride RAII).
std::atomic<int> g_serial_depth{0};

/// Depth of parallel regions on the calling thread: a body that opens
/// another region runs it inline (keeps the pool non-reentrant).
thread_local int t_region_depth = 0;

/// Innermost ScopedPool override for this thread. The pair distinguishes
/// "no override" from "override to serial (nullptr)".
thread_local ThreadPool* t_pool_override = nullptr;
thread_local bool t_pool_overridden = false;

std::atomic<obs::MetricsRegistry*> g_metrics{nullptr};
std::atomic<obs::Tracer*> g_tracer{nullptr};

/// Shared state of one in-flight region. Pool helpers hold a shared_ptr,
/// so a helper that is scheduled after the caller already finished every
/// chunk still finds live (but exhausted) state.
struct RegionState {
  const std::function<void(int64_t, int64_t)>* body = nullptr;
  std::vector<std::pair<int64_t, int64_t>> chunks;
  std::atomic<int64_t> next_chunk{0};
  std::mutex mu;
  std::condition_variable done_cv;
  int64_t completed = 0;  // Guarded by mu.
};

/// Drains chunks from the shared cursor until none remain. Runs on pool
/// helpers AND on the calling thread.
void DrainChunks(RegionState& state) {
  ++t_region_depth;  // Nested regions inside the body serialize.
  const int64_t num_chunks = static_cast<int64_t>(state.chunks.size());
  int64_t ran = 0;
  while (true) {
    const int64_t i = state.next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (i >= num_chunks) {
      break;
    }
    const auto& span = state.chunks[static_cast<size_t>(i)];
    (*state.body)(span.first, span.second);
    ++ran;
  }
  --t_region_depth;
  if (ran > 0) {
    std::lock_guard<std::mutex> lock(state.mu);
    state.completed += ran;
    if (state.completed == num_chunks) {
      state.done_cv.notify_all();
    }
  }
}

}  // namespace

int ParseThreadsValue(const char* value, int fallback) {
  if (value == nullptr || *value == '\0') {
    return fallback;
  }
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || parsed < 1 || parsed > 4096) {
    return fallback;
  }
  return static_cast<int>(parsed);
}

int ConfiguredThreads() {
  static const int threads = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    const int fallback = hw == 0 ? 1 : static_cast<int>(hw);
    return ParseThreadsValue(std::getenv("DFLOW_THREADS"), fallback);
  }();
  return threads;
}

ThreadPool* SharedPool() {
  if (ConfiguredThreads() <= 1) {
    return nullptr;
  }
  // Leaked on purpose: workers may still be parked in the pool's condition
  // variable at exit, and destroying it from a static destructor would
  // race any code that runs later in shutdown. The pointer stays reachable
  // so leak checkers stay quiet.
  static ThreadPool* const pool = new ThreadPool(ConfiguredThreads());
  return pool;
}

SerialOverride::SerialOverride() {
  g_serial_depth.fetch_add(1, std::memory_order_relaxed);
}

SerialOverride::~SerialOverride() {
  g_serial_depth.fetch_sub(1, std::memory_order_relaxed);
}

bool SerialActive() {
  return t_region_depth > 0 ||
         g_serial_depth.load(std::memory_order_relaxed) > 0;
}

ScopedPool::ScopedPool(ThreadPool* pool)
    : previous_(t_pool_override), had_previous_(t_pool_overridden) {
  t_pool_override = pool;
  t_pool_overridden = true;
}

ScopedPool::~ScopedPool() {
  t_pool_override = previous_;
  t_pool_overridden = had_previous_;
}

void SetMetricsRegistry(obs::MetricsRegistry* registry) {
  g_metrics.store(registry, std::memory_order_relaxed);
}

void SetTracer(obs::Tracer* tracer) {
  g_tracer.store(tracer, std::memory_order_relaxed);
}

std::vector<std::pair<int64_t, int64_t>> ChunkRanges(
    int64_t begin, int64_t end, const Options& options) {
  std::vector<std::pair<int64_t, int64_t>> chunks;
  if (begin >= end) {
    return chunks;
  }
  const int64_t n = end - begin;
  const int64_t grain = options.grain < 1 ? 1 : options.grain;
  const int64_t max_chunks =
      options.max_chunks > 0 ? options.max_chunks : kDefaultMaxChunks;
  int64_t count = n / grain;
  if (count < 1) {
    count = 1;
  }
  if (count > max_chunks) {
    count = max_chunks;
  }
  chunks.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    // Uniform integer split: chunk i covers [begin + i*n/count,
    // begin + (i+1)*n/count). Boundaries depend only on (n, count).
    const int64_t lo = begin + i * n / count;
    const int64_t hi = begin + (i + 1) * n / count;
    chunks.emplace_back(lo, hi);
  }
  return chunks;
}

void ParallelFor(int64_t begin, int64_t end,
                 const std::function<void(int64_t, int64_t)>& body,
                 const Options& options) {
  if (begin >= end) {
    return;
  }

  // Resolve the executor: explicit > ScopedPool override > shared pool;
  // serial override / nesting force inline execution.
  ThreadPool* pool = options.pool;
  if (pool == nullptr) {
    pool = t_pool_overridden ? t_pool_override : SharedPool();
  }
  const bool serial = SerialActive() || pool == nullptr ||
                      pool->num_threads() <= 1;

  obs::MetricsRegistry* metrics = g_metrics.load(std::memory_order_relaxed);
  obs::Tracer* tracer = g_tracer.load(std::memory_order_relaxed);
  const char* label = options.label != nullptr ? options.label : "par.region";
  obs::SpanGuard span(tracer, label, "par");

  if (serial) {
    // Inline execution still walks the same chunk decomposition, so a
    // chunk-granular body observes identical boundaries either way.
    const auto chunks = ChunkRanges(begin, end, options);
    ++t_region_depth;
    for (const auto& [lo, hi] : chunks) {
      body(lo, hi);
    }
    --t_region_depth;
    if (metrics != nullptr) {
      metrics->GetCounter("par.regions")->Increment();
      metrics->GetCounter("par.regions_serial")->Increment();
      metrics->GetCounter("par.chunks")
          ->Add(static_cast<int64_t>(chunks.size()));
      metrics->GetCounter("par.chunks_inline")
          ->Add(static_cast<int64_t>(chunks.size()));
      metrics->GetCounter("par.items")->Add(end - begin);
    }
    span.AddArg("chunks", std::to_string(chunks.size()));
    return;
  }

  auto state = std::make_shared<RegionState>();
  state->body = &body;
  state->chunks = ChunkRanges(begin, end, options);
  const int64_t num_chunks = static_cast<int64_t>(state->chunks.size());

  // One helper per pool worker (capped by the chunk count; the caller
  // takes the place of the last helper). Helpers that arrive after the
  // cursor is exhausted exit immediately.
  const int64_t helpers =
      std::min<int64_t>(pool->num_threads(), num_chunks) - 1;
  for (int64_t h = 0; h < helpers; ++h) {
    pool->Submit([state] { DrainChunks(*state); });
  }
  DrainChunks(*state);
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->done_cv.wait(lock,
                        [&] { return state->completed == num_chunks; });
  }
  // `body` is owned by the caller and dies on return; helpers past this
  // point see an exhausted cursor and never touch it.
  state->body = nullptr;

  if (metrics != nullptr) {
    metrics->GetCounter("par.regions")->Increment();
    metrics->GetCounter("par.chunks")->Add(num_chunks);
    metrics->GetCounter("par.items")->Add(end - begin);
  }
  span.AddArg("chunks", std::to_string(num_chunks));
}

}  // namespace dflow::par
