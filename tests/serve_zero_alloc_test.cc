// The zero-alloc / zero-copy serve-hit regression gate. Enqueue's
// contract: once the thread-local RequestScratch is warm, a cache hit
// performs ZERO heap allocations on the calling thread and ZERO response
// body copies (the callback receives a refcount handle to the SAME
// ServiceResponse object the cache holds). This binary replaces global
// operator new/delete with counting versions to pin that down, plus the
// hit_alloc_bytes gauge and the Totals() exact-accounting stress check.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/web_service.h"
#include "obs/metrics.h"
#include "serve/request_scratch.h"
#include "serve/response_cache.h"
#include "serve/serve_loop.h"

// The replacement operator delete below intentionally frees malloc()-backed
// pointers (the matching replacement operator new mallocs them); GCC cannot
// see the pairing across the replacement boundary.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {

// Per-thread allocation instrumentation. thread_local so worker-thread and
// test-runner allocations never pollute each other's counts.
thread_local int64_t t_allocs = 0;
thread_local int64_t t_frees = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept {
  ++t_frees;
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}

namespace {

using namespace dflow;
using core::ServiceRequest;
using core::ServiceResponse;
using serve::ResponsePtr;
using serve::ServeConfig;
using serve::ServeLoop;
using serve::ShardedResponseCache;

class EchoService : public core::WebService {
 public:
  Result<ServiceResponse> Handle(const ServiceRequest& request) override {
    ServiceResponse response;
    response.body = "payload-for:" + request.path;
    response.body.append(2048, 'x');  // Big enough that a copy would show.
    return response;  // cache_max_age_sec 0: cacheable, default TTL.
  }
  std::vector<std::string> Endpoints() const override { return {"item"}; }
  const std::string& name() const override { return name_; }

 private:
  std::string name_ = "echo";
};

ServiceRequest MakeRequest(int i) {
  ServiceRequest request;
  request.path = "svc/item/" + std::to_string(i % 4);
  request.params["q"] = std::to_string(i % 4);
  return request;
}

TEST(ServeZeroAlloc, CacheHitPathAllocatesNothing) {
  core::ServiceRegistry registry;
  ASSERT_TRUE(
      registry.Mount("svc", std::make_shared<EchoService>()).ok());
  ShardedResponseCache cache(serve::CacheConfig{});
  ServeConfig config;
  config.num_workers = 2;
  ServeLoop loop(&registry, config, &cache);

  // Requests are pre-built OUTSIDE the counting window: the gate is about
  // the serve path, not the test's own request construction.
  std::vector<ServiceRequest> requests;
  for (int i = 0; i < 4; ++i) {
    requests.push_back(MakeRequest(i));
  }

  // Warm: misses populate the cache; the first hits warm this thread's
  // RequestScratch key buffer to its high-water capacity.
  for (int i = 0; i < 16; ++i) {
    Result<ResponsePtr> result =
        loop.ExecuteShared(requests[static_cast<size_t>(i) % 4]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }

  // Steady state: every request below is a cache hit served inline on THIS
  // thread. The callback must not allocate either — it only reads. (Two
  // reference captures: fits std::function's small-object buffer, so
  // passing `done` by value below does not allocate.)
  const void* last_body_data = nullptr;
  int64_t hits_delivered = 0;
  ServeLoop::DoneFn done = [&](const Result<ResponsePtr>& result) {
    if (result.ok()) {
      last_body_data = (*result)->body.data();
      ++hits_delivered;
    }
  };

  // One more warm pass so the loop's internals reach steady state before
  // counting starts.
  ASSERT_TRUE(loop.Enqueue(requests[0], done).ok());

  const int64_t allocs_before = t_allocs;
  const int64_t frees_before = t_frees;
  const int64_t hit_bytes_before = loop.Stats().hit_alloc_bytes;
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(
        loop.Enqueue(requests[static_cast<size_t>(i) % 4], done).ok());
  }
  const int64_t allocs_delta = t_allocs - allocs_before;
  const int64_t frees_delta = t_frees - frees_before;

  EXPECT_EQ(allocs_delta, 0) << "cache-hit path allocated";
  EXPECT_EQ(frees_delta, 0) << "cache-hit path freed (so also allocated)";
  EXPECT_EQ(loop.Stats().hit_alloc_bytes, hit_bytes_before)
      << "hit_alloc_bytes gauge moved in steady state";
  EXPECT_EQ(hits_delivered, 65);
  EXPECT_NE(last_body_data, nullptr);

  serve::ServeStats stats = loop.Stats();
  EXPECT_GE(stats.cache_hits, 65);
}

TEST(ServeZeroAlloc, HitHandsOutTheCachedObjectNoBodyCopy) {
  core::ServiceRegistry registry;
  ASSERT_TRUE(
      registry.Mount("svc", std::make_shared<EchoService>()).ok());
  ShardedResponseCache cache(serve::CacheConfig{});
  ServeLoop loop(&registry, ServeConfig{}, &cache);

  ServiceRequest request = MakeRequest(1);
  Result<ResponsePtr> first = loop.ExecuteShared(request);  // Miss.
  ASSERT_TRUE(first.ok());
  Result<ResponsePtr> second = loop.ExecuteShared(request);  // Hit.
  ASSERT_TRUE(second.ok());
  Result<ResponsePtr> third = loop.ExecuteShared(request);  // Hit.
  ASSERT_TRUE(third.ok());

  // Zero-copy: both hits alias the SAME immutable response object the
  // cache holds — pointer identity, not just equal bytes.
  EXPECT_EQ(second->get(), third->get());
  EXPECT_EQ((*second)->body.data(), (*third)->body.data());
  // The handle keeps the body alive independent of the cache.
  cache.Clear();
  EXPECT_EQ((*second)->body.compare(0, 12, "payload-for:"), 0);
}

TEST(ServeZeroAlloc, RequestScratchReusesBlocksAcrossReset) {
  serve::RequestScratch& scratch = serve::RequestScratch::ForThisThread();
  scratch.Reset();
  const int64_t allocations_before = scratch.allocations();
  void* a = scratch.Alloc(512);
  ASSERT_NE(a, nullptr);
  // Alignment contract.
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % 8, 0u);
  scratch.Reset();
  void* b = scratch.Alloc(512);
  EXPECT_EQ(a, b) << "Reset() must retain and reuse blocks";
  scratch.Reset();
  // Steady state: no new blocks after warmup for same-shape usage.
  for (int i = 0; i < 100; ++i) {
    scratch.Alloc(256);
    scratch.Alloc(256);
    scratch.Reset();
  }
  EXPECT_LE(scratch.allocations() - allocations_before, 1);
}

// Satellite: the Totals() counter-read race. Totals() snapshots each
// shard's counters under that shard's lock, so under heavy concurrent
// mutation the FINAL totals must account for every operation exactly —
// no torn or mid-update reads. Run under TSan via the stress label.
TEST(ServeZeroAllocStress, CacheTotalsExactUnderConcurrentMutation) {
  serve::CacheConfig config;
  config.num_shards = 8;
  ShardedResponseCache cache(config);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;

  std::atomic<int64_t> lookups{0};
  std::atomic<int64_t> inserts{0};
  std::atomic<bool> totals_ok{true};
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        std::string key =
            "k" + std::to_string((t * 37 + i * 13) % 512);
        if (i % 3 == 0) {
          ServiceResponse response;
          response.body = "v" + std::to_string(i);
          cache.InsertShared(
              key, std::make_shared<const ServiceResponse>(std::move(response)),
              /*now_sec=*/0.0);
          inserts.fetch_add(1, std::memory_order_relaxed);
        } else {
          cache.LookupShared(key, /*now_sec=*/0.0);
          lookups.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // A reader hammering Totals() concurrently: every snapshot must be
  // internally consistent (hits+misses never exceed issued lookups, and
  // monotone non-decreasing across reads).
  threads.emplace_back([&] {
    int64_t last_ops = 0;
    for (int i = 0; i < 2000; ++i) {
      serve::CacheStats totals = cache.Totals();
      int64_t ops = totals.hits + totals.misses;
      if (ops < last_ops ||
          ops > lookups.load(std::memory_order_relaxed) + kThreads) {
        totals_ok.store(false, std::memory_order_relaxed);
      }
      last_ops = ops;
    }
  });
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_TRUE(totals_ok.load());

  serve::CacheStats totals = cache.Totals();
  EXPECT_EQ(totals.hits + totals.misses, lookups.load());
  EXPECT_EQ(totals.inserts, inserts.load());
}

// The "serve.hit_alloc_bytes" gauge loses no update when many threads warm
// their key buffers at once: fresh threads (each with a cold RequestScratch)
// race their first, growing requests through one loop, and the gauge must
// equal both Stats().hit_alloc_bytes and the growth the threads' own
// scratches recorded. Run under TSan via the stress label.
TEST(ServeZeroAllocStress, HitAllocGaugeExactUnderConcurrentWarmup) {
  core::ServiceRegistry registry;
  ASSERT_TRUE(
      registry.Mount("svc", std::make_shared<EchoService>()).ok());
  ShardedResponseCache cache(serve::CacheConfig{});
  obs::MetricsRegistry metrics;
  ServeConfig config;
  config.num_workers = 2;
  config.max_queue_depth = 256;
  config.metrics = &metrics;
  ServeLoop loop(&registry, config, &cache);

  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::vector<int64_t> grown(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      serve::RequestScratch& scratch = serve::RequestScratch::ForThisThread();
      const int64_t before = scratch.allocated_bytes();
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      // Ever-longer keys: every request grows this thread's key buffer.
      for (size_t len : {16u, 200u, 3000u}) {
        ServiceRequest request = MakeRequest(t);
        request.params["pad"] = std::string(len, 'p');
        EXPECT_TRUE(loop.ExecuteShared(request).ok());
      }
      grown[static_cast<size_t>(t)] = scratch.allocated_bytes() - before;
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  loop.Drain();

  int64_t total_grown = 0;
  for (int64_t bytes : grown) {
    EXPECT_GT(bytes, 0);
    total_grown += bytes;
  }
  const int64_t stats_bytes = loop.Stats().hit_alloc_bytes;
  EXPECT_EQ(stats_bytes, total_grown);
  EXPECT_EQ(static_cast<int64_t>(
                metrics.GetGauge("serve.hit_alloc_bytes")->Value()),
            stats_bytes);
}

}  // namespace
