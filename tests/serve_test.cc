// The dissemination tier (src/serve): sharded response cache, admission
// control with load shedding and retry-after hints, per-request deadlines,
// seeded Zipf workload generation, and log-bucketed tail-latency
// histograms. The `stress` portions hammer the cache and the ServeLoop
// from >= 8 concurrent clients and are meant to run under ASan/TSan.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/web_service.h"
#include "obs/latency_histogram.h"
#include "serve/response_cache.h"
#include "serve/serve_loop.h"
#include "serve/workload_gen.h"
#include "util/rng.h"

namespace dflow {
namespace {

using core::ServiceRequest;
using core::ServiceResponse;
using obs::LatencyHistogram;
using serve::CacheConfig;
using serve::CacheStats;
using serve::ResponsePtr;
using serve::ServeConfig;
using serve::ServeLoop;
using serve::ShardedResponseCache;
using serve::WorkloadGen;

ServiceRequest Req(const std::string& path,
                   std::map<std::string, std::string> params = {}) {
  ServiceRequest request;
  request.path = path;
  request.params = std::move(params);
  return request;
}

// ---------------------------------------------------------------------------
// A controllable, thread-safe backend.

/// Endpoints:
///   echo?x=V     -> body "echo:V"
///   gate         -> blocks until Release() (for filling the queue)
///   boom         -> Internal error
///   nocache      -> OK but kUncacheable
///   ttl          -> OK with cache_max_age_sec = 0.15
class FakeService : public core::WebService {
 public:
  Result<ServiceResponse> Handle(const ServiceRequest& request) override {
    calls_.fetch_add(1);
    if (request.path == "gate") {
      std::unique_lock<std::mutex> lock(mu_);
      ++waiting_;
      entered_.notify_all();
      released_.wait(lock, [this] { return open_; });
    } else if (request.path == "boom") {
      return Status::Internal("boom");
    }
    ServiceResponse response;
    response.body = "echo:" + request.Param("x", request.path);
    if (request.path == "nocache") {
      response.cache_max_age_sec = ServiceResponse::kUncacheable;
    } else if (request.path == "ttl") {
      response.cache_max_age_sec = 0.15;
    }
    return response;
  }
  std::vector<std::string> Endpoints() const override {
    return {"echo", "gate", "boom", "nocache", "ttl"};
  }
  const std::string& name() const override { return name_; }

  /// Blocks until `n` gate requests are parked inside Handle().
  void AwaitWaiters(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    entered_.wait(lock, [this, n] { return waiting_ >= n; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    released_.notify_all();
  }
  int64_t calls() const { return calls_.load(); }

 private:
  std::string name_ = "fake";
  std::atomic<int64_t> calls_{0};
  std::mutex mu_;
  std::condition_variable entered_;
  std::condition_variable released_;
  int waiting_ = 0;
  bool open_ = false;
};

struct Harness {
  core::ServiceRegistry registry;
  std::shared_ptr<FakeService> fake = std::make_shared<FakeService>();
  Harness() { EXPECT_TRUE(registry.Mount("svc", fake).ok()); }
};

// ---------------------------------------------------------------------------
// LatencyHistogram.

TEST(LatencyHistogramTest, EmptyAndSingle) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.Percentile(0.99), 0.0);
  h.Record(0.010);
  EXPECT_EQ(h.count(), 1);
  EXPECT_DOUBLE_EQ(h.min_sec(), 0.010);
  EXPECT_DOUBLE_EQ(h.max_sec(), 0.010);
  // Single observation: every percentile is that observation (clamped).
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 0.010);
  EXPECT_DOUBLE_EQ(h.Percentile(0.999), 0.010);
}

TEST(LatencyHistogramTest, PercentilesWithinBucketError) {
  LatencyHistogram h;
  // 1ms..1000ms uniformly.
  for (int i = 1; i <= 1000; ++i) {
    h.Record(i * 1e-3);
  }
  EXPECT_EQ(h.count(), 1000);
  // Log-bucketed with growth 1.25: relative error bound ~25%.
  EXPECT_NEAR(h.Percentile(0.50), 0.500, 0.500 * 0.25);
  EXPECT_NEAR(h.Percentile(0.90), 0.900, 0.900 * 0.25);
  EXPECT_NEAR(h.Percentile(0.99), 0.990, 0.990 * 0.25);
  EXPECT_DOUBLE_EQ(h.min_sec(), 1e-3);
  EXPECT_DOUBLE_EQ(h.max_sec(), 1.0);
  EXPECT_NEAR(h.mean_sec(), 0.5005, 1e-9);
}

TEST(LatencyHistogramTest, MergeMatchesCombinedRecording) {
  LatencyHistogram a, b, combined;
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    double v = rng.Exponential(100.0);
    (i % 2 == 0 ? a : b).Record(v);
    combined.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  // Summation order differs between the two paths; allow FP slack.
  EXPECT_NEAR(a.total_sec(), combined.total_sec(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min_sec(), combined.min_sec());
  EXPECT_DOUBLE_EQ(a.max_sec(), combined.max_sec());
  for (double p : {0.5, 0.9, 0.99, 0.999}) {
    EXPECT_DOUBLE_EQ(a.Percentile(p), combined.Percentile(p)) << p;
  }
}

TEST(LatencyHistogramTest, BucketIndexMonotone) {
  int prev = -1;
  for (double v = 1e-7; v < 100.0; v *= 1.1) {
    int idx = LatencyHistogram::BucketIndex(v);
    EXPECT_GE(idx, prev);
    EXPECT_GE(idx, 0);
    EXPECT_LT(idx, LatencyHistogram::kNumBuckets);
    EXPECT_LE(LatencyHistogram::BucketLowerBound(idx), v * (1 + 1e-9));
    prev = idx;
  }
  EXPECT_EQ(LatencyHistogram::BucketIndex(0.0), 0);
  EXPECT_EQ(LatencyHistogram::BucketIndex(-1.0), 0);
}

// ---------------------------------------------------------------------------
// ShardedResponseCache.

TEST(ResponseCacheTest, CanonicalKeyIsOrderInsensitiveAndUnambiguous) {
  ServiceRequest a = Req("svc/echo", {{"b", "2"}, {"a", "1"}});
  ServiceRequest b = Req("svc/echo", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(ShardedResponseCache::CanonicalKey(a),
            ShardedResponseCache::CanonicalKey(b));
  // Different split of the same concatenated bytes must not collide.
  ServiceRequest c = Req("svc/echo", {{"ab", "1"}});
  ServiceRequest d = Req("svc/echo", {{"a", "b1"}});
  EXPECT_NE(ShardedResponseCache::CanonicalKey(c),
            ShardedResponseCache::CanonicalKey(d));
  // Params distinguish from bare path.
  EXPECT_NE(ShardedResponseCache::CanonicalKey(Req("svc/echo")),
            ShardedResponseCache::CanonicalKey(Req("svc/echo", {{"a", ""}})));
}

serve::ResponsePtr Body(const std::string& body) {
  ServiceResponse r;
  r.body = body;
  return std::make_shared<const ServiceResponse>(std::move(r));
}

TEST(ResponseCacheTest, HitMissAndCounters) {
  ShardedResponseCache cache(CacheConfig{4, 1 << 20, 0.0});
  EXPECT_EQ(cache.LookupShared("k1", 0.0), nullptr);
  cache.InsertShared("k1", Body("v1"), 0.0);
  auto hit = cache.LookupShared("k1", 1.0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->body, "v1");
  CacheStats stats = cache.Totals();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.inserts, 1);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_NEAR(stats.hit_rate(), 0.5, 1e-12);
}

TEST(ResponseCacheTest, LruEvictionRespectsRecency) {
  // Single shard so recency order is total; capacity fits ~3 entries
  // (76B each: 64B overhead + 1B key + 1B body + 10B content type).
  ShardedResponseCache cache(CacheConfig{1, 240, 0.0});
  cache.InsertShared("a", Body("1"), 0.0);
  cache.InsertShared("b", Body("2"), 0.0);
  cache.InsertShared("c", Body("3"), 0.0);
  EXPECT_EQ(cache.Totals().entries, 3u);
  // Touch "a" so "b" is now the LRU victim.
  EXPECT_NE(cache.LookupShared("a", 1.0), nullptr);
  cache.InsertShared("d", Body("4"), 1.0);
  EXPECT_NE(cache.LookupShared("a", 2.0), nullptr);
  EXPECT_EQ(cache.LookupShared("b", 2.0), nullptr);  // Evicted.
  EXPECT_NE(cache.LookupShared("c", 2.0), nullptr);
  EXPECT_NE(cache.LookupShared("d", 2.0), nullptr);
  EXPECT_GE(cache.Totals().evictions, 1);
  EXPECT_LE(cache.Totals().bytes, 240u);
}

TEST(ResponseCacheTest, TtlExpiry) {
  ShardedResponseCache cache(CacheConfig{2, 1 << 20, 10.0});
  cache.InsertShared("k", Body("v"), 100.0);  // Default TTL 10s.
  EXPECT_NE(cache.LookupShared("k", 105.0), nullptr);
  EXPECT_EQ(cache.LookupShared("k", 110.0), nullptr);  // Expired at 110.
  EXPECT_EQ(cache.Totals().expirations, 1);
  EXPECT_EQ(cache.Totals().entries, 0u);

  // Per-insert TTL tightens the default.
  cache.InsertShared("k2", Body("v"), 100.0, 2.0);
  EXPECT_NE(cache.LookupShared("k2", 101.0), nullptr);
  EXPECT_EQ(cache.LookupShared("k2", 102.5), nullptr);

  // With no default TTL, entries never expire.
  ShardedResponseCache forever(CacheConfig{2, 1 << 20, 0.0});
  forever.InsertShared("k", Body("v"), 0.0);
  EXPECT_NE(forever.LookupShared("k", 1e12), nullptr);
}

TEST(ResponseCacheTest, ReplaceAndEraseAndOversize) {
  ShardedResponseCache cache(CacheConfig{2, 4096, 0.0});
  cache.InsertShared("k", Body("old"), 0.0);
  cache.InsertShared("k", Body("new"), 0.0);
  EXPECT_EQ(cache.Totals().entries, 1u);
  EXPECT_EQ(cache.LookupShared("k", 0.0)->body, "new");
  EXPECT_TRUE(cache.Erase("k"));
  EXPECT_FALSE(cache.Erase("k"));
  EXPECT_EQ(cache.LookupShared("k", 0.0), nullptr);

  // An entry bigger than one shard's slice (4096/2) is skipped entirely.
  cache.InsertShared("big", Body(std::string(3000, 'x')), 0.0);
  EXPECT_EQ(cache.LookupShared("big", 0.0), nullptr);
  EXPECT_EQ(cache.Totals().entries, 0u);
}

TEST(ResponseCacheTest, ShardCountersSumToTotals) {
  ShardedResponseCache cache(CacheConfig{8, 1 << 20, 0.0});
  for (int i = 0; i < 100; ++i) {
    std::string key = "key" + std::to_string(i);
    cache.InsertShared(key, Body("v"), 0.0);
    cache.LookupShared(key, 0.0);
    cache.LookupShared("absent" + std::to_string(i), 0.0);
  }
  CacheStats total = cache.Totals();
  EXPECT_EQ(total.hits, 100);
  EXPECT_EQ(total.misses, 100);
  EXPECT_EQ(total.inserts, 100);
  int64_t hits = 0, misses = 0;
  size_t entries = 0;
  int populated_shards = 0;
  for (int s = 0; s < cache.num_shards(); ++s) {
    CacheStats stats = cache.ShardStats(s);
    hits += stats.hits;
    misses += stats.misses;
    entries += stats.entries;
    populated_shards += stats.entries > 0 ? 1 : 0;
  }
  EXPECT_EQ(hits, total.hits);
  EXPECT_EQ(misses, total.misses);
  EXPECT_EQ(entries, total.entries);
  // FNV spreads 100 keys over most of 8 shards.
  EXPECT_GE(populated_shards, 6);
}

// Stress: >= 8 threads of mixed lookup/insert/erase. Run under ASan/TSan
// via the `stress` ctest label; invariants checked at the end.
TEST(ResponseCacheStressTest, ConcurrentMixedOps) {
  ShardedResponseCache cache(CacheConfig{16, 64 << 10, 0.5});
  constexpr int kThreads = 12;
  constexpr int kOpsPerThread = 4000;
  constexpr int kKeySpace = 300;
  std::atomic<int64_t> observed_hits{0};
  std::atomic<int64_t> observed_lookups{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &observed_hits, &observed_lookups, t] {
      Rng rng(1000 + static_cast<uint64_t>(t));
      for (int i = 0; i < kOpsPerThread; ++i) {
        std::string key =
            "k" + std::to_string(rng.Uniform(0, kKeySpace - 1));
        double now = i * 1e-4;
        int64_t op = rng.Uniform(0, 9);
        if (op < 6) {
          observed_lookups.fetch_add(1);
          if (cache.LookupShared(key, now) != nullptr) {
            observed_hits.fetch_add(1);
          }
        } else if (op < 9) {
          cache.InsertShared(
              key,
              Body(std::string(static_cast<size_t>(rng.Uniform(1, 200)),
                               'x')),
              now);
        } else {
          cache.Erase(key);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  CacheStats stats = cache.Totals();
  EXPECT_EQ(stats.hits + stats.misses, observed_lookups.load());
  EXPECT_EQ(stats.hits, observed_hits.load());
  EXPECT_LE(stats.bytes, 64u << 10);
  EXPECT_GT(stats.hits, 0);
  EXPECT_GT(stats.inserts, 0);
}

// ---------------------------------------------------------------------------
// WorkloadGen.

std::vector<ServiceRequest> TestPopulation(int n) {
  std::vector<ServiceRequest> population;
  population.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    population.push_back(Req("svc/echo", {{"x", std::to_string(i)}}));
  }
  return population;
}

TEST(WorkloadGenTest, SameSeedSameStream) {
  WorkloadGen a(TestPopulation(200), 1.1, 42);
  WorkloadGen b(TestPopulation(200), 1.1, 42);
  EXPECT_EQ(a.Fingerprint(5000), b.Fingerprint(5000));
  WorkloadGen c(TestPopulation(200), 1.1, 43);
  WorkloadGen d(TestPopulation(200), 1.1, 42);
  EXPECT_NE(c.Fingerprint(5000), d.Fingerprint(5000));
}

TEST(WorkloadGenTest, OpenLoopScheduleIsDeterministicAndPoissonish) {
  WorkloadGen a(TestPopulation(50), 1.0, 7);
  WorkloadGen b(TestPopulation(50), 1.0, 7);
  auto sched_a = a.OpenLoopSchedule(1000.0, 2.0);
  auto sched_b = b.OpenLoopSchedule(1000.0, 2.0);
  ASSERT_EQ(sched_a.size(), sched_b.size());
  for (size_t i = 0; i < sched_a.size(); ++i) {
    EXPECT_DOUBLE_EQ(sched_a[i].at_sec, sched_b[i].at_sec);
    EXPECT_EQ(ShardedResponseCache::CanonicalKey(sched_a[i].request),
              ShardedResponseCache::CanonicalKey(sched_b[i].request));
  }
  // ~2000 arrivals expected; Poisson sd ~45.
  EXPECT_NEAR(static_cast<double>(sched_a.size()), 2000.0, 250.0);
  // Sorted times within the window.
  for (size_t i = 1; i < sched_a.size(); ++i) {
    EXPECT_GE(sched_a[i].at_sec, sched_a[i - 1].at_sec);
  }
  EXPECT_LT(sched_a.back().at_sec, 2.0);
}

TEST(WorkloadGenTest, ZipfSkewConcentratesOnHotEndpoints) {
  auto top_fraction = [](double s) {
    WorkloadGen gen(TestPopulation(100), s, 11);
    size_t hot_index = gen.rank_to_index()[0];
    int hot = 0;
    constexpr int kDraws = 20000;
    for (int i = 0; i < kDraws; ++i) {
      const ServiceRequest& request = gen.Next();
      if (request.params.at("x") == std::to_string(hot_index)) {
        ++hot;
      }
    }
    return static_cast<double>(hot) / kDraws;
  };
  double uniform = top_fraction(0.0);
  double zipf1 = top_fraction(1.0);
  double zipf14 = top_fraction(1.4);
  EXPECT_NEAR(uniform, 0.01, 0.005);  // 1/100.
  EXPECT_GT(zipf1, 5 * uniform);
  EXPECT_GT(zipf14, zipf1);
}

TEST(WorkloadGenTest, ForkDecorrelatesButStaysDeterministic) {
  WorkloadGen parent_a(TestPopulation(100), 1.0, 9);
  WorkloadGen parent_b(TestPopulation(100), 1.0, 9);
  WorkloadGen child_a = parent_a.Fork();
  WorkloadGen child_b = parent_b.Fork();
  // Same-seed parents fork identical children...
  EXPECT_EQ(child_a.Fingerprint(1000), child_b.Fingerprint(1000));
  // ...whose streams differ from the parents'.
  EXPECT_NE(parent_a.Fingerprint(1000), child_b.Fingerprint(1000));
}

// The Fork() contract the scenario harnesses lean on: child i depends
// only on the parent seed and the number of forks taken BEFORE it, so a
// harness that later adds more closed-loop clients never perturbs the
// streams (or fingerprints) of the existing ones.
TEST(WorkloadGenTest, ForkStreamsAreStableAcrossForkCount) {
  WorkloadGen two_forks(TestPopulation(100), 1.0, 9);
  WorkloadGen six_forks(TestPopulation(100), 1.0, 9);
  std::vector<std::string> prints_two;
  std::vector<WorkloadGen> children_six;
  for (int i = 0; i < 2; ++i) {
    prints_two.push_back(two_forks.Fork().Fingerprint(1000));
  }
  for (int i = 0; i < 6; ++i) {
    children_six.push_back(six_forks.Fork());
  }
  // The first two children are identical whether 2 or 6 forks are taken.
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(children_six[static_cast<size_t>(i)].Fingerprint(1000),
              prints_two[static_cast<size_t>(i)]);
  }
  // Siblings are pairwise decorrelated (distinct streams).
  std::vector<std::string> prints_six;
  for (WorkloadGen& child : children_six) {
    prints_six.push_back(child.Fingerprint(1000));
  }
  for (size_t i = 0; i < prints_six.size(); ++i) {
    for (size_t j = i + 1; j < prints_six.size(); ++j) {
      EXPECT_NE(prints_six[i], prints_six[j]) << i << " vs " << j;
    }
  }
}

TEST(WorkloadGenTest, OpenLoopScheduleRateThinsDeterministically) {
  // Linearly ramping intensity 0 -> 1000 req/s over 2s.
  auto ramp = [](double t) { return 500.0 * t; };
  WorkloadGen a(TestPopulation(50), 1.0, 7);
  WorkloadGen b(TestPopulation(50), 1.0, 7);
  auto sched_a = a.OpenLoopScheduleRate(ramp, 1000.0, 2.0);
  auto sched_b = b.OpenLoopScheduleRate(ramp, 1000.0, 2.0);
  ASSERT_EQ(sched_a.size(), sched_b.size());
  for (size_t i = 0; i < sched_a.size(); ++i) {
    EXPECT_DOUBLE_EQ(sched_a[i].at_sec, sched_b[i].at_sec);
    EXPECT_EQ(ShardedResponseCache::CanonicalKey(sched_a[i].request),
              ShardedResponseCache::CanonicalKey(sched_b[i].request));
  }
  // ~1000 arrivals expected in total, concentrated in the second half of
  // the window (integral of the ramp: 250 vs 750).
  EXPECT_NEAR(static_cast<double>(sched_a.size()), 1000.0, 150.0);
  size_t early = 0;
  for (size_t i = 1; i < sched_a.size(); ++i) {
    EXPECT_GE(sched_a[i].at_sec, sched_a[i - 1].at_sec);  // Sorted.
    if (sched_a[i].at_sec < 1.0) {
      ++early;
    }
  }
  EXPECT_LT(early, sched_a.size() / 2);
  EXPECT_LT(sched_a.back().at_sec, 2.0);
}

// ---------------------------------------------------------------------------
// ServeLoop.

ServeConfig SmallConfig(int workers, size_t queue_depth) {
  ServeConfig config;
  config.num_workers = workers;
  config.max_queue_depth = queue_depth;
  config.locking = ServeConfig::BackendLocking::kNone;  // Fake is safe.
  return config;
}

TEST(ServeLoopTest, ExecutesAndCountsBackendOutcomes) {
  Harness h;
  ServeLoop loop(&h.registry, SmallConfig(2, 16));
  auto ok = loop.Execute(Req("svc/echo", {{"x", "hi"}}));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->body, "echo:hi");
  auto boom = loop.Execute(Req("svc/boom"));
  EXPECT_TRUE(boom.status().IsInternal());
  auto nowhere = loop.Execute(Req("nowhere/at/all"));
  EXPECT_TRUE(nowhere.status().IsNotFound());
  loop.Drain();
  auto stats = loop.Stats();
  EXPECT_EQ(stats.offered, 3);
  EXPECT_EQ(stats.admitted, 3);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.errors, 2);
  EXPECT_EQ(stats.shed, 0);
  EXPECT_EQ(loop.Latencies().count(), 3);
}

TEST(ServeLoopTest, ShedsAtBoundedQueueWithGrowingRetryAfter) {
  Harness h;
  ServeConfig config = SmallConfig(1, 2);
  config.retry_hint.backoff_initial_sec = 0.010;
  config.retry_hint.backoff_multiplier = 2.0;
  config.retry_hint.backoff_max_sec = 0.040;
  ServeLoop loop(&h.registry, config);

  // Occupy the single worker...
  ASSERT_TRUE(loop.Enqueue(Req("svc/gate")).ok());
  h.fake->AwaitWaiters(1);
  // ...fill the queue (depth 2)...
  ASSERT_TRUE(loop.Enqueue(Req("svc/echo")).ok());
  ASSERT_TRUE(loop.Enqueue(Req("svc/echo")).ok());
  // ...then shed, with a backoff ladder that doubles and caps.
  Status s1 = loop.Enqueue(Req("svc/echo"));
  Status s2 = loop.Enqueue(Req("svc/echo"));
  Status s3 = loop.Enqueue(Req("svc/echo"));
  Status s4 = loop.Enqueue(Req("svc/echo"));
  EXPECT_TRUE(s1.IsResourceExhausted());
  EXPECT_TRUE(s4.IsResourceExhausted());
  EXPECT_NE(s1.message().find("retry after"), std::string::npos);
  EXPECT_DOUBLE_EQ(loop.Stats().last_retry_after_sec, 0.040);  // Capped.

  h.fake->Release();
  loop.Drain();
  auto stats = loop.Stats();
  EXPECT_EQ(stats.offered, 7);
  EXPECT_EQ(stats.admitted, 3);
  EXPECT_EQ(stats.shed, 4);
  EXPECT_EQ(stats.completed, 3);
  EXPECT_NEAR(stats.shed_fraction(), 4.0 / 7.0, 1e-12);
  // Latencies recorded only for admitted requests.
  EXPECT_EQ(loop.Latencies().count(), 3);
}

TEST(ServeLoopTest, RetryAfterLadderResetsAfterAdmission) {
  Harness h;
  ServeConfig config = SmallConfig(1, 1);
  config.retry_hint.backoff_initial_sec = 0.005;
  config.retry_hint.backoff_multiplier = 4.0;
  config.retry_hint.backoff_max_sec = 10.0;
  ServeLoop loop(&h.registry, config);
  ASSERT_TRUE(loop.Enqueue(Req("svc/gate")).ok());
  h.fake->AwaitWaiters(1);
  ASSERT_TRUE(loop.Enqueue(Req("svc/echo")).ok());  // Fills queue.
  EXPECT_TRUE(loop.Enqueue(Req("svc/echo")).IsResourceExhausted());
  EXPECT_DOUBLE_EQ(loop.Stats().last_retry_after_sec, 0.005);
  EXPECT_TRUE(loop.Enqueue(Req("svc/echo")).IsResourceExhausted());
  EXPECT_DOUBLE_EQ(loop.Stats().last_retry_after_sec, 0.020);
  h.fake->Release();
  loop.Drain();
  // Queue empty again: next admission succeeds and resets the streak.
  ASSERT_TRUE(loop.Enqueue(Req("svc/echo")).ok());
  loop.Drain();
  ASSERT_TRUE(loop.Enqueue(Req("svc/echo")).ok());
  loop.Drain();
}

TEST(ServeLoopTest, DeadlineExpiresInQueue) {
  Harness h;
  ServeConfig config = SmallConfig(1, 8);
  ServeLoop loop(&h.registry, config);
  ASSERT_TRUE(loop.Enqueue(Req("svc/gate")).ok());
  h.fake->AwaitWaiters(1);

  std::atomic<int> deadline_status{0};
  ASSERT_TRUE(loop.Enqueue(
                      Req("svc/echo"),
                      [&deadline_status](const Result<ResponsePtr>& result) {
                        deadline_status.store(
                            result.status().IsResourceExhausted() ? 1 : -1);
                      },
                      /*deadline_sec=*/0.005)
                  .ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  h.fake->Release();
  loop.Drain();
  EXPECT_EQ(deadline_status.load(), 1);
  auto stats = loop.Stats();
  EXPECT_EQ(stats.deadline_expired, 1);
  EXPECT_EQ(stats.completed, 1);  // Only the gate request.
  // Deadline-expired requests never reach the backend.
  EXPECT_EQ(h.fake->calls(), 1);
  EXPECT_EQ(loop.Latencies().count(), 1);
}

TEST(ServeLoopTest, CacheServesHitsAndHonorsHints) {
  Harness h;
  ShardedResponseCache cache(CacheConfig{4, 1 << 20, 0.0});
  ServeLoop loop(&h.registry, SmallConfig(2, 16), &cache);

  ServiceRequest hot = Req("svc/echo", {{"x", "hot"}});
  ASSERT_TRUE(loop.Execute(hot).ok());
  EXPECT_EQ(h.fake->calls(), 1);
  auto second = loop.Execute(hot);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->body, "echo:hot");
  EXPECT_EQ(h.fake->calls(), 1);  // Served from cache.

  // Errors are not cached.
  EXPECT_TRUE(loop.Execute(Req("svc/boom")).status().IsInternal());
  EXPECT_TRUE(loop.Execute(Req("svc/boom")).status().IsInternal());
  EXPECT_EQ(h.fake->calls(), 3);

  // kUncacheable responses are never stored.
  ASSERT_TRUE(loop.Execute(Req("svc/nocache")).ok());
  ASSERT_TRUE(loop.Execute(Req("svc/nocache")).ok());
  EXPECT_EQ(h.fake->calls(), 5);

  // A handler TTL hint expires: "ttl" caches for 0.15s only.
  ASSERT_TRUE(loop.Execute(Req("svc/ttl")).ok());
  ASSERT_TRUE(loop.Execute(Req("svc/ttl")).ok());  // Hit.
  EXPECT_EQ(h.fake->calls(), 6);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ASSERT_TRUE(loop.Execute(Req("svc/ttl")).ok());  // Expired -> backend.
  EXPECT_EQ(h.fake->calls(), 7);

  auto stats = loop.Stats();
  EXPECT_EQ(stats.cache_hits, 2);
  EXPECT_GT(stats.cache_misses, 0);
  EXPECT_EQ(stats.offered, stats.admitted);  // Nothing shed.
}

// Stress: >= 8 concurrent closed-loop clients against a small queue with
// the cache enabled — exercises admission, shedding, cache insert/lookup
// races, and histogram striping. `stress` ctest label; run under ASan.
TEST(ServeLoopStressTest, ConcurrentClientsConsistentAccounting) {
  Harness h;
  ShardedResponseCache cache(CacheConfig{16, 256 << 10, 0.0});
  ServeConfig config = SmallConfig(4, 4);  // Small queue: shedding likely.
  ServeLoop loop(&h.registry, config, &cache);

  constexpr int kClients = 10;
  constexpr int kRequestsPerClient = 400;
  std::atomic<int64_t> client_ok{0};
  std::atomic<int64_t> client_shed{0};
  std::atomic<int64_t> client_errors{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&loop, &client_ok, &client_shed, &client_errors,
                          c] {
      Rng rng(500 + static_cast<uint64_t>(c));
      for (int i = 0; i < kRequestsPerClient; ++i) {
        // 70% draws from a hot set of 20 keys (cacheable), 20% cold
        // cacheable keys, 10% errors.
        int64_t die = rng.Uniform(0, 9);
        ServiceRequest request =
            die < 7 ? Req("svc/echo",
                          {{"x", std::to_string(rng.Uniform(0, 19))}})
            : die < 9
                ? Req("svc/echo",
                      {{"x", "cold" + std::to_string(c) + "_" +
                                 std::to_string(i)}})
                : Req("svc/boom");
        auto result = loop.Execute(request);
        if (result.ok()) {
          client_ok.fetch_add(1);
        } else if (result.status().IsResourceExhausted()) {
          client_shed.fetch_add(1);
        } else {
          client_errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& client : clients) {
    client.join();
  }
  loop.Drain();

  auto stats = loop.Stats();
  constexpr int64_t kTotal =
      static_cast<int64_t>(kClients) * kRequestsPerClient;
  EXPECT_EQ(stats.offered, kTotal);
  EXPECT_EQ(stats.admitted + stats.shed, kTotal);
  EXPECT_EQ(stats.shed, client_shed.load());
  EXPECT_EQ(stats.completed, client_ok.load());
  EXPECT_EQ(stats.errors, client_errors.load());
  EXPECT_EQ(stats.completed + stats.errors + stats.deadline_expired,
            stats.admitted);
  EXPECT_EQ(loop.Latencies().count(), stats.completed + stats.errors);
  // The hot set should actually have been served from cache.
  EXPECT_GT(stats.cache_hits, 0);
  EXPECT_EQ(cache.Totals().hits, stats.cache_hits);
}

}  // namespace
}  // namespace dflow
