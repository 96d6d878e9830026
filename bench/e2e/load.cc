// Load generators: seeded Poisson open loop, fixed-count closed loop, and the
// time-boxed warm-up loop. Each uses ClientThreads() connections;
// `Cluster::Execute` blocks, so a connection is busy for a whole request.

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <numeric>
#include <thread>

#include "e2e.h"
#include "util/rng.h"

namespace e2e {
namespace {

/// Sleeps until `t`. With 1 ns timer slack a connection wakes ~10 us late
/// (p99 ~50 us on a 4-vCPU VM); spinning the last stretch instead would
/// cost up to a core at kv_mixed's rate, taken from the program under test.
void WaitUntil(double t) {
  for (double wait = t - NowSec(); wait > 0.0; wait = t - NowSec()) {
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
}

/// Runs `body(thread_index)` on `n` threads and joins them.
template <typename Body>
void OnThreads(int n, Body body) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(n));
  for (int t = 0; t < n; ++t) {
    threads.emplace_back([&body, t] {
      // 1 ns timer slack: sleeps end when asked, not up to 50 us later.
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      body(t);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
}

void Finish(PhaseResult* result) {
  result->attempted = static_cast<int64_t>(result->ok.size());
  result->failed = result->attempted -
                   std::accumulate(result->ok.begin(), result->ok.end(),
                                   int64_t{0});
}

}  // namespace

double NowSec() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  // SplitMix64 finalizer over the pair.
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

int ClientThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

double Samples::Quantile(double q) const {
  if (values_.empty()) {
    return 0.0;
  }
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  // Nearest rank: the smallest value with at least q of the set at or
  // below it.
  size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double Samples::Sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::Mean() const {
  return values_.empty() ? 0.0 : Sum() / static_cast<double>(values_.size());
}

Samples PhaseResult::Latencies(const std::vector<Op>& ops, int kind) const {
  Samples samples;
  for (size_t i = 0; i < ok.size(); ++i) {
    if (ok[i] && (kind < 0 || ops[i].kind == kind)) {
      samples.Add(latency_sec[i]);
    }
  }
  return samples;
}

std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_sec,
                                    double duration_sec) {
  dflow::Rng rng(seed);
  std::vector<double> due;
  due.reserve(static_cast<size_t>(rate_per_sec * duration_sec * 1.1) + 16);
  for (double t = rng.Exponential(rate_per_sec); t < duration_sec;
       t += rng.Exponential(rate_per_sec)) {
    due.push_back(t);
  }
  return due;
}

PhaseResult RunOpenLoop(const std::vector<Op>& ops,
                        const std::vector<double>& due, int connections,
                        const ExecFn& exec) {
  const size_t n = std::min(ops.size(), due.size());
  PhaseResult result;
  result.latency_sec.assign(n, 0.0f);
  result.lateness_sec.assign(n, 0.0f);
  result.ok.assign(n, 0);
  std::atomic<size_t> next{0};
  const double start = NowSec() + 0.005;
  OnThreads(connections, [&](int) {
    for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      const double due_at = start + due[i];
      WaitUntil(due_at);
      const double begin = NowSec();
      const bool ok = exec(ops[i], i);
      const double end = NowSec();
      result.latency_sec[i] = static_cast<float>(end - due_at);
      result.lateness_sec[i] = static_cast<float>(begin - due_at);
      result.ok[i] = ok ? 1 : 0;
    }
  });
  result.elapsed_sec = NowSec() - start;
  Finish(&result);
  return result;
}

PhaseResult RunClosedLoop(const std::vector<Op>& ops, int clients,
                          const ExecFn& exec) {
  const size_t n = ops.size();
  PhaseResult result;
  result.latency_sec.assign(n, 0.0f);
  result.ok.assign(n, 0);
  std::atomic<size_t> next{0};
  const double start = NowSec();
  OnThreads(clients, [&](int) {
    for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      const double begin = NowSec();
      const bool ok = exec(ops[i], i);
      result.latency_sec[i] = static_cast<float>(NowSec() - begin);
      result.ok[i] = ok ? 1 : 0;
    }
  });
  result.elapsed_sec = NowSec() - start;
  Finish(&result);
  return result;
}

PhaseResult RunForSeconds(const std::vector<Op>& ops, int clients,
                          double seconds, const ExecFn& exec) {
  PhaseResult result;
  if (ops.empty()) {
    return result;
  }
  std::atomic<size_t> next{0};
  std::atomic<int64_t> attempted{0};
  std::atomic<int64_t> failed{0};
  const double start = NowSec();
  const double stop = start + seconds;
  OnThreads(clients, [&](int) {
    while (NowSec() < stop) {
      size_t i = next.fetch_add(1) % ops.size();
      attempted.fetch_add(1, std::memory_order_relaxed);
      if (!exec(ops[i], i)) {
        failed.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  result.elapsed_sec = NowSec() - start;
  result.attempted = attempted.load();
  result.failed = failed.load();
  return result;
}

}  // namespace e2e
