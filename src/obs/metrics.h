#ifndef DFLOW_OBS_METRICS_H_
#define DFLOW_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/latency_histogram.h"
#include "util/result.h"

namespace dflow::obs {

/// Monotonic event count. Relaxed atomics: increments are a single
/// fetch_add on the hot path, exactly the cost class of the bespoke
/// `int64_t` fields it replaces across the tiers.
class Counter {
 public:
  void Add(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depth, utilization, bytes
/// resident). Add() is a CAS loop — fine off the hot path.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Thread-safe log-bucketed histogram: N independently locked
/// LatencyHistogram stripes selected by thread-id hash, so concurrent
/// recorders rarely share a lock (ServeLoop's tail latency lives in one).
/// Snapshot() merges at read time.
class StripedHistogram {
 public:
  explicit StripedHistogram(int num_stripes = 8);

  StripedHistogram(const StripedHistogram&) = delete;
  StripedHistogram& operator=(const StripedHistogram&) = delete;

  void Record(double seconds);
  LatencyHistogram Snapshot() const;
  void Reset();
  int num_stripes() const { return static_cast<int>(stripes_.size()); }

 private:
  struct Stripe {
    mutable std::mutex mu;
    LatencyHistogram histogram;
  };
  std::vector<std::unique_ptr<Stripe>> stripes_;
};

/// Process-wide (or per-harness) named-metric registry: the one shared
/// substrate every tier publishes into, replacing per-subsystem ad-hoc
/// counter fields. Get*() registers on first use and returns a stable
/// pointer — callers resolve once and then increment lock-free.
///
/// Thread-safe. Names are free-form dotted paths by convention
/// ("flow.<stage>.errors", "serve.cache_hits", "hsm.operator_repairs").
///
/// SnapshotJson() is deterministic: names are emitted in sorted order with
/// fixed formatting, so two runs that performed identical work export
/// byte-identical snapshots — which makes the snapshot itself a test
/// oracle, per the reproducibility tenets.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates. The returned pointer is valid for the registry's
  /// lifetime. `carry` is the handle an object is rebinding away from (its
  /// previous registry's counter of the same name): its value is added
  /// here, so a count never goes down when its owner changes registry.
  Counter* GetCounter(const std::string& name, const Counter* carry = nullptr);
  Gauge* GetGauge(const std::string& name);
  /// `num_stripes` only applies on first creation.
  StripedHistogram* GetHistogram(const std::string& name,
                                 int num_stripes = 8);

  /// Read-side conveniences. The unchecked form returns 0 for a name that
  /// was never registered; the Checked form returns NotFound so callers
  /// can distinguish "never incremented" from "typo" (the PR 1 accessor
  /// convention).
  int64_t CounterValue(const std::string& name) const;
  Result<int64_t> CheckedCounterValue(const std::string& name) const;

  std::vector<std::string> CounterNames() const;
  std::vector<std::string> GaugeNames() const;
  std::vector<std::string> HistogramNames() const;

  /// Deterministic JSON export:
  ///   {"counters":{...},"gauges":{...},"histograms":{...}}
  /// sorted by name, fixed float formatting.
  std::string SnapshotJson() const;

  /// Zeroes every counter and resets every histogram (gauges keep their
  /// last value). Handles stay valid.
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<StripedHistogram>> histograms_;
};

/// The one counter store of an instrumented object: the injected registry
/// when there is one, else `*owned`, created on first use. Every subsystem
/// keeps its counters only here and reads its stats back from the handles.
/// A registry serves one instance of a kind: two instances that share one
/// also share (and both report) its counters.
MetricsRegistry& InjectedOrOwned(MetricsRegistry* injected,
                                 std::unique_ptr<MetricsRegistry>* owned);

}  // namespace dflow::obs

#endif  // DFLOW_OBS_METRICS_H_
