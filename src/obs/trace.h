#ifndef DFLOW_OBS_TRACE_H_
#define DFLOW_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace dflow::obs {

/// Seconds -> trace microseconds, rounded the same way every run: the one
/// conversion for virtual-time spans and the kExternal clock.
inline int64_t UsOf(double seconds) {
  return static_cast<int64_t>(std::llround(seconds * 1e6));
}

/// Key/value annotations attached to a trace event ("product", "attempt",
/// "outcome", ...). Values are emitted as JSON strings.
using TraceArgs = std::vector<std::pair<std::string, std::string>>;

/// One Chrome trace_event. `phase` follows the trace_event spec: 'X'
/// complete (ts + dur), 'i' instant, 'M' metadata (track naming).
struct TraceEvent {
  char phase = 'X';
  std::string name;
  std::string category;
  int64_t ts_us = 0;
  int64_t dur_us = 0;
  int tid = 0;
  TraceArgs args;
};

struct TracerConfig {
  /// Where timestamps come from:
  ///  - kWall:     steady_clock microseconds since tracer construction.
  ///  - kLogical:  a monotonically ticking counter — every NowUs() call
  ///               advances it by one. Serialized executions replay to
  ///               byte-identical traces, which is what makes the trace a
  ///               golden test oracle for wall-clock subsystems (ServeLoop).
  ///  - kExternal: `external_now_sec` supplies the time; bind the
  ///               simulation clock here and flow/storage/net spans carry
  ///               deterministic virtual timestamps.
  enum class ClockMode { kWall, kLogical, kExternal };
  ClockMode clock = ClockMode::kWall;
  std::function<double()> external_now_sec;

  /// Events beyond the cap are counted in dropped() instead of recorded,
  /// so a runaway trace cannot eat the heap.
  size_t max_events = 1u << 20;

  bool enabled = true;
};

/// Structured tracer: subsystems record nestable spans (complete events
/// with explicit ts/dur) and instants; Export() renders the buffer as
/// Chrome trace_event JSON loadable in about:tracing / Perfetto.
///
/// Disabled path: enabled() is one relaxed atomic load, and every
/// instrumentation site in core/serve/storage/net guards on it (or on a
/// null tracer pointer) before building any strings — tracing off costs a
/// branch.
///
/// Determinism: events are appended in call order. Under the simulation
/// (single-threaded, virtual clock) or a serialized logical-clock run, the
/// same seed therefore produces a byte-identical ExportChromeJson(), and
/// Fingerprint() (MD5, like WorkloadGen::Fingerprint) asserts it cheaply.
///
/// Thread-safe: the buffer and thread-track table are mutex-guarded; the
/// logical clock is atomic.
class Tracer {
 public:
  explicit Tracer(TracerConfig config = {});

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Current timestamp in microseconds per the configured clock. In
  /// kLogical mode every call ticks the clock by 1 µs.
  int64_t NowUs();

  /// Records a complete span [ts_us, ts_us + dur_us). `tid` < 0 means
  /// "the calling thread's track" (see CurrentTid). No-op when disabled.
  void CompleteEvent(std::string name, std::string category, int64_t ts_us,
                     int64_t dur_us, TraceArgs args = {}, int tid = -1);

  /// Records an instant event at NowUs(). No-op when disabled.
  void InstantEvent(std::string name, std::string category,
                    TraceArgs args = {}, int tid = -1);

  /// Names a track ("thread_name" metadata): Perfetto shows `label`
  /// instead of a bare tid. No-op when disabled.
  void NameTrack(int tid, const std::string& label);

  /// Stable small integer identifying the calling thread's track,
  /// assigned in first-use order.
  int CurrentTid();

  size_t event_count() const;
  int64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  void Clear();

  /// {"traceEvents":[...],"displayTimeUnit":"ms"} — one event per line, in
  /// recording order, fixed formatting (deterministic given deterministic
  /// events).
  std::string ExportChromeJson() const;

  /// MD5 hex digest of ExportChromeJson().
  std::string Fingerprint() const;

  const TracerConfig& config() const { return config_; }

 private:
  void Append(TraceEvent event);

  TracerConfig config_;
  std::atomic<bool> enabled_;
  std::atomic<int64_t> logical_clock_us_{0};
  std::atomic<int64_t> dropped_{0};
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::map<std::thread::id, int> thread_tracks_;
};

/// RAII span: stamps the start time at construction and records one
/// complete event at destruction. Near-free when the tracer is null or
/// disabled (one branch, no strings touched).
class SpanGuard {
 public:
  SpanGuard(Tracer* tracer, std::string name, std::string category,
            TraceArgs args = {})
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
    if (tracer_ != nullptr) {
      name_ = std::move(name);
      category_ = std::move(category);
      args_ = std::move(args);
      start_us_ = tracer_->NowUs();
    }
  }

  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  /// Attaches an annotation discovered mid-span ("outcome", "bytes").
  void AddArg(std::string key, std::string value) {
    if (tracer_ != nullptr) {
      args_.emplace_back(std::move(key), std::move(value));
    }
  }

  ~SpanGuard() {
    if (tracer_ != nullptr) {
      int64_t end_us = tracer_->NowUs();
      tracer_->CompleteEvent(std::move(name_), std::move(category_),
                             start_us_, end_us - start_us_,
                             std::move(args_));
    }
  }

 private:
  Tracer* tracer_;
  std::string name_;
  std::string category_;
  TraceArgs args_;
  int64_t start_us_ = 0;
};

}  // namespace dflow::obs

#endif  // DFLOW_OBS_TRACE_H_
