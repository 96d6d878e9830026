#ifndef DFLOW_SERVE_SERVE_LOOP_H_
#define DFLOW_SERVE_SERVE_LOOP_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/web_service.h"
#include "obs/latency_histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/response_cache.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace dflow::serve {

struct ServeConfig {
  /// Worker threads executing admitted requests.
  int num_workers = 4;
  /// Bounded admission queue: requests beyond this many WAITING tasks are
  /// shed with ResourceExhausted instead of queueing without bound — under
  /// overload the queue (and therefore the queueing delay of admitted
  /// requests) stays capped and the shed fraction rises instead.
  size_t max_queue_depth = 64;
  /// How backend Handle() calls are serialized. The case-study backends
  /// (db::Database and friends) are single-threaded by design — the paper's
  /// services ran one synchronous web server each — so the default takes
  /// the called registry's lock for the top-level mount prefix
  /// (core::ServiceRegistry::HandleSerialized): requests to DIFFERENT
  /// services run concurrently, requests to the same service serialize,
  /// also across loops. kNone is for backends that are themselves
  /// thread-safe.
  enum class BackendLocking { kPerMount, kNone };
  BackendLocking locking = BackendLocking::kPerMount;

  /// Health-gated failover (the recovery PR). Disabled by default — with
  /// `enabled` false the dispatch path is exactly the pre-failover loop.
  /// When enabled, every top-level mount prefix carries a circuit breaker:
  ///
  ///   closed --(failure_threshold CONSECUTIVE backend errors)--> open
  ///   open   --(open window elapses; next request probes)--> half-open
  ///   half-open --(probe succeeds)--> closed
  ///             --(probe fails)----> open, with the window doubled
  ///                                  (capped)
  ///
  /// While a mount is open (or a probe is in flight), its requests are
  /// routed to the replica backend registered via SetReplica() — the
  /// surviving copy of the service — or failed fast with ResourceExhausted
  /// when no replica exists, so a dead backend sheds load instead of
  /// tying up workers in doomed calls.
  struct BreakerConfig {
    bool enabled = false;
    /// Consecutive primary-backend errors that trip the mount open.
    int failure_threshold = 5;
    /// Base open window before the first half-open probe, and its cap as
    /// consecutive re-trips double it.
    double open_sec = 0.25;
    double open_max_sec = 2.0;
  };
  BreakerConfig breaker;

  /// Optional observability hooks (borrowed; must outlive the loop).
  ///
  /// With a tracer attached, every request leaves a span chain —
  /// "cache_lookup" on the submitting thread, then "queue_wait" (admission
  /// to dequeue) and "backend" (Dispatch) on the worker — plus instant
  /// events for sheds and queue-deadline expirations. Timestamps come from
  /// the tracer's clock: wall for profiling, kLogical for byte-identical
  /// golden traces of serialized runs. A null or disabled tracer costs one
  /// branch per request.
  obs::Tracer* tracer = nullptr;
  /// The registry the loop counts into (null: a private one it owns). Its
  /// counters are "serve.offered", ".admitted", ".shed", ".completed",
  /// ".errors", ".deadline_expired", ".cache_hits", ".cache_misses" (plus
  /// "serve.breaker_opened", ".breaker_closed", ".breaker_probes",
  /// ".failover", ".breaker_rejected" with the breaker enabled), the
  /// "serve.hit_alloc_bytes" gauge and the "serve.latency_sec" histogram;
  /// Stats() and Latencies() read exactly these. Give each loop its own.
  obs::MetricsRegistry* metrics = nullptr;
};

struct ServeStats {
  int64_t offered = 0;     // Every Enqueue()/Execute() attempt.
  int64_t admitted = 0;    // Accepted into the queue (or served from cache).
  int64_t shed = 0;        // Rejected at admission: queue full.
  int64_t completed = 0;   // Backend (or cache) produced an OK response.
  int64_t errors = 0;      // Backend returned a non-OK status.
  int64_t deadline_expired = 0;  // Admitted but died waiting in the queue.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  /// Cumulative bytes of backing storage the cache-HIT path has ever had
  /// to acquire (thread-local key-buffer warmup, in practice). Flat under
  /// steady load == the hit path is allocation-free; read from the
  /// "serve.hit_alloc_bytes" gauge.
  int64_t hit_alloc_bytes = 0;
  double last_retry_after_sec = 0.0;
  // Breaker bookkeeping (all zero unless ServeConfig::breaker.enabled).
  int64_t breaker_opened = 0;    // closed/half-open -> open transitions.
  int64_t breaker_closed = 0;    // Successful probes (half-open -> closed).
  int64_t breaker_probes = 0;    // Half-open probe requests sent.
  int64_t failover_requests = 0; // Requests served by a replica backend.
  int64_t breaker_rejected = 0;  // Failed fast: breaker open, no replica.

  double shed_fraction() const {
    return offered == 0 ? 0.0 : static_cast<double>(shed) / offered;
  }
  double cache_hit_rate() const {
    int64_t lookups = cache_hits + cache_misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(cache_hits) / lookups;
  }
};

/// The concurrent front door of the dissemination tier: a ThreadPool-backed
/// executor over a core::ServiceRegistry with a bounded admission queue
/// (load shedding, not unbounded buffering), per-request deadlines, an
/// optional ShardedResponseCache consulted at admission time (hits bypass
/// the queue entirely), and a striped latency histogram merged on read.
///
/// Results are delivered through a completion callback (`DoneFn`), which
/// runs on a worker thread — or inline on the caller's thread for cache
/// hits. ExecuteShared() and Execute() wrap that in a blocking call for
/// closed-loop clients.
///
/// Thread-safe: any number of threads may Enqueue()/Execute() concurrently.
class ServeLoop {
 public:
  /// Zero-copy completion: the response arrives as a refcounted handle to
  /// the (immutable) cached object — no body copy anywhere between the
  /// handler that produced it and the callback that reads it.
  using DoneFn = std::function<void(const Result<ResponsePtr>&)>;

  /// `registry` must outlive the loop. `cache` may be null (no caching);
  /// if set, OK responses are inserted with the handler's
  /// `cache_max_age_sec` hint (kUncacheable responses are never stored).
  ServeLoop(core::ServiceRegistry* registry, ServeConfig config,
            ShardedResponseCache* cache = nullptr);

  /// Drains in-flight work, then stops the workers.
  ~ServeLoop();

  ServeLoop(const ServeLoop&) = delete;
  ServeLoop& operator=(const ServeLoop&) = delete;

  /// Admission-controlled asynchronous submit. Returns OK if the request
  /// was served from cache (done ran inline) or accepted into the queue
  /// (done will run on a worker); ResourceExhausted if shed, with a
  /// retry-after hint in the message and in Stats().last_retry_after_sec —
  /// `done` is NOT invoked for shed requests, the return Status is the
  /// whole answer. The k-th CONSECUTIVE shed hints min(5 ms * 2^(k-1),
  /// 0.5 s), so a client herd backs off harder the longer the overload
  /// lasts; any admission resets the ladder (jitter belongs client-side).
  /// With `deadline_sec` > 0 the request has a deadline that many seconds
  /// after admission: if it is still waiting in the queue then, `done`
  /// gets ResourceExhausted and the backend is never called.
  ///
  /// A cache hit performs ZERO heap allocations and ZERO response-body
  /// copies — the canonical key is built into a warmed thread-local buffer
  /// (RequestScratch), the cache probe is a string_view lookup, and `done`
  /// receives a refcount handle to the cached response, invoked inline on
  /// the calling thread. On a miss the request is copied into the queued
  /// task (the caller keeps ownership).
  Status Enqueue(const core::ServiceRequest& request, DoneFn done = nullptr,
                 double deadline_sec = 0.0);

  /// Blocking form of Enqueue for closed-loop clients: admission control
  /// still applies (a shed request returns ResourceExhausted immediately).
  Result<ResponsePtr> ExecuteShared(const core::ServiceRequest& request,
                                    double deadline_sec = 0.0);

  /// ExecuteShared plus one copy of the response, for callers that want
  /// it by value.
  Result<core::ServiceResponse> Execute(const core::ServiceRequest& request,
                                        double deadline_sec = 0.0);

  /// Blocks until every admitted request has completed.
  void Drain();

  /// Registers a replica backend for the top-level mount `prefix` (e.g.
  /// "cleo" for the mounts "cleo" and "cleo/es2"). While the prefix's
  /// breaker is open, its requests are dispatched to `replica` instead of
  /// the primary registry. The replica must outlive the loop; its calls
  /// take the replica registry's own mount lock, the one its owner loop
  /// takes, so failover never runs a backend twice at once.
  /// InvalidArgument on a null replica or a prefix failing
  /// core::ValidateMountPrefix() — the same rules Mount() enforces — or
  /// containing any '/' (breaker health is tracked per top-level prefix).
  /// Replicas may be registered regardless of whether the breaker is
  /// enabled; without the breaker they are never consulted.
  Status SetReplica(const std::string& prefix,
                    core::ServiceRegistry* replica);

  /// One mount's breaker state, for tests and operations dashboards.
  struct MountHealthSnapshot {
    std::string prefix;
    std::string state;  // "closed" | "open" | "half_open".
    int consecutive_failures = 0;
    int consecutive_trips = 0;
    bool has_replica = false;
  };
  /// Every mount the breaker has seen traffic for, sorted by prefix.
  std::vector<MountHealthSnapshot> HealthSnapshot() const;

  ServeStats Stats() const;

  /// Snapshot of the "serve.latency_sec" histogram: latency from admission
  /// to the answer of every admitted request that was dispatched or served
  /// from cache — OK responses, backend errors and breaker fast-fails
  /// alike, so count() == completed + errors. Shed and deadline-expired
  /// requests are not sampled.
  obs::LatencyHistogram Latencies() const;

  /// Seconds since construction on the loop's monotonic clock.
  double NowSec() const;

  const ServeConfig& config() const { return config_; }

 private:
  struct MountHealth {
    enum class State { kClosed, kOpen, kHalfOpen };
    State state = State::kClosed;
    int consecutive_failures = 0;
    int consecutive_trips = 0;   // Re-trips without an intervening close.
    double open_until_sec = 0.0;  // NowSec() deadline of the open window.
  };

  void Process(core::ServiceRequest request, DoneFn done,
               std::string key, double start_sec, double deadline_at_sec,
               int64_t trace_admit_us);
  Result<core::ServiceResponse> Dispatch(const core::ServiceRequest& request);
  /// The pre-breaker dispatch: call the given registry, serialized by its
  /// mount lock unless config says kNone.
  Result<core::ServiceResponse> DispatchTo(core::ServiceRegistry* registry,
                                           const core::ServiceRequest& request);
  void NotePrimaryResult(const std::string& prefix, bool ok);
  void NoteProbeResult(const std::string& prefix, bool ok);
  /// Requires health_mu_. Opens the breaker and schedules the next probe
  /// window with exponential backoff.
  void TripLocked(MountHealth& health, const std::string& prefix);
  double RetryAfterFor(int64_t consecutive_sheds) const;
  /// The configured tracer if it is currently enabled, else null — so hot
  /// paths pay one branch and never build strings while tracing is off.
  obs::Tracer* ActiveTracer() const {
    return config_.tracer != nullptr && config_.tracer->enabled()
               ? config_.tracer
               : nullptr;
  }

  core::ServiceRegistry* registry_;
  ServeConfig config_;
  ShardedResponseCache* cache_;
  std::chrono::steady_clock::time_point epoch_;

  std::atomic<int64_t> consecutive_sheds_{0};
  std::atomic<double> last_retry_after_sec_{0.0};

  // The loop's one counter store (config_.metrics, or owned_metrics_) and
  // handles into it, resolved once at construction.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::Counter* offered_ = nullptr;
  obs::Counter* admitted_ = nullptr;
  obs::Counter* shed_ = nullptr;
  obs::Counter* completed_ = nullptr;
  obs::Counter* errors_ = nullptr;
  obs::Counter* deadline_expired_ = nullptr;
  obs::Counter* cache_hits_ = nullptr;
  obs::Counter* cache_misses_ = nullptr;
  obs::Gauge* hit_alloc_bytes_ = nullptr;
  obs::StripedHistogram* latency_ = nullptr;

  // Breaker state. Its counters are registered only when the breaker is
  // enabled (null otherwise), so a disabled breaker adds no names to the
  // registry.
  obs::Counter* breaker_opened_ = nullptr;
  obs::Counter* breaker_closed_ = nullptr;
  obs::Counter* breaker_probes_ = nullptr;
  obs::Counter* failover_requests_ = nullptr;
  obs::Counter* breaker_rejected_ = nullptr;
  mutable std::mutex health_mu_;  // Guards the two members below.
  std::map<std::string, MountHealth> mount_health_;
  std::map<std::string, core::ServiceRegistry*> replicas_;

  // Last member: destroyed first, so workers drain while everything else
  // (counters, breaker state) is still alive.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace dflow::serve

#endif  // DFLOW_SERVE_SERVE_LOOP_H_
