#include "serve/serve_loop.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <utility>

#include "serve/request_scratch.h"
#include "simd/simd.h"
#include "util/logging.h"

namespace dflow::serve {

namespace {

/// First path segment — the coarsest mount partition. Nested mounts
/// ("cleo" and "cleo/es2") share a lock, which is safe (strictly coarser
/// than the actual routing partition).
std::string TopLevelPrefix(const std::string& path) {
  size_t slash = path.find('/');
  return slash == std::string::npos ? path : path.substr(0, slash);
}

}  // namespace

ServeLoop::ServeLoop(core::ServiceRegistry* registry, ServeConfig config,
                     ShardedResponseCache* cache)
    : registry_(registry),
      config_(config),
      cache_(cache),
      epoch_(std::chrono::steady_clock::now()) {
  DFLOW_CHECK(registry_ != nullptr);
  DFLOW_CHECK(config_.num_workers > 0);
  breaker_rng_ = Rng(config_.breaker.seed);
  obs::MetricsRegistry& metrics =
      obs::InjectedOrOwned(config_.metrics, &owned_metrics_);
  offered_ = metrics.GetCounter("serve.offered");
  admitted_ = metrics.GetCounter("serve.admitted");
  shed_ = metrics.GetCounter("serve.shed");
  completed_ = metrics.GetCounter("serve.completed");
  errors_ = metrics.GetCounter("serve.errors");
  deadline_expired_ = metrics.GetCounter("serve.deadline_expired");
  cache_hits_ = metrics.GetCounter("serve.cache_hits");
  cache_misses_ = metrics.GetCounter("serve.cache_misses");
  latency_ = metrics.GetHistogram("serve.latency_sec",
                                  std::max(2 * config_.num_workers, 4));
  hit_alloc_bytes_ = metrics.GetGauge("serve.hit_alloc_bytes");
  // Publish which ISA tier the kernel layer dispatched to, so scenario
  // fingerprints and benches can assert on the code path they measured.
  simd::PublishDispatch(&metrics);
  if (config_.breaker.enabled) {
    breaker_opened_ = metrics.GetCounter("serve.breaker_opened");
    breaker_closed_ = metrics.GetCounter("serve.breaker_closed");
    breaker_probes_ = metrics.GetCounter("serve.breaker_probes");
    failover_requests_ = metrics.GetCounter("serve.failover");
    breaker_rejected_ = metrics.GetCounter("serve.breaker_rejected");
    DFLOW_CHECK(config_.breaker.failure_threshold >= 1);
    DFLOW_CHECK(config_.breaker.open_sec > 0.0);
    DFLOW_CHECK(config_.breaker.open_max_sec >= config_.breaker.open_sec);
    DFLOW_CHECK(config_.breaker.backoff_multiplier >= 1.0);
    DFLOW_CHECK(config_.breaker.jitter_fraction >= 0.0 &&
                config_.breaker.jitter_fraction < 1.0);
  }
  pool_ = std::make_unique<ThreadPool>(config_.num_workers);
}

ServeLoop::~ServeLoop() = default;  // pool_ drains in its destructor.

double ServeLoop::NowSec() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

double ServeLoop::RetryAfterFor(int64_t consecutive_sheds) const {
  const core::RetryPolicy& hint = config_.retry_hint;
  double delay = hint.backoff_initial_sec *
                 std::pow(hint.backoff_multiplier,
                          static_cast<double>(consecutive_sheds - 1));
  return std::min(delay, hint.backoff_max_sec);
}

obs::LatencyHistogram ServeLoop::Latencies() const {
  return latency_->Snapshot();
}

Result<core::ServiceResponse> ServeLoop::DispatchTo(
    core::ServiceRegistry* registry, const core::ServiceRequest& request,
    const std::string& lock_key) {
  switch (config_.locking) {
    case ServeConfig::BackendLocking::kNone:
      return registry->Handle(request);
    case ServeConfig::BackendLocking::kPerMount: {
      std::mutex* mount_lock = nullptr;
      {
        std::lock_guard<std::mutex> lock(backend_locks_mu_);
        auto& slot = backend_locks_[lock_key];
        if (slot == nullptr) {
          slot = std::make_unique<std::mutex>();
        }
        mount_lock = slot.get();
      }
      std::lock_guard<std::mutex> lock(*mount_lock);
      return registry->Handle(request);
    }
  }
  return Status::Internal("unreachable: unknown BackendLocking");
}

void ServeLoop::TripLocked(MountHealth& health, const std::string& prefix) {
  health.state = MountHealth::State::kOpen;
  ++health.consecutive_trips;
  health.consecutive_failures = 0;
  const ServeConfig::BreakerConfig& b = config_.breaker;
  double window = b.open_sec;
  for (int i = 1; i < health.consecutive_trips; ++i) {
    window *= b.backoff_multiplier;
    if (window >= b.open_max_sec) {
      break;
    }
  }
  window = std::min(window, b.open_max_sec);
  if (b.jitter_fraction > 0.0) {
    window *= 1.0 + b.jitter_fraction * (2.0 * breaker_rng_.NextDouble() - 1.0);
  }
  health.open_until_sec = NowSec() + window;
  breaker_opened_->Add(1);
  if (obs::Tracer* tracer = ActiveTracer()) {
    char window_buf[32];
    std::snprintf(window_buf, sizeof(window_buf), "%.6g", window);
    tracer->InstantEvent("breaker_opened", "serve",
                         {{"mount", prefix}, {"window_sec", window_buf}});
  }
  DFLOW_LOG(Warning) << "serve: breaker for mount '" << prefix
                     << "' opened for " << window << "s (trip "
                     << health.consecutive_trips << ")";
}

void ServeLoop::NotePrimaryResult(const std::string& prefix, bool ok) {
  std::lock_guard<std::mutex> lock(health_mu_);
  MountHealth& health = mount_health_[prefix];
  if (health.state != MountHealth::State::kClosed) {
    // A probe owns open/half-open transitions; late stragglers that were
    // already past the gate when the breaker tripped don't double-count.
    return;
  }
  if (ok) {
    health.consecutive_failures = 0;
    health.consecutive_trips = 0;
    return;
  }
  ++health.consecutive_failures;
  if (health.consecutive_failures >= config_.breaker.failure_threshold) {
    TripLocked(health, prefix);
  }
}

void ServeLoop::NoteProbeResult(const std::string& prefix, bool ok) {
  std::lock_guard<std::mutex> lock(health_mu_);
  MountHealth& health = mount_health_[prefix];
  if (ok) {
    health.state = MountHealth::State::kClosed;
    health.consecutive_failures = 0;
    health.consecutive_trips = 0;
    breaker_closed_->Add(1);
    if (obs::Tracer* tracer = ActiveTracer()) {
      tracer->InstantEvent("breaker_closed", "serve", {{"mount", prefix}});
    }
    DFLOW_LOG(Info) << "serve: breaker for mount '" << prefix
                    << "' closed after successful probe";
    return;
  }
  TripLocked(health, prefix);  // Re-open with a grown window.
}

Result<core::ServiceResponse> ServeLoop::Dispatch(
    const core::ServiceRequest& request) {
  const std::string prefix = TopLevelPrefix(request.path);
  if (!config_.breaker.enabled) {
    return DispatchTo(registry_, request, prefix);
  }
  enum class Route { kPrimary, kProbe, kReplica, kReject };
  Route route = Route::kPrimary;
  core::ServiceRegistry* replica = nullptr;
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    MountHealth& health = mount_health_[prefix];
    auto it = replicas_.find(prefix);
    replica = it == replicas_.end() ? nullptr : it->second;
    switch (health.state) {
      case MountHealth::State::kClosed:
        route = Route::kPrimary;
        break;
      case MountHealth::State::kHalfOpen:
        // A probe is already in flight; stay off the primary until it
        // reports back.
        route = replica != nullptr ? Route::kReplica : Route::kReject;
        break;
      case MountHealth::State::kOpen:
        if (NowSec() >= health.open_until_sec) {
          // This request is the half-open probe.
          health.state = MountHealth::State::kHalfOpen;
          route = Route::kProbe;
        } else {
          route = replica != nullptr ? Route::kReplica : Route::kReject;
        }
        break;
    }
  }
  switch (route) {
    case Route::kReject: {
      breaker_rejected_->Add(1);
      if (obs::Tracer* tracer = ActiveTracer()) {
        tracer->InstantEvent("breaker_rejected", "serve",
                             {{"mount", prefix}, {"path", request.path}});
      }
      return Status::ResourceExhausted("mount '" + prefix +
                                       "' breaker open and no replica "
                                       "registered; failing fast");
    }
    case Route::kReplica: {
      failover_requests_->Add(1);
      if (obs::Tracer* tracer = ActiveTracer()) {
        tracer->InstantEvent("failover", "serve",
                             {{"mount", prefix}, {"path", request.path}});
      }
      // The replica is its own single-threaded backend: serialize it under
      // its own key, never the (possibly wedged) primary's lock.
      return DispatchTo(replica, request, "\x01replica/" + prefix);
    }
    case Route::kProbe: {
      breaker_probes_->Add(1);
      if (obs::Tracer* tracer = ActiveTracer()) {
        tracer->InstantEvent("breaker_probe", "serve", {{"mount", prefix}});
      }
      Result<core::ServiceResponse> result =
          DispatchTo(registry_, request, prefix);
      NoteProbeResult(prefix, result.ok());
      return result;
    }
    case Route::kPrimary: {
      Result<core::ServiceResponse> result =
          DispatchTo(registry_, request, prefix);
      NotePrimaryResult(prefix, result.ok());
      return result;
    }
  }
  return Status::Internal("unreachable: unknown breaker route");
}

void ServeLoop::Process(core::ServiceRequest request, DoneFn done,
                        std::string key, double start_sec,
                        double deadline_at_sec, int64_t trace_admit_us) {
  obs::Tracer* tracer = ActiveTracer();
  if (tracer != nullptr && trace_admit_us >= 0) {
    // Admission-to-dequeue: the segment admission control exists to bound.
    int64_t dequeue_us = tracer->NowUs();
    tracer->CompleteEvent("queue_wait", "serve", trace_admit_us,
                          dequeue_us - trace_admit_us,
                          {{"path", request.path}});
  }
  double now = NowSec();
  if (deadline_at_sec > 0.0 && now > deadline_at_sec) {
    // Died of old age in the admission queue; don't waste backend time.
    deadline_expired_->Add(1);
    if (tracer != nullptr) {
      tracer->InstantEvent("deadline_expired", "serve",
                           {{"path", request.path}});
    }
    if (done) {
      done(Status::ResourceExhausted(
          "deadline exceeded after waiting in admission queue"));
    }
    return;
  }
  int64_t backend_start_us = tracer != nullptr ? tracer->NowUs() : 0;
  Result<core::ServiceResponse> result = Dispatch(request);
  if (tracer != nullptr) {
    int64_t backend_end_us = tracer->NowUs();
    tracer->CompleteEvent(
        "backend", "serve", backend_start_us,
        backend_end_us - backend_start_us,
        {{"path", request.path},
         {"status", result.ok() ? "ok" : result.status().ToString()}});
  }
  latency_->Record(NowSec() - start_sec);
  if (result.ok()) {
    completed_->Add(1);
    // One shared immutable copy of the response: the cache and every
    // outstanding reader refcount the SAME object — the body is never
    // copied again after this move.
    ResponsePtr shared =
        std::make_shared<const core::ServiceResponse>(std::move(*result));
    if (cache_ != nullptr &&
        shared->cache_max_age_sec >= 0.0) {  // kUncacheable is negative.
      cache_->InsertShared(key, shared, NowSec(), shared->cache_max_age_sec);
    }
    if (done) {
      done(Result<ResponsePtr>(std::move(shared)));
    }
  } else {
    errors_->Add(1);
    if (done) {
      done(result.status());
    }
  }
}

Status ServeLoop::Enqueue(const core::ServiceRequest& request, DoneFn done,
                          double deadline_sec) {
  offered_->Add(1);
  obs::Tracer* tracer = ActiveTracer();
  double start_sec = NowSec();
  // Canonical key goes into the calling thread's warmed scratch buffer:
  // after warmup this performs no allocation. Growth (warmup, or a key
  // longer than any seen before on this thread) is accounted into the
  // hit_alloc_bytes instrumentation the zero-alloc regression test pins.
  RequestScratch& scratch = RequestScratch::ForThisThread();
  std::string& key = scratch.KeyBuffer();
  const size_t key_cap_before = key.capacity();
  ShardedResponseCache::CanonicalKeyInto(request, &key);
  const int64_t grew =
      scratch.NoteStringGrowth(key_cap_before, key.capacity());
  if (grew > 0) {
    hit_alloc_bytes_->Add(static_cast<double>(grew));
  }
  if (cache_ != nullptr) {
    int64_t lookup_start_us = tracer != nullptr ? tracer->NowUs() : 0;
    ResponsePtr hit = cache_->LookupShared(key, start_sec);
    if (tracer != nullptr) {
      int64_t lookup_end_us = tracer->NowUs();
      tracer->CompleteEvent("cache_lookup", "serve", lookup_start_us,
                            lookup_end_us - lookup_start_us,
                            {{"path", request.path},
                             {"result", hit != nullptr ? "hit" : "miss"}});
    }
    if (hit != nullptr) {
      // Cache hits bypass the admission queue entirely: the whole point of
      // the dissemination cache is that hot requests cost no backend time.
      // From here to `done` there is no allocation and no body copy —
      // counters are relaxed atomics, the latency histogram writes
      // fixed-size arrays, and the response rides out by refcount.
      cache_hits_->Add(1);
      admitted_->Add(1);
      completed_->Add(1);
      consecutive_sheds_.store(0, std::memory_order_relaxed);
      latency_->Record(NowSec() - start_sec);
      if (done) {
        done(Result<ResponsePtr>(std::move(hit)));
      }
      return Status::OK();
    }
    cache_misses_->Add(1);
  }

  double deadline_at_sec =
      deadline_sec > 0.0 ? start_sec + deadline_sec : 0.0;
  int64_t trace_admit_us = tracer != nullptr ? tracer->NowUs() : -1;
  // Miss path: the task needs its own copy of the request and key.
  bool accepted = pool_->TrySubmit(
      [this, request = core::ServiceRequest(request), done = std::move(done),
       key = std::string(key), start_sec, deadline_at_sec,
       trace_admit_us]() mutable {
        Process(std::move(request), std::move(done), std::move(key),
                start_sec, deadline_at_sec, trace_admit_us);
      },
      config_.max_queue_depth);
  if (!accepted) {
    int64_t streak =
        consecutive_sheds_.fetch_add(1, std::memory_order_relaxed) + 1;
    double retry_after = RetryAfterFor(streak);
    last_retry_after_sec_.store(retry_after, std::memory_order_relaxed);
    shed_->Add(1);
    if (tracer != nullptr) {
      char retry_buf[32];
      std::snprintf(retry_buf, sizeof(retry_buf), "%.6g", retry_after);
      tracer->InstantEvent("shed", "serve",
                           {{"retry_after_sec", retry_buf}});
    }
    return Status::ResourceExhausted(
        "admission queue full (depth >= " +
        std::to_string(config_.max_queue_depth) + "); retry after " +
        std::to_string(retry_after) + "s");
  }
  consecutive_sheds_.store(0, std::memory_order_relaxed);
  admitted_->Add(1);
  return Status::OK();
}

Result<ResponsePtr> ServeLoop::ExecuteShared(
    const core::ServiceRequest& request, double deadline_sec) {
  auto promise = std::make_shared<std::promise<Result<ResponsePtr>>>();
  std::future<Result<ResponsePtr>> future = promise->get_future();
  Status admitted = Enqueue(
      request,
      [promise](const Result<ResponsePtr>& result) {
        promise->set_value(result);
      },
      deadline_sec);
  if (!admitted.ok()) {
    return admitted;
  }
  return future.get();
}

Result<core::ServiceResponse> ServeLoop::Execute(
    const core::ServiceRequest& request, double deadline_sec) {
  DFLOW_ASSIGN_OR_RETURN(ResponsePtr response,
                         ExecuteShared(request, deadline_sec));
  return *response;
}

void ServeLoop::Drain() { pool_->Wait(); }

Status ServeLoop::SetReplica(const std::string& prefix,
                             core::ServiceRegistry* replica) {
  if (replica == nullptr) {
    return Status::InvalidArgument("replica registry must not be null");
  }
  // Same prefix rules as ServiceRegistry::Mount, plus the breaker's own
  // constraint: health is tracked per TOP-LEVEL prefix, so a nested
  // prefix would register a replica no breaker could ever consult.
  DFLOW_RETURN_IF_ERROR(core::ValidateMountPrefix(prefix));
  if (prefix.find('/') != std::string::npos) {
    return Status::InvalidArgument(
        "replica prefix must be a top-level mount (no '/'): '" + prefix +
        "'");
  }
  std::lock_guard<std::mutex> lock(health_mu_);
  replicas_[prefix] = replica;
  return Status::OK();
}

std::vector<ServeLoop::MountHealthSnapshot> ServeLoop::HealthSnapshot() const {
  std::vector<MountHealthSnapshot> snapshot;
  std::lock_guard<std::mutex> lock(health_mu_);
  snapshot.reserve(mount_health_.size());
  for (const auto& [prefix, health] : mount_health_) {
    MountHealthSnapshot entry;
    entry.prefix = prefix;
    switch (health.state) {
      case MountHealth::State::kClosed:
        entry.state = "closed";
        break;
      case MountHealth::State::kOpen:
        entry.state = "open";
        break;
      case MountHealth::State::kHalfOpen:
        entry.state = "half_open";
        break;
    }
    entry.consecutive_failures = health.consecutive_failures;
    entry.consecutive_trips = health.consecutive_trips;
    entry.has_replica = replicas_.count(prefix) > 0;
    snapshot.push_back(std::move(entry));
  }
  return snapshot;
}

ServeStats ServeLoop::Stats() const {
  ServeStats stats;
  stats.offered = offered_->Value();
  stats.admitted = admitted_->Value();
  stats.shed = shed_->Value();
  stats.completed = completed_->Value();
  stats.errors = errors_->Value();
  stats.deadline_expired = deadline_expired_->Value();
  stats.cache_hits = cache_hits_->Value();
  stats.cache_misses = cache_misses_->Value();
  stats.hit_alloc_bytes = static_cast<int64_t>(hit_alloc_bytes_->Value());
  stats.last_retry_after_sec =
      last_retry_after_sec_.load(std::memory_order_relaxed);
  if (config_.breaker.enabled) {
    stats.breaker_opened = breaker_opened_->Value();
    stats.breaker_closed = breaker_closed_->Value();
    stats.breaker_probes = breaker_probes_->Value();
    stats.failover_requests = failover_requests_->Value();
    stats.breaker_rejected = breaker_rejected_->Value();
  }
  return stats;
}

}  // namespace dflow::serve
