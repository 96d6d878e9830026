// Health-gated failover in the serve tier: per-mount circuit breakers
// (consecutive-failure trip, backed-off half-open probes), replica
// backends that absorb traffic while the primary is down, and fail-fast
// shedding when no replica exists.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "core/web_service.h"
#include "obs/metrics.h"
#include "serve/serve_loop.h"

namespace dflow::serve {
namespace {

using core::ServiceRequest;
using core::ServiceResponse;

ServiceRequest Req(const std::string& path) {
  ServiceRequest request;
  request.path = path;
  return request;
}

/// A backend whose health is a switch: healthy -> "<tag>:<path>", failing
/// -> Internal error. Thread-safe.
class SwitchableService : public core::WebService {
 public:
  explicit SwitchableService(std::string tag) : tag_(std::move(tag)) {}

  Result<ServiceResponse> Handle(const ServiceRequest& request) override {
    calls_.fetch_add(1);
    if (failing_.load()) {
      return Status::Internal(tag_ + " backend down");
    }
    ServiceResponse response;
    response.body = tag_ + ":" + request.path;
    response.cache_max_age_sec = ServiceResponse::kUncacheable;
    return response;
  }
  std::vector<std::string> Endpoints() const override { return {"echo"}; }
  const std::string& name() const override { return tag_; }

  void set_failing(bool failing) { failing_.store(failing); }
  int64_t calls() const { return calls_.load(); }

 private:
  std::string tag_;
  std::atomic<bool> failing_{false};
  std::atomic<int64_t> calls_{0};
};

/// A backend that parks "park" requests until Release() and records how
/// many calls were inside Handle() at once.
class ParkingService : public core::WebService {
 public:
  Result<ServiceResponse> Handle(const ServiceRequest& request) override {
    const int inside = inside_.fetch_add(1) + 1;
    int seen = max_inside_.load();
    while (inside > seen && !max_inside_.compare_exchange_weak(seen, inside)) {
    }
    entered_.fetch_add(1);
    if (request.path == "park") {
      std::unique_lock<std::mutex> lock(mu_);
      parked_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
    }
    inside_.fetch_sub(1);
    ServiceResponse response;
    response.body = "parking:" + request.path;
    response.cache_max_age_sec = ServiceResponse::kUncacheable;
    return response;
  }
  std::vector<std::string> Endpoints() const override {
    return {"echo", "park"};
  }
  const std::string& name() const override { return name_; }

  void AwaitParked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return parked_; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }
  int entered() const { return entered_.load(); }
  int max_inside() const { return max_inside_.load(); }

 private:
  std::string name_ = "parking";
  std::atomic<int> inside_{0};
  std::atomic<int> max_inside_{0};
  std::atomic<int> entered_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool parked_ = false;
  bool released_ = false;
};

struct FailoverHarness {
  core::ServiceRegistry primary_registry;
  core::ServiceRegistry replica_registry;
  std::shared_ptr<SwitchableService> primary =
      std::make_shared<SwitchableService>("primary");
  std::shared_ptr<SwitchableService> replica =
      std::make_shared<SwitchableService>("replica");

  FailoverHarness() {
    EXPECT_TRUE(primary_registry.Mount("svc", primary).ok());
    EXPECT_TRUE(replica_registry.Mount("svc", replica).ok());
  }

  ServeConfig BreakerConfig(int threshold, double open_sec) {
    ServeConfig config;
    config.num_workers = 2;
    config.breaker.enabled = true;
    config.breaker.failure_threshold = threshold;
    config.breaker.open_sec = open_sec;
    config.breaker.open_max_sec = 8 * open_sec;
    return config;
  }
};

TEST(ServeFailoverTest, BreakerDisabledByDefault) {
  FailoverHarness h;
  ServeConfig config;
  config.num_workers = 2;
  ASSERT_FALSE(config.breaker.enabled);
  ServeLoop loop(&h.primary_registry, config);
  h.primary->set_failing(true);
  for (int i = 0; i < 20; ++i) {
    Result<ServiceResponse> result = loop.Execute(Req("svc/echo"));
    EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  }
  // Every request reached the backend; nothing tripped.
  EXPECT_EQ(h.primary->calls(), 20);
  ServeStats stats = loop.Stats();
  EXPECT_EQ(stats.breaker_opened, 0);
  EXPECT_EQ(stats.breaker_rejected, 0);
  EXPECT_TRUE(loop.HealthSnapshot().empty());
}

TEST(ServeFailoverTest, TripsOpenAndFailsFastWithoutReplica) {
  FailoverHarness h;
  ServeLoop loop(&h.primary_registry, h.BreakerConfig(3, /*open_sec=*/10.0));
  h.primary->set_failing(true);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(loop.Execute(Req("svc/echo")).status().code(),
              StatusCode::kInternal);
  }
  int64_t calls_at_trip = h.primary->calls();
  EXPECT_EQ(calls_at_trip, 3);
  // Open, long window, no replica: fail fast without touching the backend.
  for (int i = 0; i < 5; ++i) {
    Result<ServiceResponse> result = loop.Execute(Req("svc/echo"));
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(result.status().ToString().find("breaker open"),
              std::string::npos);
  }
  EXPECT_EQ(h.primary->calls(), calls_at_trip);
  ServeStats stats = loop.Stats();
  EXPECT_EQ(stats.breaker_opened, 1);
  EXPECT_EQ(stats.breaker_rejected, 5);
  // Backend errors and breaker fast-fails are answers too: every one is a
  // latency sample, so the histogram counts completed + errors.
  EXPECT_EQ(stats.errors, 8);
  EXPECT_EQ(loop.Latencies().count(), stats.completed + stats.errors);
  auto health = loop.HealthSnapshot();
  ASSERT_EQ(health.size(), 1u);
  EXPECT_EQ(health[0].prefix, "svc");
  EXPECT_EQ(health[0].state, "open");
  EXPECT_FALSE(health[0].has_replica);
}

TEST(ServeFailoverTest, DeadBackendShedsToReplicaAndRecovers) {
  FailoverHarness h;
  obs::MetricsRegistry metrics;
  ServeConfig config = h.BreakerConfig(2, /*open_sec=*/0.05);
  config.metrics = &metrics;
  ServeLoop loop(&h.primary_registry, config);
  ASSERT_TRUE(loop.SetReplica("svc", &h.replica_registry).ok());

  h.primary->set_failing(true);
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(loop.Execute(Req("svc/echo")).ok());
  }
  // Breaker open: traffic flows to the replica, body proves it. (The
  // registry strips the mount prefix, so the service sees path "echo".)
  for (int i = 0; i < 4; ++i) {
    Result<ServiceResponse> result = loop.Execute(Req("svc/echo"));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->body, "replica:echo");
  }
  ServeStats mid = loop.Stats();
  EXPECT_EQ(mid.breaker_opened, 1);
  EXPECT_GE(mid.failover_requests, 4);
  EXPECT_EQ(mid.breaker_rejected, 0);
  {
    auto health = loop.HealthSnapshot();
    ASSERT_EQ(health.size(), 1u);
    EXPECT_TRUE(health[0].has_replica);
  }

  // Primary heals; after the open window the next request probes it,
  // closes the breaker, and traffic returns to the primary.
  h.primary->set_failing(false);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  Result<ServiceResponse> probe = loop.Execute(Req("svc/echo"));
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(probe->body, "primary:echo");
  Result<ServiceResponse> after = loop.Execute(Req("svc/echo"));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->body, "primary:echo");

  ServeStats stats = loop.Stats();
  EXPECT_GE(stats.breaker_probes, 1);
  EXPECT_EQ(stats.breaker_closed, 1);
  auto health = loop.HealthSnapshot();
  ASSERT_EQ(health.size(), 1u);
  EXPECT_EQ(health[0].state, "closed");
  EXPECT_EQ(health[0].consecutive_trips, 0);
  // Registry mirrors.
  EXPECT_EQ(metrics.CounterValue("serve.breaker_opened"),
            stats.breaker_opened);
  EXPECT_EQ(metrics.CounterValue("serve.breaker_closed"),
            stats.breaker_closed);
  EXPECT_EQ(metrics.CounterValue("serve.failover"), stats.failover_requests);
}

TEST(ServeFailoverTest, FailedProbeReopensWithGrownWindow) {
  FailoverHarness h;
  ServeLoop loop(&h.primary_registry, h.BreakerConfig(2, /*open_sec=*/0.03));
  ASSERT_TRUE(loop.SetReplica("svc", &h.replica_registry).ok());
  h.primary->set_failing(true);
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(loop.Execute(Req("svc/echo")).ok());
  }
  int64_t calls_at_trip = h.primary->calls();
  // Let the window lapse twice with the primary still dead: each elapsed
  // window admits exactly one probe, which reaches the dead primary, fails,
  // and re-opens with a grown window. Requests behind the failed probe are
  // shed to the replica.
  for (int round = 0; round < 2; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    Result<ServiceResponse> probe = loop.Execute(Req("svc/echo"));
    EXPECT_EQ(probe.status().code(), StatusCode::kInternal);
    Result<ServiceResponse> shed = loop.Execute(Req("svc/echo"));
    ASSERT_TRUE(shed.ok()) << shed.status().ToString();
    EXPECT_EQ(shed->body, "replica:echo");
  }
  ServeStats stats = loop.Stats();
  EXPECT_GE(stats.breaker_probes, 1);
  EXPECT_EQ(stats.breaker_closed, 0);
  EXPECT_GE(stats.breaker_opened, 2);  // Initial trip + >= 1 re-trip.
  EXPECT_GT(h.primary->calls(), calls_at_trip);  // Probes did touch it.
  auto health = loop.HealthSnapshot();
  ASSERT_EQ(health.size(), 1u);
  EXPECT_EQ(health[0].state, "open");
  EXPECT_GE(health[0].consecutive_trips, 2);
}

TEST(ServeFailoverTest, SuccessResetsConsecutiveFailures) {
  FailoverHarness h;
  ServeLoop loop(&h.primary_registry, h.BreakerConfig(3, /*open_sec=*/10.0));
  for (int round = 0; round < 4; ++round) {
    h.primary->set_failing(true);
    EXPECT_FALSE(loop.Execute(Req("svc/echo")).ok());
    EXPECT_FALSE(loop.Execute(Req("svc/echo")).ok());
    h.primary->set_failing(false);
    EXPECT_TRUE(loop.Execute(Req("svc/echo")).ok());  // Resets the streak.
  }
  EXPECT_EQ(loop.Stats().breaker_opened, 0);
  auto health = loop.HealthSnapshot();
  ASSERT_EQ(health.size(), 1u);
  EXPECT_EQ(health[0].state, "closed");
}

TEST(ServeFailoverTest, SetReplicaValidation) {
  FailoverHarness h;
  ServeLoop loop(&h.primary_registry, h.BreakerConfig(2, 0.05));
  EXPECT_EQ(loop.SetReplica("svc", nullptr).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(loop.SetReplica("", &h.replica_registry).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(loop.SetReplica("svc/nested", &h.replica_registry).code(),
            StatusCode::kInvalidArgument);
  // Same prefix rules as ServiceRegistry::Mount: leading or trailing '/'
  // (and therefore bare "/") is rejected, not silently registered under a
  // name the breaker's top-level-prefix lookup could never produce.
  EXPECT_EQ(loop.SetReplica("/svc", &h.replica_registry).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(loop.SetReplica("svc/", &h.replica_registry).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(loop.SetReplica("/", &h.replica_registry).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(loop.SetReplica("svc", &h.replica_registry).ok());
}

// A replica registry is some other loop's primary. Failover must take the
// lock that loop takes, or two threads run one single-threaded backend.
TEST(ServeFailoverTest, FailoverTakesTheReplicaOwnersMountLock) {
  core::ServiceRegistry registry_a;
  core::ServiceRegistry registry_b;
  auto dead = std::make_shared<SwitchableService>("a");
  dead->set_failing(true);
  auto backend_b = std::make_shared<ParkingService>();
  ASSERT_TRUE(registry_a.Mount("svc", dead).ok());
  ASSERT_TRUE(registry_b.Mount("svc", backend_b).ok());

  ServeConfig config_b;
  config_b.num_workers = 2;
  ServeLoop loop_b(&registry_b, config_b);
  ServeConfig config_a;
  config_a.num_workers = 2;
  config_a.breaker.enabled = true;
  config_a.breaker.failure_threshold = 1;
  config_a.breaker.open_sec = 600.0;
  config_a.breaker.open_max_sec = 600.0;
  ServeLoop loop_a(&registry_a, config_a);
  ASSERT_TRUE(loop_a.SetReplica("svc", &registry_b).ok());
  EXPECT_FALSE(loop_a.Execute(Req("svc/echo")).ok());  // Trips A open.
  ASSERT_EQ(loop_a.HealthSnapshot().at(0).state, "open");

  // B's own loop parks a request inside B's backend...
  std::atomic<bool> held_done{false};
  ASSERT_TRUE(loop_b
                  .Enqueue(Req("svc/park"),
                           [&held_done](const Result<ResponsePtr>& result) {
                             EXPECT_TRUE(result.ok());
                             held_done.store(true);
                           })
                  .ok());
  backend_b->AwaitParked();
  // ...so A's failover request must wait outside it.
  std::atomic<bool> failover_done{false};
  ASSERT_TRUE(loop_a
                  .Enqueue(Req("svc/echo"),
                           [&failover_done](const Result<ResponsePtr>& result) {
                             ASSERT_TRUE(result.ok());
                             EXPECT_EQ((*result)->body, "parking:echo");
                             failover_done.store(true);
                           })
                  .ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(backend_b->entered(), 1);
  EXPECT_FALSE(failover_done.load());

  backend_b->Release();
  loop_b.Drain();
  loop_a.Drain();
  EXPECT_TRUE(held_done.load());
  EXPECT_TRUE(failover_done.load());
  EXPECT_EQ(backend_b->entered(), 2);
  EXPECT_EQ(backend_b->max_inside(), 1);
  EXPECT_EQ(loop_a.Stats().failover_requests, 1);
}

// Stress: hammer a tripping/healing mount from many threads while the
// replica absorbs the open windows — exercises the health map, the
// replica lock, and the probe transition under contention.
TEST(ServeFailoverStressTest, ConcurrentClientsAcrossTrips) {
  FailoverHarness h;
  ServeConfig config = h.BreakerConfig(4, /*open_sec=*/0.01);
  config.num_workers = 4;
  config.max_queue_depth = 256;
  ServeLoop loop(&h.primary_registry, config);
  ASSERT_TRUE(loop.SetReplica("svc", &h.replica_registry).ok());

  std::atomic<bool> stop{false};
  std::thread flapper([&h, &stop] {
    // Flap the primary's health while clients hammer it.
    for (int i = 0; i < 10 && !stop.load(); ++i) {
      h.primary->set_failing(i % 2 == 0);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    h.primary->set_failing(false);
  });
  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 200;
  std::atomic<int64_t> answered{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&loop, &answered] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        Result<ServiceResponse> result = loop.Execute(Req("svc/echo"));
        if (result.ok()) {
          answered.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  stop.store(true);
  flapper.join();
  loop.Drain();
  // Liveness: a healthy replica means a large fraction of requests got
  // real answers even while the primary flapped.
  EXPECT_GT(answered.load(), kClients * kRequestsPerClient / 4);
  ServeStats stats = loop.Stats();
  EXPECT_EQ(stats.offered, kClients * kRequestsPerClient);
}

}  // namespace
}  // namespace dflow::serve
