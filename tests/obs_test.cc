// The observability substrate (src/obs): the metrics registry, the
// structured tracer with its Chrome trace_event export, and the threading
// of both through core::FlowRunner, serve::ServeLoop, cluster::Cluster,
// db::BufferPool, storage (HSM + media migration), net (transfer
// scheduler), and recover::Scrubber.
//
// The headline tests use determinism as the oracle: a same-seed run must
// export a byte-identical trace JSON (fingerprinted with MD5, like
// WorkloadGen::Fingerprint), and the registry counters must agree exactly
// with each subsystem's accessors, which read that one store. The
// `stress` portion hammers one registry and one tracer from >= 8 threads
// and is meant to run under ASan/TSan.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "core/flow_graph.h"
#include "core/flow_runner.h"
#include "core/stage.h"
#include "core/web_service.h"
#include "db/database.h"
#include "net/network_link.h"
#include "net/transfer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "recover/scrubber.h"
#include "serve/response_cache.h"
#include "serve/serve_loop.h"
#include "serve/workload_gen.h"
#include "sim/simulation.h"
#include "storage/disk.h"
#include "storage/hsm.h"
#include "storage/migration.h"
#include "storage/tape.h"

namespace dflow {
namespace {

constexpr int64_t kGB = 1000LL * 1000 * 1000;

using core::DataProduct;
using core::FlowGraph;
using core::FlowRunner;
using core::LambdaStage;
using core::RetryPolicy;
using core::StageCosts;

std::shared_ptr<LambdaStage> PassThrough(const std::string& name,
                                         double seconds_per_product = 0.0) {
  return std::make_shared<LambdaStage>(
      name, StageCosts{seconds_per_product, 0.0},
      [](const DataProduct& in) -> Result<std::vector<DataProduct>> {
        return std::vector<DataProduct>{in};
      });
}

DataProduct Product(const std::string& name, int64_t bytes) {
  DataProduct product;
  product.name = name;
  product.bytes = bytes;
  return product;
}

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(MetricsRegistryTest, CountersGaugesHistograms) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("flow.stage.errors");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter, registry.GetCounter("flow.stage.errors"));  // Stable.
  counter->Add(3);
  counter->Increment();
  EXPECT_EQ(registry.CounterValue("flow.stage.errors"), 4);
  EXPECT_EQ(registry.CounterValue("never.registered"), 0);

  auto checked = registry.CheckedCounterValue("flow.stage.errors");
  ASSERT_TRUE(checked.ok());
  EXPECT_EQ(*checked, 4);
  EXPECT_TRUE(registry.CheckedCounterValue("typo").status().IsNotFound());

  obs::Gauge* gauge = registry.GetGauge("queue.depth");
  gauge->Set(7.0);
  gauge->Add(1.5);
  EXPECT_DOUBLE_EQ(gauge->Value(), 8.5);

  obs::StripedHistogram* histogram = registry.GetHistogram("latency", 4);
  histogram->Record(0.001);
  histogram->Record(0.010);
  EXPECT_EQ(histogram->Snapshot().count(), 2);
}

TEST(MetricsRegistryTest, SnapshotJsonIsDeterministicAndSorted) {
  auto populate = [](obs::MetricsRegistry& registry) {
    registry.GetCounter("b.second")->Add(2);
    registry.GetCounter("a.first")->Add(1);
    registry.GetGauge("z.gauge")->Set(0.25);
    registry.GetHistogram("m.hist")->Record(0.003);
  };
  obs::MetricsRegistry one;
  obs::MetricsRegistry two;
  populate(one);
  populate(two);
  std::string json = one.SnapshotJson();
  EXPECT_EQ(json, two.SnapshotJson());  // Byte-identical.
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"a.first\":1"), std::string::npos);
  // Sorted: "a.first" before "b.second".
  EXPECT_LT(json.find("a.first"), json.find("b.second"));
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsHandles) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("c");
  counter->Add(5);
  registry.GetHistogram("h")->Record(1.0);
  registry.Reset();
  EXPECT_EQ(counter->Value(), 0);
  EXPECT_EQ(registry.GetHistogram("h")->Snapshot().count(), 0);
  counter->Add(1);  // Handle still live.
  EXPECT_EQ(registry.CounterValue("c"), 1);
}

// ---------------------------------------------------------------------------
// Tracer

TEST(TracerTest, LogicalClockReplaysByteIdentically) {
  auto record = [](obs::Tracer& tracer) {
    int64_t t0 = tracer.NowUs();
    tracer.CompleteEvent("work", "test", t0, 5, {{"k", "v"}});
    tracer.InstantEvent("tick", "test");
    obs::SpanGuard span(&tracer, "guarded", "test");
    span.AddArg("outcome", "ok");
  };
  obs::TracerConfig config;
  config.clock = obs::TracerConfig::ClockMode::kLogical;
  obs::Tracer one(config);
  obs::Tracer two(config);
  record(one);
  record(two);
  EXPECT_EQ(one.ExportChromeJson(), two.ExportChromeJson());
  EXPECT_EQ(one.Fingerprint(), two.Fingerprint());

  obs::Tracer three(config);
  record(three);
  three.InstantEvent("extra", "test");
  EXPECT_NE(one.Fingerprint(), three.Fingerprint());
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  obs::Tracer tracer;
  tracer.SetEnabled(false);
  EXPECT_FALSE(tracer.enabled());
  tracer.CompleteEvent("x", "test", 0, 1);
  tracer.InstantEvent("y", "test");
  { obs::SpanGuard span(&tracer, "z", "test"); }
  EXPECT_EQ(tracer.event_count(), 0u);
  // Null tracer is a supported no-op for SpanGuard.
  { obs::SpanGuard span(nullptr, "w", "test"); }
}

TEST(TracerTest, MaxEventsCapCountsDropped) {
  obs::TracerConfig config;
  config.max_events = 3;
  obs::Tracer tracer(config);
  for (int i = 0; i < 10; ++i) {
    tracer.InstantEvent("e", "test");
  }
  EXPECT_EQ(tracer.event_count(), 3u);
  EXPECT_EQ(tracer.dropped(), 7);
}

TEST(TracerTest, ExportIsValidTraceEventShape) {
  obs::TracerConfig config;
  config.clock = obs::TracerConfig::ClockMode::kLogical;
  obs::Tracer tracer(config);
  tracer.CompleteEvent("span", "cat", 10, 4, {{"file", "a\"b"}});
  tracer.InstantEvent("mark", "cat");
  std::string json = tracer.ExportChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":4"), std::string::npos);
  EXPECT_NE(json.find("a\\\"b"), std::string::npos);  // Escaped quote.
}

// ---------------------------------------------------------------------------
// FlowRunner: golden traces + counter cross-checks

/// One faulted Fig-1-style run: src -> work with transient errors, a
/// jittered retry policy (jitter draws from the runner's seed, so the
/// trace timing depends on it), and the tracer bound to the simulation
/// clock. Returns the Chrome JSON export.
std::string RunFlowTrace(uint64_t seed, std::string* metrics_json = nullptr) {
  sim::Simulation simulation;
  FlowGraph graph;
  EXPECT_TRUE(graph.AddStage(PassThrough("src", 0.5)).ok());
  EXPECT_TRUE(graph.AddStage(PassThrough("work", 1.0)).ok());
  EXPECT_TRUE(graph.Connect("src", "work").ok());

  FlowRunner runner(&simulation, &graph, seed);
  obs::MetricsRegistry registry;
  EXPECT_TRUE(runner.SetMetricsRegistry(&registry).ok());

  obs::TracerConfig config;
  config.clock = obs::TracerConfig::ClockMode::kExternal;
  config.external_now_sec = [&simulation] { return simulation.Now(); };
  obs::Tracer tracer(config);
  EXPECT_TRUE(runner.SetTracer(&tracer).ok());

  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_initial_sec = 10.0;
  policy.jitter_fraction = 0.5;  // Seed-dependent timing.
  EXPECT_TRUE(runner.SetRetryPolicy("work", policy).ok());
  EXPECT_TRUE(runner.InjectTransientErrors("work", 2).ok());
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(runner
                    .Inject("src", Product("p" + std::to_string(i), kGB),
                            static_cast<double>(i))
                    .ok());
  }
  EXPECT_TRUE(runner.Run().ok());
  if (metrics_json != nullptr) {
    *metrics_json = registry.SnapshotJson();
  }
  return tracer.ExportChromeJson();
}

TEST(FlowRunnerObsTest, SameSeedExportsByteIdenticalTrace) {
  std::string metrics_a;
  std::string metrics_b;
  std::string trace_a = RunFlowTrace(20060206, &metrics_a);
  std::string trace_b = RunFlowTrace(20060206, &metrics_b);
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_EQ(metrics_a, metrics_b);
  EXPECT_NE(trace_a.find("retry_scheduled"), std::string::npos);
  EXPECT_NE(trace_a.find("\"cat\":\"flow\""), std::string::npos);
}

TEST(FlowRunnerObsTest, DifferentSeedsExportDifferentTraces) {
  // The retry jitter is the only seed consumer; the traces must diverge
  // in the backoff instants' timestamps.
  EXPECT_NE(RunFlowTrace(1), RunFlowTrace(2));
}

TEST(FlowRunnerObsTest, CountersCrossCheckReportColumns) {
  sim::Simulation simulation;
  FlowGraph graph;
  ASSERT_TRUE(graph.AddStage(PassThrough("work")).ok());
  FlowRunner runner(&simulation, &graph);
  obs::MetricsRegistry registry;
  ASSERT_TRUE(runner.SetMetricsRegistry(&registry).ok());

  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.backoff_initial_sec = 1.0;
  ASSERT_TRUE(runner.SetRetryPolicy("work", policy).ok());
  // 3 injected failures over 5 products. Failures are consumed per
  // serviced ATTEMPT, so one unlucky product burns two of them (first try
  // + its retry) and dead-letters under max_attempts=2; one more fails
  // once and survives its retry: errors=3, retries=2, dead=1.
  ASSERT_TRUE(runner.InjectTransientErrors("work", 3).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(runner
                    .Inject("work", Product("p" + std::to_string(i), 10),
                            static_cast<double>(i))
                    .ok());
  }
  ASSERT_TRUE(runner.Run().ok());

  const core::StageMetrics& metrics = runner.MetricsFor("work");
  EXPECT_EQ(metrics.errors, 3);
  EXPECT_EQ(metrics.retries, 2);
  EXPECT_EQ(metrics.dead_lettered, 1);
  EXPECT_EQ(metrics.products_in, 5);
  EXPECT_EQ(metrics.products_out, 4);

  // The registry is the single source of truth: its counters must agree
  // exactly with the accessor struct and the Report() columns.
  EXPECT_EQ(registry.CounterValue("flow.work.errors"), metrics.errors);
  EXPECT_EQ(registry.CounterValue("flow.work.retries"), metrics.retries);
  EXPECT_EQ(registry.CounterValue("flow.work.dead_lettered"),
            metrics.dead_lettered);
  EXPECT_EQ(registry.CounterValue("flow.work.products_in"),
            metrics.products_in);
  EXPECT_EQ(registry.CounterValue("flow.work.bytes_out"), metrics.bytes_out);
  EXPECT_EQ(runner.total_errors(), 3);
  EXPECT_EQ(runner.total_retries(), 2);
  EXPECT_EQ(runner.dead_letters().size(), 1u);

  std::string report = runner.Report();
  EXPECT_NE(report.find("work"), std::string::npos);
  // err / retry / dead columns carry the same numbers.
  EXPECT_NE(report.find("3"), std::string::npos);
}

TEST(FlowRunnerObsTest, DeadLettersMatchCounter) {
  sim::Simulation simulation;
  FlowGraph graph;
  ASSERT_TRUE(graph.AddStage(PassThrough("frail")).ok());
  FlowRunner runner(&simulation, &graph);
  // Fail-fast default policy: every injected error dead-letters.
  ASSERT_TRUE(runner.InjectTransientErrors("frail", 2).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        runner.Inject("frail", Product("p" + std::to_string(i), 1), 0.0)
            .ok());
  }
  ASSERT_TRUE(runner.Run().ok());
  EXPECT_EQ(runner.dead_letters().size(), 2u);
  EXPECT_EQ(runner.metrics_registry()->CounterValue(
                "flow.frail.dead_lettered"),
            2);
}

TEST(FlowRunnerObsTest, SetMetricsRegistryAndTracerPreconditions) {
  sim::Simulation simulation;
  FlowGraph graph;
  ASSERT_TRUE(graph.AddStage(PassThrough("a")).ok());
  FlowRunner runner(&simulation, &graph);
  obs::MetricsRegistry registry;
  EXPECT_TRUE(runner.SetMetricsRegistry(nullptr).IsInvalidArgument());
  ASSERT_TRUE(runner.SetWorkers("a", 2).ok());  // Creates stage state.
  EXPECT_TRUE(runner.SetMetricsRegistry(&registry).IsFailedPrecondition());
  ASSERT_TRUE(runner.Run().ok());
  obs::Tracer tracer;
  EXPECT_TRUE(runner.SetTracer(&tracer).IsFailedPrecondition());
}

TEST(FlowRunnerObsTest, CheckedUtilizationOfDistinguishesTypoFromIdle) {
  sim::Simulation simulation;
  FlowGraph graph;
  ASSERT_TRUE(graph.AddStage(PassThrough("busy", 1.0)).ok());
  ASSERT_TRUE(graph.AddStage(PassThrough("idle", 1.0)).ok());
  FlowRunner runner(&simulation, &graph);
  ASSERT_TRUE(runner.Inject("busy", Product("p", 1), 0.0).ok());
  ASSERT_TRUE(runner.Run().ok());

  auto busy = runner.CheckedUtilizationOf("busy");
  ASSERT_TRUE(busy.ok());
  EXPECT_DOUBLE_EQ(*busy, runner.UtilizationOf("busy"));
  EXPECT_GT(*busy, 0.0);

  auto idle = runner.CheckedUtilizationOf("idle");
  ASSERT_TRUE(idle.ok());  // Known stage that never ran: 0, not an error.
  EXPECT_DOUBLE_EQ(*idle, 0.0);

  EXPECT_TRUE(runner.CheckedUtilizationOf("ghost").status().IsNotFound());
}

// ---------------------------------------------------------------------------
// ServeLoop: golden traces on the logical clock + registry mirrors

class EchoService : public core::WebService {
 public:
  Result<core::ServiceResponse> Handle(
      const core::ServiceRequest& request) override {
    core::ServiceResponse response;
    response.body = "echo:" + request.Param("x", request.path);
    return response;
  }
  std::vector<std::string> Endpoints() const override { return {"echo"}; }
  const std::string& name() const override { return name_; }

 private:
  std::string name_ = "echo";
};

std::vector<core::ServiceRequest> EchoPopulation(int n) {
  std::vector<core::ServiceRequest> population;
  for (int i = 0; i < n; ++i) {
    core::ServiceRequest request;
    request.path = "svc/echo";
    request.params["x"] = "q" + std::to_string(i);
    population.push_back(std::move(request));
  }
  return population;
}

/// A serialized dissemination run on the logical clock: one worker,
/// blocking Execute() calls, so event order (and thread-track assignment)
/// is deterministic and the exported trace is a golden artifact of the
/// request stream.
std::string RunServeTrace(uint64_t seed, std::string* metrics_json = nullptr) {
  core::ServiceRegistry registry;
  EXPECT_TRUE(registry.Mount("svc", std::make_shared<EchoService>()).ok());
  serve::ShardedResponseCache cache(serve::CacheConfig{4, 1 << 20, 0.0});

  obs::TracerConfig trace_config;
  trace_config.clock = obs::TracerConfig::ClockMode::kLogical;
  obs::Tracer tracer(trace_config);
  obs::MetricsRegistry metrics;

  serve::ServeConfig config;
  config.num_workers = 1;
  config.tracer = &tracer;
  config.metrics = &metrics;
  serve::ServeLoop loop(&registry, config, &cache);

  serve::WorkloadGen gen(EchoPopulation(8), /*zipf_s=*/1.1, seed);
  for (int i = 0; i < 64; ++i) {
    auto result = loop.Execute(gen.Next());
    EXPECT_TRUE(result.ok());
  }
  loop.Drain();
  if (metrics_json != nullptr) {
    // Counters only: the latency histogram measures WALL time per request
    // and is legitimately run-dependent; the counters (and the trace, on
    // the logical clock) are the deterministic artifacts.
    metrics_json->clear();
    for (const std::string& name : metrics.CounterNames()) {
      *metrics_json += name + "=" +
                       std::to_string(metrics.CounterValue(name)) + ";";
    }
  }
  return tracer.ExportChromeJson();
}

TEST(ServeLoopObsTest, SameSeedExportsByteIdenticalTrace) {
  std::string metrics_a;
  std::string metrics_b;
  std::string trace_a = RunServeTrace(7, &metrics_a);
  std::string trace_b = RunServeTrace(7, &metrics_b);
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_EQ(metrics_a, metrics_b);
  EXPECT_NE(trace_a.find("cache_lookup"), std::string::npos);
  EXPECT_NE(trace_a.find("queue_wait"), std::string::npos);
  EXPECT_NE(trace_a.find("backend"), std::string::npos);
}

TEST(ServeLoopObsTest, DifferentSeedsExportDifferentTraces) {
  EXPECT_NE(RunServeTrace(7), RunServeTrace(8));
}

TEST(ServeLoopObsTest, RegistryMirrorsStatsAndCacheTotals) {
  core::ServiceRegistry registry;
  ASSERT_TRUE(registry.Mount("svc", std::make_shared<EchoService>()).ok());
  serve::ShardedResponseCache cache(serve::CacheConfig{2, 1 << 20, 0.0});
  obs::MetricsRegistry metrics;
  serve::ServeConfig config;
  config.num_workers = 2;
  config.metrics = &metrics;
  serve::ServeLoop loop(&registry, config, &cache);

  core::ServiceRequest request;
  request.path = "svc/echo";
  request.params["x"] = "hot";
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(loop.Execute(request).ok());  // 1 miss, then 9 hits.
  }
  loop.Drain();

  serve::ServeStats stats = loop.Stats();
  EXPECT_EQ(stats.offered, 10);
  EXPECT_EQ(stats.completed, 10);
  EXPECT_EQ(stats.cache_hits, 9);
  EXPECT_EQ(stats.cache_misses, 1);

  // Registry mirrors agree with Stats() ...
  EXPECT_EQ(metrics.CounterValue("serve.offered"), stats.offered);
  EXPECT_EQ(metrics.CounterValue("serve.admitted"), stats.admitted);
  EXPECT_EQ(metrics.CounterValue("serve.completed"), stats.completed);
  EXPECT_EQ(metrics.CounterValue("serve.cache_hits"), stats.cache_hits);
  EXPECT_EQ(metrics.CounterValue("serve.cache_misses"), stats.cache_misses);
  // ... and with the cache's own (independently counted) totals.
  serve::CacheStats totals = cache.Totals();
  EXPECT_EQ(metrics.CounterValue("serve.cache_hits"), totals.hits);
  EXPECT_EQ(metrics.CounterValue("serve.cache_misses"), totals.misses);
  // Every completed request left one latency sample in the registry
  // histogram, the one Latencies() reads.
  EXPECT_EQ(metrics.GetHistogram("serve.latency_sec")->Snapshot().count(),
            stats.completed);
  EXPECT_EQ(loop.Latencies().count(), stats.completed);
}

// ---------------------------------------------------------------------------
// Storage: HSM + migration observability

TEST(StorageObsTest, HsmCountersAndSpans) {
  sim::Simulation simulation;
  storage::DiskVolume disk("cache", 100 * kGB, 400.0e6, 0.005);
  storage::TapeLibrary tape(&simulation, "tape", storage::TapeLibraryConfig{});
  storage::HsmCache hsm(&simulation, &disk, &tape);

  obs::MetricsRegistry metrics;
  obs::TracerConfig trace_config;
  trace_config.clock = obs::TracerConfig::ClockMode::kExternal;
  trace_config.external_now_sec = [&simulation] { return simulation.Now(); };
  obs::Tracer tracer(trace_config);
  hsm.SetObserver(&tracer, &metrics);

  bool archived = false;
  ASSERT_TRUE(hsm.Put("run1", 10 * kGB, [&] { archived = true; }).ok());
  simulation.Run();
  ASSERT_TRUE(archived);

  // Hit: one cache_read span.
  ASSERT_TRUE(hsm.GetChecked("run1", nullptr).ok());
  simulation.Run();
  // Miss with one bad block: recall span covering a fault, a repair, and
  // the re-read.
  hsm.Evict("run1");
  tape.MarkBadBlock("run1");
  int64_t recalled = 0;
  ASSERT_TRUE(hsm.GetChecked("run1", [&](Result<int64_t> n) {
                   ASSERT_TRUE(n.ok());
                   recalled = *n;
                 })
                  .ok());
  simulation.Run();
  EXPECT_EQ(recalled, 10 * kGB);

  EXPECT_EQ(metrics.CounterValue("hsm.cache_hits"), hsm.hits());
  EXPECT_EQ(metrics.CounterValue("hsm.cache_misses"), hsm.misses());
  EXPECT_EQ(metrics.CounterValue("hsm.evictions"), hsm.evictions());
  EXPECT_EQ(metrics.CounterValue("hsm.read_faults"), hsm.read_faults());
  EXPECT_EQ(metrics.CounterValue("hsm.operator_repairs"),
            hsm.operator_repairs());
  EXPECT_EQ(hsm.read_faults(), 1);
  EXPECT_EQ(hsm.operator_repairs(), 1);

  std::string trace = tracer.ExportChromeJson();
  EXPECT_NE(trace.find("hsm.archive_put"), std::string::npos);
  EXPECT_NE(trace.find("hsm.cache_read"), std::string::npos);
  EXPECT_NE(trace.find("hsm.recall"), std::string::npos);
  EXPECT_NE(trace.find("hsm.operator_repair"), std::string::npos);
}

TEST(StorageObsTest, MigrationCountersAndSpans) {
  sim::Simulation simulation;
  storage::TapeLibrary source(&simulation, "old",
                              storage::TapeLibraryConfig{});
  storage::TapeLibrary destination(&simulation, "new",
                                   storage::TapeLibraryConfig{});
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        source.Write("f" + std::to_string(i), kGB, nullptr).ok());
  }
  simulation.Run();
  source.MarkBadBlock("f1");  // One file needs an operator repair.

  storage::MigrationConfig config;
  config.parallel_streams = 2;
  storage::MediaMigration migration(&simulation, &source, &destination,
                                    config);
  obs::MetricsRegistry metrics;
  obs::TracerConfig trace_config;
  trace_config.clock = obs::TracerConfig::ClockMode::kExternal;
  trace_config.external_now_sec = [&simulation] { return simulation.Now(); };
  obs::Tracer tracer(trace_config);
  migration.SetObserver(&tracer, &metrics);

  bool done = false;
  ASSERT_TRUE(
      migration.Run([&](const storage::MigrationReport&) { done = true; })
          .ok());
  simulation.Run();
  ASSERT_TRUE(done);
  ASSERT_TRUE(migration.Verify().ok());

  const storage::MigrationReport& report = migration.report();
  EXPECT_EQ(report.files_migrated, 3);
  EXPECT_EQ(report.files_lost, 0);
  EXPECT_EQ(report.bad_block_repairs, 1);
  EXPECT_EQ(metrics.CounterValue("migration.files_migrated"),
            report.files_migrated);
  EXPECT_EQ(metrics.CounterValue("migration.files_lost"), report.files_lost);
  EXPECT_EQ(metrics.CounterValue("migration.retries"), report.retries);
  EXPECT_EQ(metrics.CounterValue("migration.bad_block_repairs"),
            report.bad_block_repairs);

  std::string trace = tracer.ExportChromeJson();
  EXPECT_NE(trace.find("migrate_file"), std::string::npos);
  EXPECT_NE(trace.find("bad_block_repair"), std::string::npos);
  EXPECT_NE(trace.find("\"outcome\":\"migrated\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Net: transfer spans + retransmit instants

TEST(NetObsTest, TransferSpansAndCounters) {
  sim::Simulation simulation;
  net::NetworkLink link(&simulation, "link", net::NetworkLinkConfig{});
  link.InjectCorruptNext(1);  // First file arrives bit-flipped once.
  net::TransferScheduler scheduler(&simulation, &link, /*max_retries=*/3);

  obs::MetricsRegistry metrics;
  obs::TracerConfig trace_config;
  trace_config.clock = obs::TracerConfig::ClockMode::kExternal;
  trace_config.external_now_sec = [&simulation] { return simulation.Now(); };
  obs::Tracer tracer(trace_config);
  scheduler.SetObserver(&tracer, &metrics);

  std::vector<net::TransferItem> items;
  items.push_back(net::MakePayloadItem("a.arc", "payload-a", 10 * kGB));
  items.push_back(net::MakePayloadItem("b.arc", "payload-b", 10 * kGB));
  bool delivered = false;
  ASSERT_TRUE(scheduler.SendAll(items, [&] { delivered = true; }).ok());
  simulation.Run();
  ASSERT_TRUE(delivered);
  EXPECT_TRUE(scheduler.AllDelivered());

  EXPECT_EQ(scheduler.retries(), 1);
  EXPECT_EQ(metrics.CounterValue("net.transfer.retries"),
            scheduler.retries());
  EXPECT_EQ(metrics.CounterValue("net.transfer.failures"),
            scheduler.failures());
  EXPECT_EQ(metrics.CounterValue("net.transfer.delivered"), 2);

  std::string trace = tracer.ExportChromeJson();
  EXPECT_NE(trace.find("net.transfer"), std::string::npos);
  EXPECT_NE(trace.find("net.retransmit"), std::string::npos);
  EXPECT_NE(trace.find("\"outcome\":\"delivered\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// One counter store: each instrumented class keeps its counts only in an
// obs::MetricsRegistry (the attached one, else its own) and its accessors
// read them back from there.

/// A class's accessors, keyed by the registry counter each one reads.
using Reads = std::map<std::string, int64_t>;

struct CounterStoreCase {
  std::string name;
  /// Everything an attached registry receives — counters, then gauges,
  /// then histograms, each sorted — as the classes registered them before
  /// the single store (the scenario fingerprints hash these names).
  std::vector<std::string> names;
  /// Two rounds of work. Between them `registry` (if non-null) is
  /// attached; a class that only takes a registry at construction gets it
  /// there. Fills the reads taken after each round.
  std::function<void(obs::MetricsRegistry* registry, Reads* first,
                     Reads* second)>
      run;
};

std::vector<std::string> RegisteredNames(const obs::MetricsRegistry& m) {
  std::vector<std::string> names = m.CounterNames();
  for (const auto& list : {m.GaugeNames(), m.HistogramNames()}) {
    names.insert(names.end(), list.begin(), list.end());
  }
  return names;
}

core::ServiceRequest EchoRequest(const std::string& path,
                                 const std::string& x = "") {
  core::ServiceRequest request;
  request.path = path;
  if (!x.empty()) {
    request.params["x"] = x;
  }
  return request;
}

Reads ServeReads(const serve::ServeLoop& loop) {
  serve::ServeStats s = loop.Stats();
  Reads reads = {{"serve.offered", s.offered},
                 {"serve.admitted", s.admitted},
                 {"serve.shed", s.shed},
                 {"serve.completed", s.completed},
                 {"serve.errors", s.errors},
                 {"serve.deadline_expired", s.deadline_expired},
                 {"serve.cache_hits", s.cache_hits},
                 {"serve.cache_misses", s.cache_misses}};
  if (loop.config().breaker.enabled) {
    reads["serve.breaker_opened"] = s.breaker_opened;
    reads["serve.breaker_closed"] = s.breaker_closed;
    reads["serve.breaker_probes"] = s.breaker_probes;
    reads["serve.failover"] = s.failover_requests;
    reads["serve.breaker_rejected"] = s.breaker_rejected;
  }
  return reads;
}

/// Hits, a miss and backend errors; with the breaker on, the first error
/// trips the "nowhere" mount open and the second is failed fast.
void RunServe(bool breaker, obs::MetricsRegistry* registry, Reads* first,
              Reads* second) {
  core::ServiceRegistry services;
  ASSERT_TRUE(services.Mount("svc", std::make_shared<EchoService>()).ok());
  serve::ShardedResponseCache cache(serve::CacheConfig{2, 1 << 20, 0.0});
  serve::ServeConfig config;
  config.num_workers = 1;
  config.metrics = registry;
  config.breaker.enabled = breaker;
  config.breaker.failure_threshold = 1;
  config.breaker.open_sec = 600.0;
  config.breaker.open_max_sec = 600.0;
  serve::ServeLoop loop(&services, config, &cache);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(loop.Execute(EchoRequest("svc/echo", "a")).ok());
  }
  *first = ServeReads(loop);
  EXPECT_FALSE(loop.Execute(EchoRequest("nowhere")).ok());
  EXPECT_FALSE(loop.Execute(EchoRequest("nowhere")).ok());
  loop.Drain();
  *second = ServeReads(loop);
}

std::vector<CounterStoreCase> CounterStoreCases() {
  std::vector<std::string> serve_names = {
      "serve.admitted",   "serve.cache_hits", "serve.cache_misses",
      "serve.completed",  "serve.deadline_expired", "serve.errors",
      "serve.offered",    "serve.shed",       "serve.hit_alloc_bytes",
      "simd.dispatch",    "serve.latency_sec"};
  std::vector<std::string> breaker_names = {
      "serve.admitted",         "serve.breaker_closed",
      "serve.breaker_opened",   "serve.breaker_probes",
      "serve.breaker_rejected", "serve.cache_hits",
      "serve.cache_misses",     "serve.completed",
      "serve.deadline_expired", "serve.errors",
      "serve.failover",         "serve.offered",
      "serve.shed",             "serve.hit_alloc_bytes",
      "simd.dispatch",          "serve.latency_sec"};
  std::vector<CounterStoreCase> cases;
  cases.push_back({"ServeLoop", serve_names,
                   [](obs::MetricsRegistry* r, Reads* a, Reads* b) {
                     RunServe(false, r, a, b);
                   }});
  cases.push_back({"ServeLoop+breaker", breaker_names,
                   [](obs::MetricsRegistry* r, Reads* a, Reads* b) {
                     RunServe(true, r, a, b);
                   }});

  cases.push_back(
      {"Cluster",
       {"cluster.catchup_shards", "cluster.dual_writes", "cluster.failed",
        "cluster.forward_drops", "cluster.forwarded", "cluster.get_failures",
        "cluster.hints_drained", "cluster.hints_stored",
        "cluster.journal_replayed", "cluster.kills", "cluster.local",
        "cluster.partition_transitions", "cluster.put_failures",
        "cluster.read_repairs", "cluster.rebalance_moves", "cluster.rejoins",
        "cluster.replica_writes", "cluster.requests", "cluster.reroutes",
        "cluster.writes"},
       [](obs::MetricsRegistry* registry, Reads* first, Reads* second) {
         cluster::ClusterConfig config;
         config.num_nodes = 3;
         config.metrics = registry;
         auto created = cluster::Cluster::Create(
             config, [](int, core::ServiceRegistry* services) {
               return services->Mount("svc", std::make_shared<EchoService>());
             });
         ASSERT_TRUE(created.ok());
         cluster::Cluster& cluster = **created;
         auto reads = [&cluster] {
           cluster::ClusterStats s = cluster.Stats();
           return Reads{{"cluster.requests", s.requests},
                        {"cluster.local", s.local},
                        {"cluster.forwarded", s.forwarded},
                        {"cluster.reroutes", s.reroutes},
                        {"cluster.failed", s.failed},
                        {"cluster.writes", s.writes},
                        {"cluster.replica_writes", s.replica_writes},
                        {"cluster.kills", s.kills},
                        {"cluster.rejoins", s.rejoins}};
         };
         for (int i = 0; i < 6; ++i) {
           EXPECT_TRUE(
               cluster.Execute(EchoRequest("svc/echo", std::to_string(i)))
                   .ok());
           EXPECT_TRUE(cluster.Put("k" + std::to_string(i), "v").ok());
         }
         *first = reads();
         EXPECT_TRUE(cluster.KillNode("node1").ok());
         for (int i = 0; i < 6; ++i) {
           EXPECT_TRUE(
               cluster.Execute(EchoRequest("svc/echo", std::to_string(i)))
                   .ok());
         }
         EXPECT_TRUE(cluster.RejoinNode("node1").ok());
         *second = reads();
       }});

  cases.push_back(
      {"BufferPool",
       {"db.pool.allocations", "db.pool.evictions", "db.pool.frees",
        "db.pool.hits", "db.pool.misses", "db.pool.writebacks"},
       [](obs::MetricsRegistry* registry, Reads* first, Reads* second) {
         db::DatabaseOptions options;
         options.pool_frames = 2;
         db::Database db(options);
         auto reads = [&db] {
           db::BufferPool::Stats s = db.pool()->stats();
           return Reads{{"db.pool.hits", s.hits},
                        {"db.pool.misses", s.misses},
                        {"db.pool.evictions", s.evictions},
                        {"db.pool.writebacks", s.writebacks},
                        {"db.pool.allocations", s.allocations},
                        {"db.pool.frees", s.frees}};
         };
         ASSERT_TRUE(db.Execute("CREATE TABLE t (id INT, pad TEXT)").ok());
         for (int i = 0; i < 60; ++i) {
           ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (" +
                                  std::to_string(i) + ", '" +
                                  std::string(300, 'p') + "')")
                           .ok());
         }
         *first = reads();
         if (registry != nullptr) {
           db.SetMetricsRegistry(registry);
         }
         ASSERT_TRUE(db.Execute("SELECT COUNT(*) FROM t").ok());
         // Dropping frees every page now, so none is counted later, while
         // the database is destroyed.
         ASSERT_TRUE(db.Execute("DROP TABLE t").ok());
         *second = reads();
       }});

  cases.push_back(
      {"HsmCache",
       {"hsm.cache_hits", "hsm.cache_misses", "hsm.evictions",
        "hsm.operator_repairs", "hsm.read_failures", "hsm.read_faults"},
       [](obs::MetricsRegistry* registry, Reads* first, Reads* second) {
         sim::Simulation simulation;
         storage::DiskVolume disk("cache", 100 * kGB, 400.0e6, 0.005);
         storage::TapeLibrary tape(&simulation, "tape",
                                   storage::TapeLibraryConfig{});
         storage::HsmCache hsm(&simulation, &disk, &tape);
         auto reads = [&hsm] {
           return Reads{{"hsm.cache_hits", hsm.hits()},
                        {"hsm.cache_misses", hsm.misses()},
                        {"hsm.evictions", hsm.evictions()},
                        {"hsm.read_faults", hsm.read_faults()},
                        {"hsm.operator_repairs", hsm.operator_repairs()},
                        {"hsm.read_failures", hsm.read_failures()}};
         };
         ASSERT_TRUE(hsm.Put("run1", 10 * kGB, nullptr).ok());
         simulation.Run();
         ASSERT_TRUE(hsm.GetChecked("run1", nullptr).ok());
         simulation.Run();
         *first = reads();
         if (registry != nullptr) {
           hsm.SetObserver(nullptr, registry);
         }
         hsm.Evict("run1");
         tape.MarkBadBlock("run1");
         ASSERT_TRUE(hsm.GetChecked("run1", nullptr).ok());
         simulation.Run();
         *second = reads();
       }});

  cases.push_back(
      {"MediaMigration",
       {"migration.bad_block_repairs", "migration.files_lost",
        "migration.files_migrated", "migration.retries"},
       [](obs::MetricsRegistry* registry, Reads* first, Reads* second) {
         sim::Simulation simulation;
         storage::TapeLibrary source(&simulation, "old",
                                     storage::TapeLibraryConfig{});
         storage::TapeLibrary destination(&simulation, "new",
                                          storage::TapeLibraryConfig{});
         for (int i = 0; i < 3; ++i) {
           ASSERT_TRUE(
               source.Write("f" + std::to_string(i), kGB, nullptr).ok());
         }
         simulation.Run();
         source.MarkBadBlock("f1");
         storage::MediaMigration migration(&simulation, &source,
                                           &destination,
                                           storage::MigrationConfig{});
         auto reads = [&migration] {
           storage::MigrationReport r = migration.report();
           return Reads{{"migration.files_migrated", r.files_migrated},
                        {"migration.files_lost", r.files_lost},
                        {"migration.retries", r.retries},
                        {"migration.bad_block_repairs", r.bad_block_repairs}};
         };
         ASSERT_TRUE(migration.Run(nullptr).ok());
         // Stop once the bad block has cost a retry; attach mid-migration.
         while (migration.report().retries == 0 && simulation.Step()) {
         }
         *first = reads();
         if (registry != nullptr) {
           migration.SetObserver(nullptr, registry);
         }
         simulation.Run();
         *second = reads();
       }});

  cases.push_back(
      {"TransferScheduler",
       {"net.transfer.delivered", "net.transfer.failures",
        "net.transfer.retries"},
       [](obs::MetricsRegistry* registry, Reads* first, Reads* second) {
         sim::Simulation simulation;
         net::NetworkLink link(&simulation, "link", net::NetworkLinkConfig{});
         link.InjectCorruptNext(1);
         net::TransferScheduler scheduler(&simulation, &link,
                                          /*max_retries=*/3);
         auto reads = [&scheduler] {
           return Reads{{"net.transfer.retries", scheduler.retries()},
                        {"net.transfer.failures", scheduler.failures()}};
         };
         std::vector<net::TransferItem> items;
         items.push_back(net::MakePayloadItem("a.arc", "payload-a", kGB));
         items.push_back(net::MakePayloadItem("b.arc", "payload-b", kGB));
         ASSERT_TRUE(scheduler.SendAll(items, nullptr).ok());
         while (scheduler.retries() == 0 && simulation.Step()) {
         }
         *first = reads();
         if (registry != nullptr) {
           scheduler.SetObserver(nullptr, registry);
         }
         simulation.Run();
         *second = reads();
       }});

  cases.push_back(
      {"Scrubber",
       {"scrub.already_repaired", "scrub.bad_blocks_found",
        "scrub.files_scanned", "scrub.passes", "scrub.repairs_local",
        "scrub.restored_from_replica", "scrub.silent_corruption_found",
        "scrub.tickets_deduped", "scrub.tickets_filed",
        "scrub.unrecoverable"},
       [](obs::MetricsRegistry* registry, Reads* first, Reads* second) {
         sim::Simulation simulation;
         storage::TapeLibrary primary(&simulation, "primary",
                                      storage::TapeLibraryConfig{});
         storage::TapeLibrary replica(&simulation, "replica",
                                      storage::TapeLibraryConfig{});
         for (int i = 0; i < 4; ++i) {
           const std::string file = "f" + std::to_string(i);
           ASSERT_TRUE(primary.Write(file, kGB, nullptr).ok());
           ASSERT_TRUE(replica.Write(file, kGB, nullptr).ok());
         }
         simulation.Run();
         primary.MarkBadBlock("f1");
         primary.CorruptSilently("f2");
         recover::ScrubberConfig config;
         config.files_per_cycle = 2;
         config.passes = 2;
         recover::Scrubber scrubber(&simulation, &primary, &replica, config);
         auto reads = [&scrubber] {
           return Reads{
               {"scrub.files_scanned", scrubber.files_scanned()},
               {"scrub.bad_blocks_found", scrubber.bad_blocks_found()},
               {"scrub.silent_corruption_found",
                scrubber.silent_corruption_found()},
               {"scrub.tickets_filed", scrubber.tickets_filed()},
               {"scrub.tickets_deduped", scrubber.tickets_deduped()},
               {"scrub.repairs_local", scrubber.repairs_local()},
               {"scrub.restored_from_replica",
                scrubber.restored_from_replica()},
               {"scrub.already_repaired", scrubber.already_repaired()},
               {"scrub.unrecoverable", scrubber.unrecoverable()},
               {"scrub.passes", scrubber.passes_completed()}};
         };
         ASSERT_TRUE(scrubber.Start().ok());
         while (scrubber.tickets_filed() == 0 && simulation.Step()) {
         }
         *first = reads();
         if (registry != nullptr) {
           scrubber.SetObserver(nullptr, registry);
         }
         simulation.Run();
         *second = reads();
       }});
  return cases;
}

TEST(CounterStoreTest, EveryClassCountsIntoOneRegistry) {
  for (const CounterStoreCase& c : CounterStoreCases()) {
    SCOPED_TRACE(c.name);
    // With no registry attached, the accessors still count.
    Reads alone_first;
    Reads alone;
    c.run(nullptr, &alone_first, &alone);
    int64_t counted = 0;
    for (const auto& [counter, value] : alone) {
      counted += value;
    }
    EXPECT_GT(counted, 0);

    // Attaching (after the first round, where the class allows it)
    // changes no accessor, lowers none, and leaves the registry holding
    // every count — including those made before it was attached.
    obs::MetricsRegistry registry;
    Reads first;
    Reads second;
    c.run(&registry, &first, &second);
    EXPECT_EQ(second, alone);
    for (const auto& [counter, value] : second) {
      EXPECT_GE(value, first.at(counter)) << counter;
      EXPECT_EQ(registry.CounterValue(counter), value) << counter;
    }

    // The attached registry receives exactly the names it always did.
    EXPECT_EQ(RegisteredNames(registry), c.names);
  }
}

// ---------------------------------------------------------------------------
// Stress: one registry + one tracer shared by >= 8 threads (ASan/TSan).

TEST(ObsStressTest, ConcurrentRegistryAndTracerAreExact) {
  constexpr int kThreads = 8;
  constexpr int kIters = 4000;
  obs::MetricsRegistry registry;
  obs::TracerConfig config;
  config.clock = obs::TracerConfig::ClockMode::kLogical;
  config.max_events = static_cast<size_t>(kThreads) * kIters * 2;
  obs::Tracer tracer(config);

  std::atomic<bool> stop{false};
  // A reader thread snapshots concurrently with the writers.
  std::thread reader([&] {
    while (!stop.load()) {
      std::string json = registry.SnapshotJson();
      EXPECT_FALSE(json.empty());
      std::string trace = tracer.ExportChromeJson();
      EXPECT_FALSE(trace.empty());
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      // Half the names are shared across all threads, half are private:
      // both the contended and uncontended paths get exercised.
      obs::Counter* shared = registry.GetCounter("stress.shared");
      obs::Counter* mine =
          registry.GetCounter("stress.t" + std::to_string(t));
      obs::StripedHistogram* histogram =
          registry.GetHistogram("stress.latency", 8);
      for (int i = 0; i < kIters; ++i) {
        shared->Add(1);
        mine->Add(1);
        histogram->Record(1e-4 * (1 + (i % 7)));
        int64_t now = tracer.NowUs();
        tracer.CompleteEvent("op", "stress", now, 1);
        if (i % 16 == 0) {
          tracer.InstantEvent("mark", "stress");
        }
      }
    });
  }
  for (std::thread& thread : writers) {
    thread.join();
  }
  stop.store(true);
  reader.join();

  EXPECT_EQ(registry.CounterValue("stress.shared"),
            static_cast<int64_t>(kThreads) * kIters);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(registry.CounterValue("stress.t" + std::to_string(t)), kIters);
  }
  EXPECT_EQ(registry.GetHistogram("stress.latency")->Snapshot().count(),
            static_cast<int64_t>(kThreads) * kIters);
  size_t expected_events = static_cast<size_t>(kThreads) * kIters  // "op"
                           + static_cast<size_t>(kThreads) * (kIters / 16);
  EXPECT_EQ(tracer.event_count() + static_cast<size_t>(tracer.dropped()),
            expected_events);
  EXPECT_EQ(tracer.dropped(), 0);
  // The export parses out to one line per event plus the two wrapper
  // lines; just sanity-check it is well formed at the ends.
  std::string trace = tracer.ExportChromeJson();
  EXPECT_EQ(trace.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(trace.rfind("\"displayTimeUnit\":\"ms\"}"), std::string::npos);
}

TEST(ObsStressTest, ConcurrentEnableToggleIsSafe) {
  obs::TracerConfig config;
  config.clock = obs::TracerConfig::ClockMode::kLogical;
  obs::Tracer tracer(config);
  std::atomic<bool> stop{false};
  std::thread toggler([&] {
    while (!stop.load()) {
      tracer.SetEnabled(false);
      tracer.SetEnabled(true);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 8; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        if (tracer.enabled()) {
          tracer.InstantEvent("e", "stress");
        }
      }
    });
  }
  for (std::thread& thread : writers) {
    thread.join();
  }
  stop.store(true);
  toggler.join();
  EXPECT_LE(tracer.event_count(), 8u * 2000u);
}

}  // namespace
}  // namespace dflow
