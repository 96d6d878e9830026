// E17: dissemination-tier throughput, hit rate, and tail latency.
//
// §5 of the paper: all three projects disseminate "access to databases and
// some of the data analysis functionality ... through Web Services
// already", and the next step they all name is scaling that access out.
// This bench drives the serve tier (src/serve) end to end over the REAL
// three services — Arecibo CandidateService, CLEO EventStoreService, and
// WebLabService mounted in one ServiceRegistry — with seeded Zipf traffic
// over real endpoint populations (top-candidate queries, snapshot
// resolutions, retro-browse URLs), and measures what a capacity planner
// would plot:
//
//   1. determinism: same seed => byte-identical request stream (MD5);
//   2. saturation throughput (closed loop, cache off);
//   3. cache hit rate vs Zipf skew at fixed capacity (hot sets help only
//      if the popularity distribution is actually skewed);
//   4. cache on/off throughput ablation at Zipf s = 1.1;
//   5. open-loop overload sweep at 0.5x / 1x / 2x saturation: shed
//      fraction rises while the p99 of ADMITTED requests stays bounded by
//      the admission queue, instead of latency diverging with an
//      unbounded queue.
//
// Machine-readable results land in BENCH_serve.json next to the binary so
// the bench trajectory can be tracked across PRs.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "arecibo/candidate_service.h"
#include "bench/report.h"
#include "core/web_service.h"
#include "db/database.h"
#include "eventstore/event_store.h"
#include "eventstore/eventstore_service.h"
#include "obs/latency_histogram.h"
#include "serve/response_cache.h"
#include "serve/serve_loop.h"
#include "serve/workload_gen.h"
#include "util/logging.h"
#include "util/rng.h"
#include "weblab/crawler.h"
#include "weblab/preload.h"
#include "weblab/weblab_service.h"

namespace {

using namespace dflow;
using obs::LatencyHistogram;
using serve::CacheConfig;
using serve::ServeConfig;
using serve::ServeLoop;
using serve::ShardedResponseCache;
using serve::WorkloadGen;

constexpr uint64_t kSeed = 20060206;
constexpr int kWorkers = 6;
constexpr size_t kQueueDepth = 64;
constexpr int kClosedLoopClients = 8;

core::ServiceRequest Req(const std::string& path,
                         std::map<std::string, std::string> params = {}) {
  core::ServiceRequest request;
  request.path = path;
  request.params = std::move(params);
  return request;
}

// ---------------------------------------------------------------------------
// Backend setup: the three case-study services with seeded synthetic data.

struct Backends {
  db::Database arecibo_db;  // Per-mount locking => one db per mount.
  std::unique_ptr<eventstore::EventStore> event_store;
  db::Database weblab_db;
  weblab::PageStore page_store;
  weblab::InvertedIndex index;
  core::ServiceRegistry registry;
  std::vector<std::string> retro_urls;
  int64_t crawl_time = 0;
};

std::unique_ptr<Backends> BuildBackends() {
  auto backends = std::make_unique<Backends>();
  Rng rng(kSeed);

  // Arecibo: 40 pointings x 125 candidates.
  auto candidates = arecibo::CandidateService::Create(&backends->arecibo_db);
  DFLOW_CHECK(candidates.ok());
  std::vector<arecibo::Candidate> batch;
  for (int pointing = 0; pointing < 40; ++pointing) {
    for (int i = 0; i < 125; ++i) {
      arecibo::Candidate candidate;
      candidate.pointing = pointing;
      candidate.beam = static_cast<int>(rng.Uniform(0, 6));
      candidate.freq_hz = rng.UniformReal(1.0, 700.0);
      candidate.dm = rng.UniformReal(10.0, 300.0);
      candidate.snr = rng.UniformReal(8.0, 40.0);
      candidate.rfi_flag = rng.Bernoulli(0.3);
      batch.push_back(candidate);
    }
  }
  DFLOW_CHECK((*candidates)->Load(batch).ok());
  DFLOW_CHECK(
      backends->registry.Mount("arecibo", std::move(*candidates)).ok());

  // CLEO: 60 runs x {raw, recon}, one evolving physics grade.
  auto store =
      eventstore::EventStore::Create(eventstore::StoreScale::kCollaboration);
  DFLOW_CHECK(store.ok());
  backends->event_store = std::move(*store);
  for (int64_t run = 1; run <= 60; ++run) {
    for (const char* data_type : {"raw", "recon"}) {
      DFLOW_CHECK(backends->event_store
                      ->RegisterFile({run, data_type, "R1",
                                      1000 + 10 * run,
                                      100000 + 1000 * run,
                                      "/hsm/" + std::string(data_type) + "/" +
                                          std::to_string(run),
                                      {}})
                      .ok());
    }
  }
  for (int64_t ts = 100; ts <= 500; ts += 100) {
    DFLOW_CHECK(backends->event_store
                    ->AssignGrade("physics", ts, {1, ts / 10}, "recon", "R1")
                    .ok());
  }
  DFLOW_CHECK(backends->registry
                  .Mount("cleo", std::make_shared<eventstore::EventStoreService>(
                                     backends->event_store.get()))
                  .ok());

  // WebLab: 400 synthetic pages preloaded through the real ARC/DAT path.
  weblab::CrawlerConfig config;
  config.initial_pages = 400;
  weblab::SyntheticCrawler crawler(config);
  weblab::Crawl crawl = crawler.NextCrawl();
  weblab::PreloadSubsystem preload(weblab::PreloadConfig{},
                                   &backends->weblab_db,
                                   &backends->page_store);
  DFLOW_CHECK(preload.LoadArcFiles({weblab::WriteArcFile(crawl.pages)}).ok());
  DFLOW_CHECK(preload.LoadDatFiles({weblab::WriteDatFile(crawl.pages)}).ok());
  for (const auto& page : crawl.pages) {
    backends->index.AddPage(page.url, page.content);
  }
  backends->crawl_time = crawl.crawl_time;
  for (size_t i = 0; i < crawl.pages.size(); i += 1) {
    backends->retro_urls.push_back(crawl.pages[i].url);
  }
  DFLOW_CHECK(backends->registry
                  .Mount("weblab", std::make_shared<weblab::WebLabService>(
                                       &backends->page_store,
                                       &backends->weblab_db,
                                       &backends->index))
                  .ok());
  return backends;
}

/// Real endpoint population spanning all three mounts (~490 requests).
std::vector<core::ServiceRequest> BuildPopulation(const Backends& backends) {
  std::vector<core::ServiceRequest> population;
  // Arecibo: top-candidate queries, per-pointing NVO exports, counts.
  for (int limit : {5, 10, 20, 50}) {
    for (const char* rfi : {"0", "1"}) {
      population.push_back(Req("arecibo/top", {{"limit", std::to_string(limit)},
                                               {"include_rfi", rfi}}));
    }
  }
  for (int pointing = 0; pointing < 40; ++pointing) {
    population.push_back(
        Req("arecibo/votable", {{"pointing", std::to_string(pointing)}}));
  }
  population.push_back(Req("arecibo/count"));
  population.push_back(Req("arecibo/pointings"));
  // CLEO: snapshot resolutions (immutable at explicit ts), versions,
  // summaries.
  for (int64_t ts = 150; ts <= 550; ts += 50) {
    population.push_back(Req("cleo/resolve", {{"grade", "physics"},
                                              {"ts", std::to_string(ts)}}));
  }
  for (int64_t run = 1; run <= 20; ++run) {
    population.push_back(Req("cleo/versions",
                             {{"run", std::to_string(run)},
                              {"data_type", "recon"}}));
  }
  population.push_back(Req("cleo/grades"));
  population.push_back(Req("cleo/history", {{"grade", "physics"}}));
  population.push_back(Req("cleo/summary"));
  // WebLab: retro-browse URLs, link extraction, metadata slices, search.
  const std::string date = std::to_string(backends.crawl_time + 5);
  for (size_t i = 0; i < backends.retro_urls.size() && i < 300; ++i) {
    population.push_back(
        Req("weblab/retro", {{"url", backends.retro_urls[i]}, {"date", date}}));
  }
  for (size_t i = 0; i < backends.retro_urls.size() && i < 100; ++i) {
    population.push_back(
        Req("weblab/links", {{"url", backends.retro_urls[i]}, {"date", date}}));
  }
  for (int limit : {10, 50, 100}) {
    population.push_back(
        Req("weblab/pages", {{"limit", std::to_string(limit)}}));
  }
  for (int w = 1; w <= 20; ++w) {
    population.push_back(Req("weblab/search", {{"q", "w" + std::to_string(w)}}));
  }
  return population;
}

// ---------------------------------------------------------------------------
// Load runners.

ServeConfig MakeConfig(size_t queue_depth) {
  ServeConfig config;
  config.num_workers = kWorkers;
  config.max_queue_depth = queue_depth;
  config.locking = ServeConfig::BackendLocking::kPerMount;
  return config;
}

struct RunResult {
  serve::ServeStats stats;
  LatencyHistogram latencies;
  double elapsed_sec = 0.0;
  double completed_qps() const {
    return elapsed_sec == 0.0 ? 0.0 : stats.completed / elapsed_sec;
  }
  double offered_qps() const {
    return elapsed_sec == 0.0 ? 0.0 : stats.offered / elapsed_sec;
  }
};

double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Closed loop: `clients` threads issue blocking requests until each has
/// sent `per_client` (or `duration_sec` elapses when per_client == 0).
RunResult RunClosedLoop(core::ServiceRegistry* registry,
                        ShardedResponseCache* cache, WorkloadGen& master,
                        int clients, int per_client, double duration_sec) {
  ServeLoop loop(registry, MakeConfig(/*queue_depth=*/512), cache);
  std::vector<WorkloadGen> gens;
  gens.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    gens.push_back(master.Fork());
  }
  std::atomic<bool> stop{false};
  double start = NowSec();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&loop, &gens, &stop, c, per_client] {
      WorkloadGen& gen = gens[static_cast<size_t>(c)];
      for (int i = 0; per_client == 0 || i < per_client; ++i) {
        if (stop.load(std::memory_order_relaxed)) {
          break;
        }
        (void)loop.Execute(gen.Next());
      }
    });
  }
  if (per_client == 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(duration_sec));
    stop.store(true);
  }
  for (auto& thread : threads) {
    thread.join();
  }
  loop.Drain();
  RunResult result;
  result.elapsed_sec = NowSec() - start;
  result.stats = loop.Stats();
  result.latencies = loop.Latencies();
  return result;
}

/// Open loop: 4 submitter threads replay precomputed Poisson schedules at
/// an aggregate `rate_per_sec`, never waiting for responses — offered load
/// is independent of service capacity, which is what makes overload real.
RunResult RunOpenLoop(core::ServiceRegistry* registry,
                      ShardedResponseCache* cache, WorkloadGen& master,
                      double rate_per_sec, double duration_sec) {
  constexpr int kSubmitters = 4;
  ServeLoop loop(registry, MakeConfig(kQueueDepth), cache);
  std::vector<std::vector<serve::TimedRequest>> schedules;
  schedules.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    WorkloadGen gen = master.Fork();
    // Superposition of 4 independent Poisson streams at rate/4 is a
    // Poisson stream at the full rate.
    schedules.push_back(
        gen.OpenLoopSchedule(rate_per_sec / kSubmitters, duration_sec));
  }
  double start = NowSec();
  std::vector<std::thread> threads;
  threads.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    threads.emplace_back([&loop, &schedules, s, start] {
      for (const serve::TimedRequest& event :
           schedules[static_cast<size_t>(s)]) {
        // Pace to the schedule: coarse sleep, then yield.
        for (;;) {
          double now = NowSec() - start;
          double wait = event.at_sec - now;
          if (wait <= 0.0) {
            break;
          }
          if (wait > 0.001) {
            std::this_thread::sleep_for(std::chrono::duration<double>(
                wait - 0.0005));
          } else {
            std::this_thread::yield();
          }
        }
        (void)loop.Enqueue(event.request);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  loop.Drain();
  RunResult result;
  result.elapsed_sec = NowSec() - start;
  result.stats = loop.Stats();
  result.latencies = loop.Latencies();
  return result;
}

std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

}  // namespace

int main() {
  bench::Header(
      "E17: dissemination tier — throughput, hit rate, tail latency "
      "(bench_serve_tail)",
      "\"access to databases and some of the data analysis functionality "
      "is provided through Web Services already\" (§5) — scaled out behind "
      "a sharded cache with admission control");

  auto backends = BuildBackends();
  std::vector<core::ServiceRequest> population = BuildPopulation(*backends);

  // Sanity: every population endpoint answers OK, and we learn the total
  // response footprint to size the cache below.
  size_t total_entry_bytes = 0;
  for (const core::ServiceRequest& request : population) {
    auto response = backends->registry.Handle(request);
    if (!response.ok()) {
      std::printf("population request failed: %s -> %s\n",
                  request.path.c_str(), response.status().ToString().c_str());
      return 1;
    }
    total_entry_bytes += ShardedResponseCache::CanonicalKey(request).size() +
                         response->body.size() +
                         response->content_type.size() + 64;
  }
  // Cache holds ~15% of the full population footprint: skew has to earn
  // its hit rate.
  CacheConfig cache_config;
  cache_config.num_shards = 8;
  cache_config.capacity_bytes = std::max<size_t>(total_entry_bytes / 7, 4096);
  bench::Row("endpoint population", std::to_string(population.size()));
  bench::Row("population footprint (KB)",
             std::to_string(total_entry_bytes / 1024));
  bench::Row("cache capacity (KB, ~15%)",
             std::to_string(cache_config.capacity_bytes / 1024));

  // --- (c) Determinism: same seed => identical request stream. ----------
  WorkloadGen finger_a(population, 1.1, kSeed);
  WorkloadGen finger_b(population, 1.1, kSeed);
  std::string fp_a = finger_a.Fingerprint(20000);
  std::string fp_b = finger_b.Fingerprint(20000);
  bool replay_identical = fp_a == fp_b;
  bench::Row("request-stream fingerprint (20k reqs)", fp_a);
  bench::Row("same-seed replay identical", replay_identical ? "YES" : "NO");

  // --- Calibration: closed-loop saturation, cache off. ------------------
  WorkloadGen calib_gen(population, 1.1, kSeed + 1);
  RunResult calib = RunClosedLoop(&backends->registry, nullptr, calib_gen,
                                  kClosedLoopClients, /*per_client=*/0,
                                  /*duration_sec=*/0.8);
  double saturation_qps = calib.completed_qps();
  bench::Row("saturation throughput (8 clients, cache off)",
             Fmt("%.0f req/s", saturation_qps));
  bench::Row("  calibration latency", calib.latencies.Summary());

  // --- Hit rate vs Zipf skew (fixed capacity). --------------------------
  bench::Note("cache hit rate vs Zipf skew (closed loop, 4 clients x 5000):");
  std::vector<double> zipf_s = {0.0, 0.6, 1.0, 1.4};
  std::vector<double> zipf_hit_rate;
  std::vector<double> zipf_qps;
  for (double s : zipf_s) {
    ShardedResponseCache cache(cache_config);
    WorkloadGen gen(population, s, kSeed + 2);
    RunResult run = RunClosedLoop(&backends->registry, &cache, gen,
                                  /*clients=*/4, /*per_client=*/5000, 0.0);
    zipf_hit_rate.push_back(run.stats.cache_hit_rate());
    zipf_qps.push_back(run.completed_qps());
    bench::Row(Fmt("  s=%.1f", s),
               Fmt("hit rate %.3f", run.stats.cache_hit_rate()) + ", " +
                   Fmt("%.0f req/s", run.completed_qps()));
  }

  // --- (a) Cache on/off ablation at Zipf s=1.1. -------------------------
  WorkloadGen ablation_on_gen(population, 1.1, kSeed + 3);
  WorkloadGen ablation_off_gen(population, 1.1, kSeed + 3);
  ShardedResponseCache ablation_cache(cache_config);
  RunResult cache_on =
      RunClosedLoop(&backends->registry, &ablation_cache, ablation_on_gen,
                    kClosedLoopClients, /*per_client=*/5000, 0.0);
  RunResult cache_off =
      RunClosedLoop(&backends->registry, nullptr, ablation_off_gen,
                    kClosedLoopClients, /*per_client=*/5000, 0.0);
  double speedup = cache_off.completed_qps() == 0.0
                       ? 0.0
                       : cache_on.completed_qps() / cache_off.completed_qps();
  bench::Row("cache ON  (s=1.1)",
             Fmt("%.0f req/s", cache_on.completed_qps()) + ", " +
                 Fmt("hit rate %.3f", cache_on.stats.cache_hit_rate()));
  bench::Row("cache OFF (s=1.1)", Fmt("%.0f req/s", cache_off.completed_qps()));
  bench::Row("cache speedup", Fmt("%.2fx", speedup));

  // --- (b) Open-loop overload sweep, cache off. -------------------------
  bench::Note(
      "open-loop overload (cache off, queue depth 64): offered vs shed vs "
      "p99 of admitted:");
  struct OverloadPoint {
    double factor;
    double offered_target_qps;
    RunResult run;
  };
  std::vector<OverloadPoint> overload;
  constexpr double kOverloadDuration = 1.2;
  for (double factor : {0.5, 1.0, 2.0}) {
    WorkloadGen gen(population, 1.1, kSeed + 4);
    OverloadPoint point;
    point.factor = factor;
    point.offered_target_qps = factor * saturation_qps;
    point.run = RunOpenLoop(&backends->registry, nullptr, gen,
                            point.offered_target_qps, kOverloadDuration);
    const RunResult& run = point.run;
    bench::Row(Fmt("  %.1fx saturation", factor),
               Fmt("offered %.0f/s", run.offered_qps()) + ", " +
                   Fmt("done %.0f/s", run.completed_qps()) + ", " +
                   Fmt("shed %.1f%%", 100.0 * run.stats.shed_fraction()) +
                   ", p99 " +
                   Fmt("%.2fms", 1e3 * run.latencies.Percentile(0.99)));
    bench::Row("      latency", run.latencies.Summary());
    overload.push_back(std::move(point));
  }

  // --- Shape checks. ----------------------------------------------------
  bool zipf_monotone = true;
  for (size_t i = 1; i < zipf_hit_rate.size(); ++i) {
    zipf_monotone &= zipf_hit_rate[i] >= zipf_hit_rate[i - 1] - 0.02;
  }
  bool skew_earns_hits = zipf_hit_rate.back() > zipf_hit_rate.front() + 0.10;
  bool cache_wins = cache_on.completed_qps() > cache_off.completed_qps() &&
                    cache_on.stats.cache_hit_rate() > 0.30;
  double shed_lo = overload.front().run.stats.shed_fraction();
  double shed_hi = overload.back().run.stats.shed_fraction();
  bool shedding_rises = shed_hi > 0.05 && shed_hi > shed_lo + 0.02;
  // Bounded queue => bounded wait: even at 2x offered load the p99 of
  // admitted requests must stay far below the run duration (an unbounded
  // queue would push it toward duration/2).
  double p99_overload = overload.back().run.latencies.Percentile(0.99);
  bool p99_bounded = p99_overload < 0.25 * kOverloadDuration;
  bool no_errors = true;
  for (const OverloadPoint& point : overload) {
    no_errors &= point.run.stats.errors == 0;
    no_errors &= point.run.stats.admitted ==
                 point.run.stats.completed + point.run.stats.errors +
                     point.run.stats.deadline_expired;
  }

  bool shape_holds = replay_identical && zipf_monotone && skew_earns_hits &&
                     cache_wins && shedding_rises && p99_bounded && no_errors;

  bench::Note(std::string("replay_identical=") +
              (replay_identical ? "yes" : "no") +
              " zipf_monotone=" + (zipf_monotone ? "yes" : "no") +
              " skew_earns_hits=" + (skew_earns_hits ? "yes" : "no") +
              " cache_wins=" + (cache_wins ? "yes" : "no") +
              " shedding_rises=" + (shedding_rises ? "yes" : "no") +
              " p99_bounded=" + (p99_bounded ? "yes" : "no") +
              " no_errors=" + (no_errors ? "yes" : "no"));

  // --- BENCH_serve.json. ------------------------------------------------
  {
    std::ofstream json("BENCH_serve.json");
    json << "{\n";
    json << "  \"bench\": \"bench_serve_tail\",\n";
    json << "  \"seed\": " << kSeed << ",\n";
    json << "  \"config\": {\"workers\": " << kWorkers
         << ", \"queue_depth\": " << kQueueDepth
         << ", \"population\": " << population.size()
         << ", \"cache_capacity_bytes\": " << cache_config.capacity_bytes
         << ", \"cache_shards\": " << cache_config.num_shards << "},\n";
    json << "  \"determinism\": {\"fingerprint\": \"" << fp_a
         << "\", \"replay_identical\": "
         << (replay_identical ? "true" : "false") << "},\n";
    json << "  \"calibration\": {\"clients\": " << kClosedLoopClients
         << ", \"saturation_qps\": " << Fmt("%.1f", saturation_qps)
         << "},\n";
    json << "  \"zipf_sweep\": [";
    for (size_t i = 0; i < zipf_s.size(); ++i) {
      json << (i == 0 ? "" : ", ") << "{\"s\": " << zipf_s[i]
           << ", \"hit_rate\": " << Fmt("%.4f", zipf_hit_rate[i])
           << ", \"throughput_qps\": " << Fmt("%.1f", zipf_qps[i]) << "}";
    }
    json << "],\n";
    json << "  \"cache_ablation\": {\"zipf_s\": 1.1, \"on_qps\": "
         << Fmt("%.1f", cache_on.completed_qps())
         << ", \"off_qps\": " << Fmt("%.1f", cache_off.completed_qps())
         << ", \"hit_rate\": "
         << Fmt("%.4f", cache_on.stats.cache_hit_rate())
         << ", \"speedup\": " << Fmt("%.3f", speedup) << "},\n";
    json << "  \"overload\": [";
    for (size_t i = 0; i < overload.size(); ++i) {
      const OverloadPoint& point = overload[i];
      const RunResult& run = point.run;
      json << (i == 0 ? "" : ", ") << "{\"offered_x\": " << point.factor
           << ", \"offered_qps\": " << Fmt("%.1f", run.offered_qps())
           << ", \"completed_qps\": " << Fmt("%.1f", run.completed_qps())
           << ", \"shed_fraction\": "
           << Fmt("%.4f", run.stats.shed_fraction())
           << ", \"p50_ms\": "
           << Fmt("%.3f", 1e3 * run.latencies.Percentile(0.50))
           << ", \"p99_ms\": "
           << Fmt("%.3f", 1e3 * run.latencies.Percentile(0.99))
           << ", \"p999_ms\": "
           << Fmt("%.3f", 1e3 * run.latencies.Percentile(0.999))
           << ", \"deadline_expired\": " << run.stats.deadline_expired
           << "}";
    }
    json << "],\n";
    json << "  \"shape_holds\": " << (shape_holds ? "true" : "false")
         << "\n";
    json << "}\n";
  }
  bench::Note("machine-readable results written to BENCH_serve.json");

  bench::Footer(shape_holds);
  return shape_holds ? 0 : 1;
}
