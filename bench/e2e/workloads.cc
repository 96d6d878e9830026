// The four workloads. Each one sets itself up, warms up, then measures:
//   * serve_hot / serve_cold / kv_mixed: an open-loop phase at a fixed
//     nominal rate (latency from the due time) and a fixed-count closed
//     loop (capacity);
//   * survey_block: raw pointing -> ProcessPointing -> CandidateService::Load
//     into a durable database -> a served VOTable, one pointing at a time.
// After the run it repeats the set-up (setup_s is the median). Traced runs
// trace every other slice of the open-loop phase (every other pointing) and
// report per-layer metrics.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <numeric>

#include "arecibo/candidate_service.h"
#include "arecibo/survey.h"
#include "arecibo/votable.h"
#include "cluster/cluster.h"
#include "cluster/consistency.h"
#include "e2e.h"
#include "par/par.h"
#include "serve/serve_loop.h"
#include "serve_data.h"
#include "util/md5.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace e2e {
namespace {

namespace fs = std::filesystem;
using dflow::Result;
using dflow::Status;
using dflow::cluster::Cluster;
using dflow::cluster::ClusterConfig;
using dflow::cluster::ClusterStats;
using dflow::core::ServiceRegistry;
using dflow::core::ServiceRequest;

constexpr int kNodes = 4;
// Set-ups per run (setup_s is their median): the cluster's takes 0.2-1.3 s,
// the survey's a few milliseconds.
constexpr int kSetupRepeats = 5;
constexpr int kSurveySetupRepeats = 21;
// A closed-loop op counts toward capacity only if it finished within this.
constexpr double kCapacityLimitSec = 0.050;
// Traced runs switch tracing on and off every this much of the schedule.
constexpr double kTraceSliceSec = 0.1;

enum OpKind : uint8_t { kRead = 0, kPut = 1, kGet = 2 };

/// Fixed load levels, written once from the capacity_ops_per_s measured
/// (4 clients, closed loop) on the program this benchmark was added to,
/// and never recalibrated: `capacity` sizes the closed-loop op count, and
/// the open-loop rate `nominal` is a quarter of it, rounded to 100 ops/s.
/// At half of it the wait for one of the four connections moved
/// serve_cold's p50 between 0.57 and 1.15 ms from run to run; at a
/// quarter, between 0.59 and 0.66 (with an earlier, lighter serve_cold mix).
struct Rates {
  double nominal = 0.0;
  double capacity = 0.0;
};
constexpr Rates kServeHotRates{2300.0, 9330.0};
constexpr Rates kServeColdRates{700.0, 2830.0};
constexpr Rates kKvRates{6300.0, 25030.0};
// Measured pointings per second of --seconds, sized from the baseline
// throughput (~12.3/s with two par workers): 130 at --seconds 10, which
// leaves 13 samples below the product p10 and 13 beyond the p90.
constexpr double kSurveyPointingsPerSec = 13.0;

/// How one run splits --seconds: 20% warm-up, 50% open loop at the nominal
/// rate, and a closed loop whose op count takes about 30% at the baseline
/// capacity (so its length follows speed, but its work does not).
struct Phases {
  double warmup_sec = 0.0;
  double open_sec = 0.0;
  int64_t closed_ops = 0;
};

Phases PlanPhases(double seconds, const Rates& rates) {
  Phases phases;
  phases.warmup_sec = 0.2 * seconds;
  phases.open_sec = 0.5 * seconds;
  phases.closed_ops =
      std::max<int64_t>(100, std::llround(0.3 * seconds * rates.capacity));
  return phases;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double Ms(double sec) { return sec * 1e3; }

void SetMs(Report* report, const std::string& name, const Samples& samples,
           double q) {
  report->Set(name, Ms(samples.Quantile(q)), "ms",
              static_cast<int64_t>(samples.size()));
}

/// The program's set-up, timed. The run uses the first set-up; once it has
/// read its peak RSS and torn that set-up down, Finish() times the rest,
/// each discarded at once, and reports the median as setup_s. Repeating
/// before the run instead left the heap fragmented and raised serve_cold's
/// peak RSS by up to 15 MB at random.
template <typename Prepare, typename Setup>
class SetupTimer {
 public:
  SetupTimer(int repeats, Prepare prepare, Setup setup)
      : repeats_(repeats), prepare_(prepare), setup_(setup) {}

  /// Runs `prepare` (untimed, e.g. resetting files) then `setup` (timed).
  auto Once() {
    malloc_trim(0);  // Hand back what an earlier set-up freed.
    prepare_();
    const double start = NowSec();
    auto made = setup_();
    times_.push_back(NowSec() - start);
    return made;
  }

  void Finish(Report* report) {
    while (static_cast<int>(times_.size()) < repeats_) {
      auto made = Once();
      if (!made.ok()) {
        report->Fail("setup failed: " + made.status().ToString());
        return;
      }
    }
    std::string listed;
    for (double t : times_) {
      listed += (listed.empty() ? "[" : ", ") + JsonNumber(t);
    }
    report->config["setup_times_s"] = listed + "]";
    std::sort(times_.begin(), times_.end());
    report->Set("setup_s", times_[times_.size() / 2], "s", repeats_);
  }

 private:
  int repeats_;
  Prepare prepare_;
  Setup setup_;
  std::vector<double> times_;
};

std::string Md5Of(const std::string& s) { return dflow::Md5::HexOf(s); }

// --- The cluster behind serve_hot, serve_cold and kv_mixed ----------------

/// Declaration order is destruction order reversed: the cluster's serve
/// loops drain before the history and backends they use go away.
struct Rig {
  std::vector<std::unique_ptr<Backends>> backends;
  std::unique_ptr<dflow::cluster::HistoryRecorder> history;
  std::unique_ptr<Cluster> cluster;
};

/// The shard placement is the same in every run, for the reason given at
/// ZipfPicker.
ClusterConfig BaseClusterConfig() {
  ClusterConfig config;
  config.num_nodes = kNodes;
  config.replication_factor = 2;
  config.seed = 42;
  config.workers_per_node = 2;
  config.queue_depth = 128;
  config.forward_latency_sec = 0.0002;
  return config;
}

Result<std::unique_ptr<Rig>> MakeRig(const Dataset& data,
                                     ClusterConfig config, bool traced,
                                     bool with_history) {
  auto rig = std::make_unique<Rig>();
  rig->backends.resize(static_cast<size_t>(config.num_nodes));
  if (with_history) {
    rig->history = std::make_unique<dflow::cluster::HistoryRecorder>();
    config.history = rig->history.get();
  }
  Rig* raw = rig.get();
  auto cluster = Cluster::Create(
      config, [&data, traced, raw](int node, ServiceRegistry* registry) {
        auto loaded = LoadBackends(data, traced, registry);
        if (!loaded.ok()) {
          return loaded.status();
        }
        raw->backends[static_cast<size_t>(node)] = *std::move(loaded);
        return Status::OK();
      });
  if (!cluster.ok()) {
    return cluster.status();
  }
  rig->cluster = *std::move(cluster);
  return rig;
}

struct PoolTotals {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
};

/// Buffer-pool counters over every node's databases. Only read while the
/// cluster is idle: the pools are single-threaded.
PoolTotals ReadPools(const Rig& rig) {
  PoolTotals totals;
  for (const auto& backends : rig.backends) {
    for (const dflow::db::Database* db :
         {backends->arecibo_db.get(), backends->weblab_db.get(),
          &backends->event_store->database()}) {
      const auto& stats = db->pool()->stats();
      totals.hits += stats.hits;
      totals.misses += stats.misses;
      totals.evictions += stats.evictions;
    }
  }
  return totals;
}

struct ServeTotals {
  int64_t hits = 0;
  int64_t misses = 0;
  std::map<std::string, int64_t> served;
  ClusterStats cluster;
};

ServeTotals ReadServe(const Cluster& cluster) {
  ServeTotals totals;
  for (const std::string& node : cluster.node_names()) {
    auto stats = cluster.NodeServeStats(node);
    if (stats.ok()) {
      totals.hits += stats->cache_hits;
      totals.misses += stats->cache_misses;
    }
  }
  totals.served = cluster.ServedByNode();
  totals.cluster = cluster.Stats();
  return totals;
}

// --- Load plans -------------------------------------------------------------

/// Every op a run will issue, generated from the seed before anything runs.
struct LoadPlan {
  std::vector<Op> warmup;
  std::vector<Op> open;
  std::vector<double> due;
  std::vector<Op> closed;
};

std::string OpsText(const std::vector<Op>& ops) {
  std::string text;
  text.reserve(ops.size() * 12);
  for (const Op& op : ops) {
    text += std::to_string(op.kind) + ":" + std::to_string(op.a) + ":" +
            std::to_string(op.b) + "\n";
  }
  return text;
}

std::string ScheduleFingerprint(const LoadPlan& plan) {
  std::string text;
  char buf[32];
  for (double t : plan.due) {
    std::snprintf(buf, sizeof(buf), "%.9f\n", t);
    text += buf;
  }
  return Md5Of(text + OpsText(plan.open));
}

std::string StreamFingerprint(const LoadPlan& plan) {
  return Md5Of(OpsText(plan.warmup) + "|" + OpsText(plan.closed));
}

/// Zipf draws over a popularity order that is the same in every run (a
/// constant-seed shuffle), so each run loads the same hot set on the same
/// shards; the run seed picks which requests are drawn and when. With
/// s=1.1 the five hottest of 505 endpoints take 41% of the traffic, so a
/// seeded hot set would make the results a lottery over which endpoints
/// and nodes those are.
class ZipfPicker {
 public:
  ZipfPicker(size_t n, double s, uint64_t seed)
      : rank_to_index_(n), s_(s), rng_(seed) {
    std::iota(rank_to_index_.begin(), rank_to_index_.end(), 0u);
    dflow::Rng order(kPopularitySeed);
    order.Shuffle(rank_to_index_);
  }

  uint32_t Next() {
    return rank_to_index_[static_cast<size_t>(
        rng_.Zipf(static_cast<int64_t>(rank_to_index_.size()), s_) - 1)];
  }

 private:
  static constexpr uint64_t kPopularitySeed = 20060206;
  std::vector<uint32_t> rank_to_index_;
  double s_;
  dflow::Rng rng_;
};

std::vector<Op> ReadOps(ZipfPicker& picker, size_t n) {
  std::vector<Op> ops(n);
  for (Op& op : ops) {
    op.kind = kRead;
    op.a = picker.Next();
  }
  return ops;
}

LoadPlan ServePlan(size_t population, double zipf_s, uint64_t seed,
                   const Phases& phases, const Rates& rates) {
  ZipfPicker picker(population, zipf_s, SubSeed(seed, 5));
  LoadPlan plan;
  plan.due = PoissonSchedule(SubSeed(seed, 6), rates.nominal, phases.open_sec);
  plan.warmup = ReadOps(picker, 20000);
  plan.open = ReadOps(picker, plan.due.size());
  plan.closed = ReadOps(picker, static_cast<size_t>(phases.closed_ops));
  return plan;
}

/// kv_mixed keys: one per range of 10 runs over 20k runs.
constexpr int kKvRuns = 20000;
constexpr int kKvRunsPerKey = 10;
constexpr int kKvKeys = kKvRuns / kKvRunsPerKey;
constexpr int kKvValues = 1024;

std::vector<std::string> KvKeys() {
  std::vector<std::string> keys;
  keys.reserve(kKvKeys);
  for (int run = 0; run < kKvRuns; run += kKvRunsPerKey) {
    keys.push_back(Cluster::KeyForRunRange(run, kKvRunsPerKey));
  }
  return keys;
}

std::vector<std::string> KvValues(uint64_t seed) {
  dflow::Rng rng(SubSeed(seed, 8));
  std::vector<std::string> values(kKvValues);
  for (std::string& value : values) {
    value.resize(static_cast<size_t>(rng.Uniform(128, 512)));
    for (char& c : value) {
      c = static_cast<char>('a' + rng.Uniform(0, 25));
    }
  }
  return values;
}

/// 40% reads on the serve_hot population (Zipf s=1.1), 30% puts, 30% gets
/// on keys by Zipf s=0.9, values uniform over the value table.
struct KvMix {
  ZipfPicker reads;
  ZipfPicker keys;
  dflow::Rng rng;

  std::vector<Op> Ops(size_t n) {
    std::vector<Op> ops(n);
    for (Op& op : ops) {
      double u = rng.NextDouble();
      if (u < 0.4) {
        op.kind = kRead;
        op.a = reads.Next();
        continue;
      }
      op.kind = u < 0.7 ? kPut : kGet;
      op.a = keys.Next();
      op.b = static_cast<uint32_t>(rng.Uniform(0, kKvValues - 1));
    }
    return ops;
  }
};

LoadPlan KvPlan(size_t population, uint64_t seed, const Phases& phases) {
  KvMix mix{ZipfPicker(population, 1.1, SubSeed(seed, 5)),
            ZipfPicker(kKvKeys, 0.9, SubSeed(seed, 9)),
            dflow::Rng(SubSeed(seed, 10))};
  LoadPlan plan;
  plan.due = PoissonSchedule(SubSeed(seed, 6), kKvRates.nominal,
                             phases.open_sec);
  plan.warmup = mix.Ops(20000);
  plan.open = mix.Ops(plan.due.size());
  plan.closed = mix.Ops(static_cast<size_t>(phases.closed_ops));
  return plan;
}

// --- Shared request-workload phases ------------------------------------------

struct RequestRun {
  const std::vector<ServiceRequest>* population = nullptr;
  const std::vector<Expected>* reference = nullptr;
  const std::vector<std::string>* keys = nullptr;    // kv_mixed only.
  const std::vector<std::string>* values = nullptr;  // kv_mixed only.
  Cluster* cluster = nullptr;
};

/// One op against the cluster, leaving client spans when `traced`. Reads
/// are checked against the serial reference; a quorum Get may miss only a
/// key never written (the history checker proves that afterwards).
bool ExecOp(const RequestRun& run, const Op& op, bool traced) {
  const double start = traced ? NowSec() : 0.0;
  if (op.kind == kPut || op.kind == kGet) {
    const std::string& key = (*run.keys)[op.a];
    bool ok = op.kind == kPut
                  ? run.cluster->Put(key, (*run.values)[op.b]).ok()
                  : [&] {
                      auto got = run.cluster->Get(key);
                      return got.ok() || got.status().IsNotFound();
                    }();
    if (traced) {
      RecordSpan(op.kind == kPut ? "put" : "get", key, start, NowSec());
    }
    return ok;
  }
  const ServiceRequest& request = (*run.population)[op.a];
  std::string key;
  if (traced) {
    key = Cluster::KeyOf(request);
    const double route_start = NowSec();
    (void)run.cluster->Route(key);
    RecordSpan("route", key, route_start, NowSec());
  }
  auto response = run.cluster->Execute(request);
  if (traced) {
    RecordSpan("request", std::move(key), start, NowSec());
  }
  if (!response.ok()) {
    return false;
  }
  const Expected& expected = (*run.reference)[op.a];
  return response->body.size() == expected.body_size &&
         BodyHash(response->body) == expected.body_hash;
}

void CountPhase(Report* report, const std::string& phase,
                const PhaseResult& result) {
  report->attempted += result.attempted;
  if (result.failed > 0) {
    report->Fail(phase + ": " + std::to_string(result.failed) +
                     " ops failed or returned wrong answers",
                 result.failed);
  }
  report->Note(phase + "_sec", result.elapsed_sec);
  report->NoteInt(phase + "_ops", result.attempted);
}

/// Lateness of the open-loop generator: p99, and how much later the last
/// quarter ran than the first (a growing backlog means the read
/// percentiles measure the connection cap, not the program).
void GeneratorLateness(const PhaseResult& open, double* p99_ms,
                       double* growth_ms) {
  Samples late;
  Samples first;
  Samples last;
  const size_t n = open.lateness_sec.size();
  for (size_t i = 0; i < n; ++i) {
    late.Add(open.lateness_sec[i]);
    if (i < n / 4) {
      first.Add(open.lateness_sec[i]);
    } else if (i >= n - n / 4) {
      last.Add(open.lateness_sec[i]);
    }
  }
  *p99_ms = Ms(late.Quantile(0.99));
  *growth_ms = Ms(last.Mean() - first.Mean());
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Per-layer metrics of a traced run: bench spans from the traced slices,
/// plus the program's public counters as deltas across the open loop.
void RequestLayers(const Args& args, const Rig& rig, const ServeTotals& before,
                   const ServeTotals& after, const PoolTotals& pool_before,
                   const PoolTotals& pool_after, Report* report) {
  std::vector<Span> spans = CollectSpans();
  Attribution attribution = Attribute(spans, {"request", "put", "get"});
  report->layers_json = attribution.ToJson();
  if (!args.out_path.empty()) {
    std::string trace_path = args.out_path + ".trace.json";
    if (WriteChromeTrace(spans, trace_path)) {
      report->NoteStr("chrome_trace", trace_path);
    }
  }

  auto layer = [&](const std::string& name) -> const Attribution::Layer* {
    auto it = attribution.layers.find(name);
    return it == attribution.layers.end() ? nullptr : &it->second;
  };
  if (const auto* route = layer("route")) {
    report->Set("cluster.route_us", route->duration_sec.Quantile(0.5) * 1e6,
                "us", route->count);
  }
  Samples hit;
  Samples wait;
  double backend_sec = 0.0;
  double client_sec = 0.0;
  for (const Attribution::Root& root : attribution.roots) {
    if (root.name != "request") {
      continue;
    }
    double backend = 0.0;
    for (const auto& [name, sec] : root.child_sec) {
      if (name.rfind("backend.", 0) == 0) {
        backend += sec;
      }
    }
    client_sec += root.duration;
    backend_sec += backend;
    // Self time is client - route - backend: for a miss that is the
    // admission queue, the mount-lock wait and any forwarding hop.
    (backend > 0.0 ? wait : hit).Add(root.self);
  }
  // Left unmeasured when a workload never hits (serve_cold): the run then
  // fails unless the workload is listed as not exercising the layer.
  if (!hit.empty()) {
    SetMs(report, "serve.hit_ms", hit, 0.5);
  }
  if (!wait.empty()) {
    SetMs(report, "serve.wait_p50_ms", wait, 0.5);
    SetMs(report, "serve.wait_p99_ms", wait, 0.99);
  }
  report->Set("backend.share", Ratio(backend_sec, client_sec), "ratio");
  for (const char* mount : {"arecibo", "cleo", "weblab"}) {
    // A mount the traced requests never reached (all cache hits) reads 0.
    const auto* backend = layer(std::string("backend.") + mount);
    const int64_t calls = backend != nullptr ? backend->count : 0;
    report->Set(std::string("backend.") + mount + "_ms",
                backend != nullptr ? Ms(backend->self_sec.Mean()) : 0.0, "ms",
                calls);
    report->Set(std::string("backend.") + mount + "_calls",
                static_cast<double>(calls), "count");
  }

  const ClusterStats& c0 = before.cluster;
  const ClusterStats& c1 = after.cluster;
  const double requests = static_cast<double>(c1.requests - c0.requests);
  report->Set("cluster.forwarded_frac",
              Ratio(static_cast<double>(c1.forwarded - c0.forwarded), requests),
              "ratio");
  double max_served = 0.0;
  double sum_served = 0.0;
  for (const auto& [node, served] : after.served) {
    double delta = static_cast<double>(served - before.served.at(node));
    max_served = std::max(max_served, delta);
    sum_served += delta;
  }
  report->Set("serve.node_skew",
              Ratio(max_served, sum_served / after.served.size()), "ratio");
  const int64_t hits = after.hits - before.hits;
  const int64_t lookups = hits + after.misses - before.misses;
  report->Set("serve.cache_hit_rate",
              Ratio(static_cast<double>(hits), static_cast<double>(lookups)),
              "ratio");
  const double pool_hits =
      static_cast<double>(pool_after.hits - pool_before.hits);
  const double pool_misses =
      static_cast<double>(pool_after.misses - pool_before.misses);
  report->Set("db.pool_hit_rate", Ratio(pool_hits, pool_hits + pool_misses),
              "ratio");
  report->Set("db.pool_misses_per_req", Ratio(pool_misses, requests), "count");
  report->Set(
      "db.pool_evictions_per_req",
      Ratio(static_cast<double>(pool_after.evictions - pool_before.evictions),
            requests),
      "count");
  const Backends& node0 = *rig.backends.front();
  report->Set("db.table_pages",
              static_cast<double>(TablePages(node0.arecibo_db.get()) +
                                  TablePages(node0.weblab_db.get())),
              "count");
}

void NoteTablePages(const Rig& rig, const DataSpec& spec, Report* report) {
  const Backends& node0 = *rig.backends.front();
  const int64_t arecibo = TablePages(node0.arecibo_db.get());
  const int64_t weblab = TablePages(node0.weblab_db.get());
  report->NoteInt("arecibo_table_pages", arecibo);
  report->NoteInt("weblab_table_pages", weblab);
  report->NoteInt("eventstore_table_pages",
                  TablePages(&node0.event_store->database()));
  report->NoteInt("pool_frames", static_cast<int64_t>(spec.pool_frames));
  if (spec.pool_frames > 0 &&
      (4 * spec.pool_frames > static_cast<size_t>(arecibo) ||
       4 * spec.pool_frames > static_cast<size_t>(weblab))) {
    report->Fail("pool_frames exceeds 25% of a capped table's pages");
  }
}

/// The common body of the three request workloads once the rig is up.
void RunRequestPhases(const Args& args, const Phases& phases,
                   const LoadPlan& plan, const RequestRun& run, const Rig& rig,
                   Report* report) {
  const int clients = ClientThreads();
  auto exec = [&run](const Op& op, size_t) {
    return ExecOp(run, op, /*traced=*/false);
  };
  CountPhase(report, "warmup",
             RunForSeconds(plan.warmup, clients, phases.warmup_sec, exec));
  report->NoteInt("clients", clients);

  ServeTotals serve_before = ReadServe(*run.cluster);
  PoolTotals pool_before = ReadPools(rig);
  PhaseResult open;
  if (!args.trace) {
    open = RunOpenLoop(plan.open, plan.due, clients, exec);
  } else {
    // Requests due in every other kTraceSliceSec of the schedule leave
    // client spans, so traced and untraced requests meet the same machine
    // and the same load; the difference of their read p50s is the tracing
    // overhead. The backend decorator records throughout; its spans under
    // an untraced request find no client span around them and are dropped.
    auto traced = [&plan](size_t i) {
      return static_cast<int64_t>(plan.due[i] / kTraceSliceSec) % 2 == 1;
    };
    SetTracing(true);
    open = RunOpenLoop(plan.open, plan.due, clients,
                       [&run, &traced](const Op& op, size_t i) {
                         return ExecOp(run, op, traced(i));
                       });
    SetTracing(false);
    Samples on;
    Samples off;
    for (size_t i = 0; i < open.ok.size(); ++i) {
      if (open.ok[i] && plan.open[i].kind == kRead) {
        (traced(i) ? on : off).Add(open.latency_sec[i]);
      }
    }
    report->Set("trace.overhead_ms",
                Ms(on.Quantile(0.5) - off.Quantile(0.5)), "ms",
                static_cast<int64_t>(on.size()));
  }
  CountPhase(report, "open", open);
  ServeTotals serve_after = ReadServe(*run.cluster);
  PoolTotals pool_after = ReadPools(rig);

  double late_p99_ms = 0.0;
  double growth_ms = 0.0;
  GeneratorLateness(open, &late_p99_ms, &growth_ms);
  // The user-facing latency is that of the serve path: every op of the
  // serve workloads, and the reads of kv_mixed, which wait on the state
  // lock the quorum writes hold. Puts and gets take microseconds, so a
  // percentile over the whole kv mix would sit on the boundary between
  // the two modes; they are reported per layer and in the capacity.
  const Samples reads = open.Latencies(plan.open, kRead);
  if (args.trace) {
    SetMs(report, "client.p90_ms", reads, 0.9);
    SetMs(report, "client.p99_ms", reads, 0.99);
    report->Set("gen.late_p99_ms", late_p99_ms, "ms",
                static_cast<int64_t>(open.lateness_sec.size()));
    report->Set("gen.backlog_growth_ms", growth_ms, "ms");
    if (run.keys != nullptr) {
      const Samples puts = open.Latencies(plan.open, kPut);
      SetMs(report, "kv.put_p50_ms", puts, 0.5);
      SetMs(report, "kv.put_p99_ms", puts, 0.99);
      SetMs(report, "kv.get_p99_ms", open.Latencies(plan.open, kGet), 0.99);
    }
    RequestLayers(args, rig, serve_before, serve_after, pool_before,
                  pool_after, report);
  } else {
    report->Note("gen_late_p99_ms", late_p99_ms);
    report->Note("gen_backlog_growth_ms", growth_ms);
    SetMs(report, "latency_ms", reads, 0.5);
    report->Note("read_p90_ms", Ms(reads.Quantile(0.9)));
    report->Note("read_p99_ms", Ms(reads.Quantile(0.99)));
    report->Note("all_ops_p99_ms",
                 Ms(open.Latencies(plan.open).Quantile(0.99)));
  }

  PhaseResult closed = RunClosedLoop(plan.closed, clients, exec);
  CountPhase(report, "closed", closed);
  int64_t within = 0;
  for (size_t i = 0; i < closed.ok.size(); ++i) {
    within += closed.ok[i] && closed.latency_sec[i] <= kCapacityLimitSec;
  }
  // Capacity spreads too much from run to run on a shared host to be gated
  // (see README): it is a per-layer metric, and a note in every results file.
  const double capacity =
      Ratio(static_cast<double>(within), closed.elapsed_sec);
  report->Set("client.capacity_ops_per_s", capacity, "ops/s",
              static_cast<int64_t>(closed.ok.size()));
  report->Note("capacity_ops_per_s", capacity);
}

struct RequestData {
  Dataset data;
  std::vector<ServiceRequest> population;
  std::vector<Expected> reference;
  size_t footprint_bytes = 0;

  /// A node cache of ~15% of the population's response footprint.
  size_t CacheBytes() const {
    return std::max<size_t>(footprint_bytes / 7, 4096);
  }
};

Result<RequestData> MakeRequestData(const DataSpec& spec, uint64_t seed) {
  RequestData out;
  out.data = MakeDataset(spec, seed);
  out.population = BuildPopulation(out.data);
  DFLOW_ASSIGN_OR_RETURN(out.reference,
                         BuildReference(out.data, out.population));
  for (const Expected& expected : out.reference) {
    out.footprint_bytes += expected.entry_bytes;
  }
  return out;
}

}  // namespace

void RunServeWorkload(const Args& args, bool hot, Report* report) {
  const DataSpec spec = hot ? HotSpec(args.scale) : ColdSpec(args.scale);
  const Rates rates = hot ? kServeHotRates : kServeColdRates;
  const double zipf_s = hot ? 1.1 : 0.0;
  const Phases phases = PlanPhases(args.seconds, rates);

  auto prepared = MakeRequestData(spec, args.seed);
  if (!prepared.ok()) {
    report->Fail("reference build failed: " + prepared.status().ToString());
    return;
  }
  const RequestData& input = *prepared;
  ClusterConfig config = BaseClusterConfig();
  config.enable_cache = hot;
  config.cache_capacity_bytes = input.CacheBytes();

  SetupTimer setup(kSetupRepeats, [] {}, [&] {
    return MakeRig(input.data, config, args.trace, /*with_history=*/false);
  });
  auto rig = setup.Once();
  if (!rig.ok()) {
    report->Fail("setup failed: " + rig.status().ToString());
    return;
  }
  const LoadPlan plan =
      ServePlan(input.population.size(), zipf_s, args.seed, phases, rates);
  report->Note("nominal_ops_per_s", rates.nominal);
  report->Note("seed_capacity_ops_per_s", rates.capacity);
  report->Note("zipf_s", zipf_s);
  report->NoteInt("population", static_cast<int64_t>(input.population.size()));
  report->NoteInt("cache_capacity_bytes",
                  hot ? static_cast<int64_t>(config.cache_capacity_bytes) : 0);
  NoteTablePages(**rig, spec, report);

  RequestRun run;
  run.population = &input.population;
  run.reference = &input.reference;
  run.cluster = (*rig)->cluster.get();
  RunRequestPhases(args, phases, plan, run, **rig, report);
  report->Set("peak_rss_mb", PeakRssMb(), "MB");
  rig->reset();
  setup.Finish(report);
}

void RunKvWorkload(const Args& args, Report* report) {
  const DataSpec spec = HotSpec(args.scale);
  const Phases phases = PlanPhases(args.seconds, kKvRates);
  auto prepared = MakeRequestData(spec, args.seed);
  if (!prepared.ok()) {
    report->Fail("reference build failed: " + prepared.status().ToString());
    return;
  }
  const RequestData& input = *prepared;
  ClusterConfig config = BaseClusterConfig();
  config.replication_factor = 3;  // Majority quorums: W = R = 2.
  config.enable_cache = true;
  config.cache_capacity_bytes = input.CacheBytes();
  const fs::path journals = fs::path(args.work_dir) / "journals";

  config.journal_dir = journals.string();
  SetupTimer setup(
      kSetupRepeats,
      [&] {
        std::error_code ignored;
        fs::remove_all(journals, ignored);
        fs::create_directories(journals, ignored);
      },
      [&] {
        return MakeRig(input.data, config, args.trace, /*with_history=*/true);
      });
  auto rig = setup.Once();
  if (!rig.ok()) {
    report->Fail("setup failed: " + rig.status().ToString());
    return;
  }
  const std::vector<std::string> keys = KvKeys();
  const std::vector<std::string> values = KvValues(args.seed);
  const LoadPlan plan = KvPlan(input.population.size(), args.seed, phases);
  report->Note("nominal_ops_per_s", kKvRates.nominal);
  report->Note("seed_capacity_ops_per_s", kKvRates.capacity);
  report->NoteStr("op_mix", "40% Execute, 30% Put, 30% Get");
  report->NoteStr("flush_policy",
                  "journal: fflush per replica write, no fsync");
  report->NoteInt("keys", kKvKeys);
  report->NoteInt("population", static_cast<int64_t>(input.population.size()));

  Cluster* cluster = (*rig)->cluster.get();
  const ClusterStats before = cluster->Stats();
  RequestRun run;
  run.population = &input.population;
  run.reference = &input.reference;
  run.keys = &keys;
  run.values = &values;
  run.cluster = cluster;
  RunRequestPhases(args, phases, plan, run, **rig, report);

  const ClusterStats after = cluster->Stats();
  const auto& history = (*rig)->history->events();
  dflow::cluster::ConsistencyReport checked =
      dflow::cluster::CheckHistory(history);
  report->attempted += 1;
  report->NoteInt("history_events", static_cast<int64_t>(history.size()));
  report->NoteInt("checker_violations", checked.violations);
  report->NoteInt("acked_writes", checked.acked_writes);
  report->NoteInt("quorum_reads", checked.reads);
  if (!checked.ok()) {
    report->Fail("consistency checker: " + checked.ToString());
  }
  const int64_t sub_quorum = (after.put_failures - before.put_failures) +
                             (after.get_failures - before.get_failures);
  if (sub_quorum > 0) {
    report->NoteInt("sub_quorum_ops", sub_quorum);
  }
  if (args.trace) {
    const double writes = static_cast<double>(after.writes - before.writes);
    report->Set("cluster.replica_writes_per_put",
                Ratio(static_cast<double>(after.replica_writes -
                                          before.replica_writes),
                      writes),
                "count");
    report->Set("cluster.read_repairs",
                static_cast<double>(after.read_repairs - before.read_repairs),
                "count");
    report->Set("cluster.hints_stored",
                static_cast<double>(after.hints_stored - before.hints_stored),
                "count");
    int64_t journal_bytes = 0;
    for (const auto& entry : fs::directory_iterator(journals)) {
      journal_bytes += static_cast<int64_t>(entry.file_size());
    }
    report->Set("recover.journal_bytes_per_put",
                Ratio(static_cast<double>(journal_bytes),
                      static_cast<double>(after.writes)),
                "B");
  }
  report->Set("peak_rss_mb", PeakRssMb(), "MB");
  rig->reset();
  setup.Finish(report);
}

// --- survey_block -----------------------------------------------------------

namespace {

struct Pointing {
  int id = 0;
  std::vector<dflow::arecibo::InjectedPulsar> pulsars;
};

/// Every 4th pointing carries a bright pulsar in a seeded beam. Its
/// fundamental lies in 68-112 Hz, where the search reports the fundamental
/// or a low harmonic, and none of its first four harmonics falls within
/// 5 Hz of a 60 Hz RFI harmonic: the meta-analysis rejects a pulsar whose
/// harmonic sum overlaps the mains comb seen in every beam.
std::vector<Pointing> SurveyPlan(uint64_t seed, int count) {
  dflow::Rng rng(SubSeed(seed, 10));
  std::vector<Pointing> plan(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    Pointing& pointing = plan[static_cast<size_t>(i)];
    pointing.id = i;
    if (i % 4 != 0) {
      continue;
    }
    dflow::arecibo::InjectedPulsar pulsar;
    pulsar.beam = static_cast<int>(rng.Uniform(0, 6));
    double freq = 0.0;
    auto near_mains = [&freq] {
      for (int h = 1; h <= 4; ++h) {
        if (std::fabs(h * freq - 60.0 * std::round(h * freq / 60.0)) < 5.0) {
          return true;
        }
      }
      return false;
    };
    do {
      freq = rng.UniformReal(68.0, 112.0);
    } while (near_mains());
    pulsar.params.period_sec = 1.0 / freq;
    pulsar.params.dm = rng.UniformReal(40.0, 240.0);
    pulsar.params.pulse_amplitude = 0.6;
    pulsar.params.duty_cycle = 0.05;
    pulsar.params.phase = rng.NextDouble();
    pointing.pulsars.push_back(pulsar);
  }
  return plan;
}

std::string SurveyScheduleText(const std::vector<Pointing>& plan) {
  std::string text;
  char buf[128];
  for (const Pointing& pointing : plan) {
    for (const auto& pulsar : pointing.pulsars) {
      std::snprintf(buf, sizeof(buf), "%d beam=%d period=%.9f dm=%.6f\n",
                    pointing.id, pulsar.beam, pulsar.params.period_sec,
                    pulsar.params.dm);
      text += buf;
    }
  }
  return text;
}

std::string DetectionsText(
    const std::vector<dflow::arecibo::Candidate>& found) {
  std::string text;
  char buf[160];
  for (const auto& c : found) {
    std::snprintf(buf, sizeof(buf), "%d %d %.9g %.9g %.9g %d %.9g\n",
                  c.pointing, c.beam, c.freq_hz, c.dm, c.snr, c.harmonics,
                  c.accel);
    text += buf;
  }
  return text;
}

int SurveyPointings(const Args& args) {
  return std::max(8, static_cast<int>(std::lround(
                         args.seconds * kSurveyPointingsPerSec * args.scale)));
}

dflow::arecibo::RfiParams MainsRfi(int channels) {
  dflow::arecibo::RfiParams rfi;
  rfi.period_sec = 1.0 / 60.0;
  rfi.amplitude = 1.5;
  rfi.channel_lo = 0;
  rfi.channel_hi = channels - 1;
  return rfi;
}

/// A bright pulsar counts as found when a detection in its beam has the
/// injected period, or a harmonically related one (ratio h/k, h, k <= 4:
/// the harmonic-summing search often peaks at a sub-harmonic), within 2%
/// or one Fourier bin, whichever is wider.
bool Detected(const dflow::arecibo::InjectedPulsar& pulsar,
              const std::vector<dflow::arecibo::Candidate>& detections,
              double bin_hz) {
  const double f0 = 1.0 / pulsar.params.period_sec;
  for (const auto& detection : detections) {
    if (detection.beam != pulsar.beam) {
      continue;
    }
    for (int h = 1; h <= 4; ++h) {
      for (int k = 1; k <= 4; ++k) {
        const double target = f0 * h / k;
        if (std::fabs(detection.freq_hz - target) <=
            std::max(0.02 * target, bin_hz)) {
          return true;
        }
      }
    }
  }
  return false;
}

/// The survey's program objects. Declaration order matters: the serve
/// loop drains before the registry, service and database it uses die.
struct SurveyRig {
  std::unique_ptr<dflow::ThreadPool> pool;
  std::unique_ptr<dflow::arecibo::SurveyPipeline> pipeline;
  std::unique_ptr<dflow::db::Database> db;
  dflow::arecibo::CandidateService* service = nullptr;  // Owned by registry.
  ServiceRegistry registry;
  std::unique_ptr<dflow::serve::ServeLoop> loop;
};

constexpr int kSurveyWarmup = 2;  // Pointings before the measured ones.
constexpr int kSurveySerial = 8;  // Pointings re-run serially when traced.

/// Runs every pointing of `plan` through `rig` and reports the survey's
/// metrics, all but setup_s and peak_rss_mb.
void MeasureSurvey(const Args& args,
                   const dflow::arecibo::SurveyConfig& config,
                   const std::vector<Pointing>& plan, SurveyRig& rig,
                   Report* report) {
  const int measured = static_cast<int>(plan.size()) - kSurveyWarmup;
  dflow::par::ScopedPool scoped(rig.pool.get());
  const auto rfi = MainsRfi(config.num_channels);
  const double bin_hz =
      1.0 / (static_cast<double>(config.num_samples) * config.sample_time_sec);

  Samples product;
  Samples product_untraced;
  Samples product_traced;
  Samples pointing_sec;
  Samples load_sec;
  Samples votable_sec;
  int64_t raw_bytes = 0;
  std::vector<std::string> detection_text(plan.size());
  dflow::Md5 md5;
  const int64_t wal_before = rig.db->wal_bytes();
  double measured_start = 0.0;
  for (const Pointing& pointing : plan) {
    if (pointing.id == kSurveyWarmup) {
      measured_start = NowSec();
    }
    // Odd pointings traced, even ones not: the overhead comparison sees
    // the same machine on both sides.
    SetTracing(args.trace && pointing.id >= kSurveyWarmup &&
               pointing.id % 2 == 1);
    ServiceRequest request{"arecibo/votable",
                           {{"pointing", std::to_string(pointing.id)}}};
    const std::string key = Cluster::KeyOf(request);
    const double t0 = NowSec();
    dflow::arecibo::PointingResult result =
        rig.pipeline->ProcessPointing(pointing.id, pointing.pulsars, {rfi});
    const double t1 = NowSec();
    Status loaded = rig.service->Load(result.detections);
    const double t2 = NowSec();
    auto served = rig.loop->Execute(request);
    const double t3 = NowSec();
    if (TracingOn()) {
      RecordSpan("product", key, t0, t3);
      RecordSpan("arecibo.pointing", key, t0, t1);
      RecordSpan("db.load", key, t1, t2);
      RecordSpan("serve.votable", key, t2, t3);
    }

    report->attempted += 1;
    std::string why;
    if (!loaded.ok()) {
      why = "load: " + loaded.ToString();
    } else if (!served.ok()) {
      why = "votable: " + served.status().ToString();
    } else {
      auto rows = dflow::arecibo::VoTableToCandidates(served->body);
      if (!rows.ok() || rows->size() != result.detections.size()) {
        why = "votable rows != loaded detections";
      }
    }
    for (const auto& pulsar : pointing.pulsars) {
      if (why.empty() && !Detected(pulsar, result.detections, bin_hz)) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "pulsar (beam %d, %.2f Hz, DM %.1f) not among %zu "
                      "detections",
                      pulsar.beam, 1.0 / pulsar.params.period_sec,
                      pulsar.params.dm, result.detections.size());
        why = buf;
        for (const auto& d : result.detections) {
          std::snprintf(buf, sizeof(buf), "; beam %d %.2f Hz DM %.1f snr %.1f",
                        d.beam, d.freq_hz, d.dm, d.snr);
          why += buf;
        }
      }
    }
    if (!why.empty()) {
      report->Fail("pointing " + std::to_string(pointing.id) + ": " + why);
    }
    detection_text[static_cast<size_t>(pointing.id)] =
        DetectionsText(result.detections);
    md5.Update(detection_text[static_cast<size_t>(pointing.id)]);
    if (pointing.id < kSurveyWarmup) {
      continue;
    }
    product.Add(t3 - t0);
    (pointing.id % 2 == 1 ? product_traced : product_untraced).Add(t3 - t0);
    pointing_sec.Add(t1 - t0);
    load_sec.Add(t2 - t1);
    votable_sec.Add(t3 - t2);
    raw_bytes += result.raw_payload_bytes;
  }
  const double measured_sec = NowSec() - measured_start;
  SetTracing(false);
  report->NoteStr("detections_md5", md5.HexDigest());
  report->NoteInt("pointings", measured);
  report->NoteInt("warmup_pointings", kSurveyWarmup);
  report->NoteStr("flush_policy", "WAL: fflush per commit, no fsync");
  report->NoteStr("schedule_md5", Md5Of(SurveyScheduleText(plan)));

  // Not gated, like the request workloads' capacity.
  const double rate = Ratio(static_cast<double>(measured), measured_sec);
  report->Set("flow.pointings_per_s", rate, "pointings/s", measured);
  report->Note("pointings_per_s", rate);
  if (!args.trace) {
    // The p10, not the p50: a shared host slows for stretches of a run, and
    // the p50 counts how long those were. Over three pairs of ten-run sets
    // the p10 spread 6-18% between its quartiles, the p50 7-34%.
    SetMs(report, "latency_ms", product, 0.1);
    report->Note("product_p50_ms", Ms(product.Quantile(0.5)));
    report->Note("product_p90_ms", Ms(product.Quantile(0.9)));
    return;
  }

  // Serial baseline: re-run the first kSurveySerial measured pointings with
  // every parallel region inline; their detections must match byte for byte.
  Samples serial_sec;
  {
    dflow::par::SerialOverride serial;
    const int last = kSurveyWarmup + std::min(kSurveySerial, measured);
    for (int id = kSurveyWarmup; id < last; ++id) {
      const Pointing& pointing = plan[static_cast<size_t>(id)];
      const double t0 = NowSec();
      auto result =
          rig.pipeline->ProcessPointing(pointing.id, pointing.pulsars, {rfi});
      serial_sec.Add(NowSec() - t0);
      report->attempted += 1;
      if (DetectionsText(result.detections) !=
          detection_text[static_cast<size_t>(id)]) {
        report->Fail("pointing " + std::to_string(id) +
                     ": serial detections differ from parallel");
      }
    }
  }
  std::vector<Span> spans = CollectSpans();
  Attribution attribution = Attribute(spans, {"product"});
  report->layers_json = attribution.ToJson();
  if (!args.out_path.empty() &&
      WriteChromeTrace(spans, args.out_path + ".trace.json")) {
    report->NoteStr("chrome_trace", args.out_path + ".trace.json");
  }
  SetMs(report, "client.p90_ms", product, 0.9);
  SetMs(report, "client.p99_ms", product, 0.99);
  SetMs(report, "arecibo.pointing_ms", pointing_sec, 0.5);
  report->Set("arecibo.pointing_share",
              Ratio(pointing_sec.Sum(), product.Sum()), "ratio");
  report->Set("arecibo.raw_mb_per_s",
              Ratio(static_cast<double>(raw_bytes) / 1e6, pointing_sec.Sum()),
              "MB/s");
  report->Set("par.speedup", Ratio(serial_sec.Mean(), pointing_sec.Mean()),
              "ratio", static_cast<int64_t>(serial_sec.size()));
  SetMs(report, "db.load_ms", load_sec, 0.5);
  report->Set("db.wal_bytes_per_pointing",
              Ratio(static_cast<double>(rig.db->wal_bytes() - wal_before),
                    static_cast<double>(plan.size())),
              "B");
  SetMs(report, "serve.votable_ms", votable_sec, 0.5);
  if (const auto it = attribution.layers.find("backend.arecibo");
      it != attribution.layers.end()) {
    report->Set("backend.arecibo_ms", Ms(it->second.self_sec.Mean()), "ms",
                it->second.count);
    report->Set("backend.arecibo_calls", static_cast<double>(it->second.count),
                "count");
  }
  const auto& pool = rig.db->pool()->stats();
  report->Set("db.pool_hit_rate",
              Ratio(static_cast<double>(pool.hits),
                    static_cast<double>(pool.hits + pool.misses)),
              "ratio");
  report->Set("db.table_pages", static_cast<double>(TablePages(rig.db.get())),
              "count");
  report->Set("trace.overhead_ms",
              Ms(product_traced.Quantile(0.5) - product_untraced.Quantile(0.5)),
              "ms");
}

}  // namespace

void RunSurveyWorkload(const Args& args, Report* report) {
  // Two par workers, not one per core: with as many workers as vCPUs the
  // pointing waits on whichever vCPU the host slows, and its time moved
  // +-16% between runs (+-7% with two workers, whose speedup is still
  // measured against the serial pass).
  const int threads = std::min(2, ClientThreads());
  dflow::arecibo::SurveyConfig config;
  config.seed = SubSeed(args.seed, 7);
  const std::vector<Pointing> plan =
      SurveyPlan(args.seed, kSurveyWarmup + SurveyPointings(args));
  const fs::path wal = fs::path(args.work_dir) / "survey.wal";
  report->NoteInt("par_threads", threads);

  // Each set-up starts a fresh durable product database.
  SetupTimer setup(
      kSurveySetupRepeats,
      [&] {
        std::error_code ignored;
        fs::remove(wal, ignored);
        fs::remove(wal.string() + ".pages", ignored);
      },
      [&]() -> Result<std::unique_ptr<SurveyRig>> {
        auto rig = std::make_unique<SurveyRig>();
        rig->pool = std::make_unique<dflow::ThreadPool>(threads);
        rig->pipeline =
            std::make_unique<dflow::arecibo::SurveyPipeline>(config);
        DFLOW_ASSIGN_OR_RETURN(rig->db,
                               dflow::db::Database::Open(wal.string()));
        DFLOW_ASSIGN_OR_RETURN(auto service,
                               dflow::arecibo::CandidateService::Create(
                                   rig->db.get()));
        rig->service = service.get();
        std::shared_ptr<dflow::core::WebService> mounted = std::move(service);
        DFLOW_RETURN_IF_ERROR(rig->registry.Mount(
            "arecibo", args.trace ? TraceMount("arecibo", mounted) : mounted));
        dflow::serve::ServeConfig serve_config;
        serve_config.num_workers = 1;
        rig->loop = std::make_unique<dflow::serve::ServeLoop>(&rig->registry,
                                                              serve_config);
        return rig;
      });
  auto rig = setup.Once();
  if (!rig.ok()) {
    report->Fail("setup failed: " + rig.status().ToString());
    return;
  }
  MeasureSurvey(args, config, plan, **rig, report);
  report->Set("peak_rss_mb", PeakRssMb(), "MB");
  rig->reset();
  setup.Finish(report);
}

// --- Fingerprints -----------------------------------------------------------

std::vector<std::string> WorkloadFingerprints(uint64_t seed, double scale) {
  const double seconds = Args().seconds;
  std::vector<std::string> lines;
  auto line = [&](const std::string& name, const std::string& schedule,
                  const std::string& stream) {
    lines.push_back(name + " schedule=" + schedule + " stream=" + stream);
  };
  for (bool hot : {true, false}) {
    Dataset data = MakeDataset(hot ? HotSpec(scale) : ColdSpec(scale), seed);
    std::vector<ServiceRequest> population = BuildPopulation(data);
    const Rates rates = hot ? kServeHotRates : kServeColdRates;
    LoadPlan plan = ServePlan(population.size(), hot ? 1.1 : 0.0, seed,
                              PlanPhases(seconds, rates), rates);
    std::string population_text;
    for (const ServiceRequest& request : population) {
      population_text += Cluster::KeyOf(request) + "\n";
    }
    line(hot ? "serve_hot" : "serve_cold", ScheduleFingerprint(plan),
         Md5Of(StreamFingerprint(plan) + Md5Of(population_text)));
  }
  {
    Dataset data = MakeDataset(HotSpec(scale), seed);
    LoadPlan plan = KvPlan(BuildPopulation(data).size(), seed,
                           PlanPhases(seconds, kKvRates));
    std::string values;
    for (const std::string& value : KvValues(seed)) {
      values += value + "\n";
    }
    line("kv_mixed", ScheduleFingerprint(plan),
         Md5Of(StreamFingerprint(plan) + Md5Of(values)));
  }
  {
    Args args;
    args.seconds = seconds;
    args.scale = scale;
    std::vector<Pointing> plan =
        SurveyPlan(seed, kSurveyWarmup + SurveyPointings(args));
    // The stream is the per-pointing noise: the pipeline seeds each beam
    // from (config seed, pointing id).
    line("survey_block", Md5Of(SurveyScheduleText(plan)),
         Md5Of(std::to_string(SubSeed(seed, 7)) + "x" +
               std::to_string(plan.size())));
  }
  return lines;
}

}  // namespace e2e
