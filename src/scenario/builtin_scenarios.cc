#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "core/web_service.h"
#include "fault/adapters.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "net/network_link.h"
#include "obs/latency_histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "recover/scrubber.h"
#include "scenario/scenario.h"
#include "scenario/shapes.h"
#include "scenario/wfcommons.h"
#include "serve/serve_loop.h"
#include "serve/workload_gen.h"
#include "sim/simulation.h"
#include "storage/tape.h"
#include "util/logging.h"
#include "util/md5.h"
#include "util/rng.h"

namespace dflow::scenario {
namespace {

// ===========================================================================
// Shared helpers.

std::string FmtMs(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Exact percentile of a sample vector (p in [0,1]); 0 when empty.
double ExactPercentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  size_t k = static_cast<size_t>(
      std::min<double>(static_cast<double>(samples.size()) - 1.0,
                       std::max(0.0, std::ceil(p * samples.size()) - 1.0)));
  std::nth_element(samples.begin(), samples.begin() + k, samples.end());
  return samples[k];
}

/// Backend standing in for the case studies' analysis services: burns a
/// fixed slice of wall time per request and answers with a deterministic
/// body. Thread-safe (no shared state), so scenarios run it under
/// BackendLocking::kNone; responses are uncacheable so every request costs
/// backend time and offered load translates directly into pressure.
class AnalysisService : public core::WebService {
 public:
  explicit AnalysisService(double service_us) : service_us_(service_us) {}

  Result<core::ServiceResponse> Handle(
      const core::ServiceRequest& request) override {
    if (service_us_ > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::micro>(service_us_));
    }
    core::ServiceResponse response;
    response.body = "ok:" + request.path;
    response.cache_max_age_sec = core::ServiceResponse::kUncacheable;
    return response;
  }

  std::vector<std::string> Endpoints() const override { return {"item"}; }
  const std::string& name() const override { return name_; }

 private:
  double service_us_;
  std::string name_ = "analysis";
};

/// A primary backend that can be failed from the outside — the breaker
/// scenario's dying service. While failing_ is set every request returns
/// IOError (after the usual service time, like a real timing-out backend).
class FlakyAnalysisService : public core::WebService {
 public:
  explicit FlakyAnalysisService(double service_us) : inner_(service_us) {}

  void SetFailing(bool failing) {
    failing_.store(failing, std::memory_order_relaxed);
  }

  Result<core::ServiceResponse> Handle(
      const core::ServiceRequest& request) override {
    Result<core::ServiceResponse> response = inner_.Handle(request);
    if (failing_.load(std::memory_order_relaxed)) {
      return Status::IOError("primary backend down");
    }
    return response;
  }

  std::vector<std::string> Endpoints() const override {
    return inner_.Endpoints();
  }
  const std::string& name() const override { return name_; }

 private:
  AnalysisService inner_;
  std::atomic<bool> failing_{false};
  std::string name_ = "flaky-analysis";
};

std::vector<core::ServiceRequest> BuildPopulation(size_t n) {
  std::vector<core::ServiceRequest> population;
  population.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    core::ServiceRequest request;
    request.path = "svc/item/" + std::to_string(i);
    request.params["q"] = std::to_string(i);
    population.push_back(std::move(request));
  }
  return population;
}

double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ServeReplayOutcome {
  serve::ServeStats stats;
  obs::LatencyHistogram latencies;
};

/// Replays a materialized schedule against a live ServeLoop from the
/// calling thread, pacing to each arrival's offset (the bench_serve_tail
/// open-loop discipline: coarse sleep, then yield). `on_tick`, if set, runs
/// once per arrival with the elapsed wall seconds — the hook the breaker
/// scenario uses to drive its failure window and recovery probe without a
/// second control thread.
ServeReplayOutcome ReplaySchedule(
    serve::ServeLoop& loop,
    const std::vector<serve::TimedRequest>& schedule,
    const std::function<void(double)>& on_tick = nullptr) {
  double start = NowSec();
  for (const serve::TimedRequest& event : schedule) {
    for (;;) {
      double now = NowSec() - start;
      double wait = event.at_sec - now;
      if (wait <= 0.0) {
        break;
      }
      if (wait > 0.001) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(wait - 0.0005));
      } else {
        std::this_thread::yield();
      }
    }
    if (on_tick != nullptr) {
      on_tick(NowSec() - start);
    }
    (void)loop.Enqueue(event.request);
  }
  loop.Drain();
  ServeReplayOutcome outcome;
  outcome.stats = loop.Stats();
  outcome.latencies = loop.Latencies();
  return outcome;
}

/// Shortens wall-clock scenario horizons when the matrix runs at reduced
/// scale, without collapsing them entirely (shapes need a few hundred ms
/// to mean anything).
double ScaledDuration(double full_sec, double scale) {
  return full_sec * (0.4 + 0.6 * std::min(scale, 1.0));
}

// ===========================================================================
// trace.* — WfCommons-style trace replay.

/// An embedded Montage-like workflow instance (the WfCommons flagship
/// shape): six overlapping sky projections, pairwise difference fits, one
/// background model broadcast back to every projection, then the co-add /
/// shrink / publish tail. Runtimes are seconds of virtual compute; children
/// are derived from the declared parents by the parser's symmetric closure.
constexpr const char* kMontageJson = R"json({
  "name": "montage-2mass",
  "schemaVersion": "1.5",
  "workflow": {
    "tasks": [
      {"id": "mProject1", "runtimeInSeconds": 13.6, "outputBytes": 4200000},
      {"id": "mProject2", "runtimeInSeconds": 14.2, "outputBytes": 4200000},
      {"id": "mProject3", "runtimeInSeconds": 12.9, "outputBytes": 4200000},
      {"id": "mProject4", "runtimeInSeconds": 13.1, "outputBytes": 4200000},
      {"id": "mProject5", "runtimeInSeconds": 14.8, "outputBytes": 4200000},
      {"id": "mProject6", "runtimeInSeconds": 13.4, "outputBytes": 4200000},
      {"id": "mDiffFit1", "runtimeInSeconds": 2.1, "outputBytes": 260000,
       "parents": ["mProject1", "mProject2"]},
      {"id": "mDiffFit2", "runtimeInSeconds": 1.9, "outputBytes": 260000,
       "parents": ["mProject2", "mProject3"]},
      {"id": "mDiffFit3", "runtimeInSeconds": 2.3, "outputBytes": 260000,
       "parents": ["mProject3", "mProject4"]},
      {"id": "mDiffFit4", "runtimeInSeconds": 2.0, "outputBytes": 260000,
       "parents": ["mProject4", "mProject5"]},
      {"id": "mDiffFit5", "runtimeInSeconds": 2.2, "outputBytes": 260000,
       "parents": ["mProject5", "mProject6"]},
      {"id": "mConcatFit", "runtimeInSeconds": 1.1, "outputBytes": 90000,
       "parents": ["mDiffFit1", "mDiffFit2", "mDiffFit3", "mDiffFit4",
                   "mDiffFit5"]},
      {"id": "mBgModel", "runtimeInSeconds": 8.7, "outputBytes": 120000,
       "parents": ["mConcatFit"]},
      {"id": "mBackground1", "runtimeInSeconds": 1.6, "outputBytes": 4200000,
       "parents": ["mProject1", "mBgModel"]},
      {"id": "mBackground2", "runtimeInSeconds": 1.4, "outputBytes": 4200000,
       "parents": ["mProject2", "mBgModel"]},
      {"id": "mBackground3", "runtimeInSeconds": 1.8, "outputBytes": 4200000,
       "parents": ["mProject3", "mBgModel"]},
      {"id": "mBackground4", "runtimeInSeconds": 1.5, "outputBytes": 4200000,
       "parents": ["mProject4", "mBgModel"]},
      {"id": "mBackground5", "runtimeInSeconds": 1.7, "outputBytes": 4200000,
       "parents": ["mProject5", "mBgModel"]},
      {"id": "mBackground6", "runtimeInSeconds": 1.6, "outputBytes": 4200000,
       "parents": ["mProject6", "mBgModel"]},
      {"id": "mImgtbl", "runtimeInSeconds": 0.9, "outputBytes": 30000,
       "parents": ["mBackground1", "mBackground2", "mBackground3",
                   "mBackground4", "mBackground5", "mBackground6"]},
      {"id": "mAdd", "runtimeInSeconds": 22.4, "outputBytes": 26000000,
       "parents": ["mImgtbl"]},
      {"id": "mShrink", "runtimeInSeconds": 3.2, "outputBytes": 6500000,
       "parents": ["mAdd"]},
      {"id": "mJPEG", "runtimeInSeconds": 1.3, "outputBytes": 900000,
       "parents": ["mShrink"]}
    ]
  }
})json";

void FillTraceRow(const WfReplayOutcome& outcome, int64_t offered,
                  ScenarioResult* result) {
  result->offered = offered;
  result->p50_ms = ExactPercentile(outcome.sojourn_sec, 0.50) * 1000.0;
  result->p99_ms = ExactPercentile(outcome.sojourn_sec, 0.99) * 1000.0;
  result->shed_rate =
      offered == 0 ? 0.0
                   : static_cast<double>(outcome.dead_lettered) / offered;
  result->extra.emplace_back("makespan_sec", FmtMs(outcome.makespan_sec));
  result->extra.emplace_back("tasks_completed",
                             std::to_string(outcome.tasks_completed));
}

Result<ScenarioResult> RunWfMontage(const ScenarioParams& params) {
  DFLOW_ASSIGN_OR_RETURN(WorkflowInstance instance,
                         ParseWfInstance(kMontageJson));
  WfReplayConfig config;
  config.seed = params.seed;
  config.source_arrival_mean_gap_sec = 3.0;
  DFLOW_ASSIGN_OR_RETURN(WfReplayOutcome outcome,
                         ReplayWfInstance(instance, config));

  ScenarioResult result;
  FillTraceRow(outcome, static_cast<int64_t>(instance.tasks.size()),
               &result);
  result.recovery_sec = 0.0;
  // The external-clock trace plus the runner report pin the entire
  // virtual-time execution; measured columns above are derived views.
  Md5 md5;
  md5.Update(outcome.trace_json);
  md5.Update(outcome.report);
  result.fingerprint = md5.HexDigest();
  return result;
}

Result<ScenarioResult> RunWfChaos(const ScenarioParams& params) {
  DFLOW_ASSIGN_OR_RETURN(WorkflowInstance instance,
                         ParseWfInstance(kMontageJson));

  // Clean replay first: its makespan is both the fault plan's horizon and
  // the baseline the recovery time is measured against.
  WfReplayConfig clean_config;
  clean_config.seed = params.seed;
  clean_config.source_arrival_mean_gap_sec = 3.0;
  DFLOW_ASSIGN_OR_RETURN(WfReplayOutcome clean,
                         ReplayWfInstance(instance, clean_config));

  fault::FaultPlanConfig plan_config;
  plan_config.horizon_sec = clean.makespan_sec;
  double h = std::max(1.0, clean.makespan_sec);
  plan_config.processes = {
      {fault::FaultKind::kTransientStageError, "mProject3", 1.0 / h, 0.0, 1},
      {fault::FaultKind::kTransientStageError, "mBackground4", 1.0 / h, 0.0,
       2},
      {fault::FaultKind::kStageCrash, "mAdd", 1.0 / h, 15.0, 1},
      {fault::FaultKind::kStageCrash, "mDiffFit2", 1.0 / h, 8.0, 1},
  };
  DFLOW_ASSIGN_OR_RETURN(fault::FaultPlan plan,
                         fault::FaultPlan::Generate(params.seed * 31 + 7,
                                                    plan_config));

  WfReplayConfig chaos_config = clean_config;
  chaos_config.retry.max_attempts = 6;
  chaos_config.retry.backoff_initial_sec = 1.0;
  chaos_config.retry.backoff_multiplier = 2.0;
  chaos_config.plan = &plan;
  DFLOW_ASSIGN_OR_RETURN(WfReplayOutcome outcome,
                         ReplayWfInstance(instance, chaos_config));

  ScenarioResult result;
  FillTraceRow(outcome, static_cast<int64_t>(instance.tasks.size()),
               &result);
  result.recovery_sec =
      std::max(0.0, outcome.makespan_sec - clean.makespan_sec);
  result.extra.emplace_back("faults_injected",
                            std::to_string(outcome.faults_injected));
  result.extra.emplace_back("retries", std::to_string(outcome.retries));
  result.extra.emplace_back("dead_lettered",
                            std::to_string(outcome.dead_lettered));
  Md5 md5;
  md5.Update(outcome.trace_json);
  md5.Update(plan.Fingerprint());
  md5.Update(outcome.report);
  result.fingerprint = md5.HexDigest();
  return result;
}

// ===========================================================================
// shape.* — synthetic load shapes against a live ServeLoop.

struct ShapeRun {
  std::vector<serve::TimedRequest> schedule;
  ServeReplayOutcome outcome;
};

/// Stands up the standard shape backend (4 workers, lock-free analysis
/// service, bounded queue) and replays `schedule` against it.
ShapeRun RunShapeSchedule(std::vector<serve::TimedRequest> schedule,
                          size_t max_queue_depth) {
  AnalysisService backend(/*service_us=*/200.0);
  core::ServiceRegistry registry;
  DFLOW_CHECK_OK(registry.Mount(
      "svc", std::shared_ptr<core::WebService>(&backend,
                                               [](core::WebService*) {})));
  serve::ServeConfig config;
  config.num_workers = 4;
  config.max_queue_depth = max_queue_depth;
  config.locking = serve::ServeConfig::BackendLocking::kNone;
  serve::ServeLoop loop(&registry, config);
  ShapeRun run;
  run.outcome = ReplaySchedule(loop, schedule);
  run.schedule = std::move(schedule);
  return run;
}

void FillServeRow(const ShapeRun& run, ScenarioResult* result) {
  result->offered = run.outcome.stats.offered;
  result->p50_ms = run.outcome.latencies.Percentile(0.50) * 1000.0;
  result->p99_ms = run.outcome.latencies.Percentile(0.99) * 1000.0;
  result->shed_rate = run.outcome.stats.shed_fraction();
  // The fingerprint is the seeded arrival schedule — the scenario's
  // deterministic identity. Measured latencies are wall-clock and stay
  // advisory.
  result->fingerprint = ScheduleFingerprint(run.schedule);
  result->extra.emplace_back("completed",
                             std::to_string(run.outcome.stats.completed));
  result->extra.emplace_back("shed",
                             std::to_string(run.outcome.stats.shed));
}

Result<ScenarioResult> RunDiurnal(const ScenarioParams& params) {
  serve::WorkloadGen gen(BuildPopulation(400), /*zipf_s=*/1.1, params.seed);
  double duration = ScaledDuration(1.2, params.scale);
  std::vector<serve::TimedRequest> schedule =
      DiurnalSchedule(gen, /*base_rate_per_sec=*/6000.0 * params.scale,
                      /*amplitude=*/0.6, /*period_sec=*/duration / 2.0,
                      duration);
  ShapeRun run = RunShapeSchedule(std::move(schedule), 64);
  ScenarioResult result;
  FillServeRow(run, &result);
  result.recovery_sec = 0.0;
  return result;
}

Result<ScenarioResult> RunFlashCrowd(const ScenarioParams& params) {
  serve::WorkloadGen gen(BuildPopulation(400), /*zipf_s=*/1.1, params.seed);
  FlashCrowdConfig config;
  config.duration_sec = ScaledDuration(1.6, params.scale);
  config.base_rate_per_sec = 700.0 * params.scale;
  config.spike_multiplier = 50.0;
  config.onset_min_sec = 0.30 * config.duration_sec;
  config.onset_max_sec = 0.55 * config.duration_sec;
  config.rise_tau_sec = 0.03 * config.duration_sec;
  config.decay_tau_sec = 0.15 * config.duration_sec;
  config.hot_fraction = 0.9;
  config.shape_seed = params.seed ^ 0x9e3779b97f4a7c15ull;
  std::vector<serve::TimedRequest> schedule = FlashCrowdSchedule(gen, config);
  ShapeRun run = RunShapeSchedule(std::move(schedule), 64);
  ScenarioResult result;
  FillServeRow(run, &result);
  result.recovery_sec = 0.0;
  return result;
}

Result<ScenarioResult> RunBulkRace(const ScenarioParams& params) {
  serve::WorkloadGen gen(BuildPopulation(500), /*zipf_s=*/1.1, params.seed);
  BulkRaceConfig config;
  config.duration_sec = ScaledDuration(1.5, params.scale);
  config.interactive_rate_per_sec = 3000.0 * params.scale;
  config.bulk_rate_per_sec = 15000.0 * params.scale;
  std::vector<serve::TimedRequest> schedule = BulkRaceSchedule(gen, config);
  int64_t bulk = 0;
  for (const serve::TimedRequest& timed : schedule) {
    bulk += timed.request.Param("wl") == "bulk" ? 1 : 0;
  }
  ShapeRun run = RunShapeSchedule(std::move(schedule), 48);
  ScenarioResult result;
  FillServeRow(run, &result);
  result.recovery_sec = 0.0;
  result.extra.emplace_back("bulk_offered", std::to_string(bulk));
  return result;
}

// ===========================================================================
// chaos.* — cross-product fault composition.

/// Link + drive + media faults striking a tape archive mid-scrub while a
/// recall storm loads the drives — the PR 1 fault plan, PR 5 scrubber, and
/// PR 3 tracer composed on one simulation clock.
Result<ScenarioResult> RunScrubStorm(const ScenarioParams& params) {
  sim::Simulation sim;
  obs::MetricsRegistry metrics;
  obs::TracerConfig trace_config;
  trace_config.clock = obs::TracerConfig::ClockMode::kExternal;
  trace_config.external_now_sec = [&sim] { return sim.Now(); };
  obs::Tracer tracer(trace_config);

  storage::TapeLibraryConfig tape_config;
  tape_config.num_drives = 4;
  storage::TapeLibrary primary(&sim, "tape0", tape_config);
  storage::TapeLibrary replica(&sim, "tape1", tape_config);

  net::NetworkLinkConfig link_config;
  net::NetworkLink link(&sim, "ingest", link_config, params.seed);

  // Archive population: both copies hold the same namespace.
  int files = std::max(12, static_cast<int>(40.0 * params.scale));
  std::vector<std::string> names;
  for (int i = 0; i < files; ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "vol/f%04d", i);
    names.emplace_back(buf);
    int64_t bytes = 1000000000LL + 70000000LL * i;
    DFLOW_RETURN_IF_ERROR(primary.Write(names.back(), bytes, [] {}));
    DFLOW_RETURN_IF_ERROR(replica.Write(names.back(), bytes, [] {}));
  }

  constexpr double kHorizon = 86400.0;  // One virtual day.
  fault::FaultPlanConfig plan_config;
  plan_config.horizon_sec = kHorizon;
  plan_config.processes = {
      {fault::FaultKind::kLinkFlap, "ingest", 4.0 / kHorizon, 1800.0, 1},
      {fault::FaultKind::kDriveFailure, "tape0", 3.0 / kHorizon, 7200.0, 1},
      {fault::FaultKind::kBadBlock, "tape0", 3.0 / kHorizon, 0.0, 1},
      {fault::FaultKind::kBadBlock, "tape0", 2.0 / kHorizon, 0.0, 7},
  };
  DFLOW_ASSIGN_OR_RETURN(fault::FaultPlan plan,
                         fault::FaultPlan::Generate(params.seed * 131 + 3,
                                                    plan_config));
  fault::Injector injector(&sim, plan);
  fault::ArmNetworkLink(injector, &link);
  fault::ArmTapeLibrary(injector, &primary, "tape0");
  DFLOW_RETURN_IF_ERROR(injector.Arm());

  // Silent bit rot the fault taxonomy has no Poisson process for: two
  // seeded victims rot mid-morning; only the scrub's checksum pass can
  // catch them.
  Rng storm_rng(params.seed * 17 + 11);
  for (int i = 0; i < 2; ++i) {
    std::string victim =
        names[static_cast<size_t>(storm_rng.Uniform(0, files - 1))];
    sim.ScheduleAt(6.0 * 3600.0 + 1800.0 * i, [&primary, victim] {
      primary.CorruptSilently(victim);
    });
  }

  recover::ScrubberConfig scrub_config;
  scrub_config.cycle_interval_sec = 5400.0;
  scrub_config.files_per_cycle = std::max(4, files / 4);
  scrub_config.operator_repair_seconds = 900.0;
  scrub_config.passes = 3;
  recover::Scrubber scrubber(&sim, &primary, &replica, scrub_config);
  scrubber.SetObserver(&tracer, &metrics);
  DFLOW_RETURN_IF_ERROR(scrubber.Start());

  // Recall storm: production reads contending with scrub verifications for
  // the same drives. Issue times start after the initial archive writes
  // have surely drained.
  int recalls = std::max(30, static_cast<int>(120.0 * params.scale));
  auto latencies = std::make_shared<std::vector<double>>();
  auto failed = std::make_shared<int64_t>(0);
  double at = 4000.0;
  for (int i = 0; i < recalls; ++i) {
    at += storm_rng.Exponential(1.0 / 400.0);
    std::string file =
        names[static_cast<size_t>(storm_rng.Uniform(0, files - 1))];
    sim.ScheduleAt(at, [&sim, &primary, file, latencies, failed] {
      double issued = sim.Now();
      Status status = primary.ReadChecked(
          file, [&sim, issued, latencies, failed](Result<int64_t> read) {
            if (read.ok()) {
              latencies->push_back(sim.Now() - issued);
            } else {
              ++*failed;
            }
          });
      if (!status.ok()) {
        ++*failed;
      }
    });
  }

  // Background ingest traffic so link flaps have sessions to kill.
  auto delivered = std::make_shared<int64_t>(0);
  auto lost = std::make_shared<int64_t>(0);
  double send_at = 100.0;
  for (int i = 0; i < 40; ++i) {
    send_at += storm_rng.Exponential(1.0 / 600.0);
    sim.ScheduleAt(send_at, [&link, i, delivered, lost] {
      net::TransferItem item;
      item.name = "ingest/batch" + std::to_string(i);
      item.bytes = 200000000;
      (void)link.Send(item, [delivered, lost](const net::TransferItem&,
                                              net::DeliveryOutcome outcome) {
        if (outcome == net::DeliveryOutcome::kDelivered) {
          ++*delivered;
        } else {
          ++*lost;
        }
      });
    });
  }

  // Recovery probe: poll the ticket queue every 5 virtual minutes. The
  // archive has recovered when, after the last planned fault, no repair
  // tickets remain pending; the first such poll timestamps it.
  double first_fault = kHorizon;
  double last_fault = 0.0;
  for (const fault::FaultEvent& event : plan.events()) {
    first_fault = std::min(first_fault, event.time_sec);
    last_fault = std::max(last_fault, event.time_sec);
  }
  auto recovered_at = std::make_shared<double>(-1.0);
  constexpr double kPollEnd = kHorizon + 4.0 * 3600.0;
  for (double poll = 300.0; poll < kPollEnd; poll += 300.0) {
    sim.ScheduleAt(poll, [&sim, &scrubber, recovered_at, last_fault] {
      if (sim.Now() <= last_fault) {
        return;
      }
      if (scrubber.tickets_pending() > 0) {
        *recovered_at = -1.0;
      } else if (*recovered_at < 0.0) {
        *recovered_at = sim.Now();
      }
    });
  }

  sim.Run();

  ScenarioResult result;
  result.offered = recalls;
  result.p50_ms = ExactPercentile(*latencies, 0.50) * 1000.0;
  result.p99_ms = ExactPercentile(*latencies, 0.99) * 1000.0;
  result.shed_rate =
      recalls == 0 ? 0.0 : static_cast<double>(*failed) / recalls;
  result.recovery_sec = *recovered_at >= 0.0
                            ? *recovered_at - first_fault
                            : kPollEnd - first_fault;
  // Everything below ran on the virtual clock in one thread: the trace,
  // the plan, and the counter snapshot are all byte-stable per seed.
  Md5 md5;
  md5.Update(tracer.ExportChromeJson());
  md5.Update(plan.Fingerprint());
  md5.Update(metrics.SnapshotJson());
  result.fingerprint = md5.HexDigest();
  result.extra.emplace_back("faults_injected",
                            std::to_string(injector.injected()));
  result.extra.emplace_back("tickets_filed",
                            std::to_string(scrubber.tickets_filed()));
  result.extra.emplace_back("tickets_deduped",
                            std::to_string(scrubber.tickets_deduped()));
  result.extra.emplace_back("restored_from_replica",
                            std::to_string(scrubber.restored_from_replica()));
  result.extra.emplace_back("link_outages",
                            std::to_string(link.outages()));
  result.extra.emplace_back("drive_failures",
                            std::to_string(primary.drive_failures()));
  result.extra.emplace_back("ingest_lost", std::to_string(*lost));
  return result;
}

/// Primary backend dies mid-flash-crowd: the circuit breaker trips, load
/// fails over to the replica, and after the primary heals a half-open
/// probe closes the breaker — recovery_sec is heal-to-close, measured by
/// the pacing thread itself.
Result<ScenarioResult> RunBreakerFlash(const ScenarioParams& params) {
  serve::WorkloadGen gen(BuildPopulation(300), /*zipf_s=*/1.1, params.seed);
  FlashCrowdConfig crowd;
  crowd.duration_sec = ScaledDuration(1.8, params.scale);
  crowd.base_rate_per_sec = 1500.0 * params.scale;
  crowd.spike_multiplier = 20.0;
  crowd.onset_min_sec = 0.15 * crowd.duration_sec;
  crowd.onset_max_sec = 0.30 * crowd.duration_sec;
  crowd.rise_tau_sec = 0.03 * crowd.duration_sec;
  crowd.decay_tau_sec = 0.20 * crowd.duration_sec;
  crowd.hot_fraction = 0.8;
  crowd.shape_seed = params.seed ^ 0x6a09e667f3bcc909ull;
  std::vector<serve::TimedRequest> schedule = FlashCrowdSchedule(gen, crowd);

  FlakyAnalysisService primary_backend(/*service_us=*/200.0);
  core::ServiceRegistry primary;
  DFLOW_CHECK_OK(primary.Mount(
      "svc", std::shared_ptr<core::WebService>(&primary_backend,
                                               [](core::WebService*) {})));
  AnalysisService replica_backend(/*service_us=*/250.0);
  core::ServiceRegistry replica;
  DFLOW_CHECK_OK(replica.Mount(
      "svc", std::shared_ptr<core::WebService>(&replica_backend,
                                               [](core::WebService*) {})));

  serve::ServeConfig config;
  config.num_workers = 4;
  config.max_queue_depth = 64;
  config.locking = serve::ServeConfig::BackendLocking::kNone;
  config.breaker.enabled = true;
  config.breaker.failure_threshold = 5;
  config.breaker.open_sec = 0.04;
  config.breaker.open_max_sec = 0.30;
  serve::ServeLoop loop(&primary, config);
  DFLOW_RETURN_IF_ERROR(loop.SetReplica("svc", &replica));

  // Failure window: the primary dies just as the crowd builds and heals
  // after the crest, while traffic is still elevated — so probes have
  // requests to ride on.
  double fail_start = 0.35 * crowd.duration_sec;
  double fail_end = 0.55 * crowd.duration_sec;
  bool failing = false;
  bool healed = false;
  double first_close_after_heal = -1.0;
  ServeReplayOutcome outcome = ReplaySchedule(
      loop, schedule, [&](double now) {
        if (!failing && now >= fail_start && now < fail_end) {
          primary_backend.SetFailing(true);
          failing = true;
        }
        if (failing && now >= fail_end) {
          primary_backend.SetFailing(false);
          failing = false;
          healed = true;
        }
        if (healed && first_close_after_heal < 0.0 &&
            loop.Stats().breaker_closed > 0) {
          first_close_after_heal = now;
        }
      });
  if (failing) {  // Schedule ended inside the window; heal for bookkeeping.
    primary_backend.SetFailing(false);
    healed = true;
  }
  if (first_close_after_heal < 0.0 && loop.Stats().breaker_closed > 0) {
    first_close_after_heal = crowd.duration_sec;
  }

  ScenarioResult result;
  result.offered = outcome.stats.offered;
  result.p50_ms = outcome.latencies.Percentile(0.50) * 1000.0;
  result.p99_ms = outcome.latencies.Percentile(0.99) * 1000.0;
  result.shed_rate = outcome.stats.shed_fraction();
  result.recovery_sec = first_close_after_heal >= 0.0
                            ? std::max(0.0, first_close_after_heal - fail_end)
                            : crowd.duration_sec - fail_end;
  // Deterministic identity: the seeded schedule plus the full breaker /
  // failure-window configuration (the window doubles per re-trip). Breaker
  // trip timing itself is wall-clock and lands in the measured columns,
  // not the fingerprint.
  Md5 md5;
  md5.Update(ScheduleFingerprint(schedule));
  char knobs[160];
  std::snprintf(knobs, sizeof(knobs),
                "fail=[%.6f,%.6f) thr=%d open=%.3f/%.3f x2.0 seed=%llu",
                fail_start, fail_end, config.breaker.failure_threshold,
                config.breaker.open_sec, config.breaker.open_max_sec,
                static_cast<unsigned long long>(params.seed));
  md5.Update(knobs);
  result.fingerprint = md5.HexDigest();
  result.extra.emplace_back("breaker_opened",
                            std::to_string(outcome.stats.breaker_opened));
  result.extra.emplace_back("breaker_closed",
                            std::to_string(outcome.stats.breaker_closed));
  result.extra.emplace_back("failover_requests",
                            std::to_string(outcome.stats.failover_requests));
  result.extra.emplace_back("errors",
                            std::to_string(outcome.stats.errors));
  return result;
}

// ===========================================================================
// cluster.* — the PR 7 consistent-hash cluster tier under scenario load.

/// Mounts the standard analysis backend on every cluster node.
cluster::BackendFactory ClusterBackends(double service_us) {
  return [service_us](int, core::ServiceRegistry* registry) {
    return registry->Mount("svc",
                           std::make_shared<AnalysisService>(service_us));
  };
}

Result<std::unique_ptr<cluster::Cluster>> MakeScenarioCluster(
    int num_nodes, const ScenarioParams& params) {
  cluster::ClusterConfig config;
  config.num_nodes = num_nodes;
  config.replication_factor = 2;
  // The kill/rebalance scenario writes through one-dead-replica windows;
  // the pre-quorum availability contract is the one under test here.
  config.write_quorum = 1;
  config.read_quorum = 1;
  config.seed = params.seed;
  config.workers_per_node = 2;
  return cluster::Cluster::Create(config, ClusterBackends(/*service_us=*/40.0));
}

/// The same Zipf stream the serve shapes use, routed through the cluster
/// tier at 1 and 4 nodes. The fingerprint is the routing identity (decision
/// log + shard map at both node counts) — pure functions of (seed, stream)
/// — while the latency columns stay measured and advisory.
Result<ScenarioResult> RunClusterScaleoutZipf(const ScenarioParams& params) {
  const int requests =
      std::max(200, static_cast<int>(1200 * params.scale));
  serve::WorkloadGen gen(BuildPopulation(300), /*zipf_s=*/1.1, params.seed);
  std::vector<core::ServiceRequest> stream;
  std::vector<std::string> keys;
  stream.reserve(requests);
  keys.reserve(requests);
  for (int i = 0; i < requests; ++i) {
    stream.push_back(gen.Next());
    keys.push_back(cluster::Cluster::KeyOf(stream.back()));
  }

  Md5 identity;
  std::vector<double> latencies;
  latencies.reserve(2 * static_cast<size_t>(requests));
  int64_t forwarded = 0;
  int64_t reroutes = 0;
  for (int nodes : {1, 4}) {
    DFLOW_ASSIGN_OR_RETURN(std::unique_ptr<cluster::Cluster> cluster,
                           MakeScenarioCluster(nodes, params));
    identity.Update(cluster->DecisionLog(keys));
    identity.Update(cluster->DescribeMap());
    for (const core::ServiceRequest& request : stream) {
      double t0 = NowSec();
      DFLOW_ASSIGN_OR_RETURN(core::ServiceResponse response,
                             cluster->Execute(request));
      latencies.push_back(NowSec() - t0);
      if (response.body.empty()) {
        return Status::Internal("empty cluster response");
      }
    }
    cluster::ClusterStats stats = cluster->Stats();
    forwarded += stats.forwarded;
    reroutes += stats.reroutes;
  }

  ScenarioResult result;
  result.offered = 2 * requests;
  result.p50_ms = ExactPercentile(latencies, 0.50) * 1000.0;
  result.p99_ms = ExactPercentile(latencies, 0.99) * 1000.0;
  result.shed_rate = 0.0;
  result.recovery_sec = 0.0;
  result.fingerprint = identity.HexDigest();
  result.extra.emplace_back("forwarded", std::to_string(forwarded));
  result.extra.emplace_back("reroutes", std::to_string(reroutes));
  return result;
}

/// Kill a replica mid-traffic, rejoin it (anti-entropy catch-up), then
/// sweep live shard moves — the cluster's whole failure/rebalance arc in
/// one deterministic run. Zero client-visible failures is a hard invariant
/// (Internal error, which the matrix gate turns into a test failure).
Result<ScenarioResult> RunNodeKillRebalance(const ScenarioParams& params) {
  const int kNodes = 4;
  const int num_keys = std::max(120, static_cast<int>(400 * params.scale));
  const int requests = std::max(150, static_cast<int>(600 * params.scale));
  DFLOW_ASSIGN_OR_RETURN(std::unique_ptr<cluster::Cluster> cluster,
                         MakeScenarioCluster(kNodes, params));
  for (int i = 0; i < num_keys; ++i) {
    DFLOW_RETURN_IF_ERROR(
        cluster->Put("key/" + std::to_string(i), "v" + std::to_string(i)));
  }

  serve::WorkloadGen gen(BuildPopulation(300), /*zipf_s=*/1.1, params.seed);
  std::vector<core::ServiceRequest> stream;
  std::vector<std::string> keys;
  for (int i = 0; i < requests; ++i) {
    stream.push_back(gen.Next());
    keys.push_back(cluster::Cluster::KeyOf(stream.back()));
  }

  std::vector<double> latencies;
  latencies.reserve(stream.size());
  auto drive = [&](size_t begin, size_t end) -> Status {
    for (size_t i = begin; i < end; ++i) {
      double t0 = NowSec();
      Result<core::ServiceResponse> response = cluster->Execute(stream[i]);
      latencies.push_back(NowSec() - t0);
      if (!response.ok()) {
        return Status::Internal("client-visible failure after node kill: " +
                                response.status().message());
      }
    }
    return Status::OK();
  };

  // Clean third, kill a replica, degraded third (every request must still
  // answer — R=2 absorbs one corpse), rejoin, final third.
  const size_t third = stream.size() / 3;
  DFLOW_RETURN_IF_ERROR(drive(0, third));
  const double kill_at = NowSec();
  DFLOW_RETURN_IF_ERROR(cluster->KillNode("node1"));
  // Writes land while node1 is dead, so the rejoin has real catch-up work.
  for (int i = 0; i < num_keys / 2; ++i) {
    DFLOW_RETURN_IF_ERROR(
        cluster->Put("key/" + std::to_string(i), "w" + std::to_string(i)));
  }
  DFLOW_RETURN_IF_ERROR(drive(third, 2 * third));
  DFLOW_RETURN_IF_ERROR(cluster->RejoinNode("node1"));
  const double recovered_at = NowSec();
  DFLOW_RETURN_IF_ERROR(drive(2 * third, stream.size()));

  // Live rebalance sweep: push a band of shards around the ring while the
  // map is serving (AlreadyExists = the target already owned that shard).
  std::vector<std::string> names = cluster->node_names();
  for (int shard = 0; shard < 8; ++shard) {
    Status moved =
        cluster->MoveShard(shard, names[shard % names.size()]);
    if (!moved.ok() && !moved.IsAlreadyExists()) {
      return moved;
    }
  }
  for (int i = 0; i < num_keys; ++i) {
    DFLOW_ASSIGN_OR_RETURN(std::string value,
                           cluster->Get("key/" + std::to_string(i)));
    const std::string want =
        (i < num_keys / 2 ? "w" : "v") + std::to_string(i);
    if (value != want) {
      return Status::Internal("key " + std::to_string(i) +
                              " lost its write through the kill/rebalance");
    }
  }

  cluster::ClusterStats stats = cluster->Stats();
  ScenarioResult result;
  result.offered = static_cast<int64_t>(stream.size());
  result.p50_ms = ExactPercentile(latencies, 0.50) * 1000.0;
  result.p99_ms = ExactPercentile(latencies, 0.99) * 1000.0;
  result.shed_rate = 0.0;
  result.recovery_sec = std::max(0.0, recovered_at - kill_at);
  // Deterministic identity: final routing decisions + shard map (override
  // marks included) + replicated state digests. All pure functions of
  // (seed, serialized history); wall-clock stays in the measured columns.
  Md5 identity;
  identity.Update(cluster->DecisionLog(keys));
  identity.Update(cluster->DescribeMap());
  identity.Update(cluster->DescribeState());
  result.fingerprint = identity.HexDigest();
  result.extra.emplace_back("reroutes", std::to_string(stats.reroutes));
  result.extra.emplace_back("catchup_shards",
                            std::to_string(stats.catchup_shards));
  result.extra.emplace_back("rebalance_moves",
                            std::to_string(stats.rebalance_moves));
  result.extra.emplace_back("failed", std::to_string(stats.failed));
  return result;
}

/// Minority partition across the quorum-replicated cluster: node0 is cut
/// off mid-traffic, majority-coordinated writes stay available while
/// minority-coordinated ones are rejected, and the heal reconciles every
/// replica through hinted handoff + read-repair. The recorded history is
/// fed to the offline consistency checker — any acked-write loss or
/// monotonicity violation is an Internal error (a matrix test failure),
/// and the history/state digests are the deterministic fingerprint.
Result<ScenarioResult> RunPartitionQuorum(const ScenarioParams& params) {
  const int kNodes = 5;
  const int num_keys = std::max(60, static_cast<int>(200 * params.scale));
  cluster::HistoryRecorder history;
  cluster::ClusterConfig config;
  config.num_nodes = kNodes;
  config.replication_factor = 3;  // Majority quorums: W = R = 2.
  config.seed = params.seed;
  config.workers_per_node = 2;
  config.history = &history;
  DFLOW_ASSIGN_OR_RETURN(
      std::unique_ptr<cluster::Cluster> cluster,
      cluster::Cluster::Create(config, ClusterBackends(/*service_us=*/40.0)));

  auto key_at = [](int i) { return "key/" + std::to_string(i); };
  std::vector<double> latencies;
  latencies.reserve(5 * static_cast<size_t>(num_keys));
  auto timed_put = [&](const std::string& key,
                       const std::string& value) -> Status {
    double t0 = NowSec();
    Status put = cluster->Put(key, value);
    latencies.push_back(NowSec() - t0);
    return put;
  };

  // Seed every key, then cut node0 off for 60 s of virtual time.
  for (int i = 0; i < num_keys; ++i) {
    DFLOW_RETURN_IF_ERROR(timed_put(key_at(i), "v" + std::to_string(i)));
  }
  DFLOW_RETURN_IF_ERROR(cluster->AdvancePartitionTime(5.0));
  DFLOW_RETURN_IF_ERROR(
      cluster->PartitionNodes("node0|node1,node2,node3,node4", 60.0));

  // Write through the damage: majority-coordinated writes must land,
  // minority-coordinated ones must be rejected with zero side effects.
  int64_t acked = 0;
  int64_t rejected = 0;
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < num_keys; ++i) {
      Status put = timed_put(key_at(i), "p" + std::to_string(round));
      if (put.ok()) {
        ++acked;
      } else if (put.IsResourceExhausted()) {
        ++rejected;
      } else {
        return put;
      }
    }
  }
  if (acked == 0 || rejected == 0) {
    return Status::Internal(
        "partition did not split the workload: " + std::to_string(acked) +
        " acked / " + std::to_string(rejected) + " rejected");
  }

  // Heal by the clock (hints drain), then a read sweep closes the rest.
  DFLOW_RETURN_IF_ERROR(cluster->AdvancePartitionTime(70.0));
  for (int i = 0; i < num_keys; ++i) {
    double t0 = NowSec();
    DFLOW_ASSIGN_OR_RETURN(std::string value, cluster->Get(key_at(i)));
    latencies.push_back(NowSec() - t0);
    (void)value;
  }
  if (!cluster->ReplicasConverged()) {
    return Status::Internal("replicas diverged after heal + read sweep");
  }
  cluster::ConsistencyReport report = CheckHistory(history.events());
  if (!report.ok()) {
    return Status::Internal("consistency violation: " + report.ToString());
  }

  std::vector<std::string> keys;
  keys.reserve(num_keys);
  for (int i = 0; i < num_keys; ++i) {
    keys.push_back(key_at(i));
  }
  cluster::ClusterStats stats = cluster->Stats();
  ScenarioResult result;
  result.offered = static_cast<int64_t>(latencies.size());
  result.p50_ms = ExactPercentile(latencies, 0.50) * 1000.0;
  result.p99_ms = ExactPercentile(latencies, 0.99) * 1000.0;
  result.shed_rate =
      static_cast<double>(rejected) / static_cast<double>(acked + rejected);
  result.recovery_sec = 0.0;
  Md5 identity;
  identity.Update(history.ToString());
  identity.Update(cluster->DecisionLog(keys));
  identity.Update(cluster->DescribeState());
  result.fingerprint = identity.HexDigest();
  result.extra.emplace_back("acked", std::to_string(acked));
  result.extra.emplace_back("rejected", std::to_string(rejected));
  result.extra.emplace_back("hints_stored",
                            std::to_string(stats.hints_stored));
  result.extra.emplace_back("hints_drained",
                            std::to_string(stats.hints_drained));
  result.extra.emplace_back("read_repairs",
                            std::to_string(stats.read_repairs));
  result.extra.emplace_back("partition_transitions",
                            std::to_string(stats.partition_transitions));
  return result;
}

}  // namespace

const ScenarioRegistry& BuiltinScenarios() {
  static const ScenarioRegistry* registry = [] {
    auto* r = new ScenarioRegistry();
    DFLOW_CHECK_OK(r->Register(
        {"trace.wfcommons_montage", "trace",
         "WfCommons Montage instance replayed through FlowRunner (clean)",
         RunWfMontage}));
    DFLOW_CHECK_OK(r->Register(
        {"trace.wfcommons_chaos", "chaos",
         "same Montage instance under a seeded stage-fault plan",
         RunWfChaos}));
    DFLOW_CHECK_OK(r->Register(
        {"shape.diurnal", "shape",
         "diurnal-cycle open-loop load against the serve tier",
         RunDiurnal}));
    DFLOW_CHECK_OK(r->Register(
        {"shape.flash_crowd", "shape",
         "50x seeded popularity spike on the hottest endpoint",
         RunFlashCrowd}));
    DFLOW_CHECK_OK(r->Register(
        {"shape.bulk_race", "shape",
         "bulk reprocessing sweep racing interactive Zipf traffic",
         RunBulkRace}));
    DFLOW_CHECK_OK(r->Register(
        {"chaos.scrub_storm", "chaos",
         "link+drive+media faults during a scrub under a recall storm",
         RunScrubStorm}));
    DFLOW_CHECK_OK(r->Register(
        {"chaos.breaker_flash", "chaos",
         "primary dies mid-flash-crowd; breaker trips, fails over, recovers",
         RunBreakerFlash}));
    DFLOW_CHECK_OK(r->Register(
        {"cluster.scaleout_zipf", "shape",
         "Zipf stream routed through the consistent-hash cluster at 1 and "
         "4 nodes",
         RunClusterScaleoutZipf}));
    DFLOW_CHECK_OK(r->Register(
        {"chaos.node_kill_rebalance", "chaos",
         "replica killed mid-traffic, rejoined via catch-up, then a live "
         "shard-move sweep",
         RunNodeKillRebalance}));
    DFLOW_CHECK_OK(r->Register(
        {"chaos.partition_quorum", "chaos",
         "minority partition under majority quorums: writes split by "
         "coordinator side, heal reconciles via hints + read-repair, "
         "checker-verified",
         RunPartitionQuorum}));
    return r;
  }();
  return *registry;
}

}  // namespace dflow::scenario
