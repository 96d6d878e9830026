#include "core/flow_runner.h"

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <memory>
#include <sstream>

#include "util/logging.h"
#include "util/units.h"

namespace dflow::core {

namespace {

std::string FmtSeconds(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", seconds);
  return buf;
}

}  // namespace

FlowRunner::FlowRunner(sim::Simulation* simulation, FlowGraph* graph,
                       uint64_t retry_seed)
    : simulation_(simulation), graph_(graph), retry_rng_(retry_seed) {
  DFLOW_CHECK(simulation_ != nullptr);
  DFLOW_CHECK(graph_ != nullptr);
}

void FlowRunner::StageState::RefreshSnapshot() const {
  snapshot.products_in = counters.products_in->Value();
  snapshot.products_out = counters.products_out->Value();
  snapshot.bytes_in = counters.bytes_in->Value();
  snapshot.bytes_out = counters.bytes_out->Value();
  snapshot.errors = counters.errors->Value();
  snapshot.retries = counters.retries->Value();
  snapshot.dead_lettered = counters.dead_lettered->Value();
}

obs::MetricsRegistry& FlowRunner::Registry() {
  return obs::InjectedOrOwned(metrics_, &owned_metrics_);
}

obs::MetricsRegistry* FlowRunner::metrics_registry() { return &Registry(); }

Status FlowRunner::SetMetricsRegistry(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    return Status::InvalidArgument("registry must not be null");
  }
  if (!states_.empty() || ran_) {
    return Status::FailedPrecondition(
        "SetMetricsRegistry must precede stage configuration");
  }
  metrics_ = registry;
  return Status::OK();
}

Status FlowRunner::SetTracer(obs::Tracer* tracer) {
  if (ran_) {
    return Status::FailedPrecondition("run already started");
  }
  tracer_ = tracer;
  return Status::OK();
}

int FlowRunner::TidFor(const std::string& stage) {
  auto [it, inserted] =
      trace_tids_.try_emplace(stage, static_cast<int>(trace_tids_.size()));
  if (inserted && tracer_ != nullptr) {
    tracer_->NameTrack(it->second, stage);
  }
  return it->second;
}

FlowRunner::StageState& FlowRunner::StateOf(const std::string& stage) {
  auto [it, inserted] = states_.try_emplace(stage);
  if (inserted) {
    obs::MetricsRegistry& registry = Registry();
    const std::string prefix = "flow." + stage + ".";
    StageCounters& c = it->second.counters;
    c.products_in = registry.GetCounter(prefix + "products_in");
    c.products_out = registry.GetCounter(prefix + "products_out");
    c.bytes_in = registry.GetCounter(prefix + "bytes_in");
    c.bytes_out = registry.GetCounter(prefix + "bytes_out");
    c.errors = registry.GetCounter(prefix + "errors");
    c.retries = registry.GetCounter(prefix + "retries");
    c.dead_lettered = registry.GetCounter(prefix + "dead_lettered");
  }
  return it->second;
}

sim::Resource* FlowRunner::ResourceOf(const std::string& stage_name,
                                      StageState& state) {
  if (state.resource == nullptr) {
    state.resource = std::make_unique<sim::Resource>(simulation_, stage_name,
                                                     state.workers);
  }
  return state.resource.get();
}

Status FlowRunner::SetWorkers(const std::string& stage, int workers) {
  if (ran_) {
    return Status::FailedPrecondition("run already started");
  }
  DFLOW_ASSIGN_OR_RETURN(Stage * ignored, graph_->Find(stage));
  (void)ignored;
  if (workers <= 0) {
    return Status::InvalidArgument("workers must be positive");
  }
  StateOf(stage).workers = workers;
  return Status::OK();
}

Status FlowRunner::SetRelease(const std::string& stage, std::string release) {
  DFLOW_ASSIGN_OR_RETURN(Stage * ignored, graph_->Find(stage));
  (void)ignored;
  StateOf(stage).release = std::move(release);
  return Status::OK();
}

Status FlowRunner::SetSite(const std::string& stage, std::string site) {
  DFLOW_ASSIGN_OR_RETURN(Stage * ignored, graph_->Find(stage));
  (void)ignored;
  StateOf(stage).site = std::move(site);
  return Status::OK();
}

Status FlowRunner::SetRetryPolicy(const std::string& stage,
                                  RetryPolicy policy) {
  DFLOW_ASSIGN_OR_RETURN(Stage * ignored, graph_->Find(stage));
  (void)ignored;
  if (policy.max_attempts < 1) {
    return Status::InvalidArgument("max_attempts must be >= 1");
  }
  if (policy.backoff_initial_sec < 0.0 || policy.backoff_max_sec < 0.0 ||
      policy.backoff_multiplier < 1.0) {
    return Status::InvalidArgument("invalid backoff parameters");
  }
  if (policy.jitter_fraction < 0.0 || policy.jitter_fraction >= 1.0) {
    return Status::InvalidArgument("jitter_fraction must be in [0, 1)");
  }
  StateOf(stage).retry = policy;
  return Status::OK();
}

Status FlowRunner::InjectTransientErrors(const std::string& stage,
                                         int64_t count) {
  DFLOW_ASSIGN_OR_RETURN(Stage * ignored, graph_->Find(stage));
  (void)ignored;
  if (count < 0) {
    return Status::InvalidArgument("count must be >= 0");
  }
  StateOf(stage).forced_failures += count;
  return Status::OK();
}

Status FlowRunner::InjectDowntime(const std::string& stage, double seconds) {
  DFLOW_ASSIGN_OR_RETURN(Stage * ignored, graph_->Find(stage));
  (void)ignored;
  if (seconds < 0.0) {
    return Status::InvalidArgument("downtime must be >= 0");
  }
  StageState& state = StateOf(stage);
  sim::Resource* resource = ResourceOf(stage, state);
  // A restart ticket per worker: queued products wait behind them, which
  // is exactly what a crashed stage looks like from upstream.
  for (int i = 0; i < state.workers; ++i) {
    resource->Submit(seconds, nullptr);
  }
  if (tracing()) {
    tracer_->InstantEvent("downtime_injected", "flow",
                          {{"seconds", FmtSeconds(seconds)}}, TidFor(stage));
  }
  DFLOW_LOG(Warning) << "stage '" << stage << "' down for " << seconds
                     << "s at t=" << simulation_->Now();
  return Status::OK();
}

Status FlowRunner::Inject(const std::string& stage, DataProduct product,
                          double at) {
  DFLOW_ASSIGN_OR_RETURN(Stage * ignored, graph_->Find(stage));
  (void)ignored;
  if (at < 0.0) {
    return Status::InvalidArgument("injection time must be >= 0");
  }
  simulation_->ScheduleAt(at, [this, stage, product = std::move(product)] {
    Deliver(stage, product);
  });
  return Status::OK();
}

double FlowRunner::BackoffDelay(const RetryPolicy& policy, int next_attempt) {
  // next_attempt is 1-based over retries: the first retry waits
  // backoff_initial_sec.
  double delay = policy.backoff_initial_sec;
  for (int i = 1; i < next_attempt; ++i) {
    delay *= policy.backoff_multiplier;
    if (delay >= policy.backoff_max_sec) {
      break;
    }
  }
  delay = std::min(delay, policy.backoff_max_sec);
  if (policy.jitter_fraction > 0.0) {
    double swing = policy.jitter_fraction *
                   (2.0 * retry_rng_.NextDouble() - 1.0);
    delay *= 1.0 + swing;
  }
  return delay;
}

void FlowRunner::Deliver(const std::string& stage_name, DataProduct product) {
  StageState& state = StateOf(stage_name);
  state.counters.products_in->Add(1);
  state.counters.bytes_in->Add(product.bytes);
  Enqueue(stage_name, std::move(product), 0, {});
}

void FlowRunner::Enqueue(const std::string& stage_name, DataProduct product,
                         int attempt, std::vector<bool> failure_history) {
  auto stage_or = graph_->Find(stage_name);
  DFLOW_CHECK(stage_or.ok());
  Stage* stage = *stage_or;
  StageState& state = StateOf(stage_name);
  sim::Resource* resource = ResourceOf(stage_name, state);

  double service_time = stage->ServiceTime(product);
  resource->Submit(service_time, [this, stage, stage_name, attempt,
                                  service_time, product = std::move(product),
                                  history =
                                      std::move(failure_history)]() mutable {
    StageState& state = StateOf(stage_name);
    // Resume path: a journaled terminal event for this (stage, input)
    // means every attempt's outcome is already known. The virtual service
    // time was just paid on the stage's workers (identical timeline and
    // utilization); only the real CPU of Process() is skipped.
    const recover::StageEventRecord* record =
        replay_ == nullptr ? nullptr : replay_->Find(stage_name, product.name);
    size_t failed_attempts = 0;
    size_t total_attempts = 0;
    if (record != nullptr) {
      failed_attempts = record->injected_failures.size();
      total_attempts =
          record->kind == recover::StageEventRecord::Kind::kCompleted
              ? failed_attempts + 1
              : failed_attempts;
    }
    const bool replayed =
        record != nullptr && static_cast<size_t>(attempt) < total_attempts;
    bool injected_failure = false;
    Result<std::vector<DataProduct>> outputs =
        Status::Internal("unprocessed");
    if (replayed) {
      if (static_cast<size_t>(attempt) < failed_attempts) {
        // This attempt failed in the journaled run; reproduce the failure
        // without touching the stage. An injected failure still consumes
        // one unit of the forced-failure budget so live products
        // interleaved later in the timeline see the same remaining budget
        // the original run gave them.
        injected_failure = record->injected_failures[attempt];
        if (injected_failure && state.forced_failures > 0) {
          --state.forced_failures;
        }
        outputs = injected_failure
                      ? Status::Internal("injected transient error")
                      : Status::Internal("journaled failure");
      } else {
        // The journaled terminal success: outputs come from the record,
        // provenance is re-stamped below through the normal path (the
        // replayed timestamps are identical, so the chains are too).
        std::vector<DataProduct> restored;
        restored.reserve(record->outputs.size());
        for (const recover::JournaledProduct& out : record->outputs) {
          DataProduct p;
          p.name = out.name;
          p.bytes = out.bytes;
          for (const auto& [key, value] : out.attributes) {
            p.attributes.emplace(key, value);
          }
          restored.push_back(std::move(p));
        }
        outputs = std::move(restored);
      }
    } else if (state.forced_failures > 0) {
      --state.forced_failures;
      injected_failure = true;
      outputs = Status::Internal("injected transient error");
    } else {
      outputs = stage->Process(product);
    }
    if (tracing()) {
      // One span per serviced attempt on the stage's track — the trace
      // mirror of the provenance ProcessingStep this attempt would stamp.
      double end_sec = simulation_->Now();
      obs::TraceArgs args;
      args.emplace_back("product", product.name);
      args.emplace_back("attempt", std::to_string(attempt + 1));
      args.emplace_back("bytes", std::to_string(product.bytes));
      args.emplace_back("outcome", outputs.ok() ? "ok"
                                   : injected_failure ? "injected_error"
                                                      : "error");
      tracer_->CompleteEvent(stage_name, "flow",
                             obs::UsOf(end_sec - service_time),
                             obs::UsOf(service_time), std::move(args),
                             TidFor(stage_name));
    }
    if (!outputs.ok()) {
      state.counters.errors->Add(1);
      history.push_back(injected_failure);
      const RetryPolicy& policy = state.retry;
      if (attempt + 1 < policy.max_attempts) {
        state.counters.retries->Add(1);
        double delay = BackoffDelay(policy, attempt + 1);
        DFLOW_LOG(Warning)
            << "stage '" << stage_name << "' attempt " << (attempt + 1)
            << " failed (" << outputs.status().ToString() << "); retry in "
            << delay << "s";
        if (tracing()) {
          tracer_->InstantEvent(
              "retry_scheduled", "flow",
              {{"product", product.name},
               {"attempt", std::to_string(attempt + 1)},
               {"delay_sec", FmtSeconds(delay)}},
              TidFor(stage_name));
        }
        simulation_->Schedule(delay, [this, stage_name, attempt,
                                      product = std::move(product),
                                      history = std::move(history)]() mutable {
          Enqueue(stage_name, std::move(product), attempt + 1,
                  std::move(history));
        });
        return;
      }
      state.counters.dead_lettered->Add(1);
      // A replayed dead letter carries the journaled error string (the
      // exact status text the original final attempt produced).
      const std::string error_str =
          replayed ? record->error : outputs.status().ToString();
      dead_letters_.push_back(
          DeadLetter{stage_name, product, error_str, simulation_->Now()});
      if (tracing()) {
        tracer_->InstantEvent("dead_letter", "flow",
                              {{"product", product.name},
                               {"error", error_str}},
                              TidFor(stage_name));
      }
      DFLOW_LOG(Warning) << "stage '" << stage_name << "' dead-lettered '"
                         << product.name << "' after " << (attempt + 1)
                         << " attempt(s): " << error_str
                         << (injected_failure ? " [injected]" : "");
      ++terminal_events_;
      if (replayed) {
        ++replayed_events_;
      } else {
        ++live_events_;
        if (journal_ != nullptr) {
          recover::StageEventRecord rec;
          rec.kind = recover::StageEventRecord::Kind::kDeadLettered;
          rec.stage = stage_name;
          rec.input = product.name;
          rec.injected_failures = history;
          rec.error = error_str;
          // Append() force-syncs dead letters: the parked product is on
          // disk before the next simulation event runs.
          Status js = journal_->Append(rec);
          if (!js.ok()) {
            DFLOW_LOG(Error) << "checkpoint journal append failed: "
                             << js.ToString();
          }
        }
      }
      return;
    }
    ++terminal_events_;
    if (replayed) {
      ++replayed_events_;
    } else {
      ++live_events_;
      if (journal_ != nullptr) {
        recover::StageEventRecord rec;
        rec.kind = recover::StageEventRecord::Kind::kCompleted;
        rec.stage = stage_name;
        rec.input = product.name;
        rec.injected_failures = history;
        rec.outputs.reserve(outputs->size());
        for (const DataProduct& out : *outputs) {
          recover::JournaledProduct jp;
          jp.name = out.name;
          jp.bytes = out.bytes;
          jp.attributes.assign(out.attributes.begin(), out.attributes.end());
          rec.outputs.push_back(std::move(jp));
        }
        Status js = journal_->Append(rec);
        if (!js.ok()) {
          DFLOW_LOG(Error) << "checkpoint journal append failed: "
                           << js.ToString();
        }
      }
    }
    const std::vector<std::string>& successors =
        graph_->Successors(stage_name);
    for (DataProduct& output : *outputs) {
      state.counters.products_out->Add(1);
      state.counters.bytes_out->Add(output.bytes);
      // Accumulate the provenance chain.
      prov::ProcessingStep step;
      step.module = stage_name;
      step.version.process = stage_name;
      step.version.release = state.release;
      step.version.change_date = static_cast<int64_t>(simulation_->Now());
      step.site = state.site;
      step.input_files.push_back(product.name);
      output.provenance = product.provenance;
      output.provenance.AddStep(std::move(step));
      if (successors.empty()) {
        state.sink_outputs.push_back(std::move(output));
      } else {
        for (const std::string& next : successors) {
          Deliver(next, output);
        }
      }
    }
  });
}

Status FlowRunner::SetCheckpointJournal(recover::CheckpointJournal* journal) {
  if (ran_) {
    return Status::FailedPrecondition("run already started");
  }
  journal_ = journal;
  return Status::OK();
}

Status FlowRunner::ResumeFrom(const recover::JournalReplay* replay) {
  if (ran_) {
    return Status::FailedPrecondition("run already started");
  }
  replay_ = replay;
  return Status::OK();
}

Status FlowRunner::Start() {
  if (ran_) {
    return Status::FailedPrecondition("run already started");
  }
  DFLOW_ASSIGN_OR_RETURN(auto order, graph_->TopologicalOrder());
  (void)order;
  ran_ = true;
  return Status::OK();
}

Status FlowRunner::Run() {
  DFLOW_RETURN_IF_ERROR(Start());
  simulation_->Run();
  if (journal_ != nullptr) {
    // A clean run leaves no unsynced tail: everything appended is durable
    // before Run() returns.
    DFLOW_RETURN_IF_ERROR(journal_->Sync());
  }
  return Status::OK();
}

const StageMetrics& FlowRunner::MetricsFor(const std::string& stage) const {
  static const StageMetrics& kEmpty = *new StageMetrics();
  auto it = states_.find(stage);
  if (it != states_.end()) {
    it->second.RefreshSnapshot();
    return it->second.snapshot;
  }
  if (!graph_->Find(stage).ok()) {
    DFLOW_LOG(Warning) << "MetricsFor: no stage named '" << stage
                       << "' in the graph; returning empty metrics";
  }
  return kEmpty;
}

Result<StageMetrics> FlowRunner::CheckedMetricsFor(
    const std::string& stage) const {
  DFLOW_ASSIGN_OR_RETURN(Stage * ignored, graph_->Find(stage));
  (void)ignored;
  auto it = states_.find(stage);
  if (it == states_.end()) {
    return StageMetrics{};
  }
  it->second.RefreshSnapshot();
  return it->second.snapshot;
}

const std::vector<DataProduct>& FlowRunner::SinkOutputs(
    const std::string& stage) const {
  static const std::vector<DataProduct>& kEmpty =
      *new std::vector<DataProduct>();
  auto it = states_.find(stage);
  if (it != states_.end()) {
    return it->second.sink_outputs;
  }
  if (!graph_->Find(stage).ok()) {
    DFLOW_LOG(Warning) << "SinkOutputs: no stage named '" << stage
                       << "' in the graph; returning no outputs";
  }
  return kEmpty;
}

Result<std::vector<DataProduct>> FlowRunner::CheckedSinkOutputs(
    const std::string& stage) const {
  DFLOW_ASSIGN_OR_RETURN(Stage * ignored, graph_->Find(stage));
  (void)ignored;
  auto it = states_.find(stage);
  return it == states_.end() ? std::vector<DataProduct>{}
                             : it->second.sink_outputs;
}

double FlowRunner::UtilizationOf(const std::string& stage) const {
  auto it = states_.find(stage);
  if (it == states_.end() || it->second.resource == nullptr) {
    return 0.0;
  }
  return it->second.resource->Utilization();
}

Result<double> FlowRunner::CheckedUtilizationOf(
    const std::string& stage) const {
  DFLOW_ASSIGN_OR_RETURN(Stage * ignored, graph_->Find(stage));
  (void)ignored;
  return UtilizationOf(stage);
}

Result<std::vector<DeadLetter>> FlowRunner::CheckedDeadLetters(
    const std::string& stage) const {
  DFLOW_ASSIGN_OR_RETURN(Stage * ignored, graph_->Find(stage));
  (void)ignored;
  std::vector<DeadLetter> letters;
  for (const DeadLetter& letter : dead_letters_) {
    if (letter.stage == stage) {
      letters.push_back(letter);
    }
  }
  return letters;
}

int64_t FlowRunner::total_retries() const {
  int64_t total = 0;
  for (const auto& [name, state] : states_) {
    total += state.counters.retries->Value();
  }
  return total;
}

int64_t FlowRunner::total_errors() const {
  int64_t total = 0;
  for (const auto& [name, state] : states_) {
    total += state.counters.errors->Value();
  }
  return total;
}

std::string FlowRunner::Report() const {
  std::ostringstream os;
  os << std::left << std::setw(28) << "stage" << std::right << std::setw(10)
     << "in" << std::setw(12) << "bytes_in" << std::setw(10) << "out"
     << std::setw(12) << "bytes_out" << std::setw(7) << "err" << std::setw(7)
     << "retry" << std::setw(6) << "dead" << std::setw(8) << "util" << "\n";
  for (const std::string& name : graph_->StageNames()) {
    const StageMetrics& m = MetricsFor(name);
    os << std::left << std::setw(28) << name << std::right << std::setw(10)
       << m.products_in << std::setw(12) << FormatBytes(m.bytes_in)
       << std::setw(10) << m.products_out << std::setw(12)
       << FormatBytes(m.bytes_out) << std::setw(7) << m.errors << std::setw(7)
       << m.retries << std::setw(6) << m.dead_lettered << std::setw(8)
       << std::fixed << std::setprecision(2) << UtilizationOf(name) << "\n";
  }
  if (!dead_letters_.empty()) {
    os << "dead letters: " << dead_letters_.size() << "\n";
    for (const DeadLetter& letter : dead_letters_) {
      os << "  t=" << std::fixed << std::setprecision(2) << letter.time_sec
         << " " << letter.stage << " '" << letter.product.name << "': "
         << letter.error << "\n";
    }
  }
  return os.str();
}

std::string FlowRunner::AnnotatedDot() const {
  std::map<std::string, std::string> annotations;
  for (const std::string& name : graph_->StageNames()) {
    const StageMetrics& m = MetricsFor(name);
    std::string label =
        "in " + FormatBytes(m.bytes_in) + " / out " + FormatBytes(m.bytes_out);
    if (m.errors > 0) {
      label += " / err " + std::to_string(m.errors);
    }
    if (m.dead_lettered > 0) {
      label += " / dead " + std::to_string(m.dead_lettered);
    }
    annotations[name] = label;
  }
  return graph_->ToDot(annotations);
}

}  // namespace dflow::core
