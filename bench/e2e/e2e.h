// Shared declarations of bench_e2e: run arguments, the run report, sample
// sets, the load generators, bench-side tracing and the four workloads.
#ifndef DFLOW_BENCH_E2E_E2E_H_
#define DFLOW_BENCH_E2E_E2E_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/web_service.h"

namespace e2e {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  /// Measured time budget of one run: warm-up, open-loop phase and the
  /// closed-loop op count are all sized from it.
  double seconds = 10.0;
  bool trace = false;
  /// Multiplies data populations and op counts (self-tests run at 0.05).
  double scale = 1.0;
  std::string out_path;  // results JSON ("" = none).
  std::string work_dir;  // Journals, WAL and trace output live here.
};

/// Monotonic seconds since the first call in this process.
double NowSec();

/// Derives an independent 64-bit stream seed from (seed, salt).
uint64_t SubSeed(uint64_t seed, uint64_t salt);

/// A set of measured values (seconds or any unit). Quantiles use the
/// nearest-rank rule on a sorted copy.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Quantile(double q) const;
  double Mean() const;
  double Sum() const;

 private:
  std::vector<double> values_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
  int64_t samples = -1;  // -1: not a timing.
};

/// Everything one run reports: metrics, provenance, the correctness
/// verdict and (traced runs) the per-span-name layer table.
struct Report {
  std::string workload;
  std::map<std::string, Metric> metrics;
  /// Provenance and configuration, as raw JSON values keyed by name.
  std::map<std::string, std::string> config;
  std::string layers_json = "{}";
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;  // First few, for stderr.

  void Set(const std::string& name, double value, const std::string& unit,
           int64_t samples = -1);
  void Note(const std::string& key, double value);
  void NoteInt(const std::string& key, int64_t value);
  void NoteStr(const std::string& key, const std::string& value);
  /// Records a failed check (counted in `failed`).
  void Fail(const std::string& why, int64_t count = 1);
  bool correct() const { return failed == 0; }
};

// --- Load generation -----------------------------------------------------

/// One generated operation. `kind` is workload-defined (kv_mixed: read,
/// put, get); `a` indexes the request population or key table, `b` the
/// value table.
struct Op {
  uint8_t kind = 0;
  uint32_t a = 0;
  uint32_t b = 0;
};

/// Executes one op on the calling thread; returns false on any error or
/// wrong answer.
using ExecFn = std::function<bool(const Op& op, size_t index)>;

struct PhaseResult {
  std::vector<float> latency_sec;   // Per op (open loop: from due time).
  std::vector<float> lateness_sec;  // Per op: start minus due (open loop).
  std::vector<uint8_t> ok;          // Per op.
  double elapsed_sec = 0.0;
  int64_t attempted = 0;
  int64_t failed = 0;

  /// Latencies of correct ops, optionally of one kind, in seconds.
  Samples Latencies(const std::vector<Op>& ops, int kind = -1) const;
};

/// Seeded Poisson arrival times at `rate_per_sec` over [0, duration_sec).
std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_sec,
                                    double duration_sec);

/// Open loop: `connections` threads replay `ops[i]` at `due[i]`, each op
/// timed from its due time, so time spent waiting for a free connection
/// counts toward its latency.
PhaseResult RunOpenLoop(const std::vector<Op>& ops,
                        const std::vector<double>& due, int connections,
                        const ExecFn& exec);

/// Closed loop: `clients` threads with no think time run every op once.
PhaseResult RunClosedLoop(const std::vector<Op>& ops, int clients,
                          const ExecFn& exec);

/// Warm-up: `clients` threads cycle through `ops` for `seconds`.
PhaseResult RunForSeconds(const std::vector<Op>& ops, int clients,
                          double seconds, const ExecFn& exec);

/// min(4, hardware threads): the client connections of every load phase.
int ClientThreads();

// --- Bench-side tracing ----------------------------------------------------

/// Spans live in per-thread in-memory buffers and are only collected after
/// every producing thread is idle. Recording is off unless enabled.
struct Span {
  std::string name;
  std::string key;
  double start = 0.0;  // NowSec().
  double end = 0.0;
  int tid = 0;
};

void SetTracing(bool on);
bool TracingOn();
void RecordSpan(std::string name, std::string key, double start, double end);
std::vector<Span> CollectSpans();

/// Wraps a mounted service so each Handle() call leaves a
/// "backend.<prefix>" span keyed by the request's canonical key (with the
/// mount prefix restored). Mounted only in traced runs.
std::shared_ptr<dflow::core::WebService> TraceMount(
    const std::string& prefix, std::shared_ptr<dflow::core::WebService> inner);

/// Per-span-name attribution over collected spans. A child span (other
/// than the root names) is attached to the root span with the same key
/// whose interval contains it; a span's self time is its duration minus
/// the union of its children's intervals.
struct Attribution {
  struct Layer {
    int64_t count = 0;
    Samples duration_sec;
    Samples self_sec;
  };
  std::map<std::string, Layer> layers;
  /// Per root span: duration, and covered time split by child name.
  struct Root {
    std::string name;
    double duration = 0.0;
    double self = 0.0;
    std::map<std::string, double> child_sec;
  };
  std::vector<Root> roots;
  int64_t orphans = 0;  // Child spans with no containing root.

  std::string ToJson() const;
};
Attribution Attribute(const std::vector<Span>& spans,
                      const std::vector<std::string>& root_names);

/// Chrome trace_event JSON ("X" events, microseconds).
bool WriteChromeTrace(const std::vector<Span>& spans, const std::string& path);

// --- Output ----------------------------------------------------------------

std::string JsonEscape(std::string_view s);
std::string JsonNumber(double v);

/// Minimal JSON document model for the --summarize and self-test modes;
/// the reader looks at whichever member the key it asks for should fill.
struct JsonValue {
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Find(const std::string& key) const;
};
bool ParseJson(std::string_view text, JsonValue* out, std::string* error);
bool ReadJsonFile(const std::string& path, JsonValue* out, std::string* error);

// --- Workloads ---------------------------------------------------------------

void RunServeWorkload(const Args& args, bool hot, Report* report);
void RunKvWorkload(const Args& args, Report* report);
void RunSurveyWorkload(const Args& args, Report* report);

/// "<workload> schedule=<md5> stream=<md5>" for every workload under
/// `seed`, built without running anything.
std::vector<std::string> WorkloadFingerprints(uint64_t seed, double scale);

}  // namespace e2e

#endif  // DFLOW_BENCH_E2E_E2E_H_
