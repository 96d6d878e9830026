// bench_e2e: the repository's end-to-end benchmark.
//
//   bench_e2e --workload W --seed N [--seconds S] [--trace 0|1]
//             [--scale X] [--out results.json] [--workdir DIR]
//   bench_e2e --summarize a.json b.json ...
//   bench_e2e --selftest-fingerprints [--seed N]
//   bench_e2e --check-metrics BENCHMARK.json untraced.json traced.json
//   bench_e2e --check-same KEY a.json b.json
//
// A run prints "workload metric value unit n=samples" per metric, then as
// its last line one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics untraced, the per-layer metrics with
// --trace 1. It exits non-zero when any output check failed.

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "e2e.h"
#include "par/par.h"
#include "simd/simd.h"

namespace e2e {
namespace {

namespace fs = std::filesystem;

const char* const kWorkloads[] = {"serve_hot", "serve_cold", "kv_mixed",
                                  "survey_block"};

/// Which workloads exercise a metric's layer, one bit per kWorkloads entry.
enum : unsigned {
  kHot = 1u << 0,
  kCold = 1u << 1,
  kKv = 1u << 2,
  kSurvey = 1u << 3,
  kRequests = kHot | kCold | kKv,
  kAll = kRequests | kSurvey,
};

struct MetricSpec {
  const char* name;
  const char* unit;
  unsigned workloads = kAll;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"latency_ms", "ms"},
};

/// Every per-layer metric. A workload must measure each metric of a layer
/// it exercises; the others it reports as 0.
constexpr MetricSpec kPerLayer[] = {
    {"client.capacity_ops_per_s", "ops/s", kRequests},
    {"flow.pointings_per_s", "pointings/s", kSurvey},
    {"client.p90_ms", "ms"},
    {"client.p99_ms", "ms"},
    {"cluster.route_us", "us", kRequests},
    {"cluster.forwarded_frac", "ratio", kRequests},
    {"serve.node_skew", "ratio", kRequests},
    {"cluster.replica_writes_per_put", "count", kKv},
    {"cluster.read_repairs", "count", kKv},
    {"cluster.hints_stored", "count", kKv},
    {"recover.journal_bytes_per_put", "B", kKv},
    {"serve.cache_hit_rate", "ratio", kRequests},
    {"serve.hit_ms", "ms", kHot | kKv},
    {"serve.wait_p50_ms", "ms", kRequests},
    {"serve.wait_p99_ms", "ms", kRequests},
    {"serve.votable_ms", "ms", kSurvey},
    {"backend.arecibo_ms", "ms"},
    {"backend.cleo_ms", "ms", kRequests},
    {"backend.weblab_ms", "ms", kRequests},
    {"backend.arecibo_calls", "count"},
    {"backend.cleo_calls", "count", kRequests},
    {"backend.weblab_calls", "count", kRequests},
    {"backend.share", "ratio", kRequests},
    {"db.pool_hit_rate", "ratio"},
    {"db.pool_misses_per_req", "count", kRequests},
    {"db.pool_evictions_per_req", "count", kRequests},
    {"db.table_pages", "count"},
    {"db.load_ms", "ms", kSurvey},
    {"db.wal_bytes_per_pointing", "B", kSurvey},
    {"arecibo.pointing_ms", "ms", kSurvey},
    {"arecibo.pointing_share", "ratio", kSurvey},
    {"arecibo.raw_mb_per_s", "MB/s", kSurvey},
    {"par.speedup", "ratio", kSurvey},
    {"kv.put_p50_ms", "ms", kKv},
    {"kv.put_p99_ms", "ms", kKv},
    {"kv.get_p99_ms", "ms", kKv},
    {"gen.late_p99_ms", "ms", kRequests},
    {"gen.backlog_growth_ms", "ms", kRequests},
    {"trace.overhead_ms", "ms"},
};

unsigned WorkloadBit(const std::string& workload) {
  for (size_t i = 0; i < std::size(kWorkloads); ++i) {
    if (workload == kWorkloads[i]) {
      return 1u << i;
    }
  }
  return 0;
}

int Usage(const char* why) {
  std::fprintf(stderr, "bench_e2e: %s\n", why);
  std::fprintf(stderr,
               "usage: bench_e2e --workload "
               "serve_hot|serve_cold|kv_mixed|survey_block --seed N "
               "[--seconds S] [--trace 0|1] [--scale X] [--out FILE] "
               "[--workdir DIR]\n"
               "       bench_e2e --summarize FILE...\n"
               "       bench_e2e --selftest-fingerprints [--seed N]\n"
               "       bench_e2e --check-metrics BENCHMARK.json FILE...\n"
               "       bench_e2e --check-same KEY FILE FILE\n");
  return 2;
}

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002 + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    model.erase(0, model.find_first_not_of(' '));
    return model;
  }
#endif
  return "unknown";
}

std::string HostJson() {
  const char* rev = std::getenv("DFLOW_GIT_REV");
  return std::string("{\"cpu_model\": \"") + JsonEscape(CpuModel()) +
         "\", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"client_threads\": " + std::to_string(ClientThreads()) +
         ", \"simd\": \"" +
         dflow::simd::IsaName(dflow::simd::ActiveIsa()) +
         "\", \"par_shared_pool_threads\": " +
         std::to_string(dflow::par::ConfiguredThreads()) +
         ", \"build_type\": \"" + DFLOW_E2E_BUILD_TYPE +
         "\", \"git_rev\": \"" +
         JsonEscape(rev != nullptr && *rev != '\0' ? rev : "unknown") +
         "\"}";
}

std::string MetricJson(const Metric& metric, bool with_samples) {
  std::string json = "{\"value\": " + JsonNumber(metric.value) +
                     ", \"unit\": \"" + JsonEscape(metric.unit) + "\"";
  if (with_samples && metric.samples >= 0) {
    json += ", \"samples\": " + std::to_string(metric.samples);
  }
  return json + "}";
}

int RunWorkload(const Args& args) {
  Report report;
  report.workload = args.workload;
  std::error_code error;
  fs::create_directories(args.work_dir, error);
  if (error) {
    std::fprintf(stderr, "bench_e2e: cannot create %s: %s\n",
                 args.work_dir.c_str(), error.message().c_str());
    return 1;
  }
  const double start = NowSec();
  if (args.workload == "serve_hot" || args.workload == "serve_cold") {
    RunServeWorkload(args, args.workload == "serve_hot", &report);
  } else if (args.workload == "kv_mixed") {
    RunKvWorkload(args, &report);
  } else {
    RunSurveyWorkload(args, &report);
  }
  report.Note("run_sec", NowSec() - start);
  fs::remove_all(args.work_dir, error);

  // The reported set is exactly the mode's metric list.
  std::vector<std::pair<std::string, Metric>> reported;
  const unsigned bit = WorkloadBit(args.workload);
  auto collect = [&](const MetricSpec* begin, const MetricSpec* end) {
    for (const MetricSpec* spec = begin; spec != end; ++spec) {
      auto it = report.metrics.find(spec->name);
      if (it != report.metrics.end()) {
        reported.emplace_back(spec->name, it->second);
      } else if ((spec->workloads & bit) == 0) {
        reported.emplace_back(spec->name, Metric{0.0, spec->unit});
      } else {
        report.Fail(std::string("metric ") + spec->name + " was not measured");
      }
    }
  };
  if (args.trace) {
    collect(std::begin(kPerLayer), std::end(kPerLayer));
  } else {
    collect(std::begin(kEndToEnd), std::end(kEndToEnd));
  }
  if (report.attempted < 1) {
    report.attempted = 1;
    report.Fail("no operation ran");
  }

  for (const std::string& why : report.failures) {
    std::fprintf(stderr, "bench_e2e: FAILED %s\n", why.c_str());
  }
  for (const auto& [name, metric] : reported) {
    std::printf("%s %s %s %s", args.workload.c_str(), name.c_str(),
                JsonNumber(metric.value).c_str(), metric.unit.c_str());
    if (metric.samples >= 0) {
      std::printf(" n=%lld", static_cast<long long>(metric.samples));
    }
    std::printf("\n");
  }

  if (!args.out_path.empty()) {
    fs::path out(args.out_path);
    if (out.has_parent_path()) {
      fs::create_directories(out.parent_path(), error);
    }
    std::ofstream file(args.out_path);
    file << "{\"workload\": \"" << JsonEscape(args.workload)
         << "\", \"seed\": " << args.seed
         << ", \"seconds\": " << JsonNumber(args.seconds)
         << ", \"scale\": " << JsonNumber(args.scale)
         << ", \"trace\": " << (args.trace ? 1 : 0)
         << ", \"correct\": " << (report.correct() ? "true" : "false")
         << ", \"attempted\": " << report.attempted
         << ", \"failed\": " << report.failed << ", \"fail_frac\": "
         << JsonNumber(static_cast<double>(report.failed) /
                       static_cast<double>(report.attempted))
         << ",\n \"host\": " << HostJson() << ",\n \"config\": {";
    bool first = true;
    for (const auto& [key, value] : report.config) {
      file << (first ? "" : ", ") << "\"" << JsonEscape(key) << "\": " << value;
      first = false;
    }
    file << "},\n \"metrics\": {";
    first = true;
    for (const auto& [name, metric] : reported) {
      file << (first ? "" : ", ") << "\"" << JsonEscape(name)
           << "\": " << MetricJson(metric, true);
      first = false;
    }
    file << "},\n \"layers\": " << report.layers_json << ",\n \"failures\": [";
    for (size_t i = 0; i < report.failures.size(); ++i) {
      file << (i == 0 ? "" : ", ") << "\""
           << JsonEscape(report.failures[i]) << "\"";
    }
    file << "]}\n";
    if (!file) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n",
                   args.out_path.c_str());
    }
  }

  std::string line = std::string("{\"correct\": ") +
                     (report.correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < reported.size(); ++i) {
    line += (i == 0 ? "\"" : ", \"") + reported[i].first +
            "\": " + MetricJson(reported[i].second, false);
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

/// Quartiles as Python's statistics.quantiles(values, n=4) gives them
/// (the default "exclusive" method), and the median.
void Quartiles(std::vector<double> values, double* q1, double* median,
               double* q3) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  *median = n % 2 == 1 ? values[n / 2]
                       : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  if (n < 2) {
    *q1 = *q3 = *median;
    return;
  }
  const int64_t m = static_cast<int64_t>(n) + 1;
  double result[3];
  for (int64_t i = 1; i <= 3; ++i) {
    int64_t j = std::clamp<int64_t>(i * m / 4, 1, static_cast<int64_t>(n) - 1);
    int64_t delta = i * m - j * 4;
    result[i - 1] = (values[static_cast<size_t>(j - 1)] * (4 - delta) +
                     values[static_cast<size_t>(j)] * delta) /
                    4.0;
  }
  *q1 = result[0];
  *q3 = result[2];
}

int Summarize(const std::vector<std::string>& paths) {
  // (workload, metric) -> values, in first-seen order.
  std::vector<std::pair<std::string, std::string>> order;
  std::map<std::pair<std::string, std::string>, std::vector<double>> values;
  std::map<std::pair<std::string, std::string>, std::string> units;
  int incorrect = 0;
  for (const std::string& path : paths) {
    JsonValue doc;
    std::string error;
    if (!ReadJsonFile(path, &doc, &error)) {
      std::fprintf(stderr, "bench_e2e: %s\n", error.c_str());
      return 1;
    }
    const JsonValue* workload = doc.Find("workload");
    const JsonValue* metrics = doc.Find("metrics");
    const JsonValue* correct = doc.Find("correct");
    if (workload == nullptr || metrics == nullptr) {
      std::fprintf(stderr, "bench_e2e: %s is not a results file\n",
                   path.c_str());
      return 1;
    }
    incorrect += correct == nullptr || !correct->boolean;
    for (const auto& [name, metric] : metrics->object) {
      const JsonValue* value = metric.Find("value");
      const JsonValue* unit = metric.Find("unit");
      if (value == nullptr) {
        continue;
      }
      auto key = std::make_pair(workload->string, name);
      if (values.count(key) == 0) {
        order.push_back(key);
      }
      values[key].push_back(value->number);
      units[key] = unit != nullptr ? unit->string : "";
    }
  }
  std::printf("%-14s %-32s %4s %14s %14s %14s %8s %8s %s\n", "workload",
              "metric", "n", "median", "q1", "q3", "iqr/med", "max/min",
              "unit");
  for (const auto& key : order) {
    const std::vector<double>& v = values[key];
    double q1 = 0.0, median = 0.0, q3 = 0.0;
    Quartiles(v, &q1, &median, &q3);
    auto [lo, hi] = std::minmax_element(v.begin(), v.end());
    const double iqr = median != 0.0 ? (q3 - q1) / std::fabs(median) : 0.0;
    const double spread = *lo > 0.0 ? *hi / *lo - 1.0 : 0.0;
    std::printf("%-14s %-32s %4zu %14.6g %14.6g %14.6g %7.2f%% %7.2f%% %s\n",
                key.first.c_str(), key.second.c_str(), v.size(), median, q1,
                q3, 100.0 * iqr, 100.0 * spread, units[key].c_str());
  }
  if (incorrect > 0) {
    std::printf("%d result file(s) report correct=false\n", incorrect);
  }
  return incorrect == 0 ? 0 : 1;
}

int SelftestFingerprints(uint64_t seed) {
  // Small scale keeps the test fast; the generators are the same code.
  const double scale = 0.25;
  std::vector<std::string> a = WorkloadFingerprints(seed, scale);
  std::vector<std::string> b = WorkloadFingerprints(seed, scale);
  std::vector<std::string> c = WorkloadFingerprints(seed + 1, scale);
  bool ok = a.size() == std::size(kWorkloads) && a == b;
  for (size_t i = 0; i < a.size() && i < c.size(); ++i) {
    std::printf("seed %llu: %s\nseed %llu: %s\n",
                static_cast<unsigned long long>(seed), a[i].c_str(),
                static_cast<unsigned long long>(seed + 1), c[i].c_str());
    // Every fingerprint of the line must move with the seed.
    const std::string& x = a[i];
    const std::string& y = c[i];
    size_t s = x.find(" schedule=");
    size_t t = x.find(" stream=");
    ok &= x.substr(0, s) == y.substr(0, s) &&
          x.substr(s, t - s) != y.substr(s, t - s) &&
          x.substr(t) != y.substr(t);
  }
  std::printf("same seed identical: %s; different seed differs: %s\n",
              a == b ? "yes" : "no", ok ? "yes" : "no");
  return ok ? 0 : 1;
}

int CheckMetrics(const std::string& benchmark,
                 const std::vector<std::string>& paths) {
  JsonValue spec;
  std::string error;
  if (!ReadJsonFile(benchmark, &spec, &error)) {
    std::fprintf(stderr, "bench_e2e: %s\n", error.c_str());
    return 1;
  }
  int missing = 0;
  for (const std::string& path : paths) {
    JsonValue doc;
    if (!ReadJsonFile(path, &doc, &error)) {
      std::fprintf(stderr, "bench_e2e: %s\n", error.c_str());
      return 1;
    }
    const JsonValue* trace = doc.Find("trace");
    const JsonValue* metrics = doc.Find("metrics");
    const JsonValue* names = spec.Find(
        trace != nullptr && trace->number == 1 ? "per_layer" : "end_to_end");
    if (metrics == nullptr || names == nullptr) {
      std::fprintf(stderr, "bench_e2e: %s lacks metrics\n", path.c_str());
      return 1;
    }
    for (const JsonValue& want : names->array) {
      const std::string& name = want.Find("name")->string;
      const std::string& unit = want.Find("unit")->string;
      const JsonValue* got = metrics->Find(name);
      const JsonValue* got_unit = got != nullptr ? got->Find("unit") : nullptr;
      if (got_unit == nullptr || got_unit->string != unit) {
        std::printf("%s: metric %s (%s) missing or with another unit\n",
                    path.c_str(), name.c_str(), unit.c_str());
        ++missing;
      }
    }
  }
  std::printf("%s\n", missing == 0 ? "every metric present with its unit"
                                   : "metrics missing");
  return missing == 0 ? 0 : 1;
}

int CheckSame(const std::string& key, const std::vector<std::string>& paths) {
  std::vector<std::string> seen;
  for (const std::string& path : paths) {
    JsonValue doc;
    std::string error;
    if (!ReadJsonFile(path, &doc, &error)) {
      std::fprintf(stderr, "bench_e2e: %s\n", error.c_str());
      return 1;
    }
    const JsonValue* config = doc.Find("config");
    const JsonValue* value = config != nullptr ? config->Find(key) : nullptr;
    if (value == nullptr) {
      std::printf("%s: no config.%s\n", path.c_str(), key.c_str());
      return 1;
    }
    std::printf("%s: %s = %s\n", path.c_str(), key.c_str(),
                value->string.c_str());
    seen.push_back(value->string);
  }
  bool same = std::all_of(seen.begin(), seen.end(),
                          [&](const std::string& v) { return v == seen[0]; });
  std::printf("%s\n", same ? "identical" : "DIFFERENT");
  return same ? 0 : 1;
}

}  // namespace

void Report::Set(const std::string& name, double value,
                 const std::string& unit, int64_t samples) {
  metrics[name] = Metric{value, unit, samples};
}

void Report::Note(const std::string& key, double value) {
  config[key] = JsonNumber(value);
}

void Report::NoteInt(const std::string& key, int64_t value) {
  config[key] = std::to_string(value);
}

void Report::NoteStr(const std::string& key, const std::string& value) {
  config[key] = "\"" + JsonEscape(value) + "\"";
}

void Report::Fail(const std::string& why, int64_t count) {
  failed += count;
  if (failures.size() < 8) {
    failures.push_back(why);
  }
}

}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  Args args;
  std::vector<std::string> rest;
  std::string mode = "run";
  std::string mode_arg;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    double number = 0.0;
    if (flag == "--workload") {
      const char* v = value();
      if (v == nullptr) return Usage("--workload needs a value");
      args.workload = v;
    } else if (flag == "--seed") {
      const char* v = value();
      char* end = nullptr;
      if (v == nullptr) return Usage("--seed needs a value");
      args.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') return Usage("--seed must be an integer");
    } else if (flag == "--seconds") {
      const char* v = value();
      if (v == nullptr || !ParseNumber(v, &number) || number <= 0.0 ||
          number > 600.0) {
        return Usage("--seconds must be in (0, 600]");
      }
      args.seconds = number;
    } else if (flag == "--trace") {
      const char* v = value();
      if (v == nullptr ||
          (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)) {
        return Usage("--trace must be 0 or 1");
      }
      args.trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--scale") {
      const char* v = value();
      if (v == nullptr || !ParseNumber(v, &number) || number <= 0.0 ||
          number > 1.0) {
        return Usage("--scale must be in (0, 1]");
      }
      args.scale = number;
    } else if (flag == "--out") {
      const char* v = value();
      if (v == nullptr) return Usage("--out needs a value");
      args.out_path = v;
    } else if (flag == "--workdir") {
      const char* v = value();
      if (v == nullptr) return Usage("--workdir needs a value");
      args.work_dir = v;
    } else if (flag == "--summarize") {
      mode = "summarize";
    } else if (flag == "--selftest-fingerprints") {
      mode = "fingerprints";
    } else if (flag == "--check-metrics" || flag == "--check-same") {
      const char* v = value();
      if (v == nullptr) return Usage("missing argument");
      mode = flag.substr(2);
      mode_arg = v;
    } else if (flag.rfind("--", 0) == 0) {
      return Usage(("unknown flag " + flag).c_str());
    } else {
      rest.push_back(flag);
    }
  }
  if (mode == "summarize") {
    return rest.empty() ? Usage("--summarize needs result files")
                        : Summarize(rest);
  }
  if (mode == "fingerprints") {
    return SelftestFingerprints(args.seed);
  }
  if (mode == "check-metrics") {
    return CheckMetrics(mode_arg, rest);
  }
  if (mode == "check-same") {
    return rest.size() < 2 ? Usage("--check-same needs two files")
                           : CheckSame(mode_arg, rest);
  }
  if (!rest.empty()) {
    return Usage(("unexpected argument " + rest.front()).c_str());
  }
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), args.workload) ==
      std::end(kWorkloads)) {
    return Usage("unknown or missing --workload");
  }
  if (args.work_dir.empty()) {
    args.work_dir = "bench_e2e_work_" + std::to_string(::getpid());
  }
  return RunWorkload(args);
}
