// Bench-side tracing: per-thread span buffers, the backend decorator, the
// offline parent attribution, and Chrome trace_event export. Nothing here
// touches the program's own tracer; spans are taken around public calls.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <mutex>

#include "e2e.h"
#include "serve/response_cache.h"

namespace e2e {
namespace {

struct ThreadBuffer {
  int tid = 0;
  std::vector<Span> spans;
};

std::atomic<bool> g_tracing{false};
std::mutex g_buffers_mu;
// Buffers outlive their threads, so serve workers that exit before the
// collection still contribute their spans.
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;

ThreadBuffer* LocalBuffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    buffer = g_buffers.back().get();
    buffer->tid = static_cast<int>(g_buffers.size());
    buffer->spans.reserve(4096);
  }
  return buffer;
}

class TracedService : public dflow::core::WebService {
 public:
  TracedService(std::string prefix,
                std::shared_ptr<dflow::core::WebService> inner)
      : prefix_(std::move(prefix)),
        span_name_("backend." + prefix_),
        inner_(std::move(inner)) {}

  dflow::Result<dflow::core::ServiceResponse> Handle(
      const dflow::core::ServiceRequest& request) override {
    if (!TracingOn()) {
      return inner_->Handle(request);
    }
    const double start = NowSec();
    auto response = inner_->Handle(request);
    const double end = NowSec();
    // The registry strips the mount prefix; restore it so the key matches
    // the client span's canonical key.
    dflow::core::ServiceRequest outer{prefix_ + "/" + request.path,
                                      request.params};
    RecordSpan(span_name_,
               dflow::serve::ShardedResponseCache::CanonicalKey(outer), start,
               end);
    return response;
  }
  std::vector<std::string> Endpoints() const override {
    return inner_->Endpoints();
  }
  const std::string& name() const override { return inner_->name(); }

 private:
  std::string prefix_;
  std::string span_name_;
  std::shared_ptr<dflow::core::WebService> inner_;
};

double Ms(double sec) { return sec * 1e3; }

}  // namespace

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_release); }

bool TracingOn() { return g_tracing.load(std::memory_order_acquire); }

void RecordSpan(std::string name, std::string key, double start, double end) {
  ThreadBuffer* buffer = LocalBuffer();
  buffer->spans.push_back(
      Span{std::move(name), std::move(key), start, end, buffer->tid});
}

std::vector<Span> CollectSpans() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<Span> all;
  for (const auto& buffer : g_buffers) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  // Deterministic export order regardless of which thread ran what.
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start != b.start ? a.start < b.start : a.tid < b.tid;
  });
  return all;
}

std::shared_ptr<dflow::core::WebService> TraceMount(
    const std::string& prefix,
    std::shared_ptr<dflow::core::WebService> inner) {
  return std::make_shared<TracedService>(prefix, std::move(inner));
}

Attribution Attribute(const std::vector<Span>& spans,
                      const std::vector<std::string>& root_names) {
  Attribution out;
  auto is_root = [&](const Span& span) {
    return std::find(root_names.begin(), root_names.end(), span.name) !=
           root_names.end();
  };
  // Roots by key, in start order (spans arrive sorted by start).
  std::map<std::string, std::vector<size_t>> roots_by_key;
  std::vector<size_t> root_of(spans.size(), SIZE_MAX);
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (is_root(spans[i])) {
      roots_by_key[spans[i].key].push_back(i);
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& child = spans[i];
    if (is_root(child)) {
      continue;
    }
    auto it = roots_by_key.find(child.key);
    if (it == roots_by_key.end()) {
      ++out.orphans;
      continue;
    }
    const std::vector<size_t>& roots = it->second;
    // Latest-starting root that began before the child; concurrent roots
    // with the same key may overlap, so walk back to the first that
    // contains the child.
    auto pos = std::upper_bound(
        roots.begin(), roots.end(), child.start,
        [&](double t, size_t r) { return t < spans[r].start; });
    size_t found = SIZE_MAX;
    for (int walked = 0; pos != roots.begin() && walked < 16; ++walked) {
      --pos;
      if (spans[*pos].end >= child.end) {
        found = *pos;
        break;
      }
    }
    if (found == SIZE_MAX) {
      ++out.orphans;
      continue;
    }
    root_of[i] = found;
    children[found].push_back(i);
  }

  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const double duration = span.end - span.start;
    double self = duration;
    if (is_root(span)) {
      Attribution::Root root;
      root.name = span.name;
      root.duration = duration;
      // Union of child intervals, clipped to the root.
      std::vector<std::pair<double, double>> covered;
      for (size_t c : children[i]) {
        covered.emplace_back(std::max(spans[c].start, span.start),
                             std::min(spans[c].end, span.end));
        root.child_sec[spans[c].name] += spans[c].end - spans[c].start;
      }
      std::sort(covered.begin(), covered.end());
      double union_sec = 0.0;
      double reach = span.start;
      for (const auto& [lo, hi] : covered) {
        double from = std::max(lo, reach);
        if (hi > from) {
          union_sec += hi - from;
          reach = hi;
        }
      }
      self = duration - union_sec;
      root.self = self;
      out.roots.push_back(std::move(root));
    } else if (root_of[i] == SIZE_MAX) {
      continue;
    }
    Attribution::Layer& layer = out.layers[span.name];
    ++layer.count;
    layer.duration_sec.Add(duration);
    layer.self_sec.Add(self);
  }
  return out;
}

std::string Attribution::ToJson() const {
  std::string json = "{";
  auto field = [&json](const char* key, double value) {
    json.append(", \"").append(key).append("\": ").append(JsonNumber(value));
  };
  for (const auto& [name, layer] : layers) {
    json.append("\"").append(JsonEscape(name)).append("\": {\"count\": ");
    json.append(std::to_string(layer.count));
    field("total_ms", Ms(layer.duration_sec.Sum()));
    field("self_ms", Ms(layer.self_sec.Sum()));
    field("mean_ms", Ms(layer.duration_sec.Mean()));
    field("mean_self_ms", Ms(layer.self_sec.Mean()));
    field("p50_ms", Ms(layer.duration_sec.Quantile(0.5)));
    field("p99_ms", Ms(layer.duration_sec.Quantile(0.99)));
    json.append("}, ");
  }
  json.append("\"orphan_spans\": ").append(std::to_string(orphans)).append("}");
  return json;
}

bool WriteChromeTrace(const std::vector<Span>& spans,
                      const std::string& path) {
  std::ofstream file(path);
  if (!file) {
    return false;
  }
  file << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    char times[96];
    std::snprintf(times, sizeof(times), "\"ts\": %.3f, \"dur\": %.3f",
                  span.start * 1e6, (span.end - span.start) * 1e6);
    file << (i == 0 ? "" : ",\n") << "{\"name\": \"" << JsonEscape(span.name)
         << "\", \"cat\": \"e2e\", \"ph\": \"X\", " << times
         << ", \"pid\": 1, \"tid\": " << span.tid << ", \"args\": {\"key\": \""
         << JsonEscape(span.key) << "\"}}";
  }
  file << "\n]}\n";
  return static_cast<bool>(file);
}

}  // namespace e2e
