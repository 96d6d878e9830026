#include "obs/metrics.h"

#include <cstdio>
#include <functional>
#include <sstream>
#include <thread>

#include "util/strings.h"

namespace dflow::obs {

namespace {

/// Deterministic float formatting for the JSON snapshot: %.6g prints the
/// same bytes for the same double on every conforming libc.
std::string FmtDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

}  // namespace

StripedHistogram::StripedHistogram(int num_stripes) {
  if (num_stripes < 1) {
    num_stripes = 1;
  }
  stripes_.reserve(static_cast<size_t>(num_stripes));
  for (int i = 0; i < num_stripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
}

void StripedHistogram::Record(double seconds) {
  size_t stripe = std::hash<std::thread::id>{}(std::this_thread::get_id()) %
                  stripes_.size();
  Stripe& s = *stripes_[stripe];
  std::lock_guard<std::mutex> lock(s.mu);
  s.histogram.Record(seconds);
}

LatencyHistogram StripedHistogram::Snapshot() const {
  LatencyHistogram merged;
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    merged.Merge(stripe->histogram);
  }
  return merged;
}

void StripedHistogram::Reset() {
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    stripe->histogram.Reset();
  }
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const Counter* carry) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  if (carry != nullptr && carry != slot.get()) {
    slot->Add(carry->Value());
  }
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
  }
  return slot.get();
}

StripedHistogram* MetricsRegistry::GetHistogram(const std::string& name,
                                                int num_stripes) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<StripedHistogram>(num_stripes);
  }
  return slot.get();
}

int64_t MetricsRegistry::CounterValue(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->Value();
}

Result<int64_t> MetricsRegistry::CheckedCounterValue(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    return Status::NotFound("no counter named '" + name + "'");
  }
  return it->second->Value();
}

std::vector<std::string> MetricsRegistry::CounterNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    names.push_back(name);
  }
  return names;
}

std::vector<std::string> MetricsRegistry::GaugeNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    names.push_back(name);
  }
  return names;
}

std::vector<std::string> MetricsRegistry::HistogramNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    names.push_back(name);
  }
  return names;
}

std::string MetricsRegistry::SnapshotJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out += "{\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {  // std::map: sorted.
    if (!first) {
      out += ",";
    }
    first = false;
    out += JsonQuote(name);
    out += ":" + std::to_string(counter->Value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += JsonQuote(name);
    out += ":" + FmtDouble(gauge->Value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += JsonQuote(name);
    LatencyHistogram h = histogram->Snapshot();
    out += ":{\"count\":" + std::to_string(h.count());
    out += ",\"mean_sec\":" + FmtDouble(h.mean_sec());
    out += ",\"p50_sec\":" + FmtDouble(h.Percentile(0.50));
    out += ",\"p90_sec\":" + FmtDouble(h.Percentile(0.90));
    out += ",\"p99_sec\":" + FmtDouble(h.Percentile(0.99));
    out += ",\"p999_sec\":" + FmtDouble(h.Percentile(0.999));
    out += ",\"max_sec\":" + FmtDouble(h.max_sec()) + "}";
  }
  out += "}}";
  return out;
}

MetricsRegistry& InjectedOrOwned(MetricsRegistry* injected,
                                 std::unique_ptr<MetricsRegistry>* owned) {
  if (injected != nullptr) {
    return *injected;
  }
  if (*owned == nullptr) {
    *owned = std::make_unique<MetricsRegistry>();
  }
  return **owned;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) {
    counter->Reset();
  }
  for (auto& [name, histogram] : histograms_) {
    histogram->Reset();
  }
}

}  // namespace dflow::obs
