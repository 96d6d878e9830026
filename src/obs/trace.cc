#include "obs/trace.h"

#include "util/md5.h"
#include "util/strings.h"

namespace dflow::obs {

Tracer::Tracer(TracerConfig config)
    : config_(std::move(config)),
      enabled_(config_.enabled),
      epoch_(std::chrono::steady_clock::now()) {}

int64_t Tracer::NowUs() {
  switch (config_.clock) {
    case TracerConfig::ClockMode::kWall:
      return std::chrono::duration_cast<std::chrono::microseconds>(
                 std::chrono::steady_clock::now() - epoch_)
          .count();
    case TracerConfig::ClockMode::kLogical:
      return logical_clock_us_.fetch_add(1, std::memory_order_relaxed);
    case TracerConfig::ClockMode::kExternal:
      return config_.external_now_sec ? UsOf(config_.external_now_sec())
                                      : 0;
  }
  return 0;
}

void Tracer::Append(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= config_.max_events) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  events_.push_back(std::move(event));
}

int Tracer::CurrentTid() {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = thread_tracks_.try_emplace(
      std::this_thread::get_id(), static_cast<int>(thread_tracks_.size()));
  return it->second;
}

void Tracer::CompleteEvent(std::string name, std::string category,
                           int64_t ts_us, int64_t dur_us, TraceArgs args,
                           int tid) {
  if (!enabled()) {
    return;
  }
  TraceEvent event;
  event.phase = 'X';
  event.name = std::move(name);
  event.category = std::move(category);
  event.ts_us = ts_us;
  event.dur_us = dur_us < 0 ? 0 : dur_us;
  event.tid = tid >= 0 ? tid : CurrentTid();
  event.args = std::move(args);
  Append(std::move(event));
}

void Tracer::InstantEvent(std::string name, std::string category,
                          TraceArgs args, int tid) {
  if (!enabled()) {
    return;
  }
  TraceEvent event;
  event.phase = 'i';
  event.name = std::move(name);
  event.category = std::move(category);
  event.ts_us = NowUs();
  event.tid = tid >= 0 ? tid : CurrentTid();
  event.args = std::move(args);
  Append(std::move(event));
}

void Tracer::NameTrack(int tid, const std::string& label) {
  if (!enabled()) {
    return;
  }
  TraceEvent event;
  event.phase = 'M';
  event.name = "thread_name";
  event.category = "__metadata";
  event.tid = tid;
  event.args.emplace_back("name", label);
  Append(std::move(event));
}

size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  thread_tracks_.clear();
  dropped_.store(0, std::memory_order_relaxed);
  logical_clock_us_.store(0, std::memory_order_relaxed);
}

std::string Tracer::ExportChromeJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out.reserve(events_.size() * 96 + 64);
  out += "{\"traceEvents\":[\n";
  bool first = true;
  for (const TraceEvent& event : events_) {
    if (!first) {
      out += ",\n";
    }
    first = false;
    out += "{\"name\":";
    out += JsonQuote(event.name);
    out += ",\"cat\":";
    out += JsonQuote(event.category);
    out += ",\"ph\":\"";
    out.push_back(event.phase);
    out += "\",\"ts\":" + std::to_string(event.ts_us);
    if (event.phase == 'X') {
      out += ",\"dur\":" + std::to_string(event.dur_us);
    }
    if (event.phase == 'i') {
      out += ",\"s\":\"t\"";  // Instant scope: thread.
    }
    out += ",\"pid\":0,\"tid\":" + std::to_string(event.tid);
    if (!event.args.empty()) {
      out += ",\"args\":{";
      bool first_arg = true;
      for (const auto& [key, value] : event.args) {
        if (!first_arg) {
          out += ",";
        }
        first_arg = false;
        out += JsonQuote(key);
        out += ":";
        out += JsonQuote(value);
      }
      out += "}";
    }
    out += "}";
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

std::string Tracer::Fingerprint() const {
  return Md5::HexOf(ExportChromeJson());
}

}  // namespace dflow::obs
