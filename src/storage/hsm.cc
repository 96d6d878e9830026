#include "storage/hsm.h"

#include <cmath>
#include <memory>
#include <utility>

#include "util/logging.h"

namespace dflow::storage {

namespace {

/// Virtual seconds -> trace microseconds.
int64_t UsOf(double seconds) {
  return static_cast<int64_t>(std::llround(seconds * 1e6));
}

}  // namespace

HsmCache::HsmCache(sim::Simulation* simulation, DiskVolume* cache_disk,
                   TapeLibrary* tape)
    : simulation_(simulation), cache_disk_(cache_disk), tape_(tape) {
  DFLOW_CHECK(simulation_ != nullptr);
  DFLOW_CHECK(cache_disk_ != nullptr);
  DFLOW_CHECK(tape_ != nullptr);
  SetObserver(nullptr, nullptr);
}

void HsmCache::SetObserver(obs::Tracer* tracer,
                           obs::MetricsRegistry* metrics) {
  tracer_ = tracer;
  // The registry being left stays alive until every handle has carried
  // its count over.
  std::unique_ptr<obs::MetricsRegistry> previous = std::move(owned_metrics_);
  obs::MetricsRegistry& registry =
      obs::InjectedOrOwned(metrics, &owned_metrics_);
  hits_ = registry.GetCounter("hsm.cache_hits", hits_);
  misses_ = registry.GetCounter("hsm.cache_misses", misses_);
  evictions_ = registry.GetCounter("hsm.evictions", evictions_);
  read_faults_ = registry.GetCounter("hsm.read_faults", read_faults_);
  operator_repairs_ =
      registry.GetCounter("hsm.operator_repairs", operator_repairs_);
  read_failures_ = registry.GetCounter("hsm.read_failures", read_failures_);
}

Status HsmCache::MakeRoom(int64_t bytes) {
  if (bytes > cache_disk_->capacity_bytes()) {
    return Status::ResourceExhausted("file larger than HSM disk cache");
  }
  while (cache_disk_->FreeBytes() < bytes) {
    if (lru_.empty()) {
      return Status::ResourceExhausted("HSM cache cannot make room");
    }
    Evict(lru_.back());
  }
  return Status::OK();
}

void HsmCache::InstallInCache(const std::string& file, int64_t bytes,
                              std::optional<std::string> content) {
  lru_.push_front(file);
  entries_[file] = Entry{bytes, lru_.begin(), std::move(content)};
  DFLOW_CHECK_OK(cache_disk_->Allocate(bytes));
}

void HsmCache::Touch(const std::string& file) {
  auto it = entries_.find(file);
  DFLOW_CHECK(it != entries_.end());
  lru_.erase(it->second.lru_it);
  lru_.push_front(file);
  it->second.lru_it = lru_.begin();
}

void HsmCache::Evict(const std::string& file) {
  auto it = entries_.find(file);
  if (it == entries_.end()) {
    return;
  }
  DFLOW_CHECK_OK(cache_disk_->Free(it->second.bytes));
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
  evictions_->Add(1);
}

Status HsmCache::Put(const std::string& file, int64_t bytes,
                     std::function<void()> on_complete) {
  return Land(file, bytes, std::nullopt,
              [cb = std::move(on_complete)](int64_t /*stored*/) {
                if (cb) {
                  cb();
                }
              });
}

Status HsmCache::PutContent(const std::string& file, std::string content,
                            std::function<void(int64_t)> on_complete) {
  const int64_t raw_bytes = static_cast<int64_t>(content.size());
  return Land(file, raw_bytes, std::move(content), std::move(on_complete));
}

Status HsmCache::Land(const std::string& file, int64_t bytes,
                      std::optional<std::string> content,
                      std::function<void(int64_t)> on_durable) {
  DFLOW_RETURN_IF_ERROR(MakeRoom(bytes));
  // Disk landing then write-through to tape; completion = tape durable.
  // The disk tier keeps the RAW copy (capacity traded for hit latency);
  // compression happens inside the tape library.
  InstallInCache(file, bytes, content);
  double disk_time = cache_disk_->AccessTime(bytes);
  if (obs::Tracer* tracer = ActiveTracer()) {
    // Span covers disk landing through tape durability.
    double start_sec = simulation_->Now();
    on_durable = [this, tracer, file, bytes, start_sec,
                  cb = std::move(on_durable)](int64_t stored) {
      double end_sec = simulation_->Now();
      tracer->CompleteEvent("hsm.archive_put", "storage", UsOf(start_sec),
                            UsOf(end_sec - start_sec),
                            {{"file", file},
                             {"bytes", std::to_string(bytes)}});
      if (cb) {
        cb(stored);
      }
    };
  }
  simulation_->Schedule(disk_time, [this, file, bytes,
                                    content = std::move(content),
                                    cb = std::move(on_durable)]() mutable {
    Status s = content.has_value()
                   ? tape_->WriteContent(file, std::move(*content), cb)
                   : tape_->Write(file, bytes, [cb, bytes] {
                       if (cb) {
                         cb(bytes);
                       }
                     });
    if (!s.ok()) {
      DFLOW_LOG(Error) << "HSM tape write of '" << file
                       << "' failed: " << s.ToString();
    }
  });
  return Status::OK();
}

Status HsmCache::GetChecked(const std::string& file,
                            std::function<void(Result<int64_t>)> on_complete) {
  return Fetch(file, /*want_content=*/false,
               [cb = std::move(on_complete)](Result<Fetched> got) {
                 if (!cb) {
                   return;
                 }
                 if (!got.ok()) {
                   cb(got.status());
                   return;
                 }
                 cb(got->bytes);
               });
}

Status HsmCache::GetContentChecked(
    const std::string& file,
    std::function<void(Result<std::string>)> done) {
  return Fetch(file, /*want_content=*/true,
               [cb = std::move(done)](Result<Fetched> got) {
                 if (!cb) {
                   return;
                 }
                 if (!got.ok()) {
                   cb(got.status());
                   return;
                 }
                 cb(std::move(got->content));
               });
}

Status HsmCache::Fetch(const std::string& file, bool want_content,
                       std::function<void(Result<Fetched>)> done) {
  auto it = entries_.find(file);
  if (it != entries_.end() &&
      (!want_content || it->second.content.has_value())) {
    hits_->Add(1);
    Touch(file);
    Fetched fetched;
    fetched.bytes = it->second.bytes;
    if (want_content) {
      fetched.content = *it->second.content;
    }
    double access_time = cache_disk_->AccessTime(fetched.bytes);
    if (obs::Tracer* tracer = ActiveTracer()) {
      // Duration is known up front; emit the span at schedule time.
      tracer->CompleteEvent("hsm.cache_read", "storage",
                            UsOf(simulation_->Now()), UsOf(access_time),
                            {{"file", file},
                             {"bytes", std::to_string(fetched.bytes)}});
    }
    simulation_->Schedule(access_time, [fetched = std::move(fetched),
                                        cb = std::move(done)]() mutable {
      cb(std::move(fetched));
    });
    return Status::OK();
  }
  Result<int64_t> size =
      want_content ? tape_->RawContentSize(file) : tape_->FileSize(file);
  if (!size.ok()) {
    return Status::NotFound(std::string("HSM: no ") +
                            (want_content ? "content" : "file") + " '" +
                            file + "'");
  }
  misses_->Add(1);
  const int64_t bytes = *size;
  if (it != entries_.end()) {
    // Cached without the bytes a content read needs (a size-only read
    // installed it, or its content recall is still in flight): drop that
    // copy and recall afresh.
    Evict(file);
  }
  DFLOW_RETURN_IF_ERROR(MakeRoom(bytes));
  InstallInCache(file, bytes, std::nullopt);
  obs::Tracer* tracer = ActiveTracer();
  double start_sec = simulation_->Now();
  RecallWithRetry(
      file, want_content, 0,
      [this, file, want_content, bytes, tracer, start_sec,
       cb = std::move(done)](Result<std::string> got) mutable {
        if (!got.ok()) {
          Evict(file);  // A failed recall leaves nothing in the cache.
        } else if (auto entry = entries_.find(file);
                   want_content && entry != entries_.end()) {
          entry->second.content = *got;
        }
        if (tracer != nullptr) {
          // One span covers the whole recall, bad-block retries included.
          double end_sec = simulation_->Now();
          tracer->CompleteEvent("hsm.recall", "storage", UsOf(start_sec),
                                UsOf(end_sec - start_sec),
                                {{"file", file},
                                 {"outcome", got.ok() ? "ok" : "error"}});
        }
        if (!got.ok()) {
          cb(got.status());
          return;
        }
        cb(Fetched{bytes, std::move(*got)});
      });
  return Status::OK();
}

void HsmCache::RecallWithRetry(const std::string& file, bool want_content,
                               int attempt,
                               std::function<void(Result<std::string>)> done) {
  auto on_read = [this, file, want_content, attempt,
                  cb = std::move(done)](Result<std::string> got) mutable {
    if (got.ok()) {
      cb(std::move(got));
      return;
    }
    read_faults_->Add(1);
    if (obs::Tracer* tracer = ActiveTracer()) {
      tracer->InstantEvent("hsm.read_fault", "storage",
                           {{"file", file},
                            {"attempt", std::to_string(attempt)}});
    }
    // Only IOError (a bad block) is operator-repairable; a Corruption
    // means the stored frames themselves are rotten — re-reading the same
    // tape returns the same bytes, so fail fast.
    if (got.status().code() != StatusCode::kIOError ||
        attempt + 1 >= fault_policy_.max_read_attempts) {
      read_failures_->Add(1);
      cb(std::move(got));
      return;
    }
    // An operator repairs the medium, then the recall is retried.
    DFLOW_LOG(Warning) << "HSM: recall of '" << file << "' hit "
                       << got.status().ToString()
                       << "; operator repair scheduled";
    simulation_->Schedule(
        fault_policy_.operator_repair_seconds,
        [this, file, want_content, attempt, cb = std::move(cb)]() mutable {
          operator_repairs_->Add(1);
          if (obs::Tracer* tracer = ActiveTracer()) {
            tracer->InstantEvent("hsm.operator_repair", "storage",
                                 {{"file", file}});
          }
          tape_->RepairBadBlock(file);
          RecallWithRetry(file, want_content, attempt + 1, std::move(cb));
        });
  };
  // The tape read fails up front only for absent files, and presence was
  // verified before the first recall; tape files are never deleted.
  if (want_content) {
    DFLOW_CHECK_OK(tape_->ReadContentChecked(file, std::move(on_read)));
    return;
  }
  DFLOW_CHECK_OK(tape_->ReadChecked(
      file, [on_read = std::move(on_read)](Result<int64_t> bytes) mutable {
        on_read(bytes.ok() ? Result<std::string>(std::string())
                           : Result<std::string>(bytes.status()));
      }));
}

}  // namespace dflow::storage
