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

void HsmCache::InstallInCache(const std::string& file, int64_t bytes) {
  lru_.push_front(file);
  cache_entries_[file] = Entry{bytes, lru_.begin()};
  DFLOW_CHECK_OK(cache_disk_->Allocate(bytes));
}

void HsmCache::Touch(const std::string& file) {
  auto it = cache_entries_.find(file);
  DFLOW_CHECK(it != cache_entries_.end());
  lru_.erase(it->second.lru_it);
  lru_.push_front(file);
  it->second.lru_it = lru_.begin();
}

void HsmCache::Evict(const std::string& file) {
  auto it = cache_entries_.find(file);
  if (it == cache_entries_.end()) {
    return;
  }
  DFLOW_CHECK_OK(cache_disk_->Free(it->second.bytes));
  lru_.erase(it->second.lru_it);
  cache_entries_.erase(it);
  disk_contents_.erase(file);
  evictions_->Add(1);
}

Status HsmCache::Put(const std::string& file, int64_t bytes,
                     std::function<void()> on_complete) {
  DFLOW_RETURN_IF_ERROR(MakeRoom(bytes));
  // Disk landing then write-through to tape; completion = tape durable.
  InstallInCache(file, bytes);
  double disk_time = cache_disk_->AccessTime(bytes);
  if (obs::Tracer* tracer = ActiveTracer()) {
    // Span covers disk landing through tape durability.
    double start_sec = simulation_->Now();
    auto inner = std::move(on_complete);
    on_complete = [this, tracer, file, bytes, start_sec,
                   cb = std::move(inner)]() mutable {
      double end_sec = simulation_->Now();
      tracer->CompleteEvent("hsm.archive_put", "storage", UsOf(start_sec),
                            UsOf(end_sec - start_sec),
                            {{"file", file},
                             {"bytes", std::to_string(bytes)}});
      if (cb) {
        cb();
      }
    };
  }
  auto cb = std::make_shared<std::function<void()>>(std::move(on_complete));
  simulation_->Schedule(disk_time, [this, file, bytes, cb] {
    Status s = tape_->Write(file, bytes, [cb] {
      if (*cb) {
        (*cb)();
      }
    });
    if (!s.ok()) {
      DFLOW_LOG(Error) << "HSM tape write of '" << file
                       << "' failed: " << s.ToString();
    }
  });
  return Status::OK();
}

Status HsmCache::Get(const std::string& file,
                     std::function<void(int64_t)> on_complete) {
  return GetChecked(
      file, [file, cb = std::move(on_complete)](Result<int64_t> bytes) {
        if (!bytes.ok()) {
          DFLOW_LOG(Error) << "HSM: recall of '" << file
                           << "' abandoned: " << bytes.status().ToString();
          return;
        }
        if (cb) {
          cb(*bytes);
        }
      });
}

Status HsmCache::GetChecked(const std::string& file,
                            std::function<void(Result<int64_t>)> on_complete) {
  auto it = cache_entries_.find(file);
  if (it != cache_entries_.end()) {
    hits_->Add(1);
    Touch(file);
    int64_t bytes = it->second.bytes;
    double access_time = cache_disk_->AccessTime(bytes);
    if (obs::Tracer* tracer = ActiveTracer()) {
      // Duration is known up front; emit the span at schedule time.
      tracer->CompleteEvent("hsm.cache_read", "storage",
                            UsOf(simulation_->Now()), UsOf(access_time),
                            {{"file", file},
                             {"bytes", std::to_string(bytes)}});
    }
    simulation_->Schedule(access_time, [bytes, cb = std::move(on_complete)] {
      if (cb) {
        cb(bytes);
      }
    });
    return Status::OK();
  }
  if (!tape_->Contains(file)) {
    return Status::NotFound("HSM: no file '" + file + "'");
  }
  misses_->Add(1);
  DFLOW_ASSIGN_OR_RETURN(int64_t bytes, tape_->FileSize(file));
  DFLOW_RETURN_IF_ERROR(MakeRoom(bytes));
  InstallInCache(file, bytes);
  if (obs::Tracer* tracer = ActiveTracer()) {
    // One span covers the whole recall, bad-block retries included.
    double start_sec = simulation_->Now();
    auto inner = std::move(on_complete);
    on_complete = [this, tracer, file, start_sec,
                   cb = std::move(inner)](Result<int64_t> result) mutable {
      double end_sec = simulation_->Now();
      tracer->CompleteEvent("hsm.recall", "storage", UsOf(start_sec),
                            UsOf(end_sec - start_sec),
                            {{"file", file},
                             {"outcome", result.ok() ? "ok" : "error"}});
      if (cb) {
        cb(std::move(result));
      }
    };
  }
  RecallWithRetry(file, 0, std::move(on_complete));
  return Status::OK();
}

Status HsmCache::PutContent(const std::string& file, std::string content,
                            std::function<void(int64_t)> on_complete) {
  const int64_t raw_bytes = static_cast<int64_t>(content.size());
  DFLOW_RETURN_IF_ERROR(MakeRoom(raw_bytes));
  // The disk tier keeps the RAW copy (capacity traded for hit latency);
  // compression happens inside the tape library on write-through.
  InstallInCache(file, raw_bytes);
  disk_contents_[file] = content;
  double disk_time = cache_disk_->AccessTime(raw_bytes);
  auto cb =
      std::make_shared<std::function<void(int64_t)>>(std::move(on_complete));
  simulation_->Schedule(
      disk_time, [this, file, content = std::move(content), cb]() mutable {
        Status s = tape_->WriteContent(
            file, std::move(content), [cb](int64_t stored) {
              if (*cb) {
                (*cb)(stored);
              }
            });
        if (!s.ok()) {
          DFLOW_LOG(Error) << "HSM tape content write of '" << file
                           << "' failed: " << s.ToString();
        }
      });
  return Status::OK();
}

Status HsmCache::GetContentChecked(
    const std::string& file,
    std::function<void(Result<std::string>)> done) {
  auto it = cache_entries_.find(file);
  auto content_it = disk_contents_.find(file);
  if (it != cache_entries_.end() && content_it != disk_contents_.end()) {
    hits_->Add(1);
    Touch(file);
    int64_t bytes = it->second.bytes;
    double access_time = cache_disk_->AccessTime(bytes);
    if (obs::Tracer* tracer = ActiveTracer()) {
      tracer->CompleteEvent("hsm.cache_read", "storage",
                            UsOf(simulation_->Now()), UsOf(access_time),
                            {{"file", file},
                             {"bytes", std::to_string(bytes)}});
    }
    simulation_->Schedule(access_time, [content = content_it->second,
                                        cb = std::move(done)]() mutable {
      if (cb) {
        cb(std::move(content));
      }
    });
    return Status::OK();
  }
  if (!tape_->HasContent(file)) {
    return Status::NotFound("HSM: no content '" + file + "'");
  }
  misses_->Add(1);
  DFLOW_ASSIGN_OR_RETURN(int64_t raw_bytes, tape_->RawContentSize(file));
  DFLOW_RETURN_IF_ERROR(MakeRoom(raw_bytes));
  InstallInCache(file, raw_bytes);
  if (obs::Tracer* tracer = ActiveTracer()) {
    double start_sec = simulation_->Now();
    auto inner = std::move(done);
    done = [this, tracer, file, start_sec,
            cb = std::move(inner)](Result<std::string> result) mutable {
      double end_sec = simulation_->Now();
      tracer->CompleteEvent("hsm.recall", "storage", UsOf(start_sec),
                            UsOf(end_sec - start_sec),
                            {{"file", file},
                             {"outcome", result.ok() ? "ok" : "error"}});
      if (cb) {
        cb(std::move(result));
      }
    };
  }
  // Wrap to install the recalled bytes on success, roll the cache
  // accounting back on total failure.
  auto wrapped = [this, file,
                  cb = std::move(done)](Result<std::string> result) mutable {
    if (result.ok()) {
      disk_contents_[file] = *result;
    } else {
      Evict(file);  // Undo the speculative installation; evictions_ is
                    // bumped, matching the size-only path's accounting.
    }
    if (cb) {
      cb(std::move(result));
    }
  };
  RecallContentWithRetry(file, 0, std::move(wrapped));
  return Status::OK();
}

void HsmCache::RecallContentWithRetry(
    const std::string& file, int attempt,
    std::function<void(Result<std::string>)> on_complete) {
  Status s = tape_->ReadContentChecked(
      file, [this, file, attempt,
             cb = std::move(on_complete)](Result<std::string> content) mutable {
        if (content.ok()) {
          if (cb) {
            cb(std::move(content));
          }
          return;
        }
        read_faults_->Add(1);
        if (obs::Tracer* tracer = ActiveTracer()) {
          tracer->InstantEvent("hsm.read_fault", "storage",
                               {{"file", file},
                                {"attempt", std::to_string(attempt)}});
        }
        // Only IOError (bad block) is operator-repairable; Corruption
        // means the stored frames themselves are rotten — re-reading the
        // same tape returns the same bytes, so fail fast.
        const bool retryable =
            content.status().code() == StatusCode::kIOError;
        if (!retryable || attempt + 1 >= fault_policy_.max_read_attempts) {
          read_failures_->Add(1);
          if (cb) {
            cb(std::move(content));
          }
          return;
        }
        DFLOW_LOG(Warning) << "HSM: content recall of '" << file << "' hit "
                           << content.status().ToString()
                           << "; operator repair scheduled";
        simulation_->Schedule(
            fault_policy_.operator_repair_seconds,
            [this, file, attempt, cb = std::move(cb)]() mutable {
              operator_repairs_->Add(1);
              if (obs::Tracer* tracer = ActiveTracer()) {
                tracer->InstantEvent("hsm.operator_repair", "storage",
                                     {{"file", file}});
              }
              tape_->RepairBadBlock(file);
              RecallContentWithRetry(file, attempt + 1, std::move(cb));
            });
      });
  DFLOW_CHECK_OK(s);
}

void HsmCache::RecallWithRetry(
    const std::string& file, int attempt,
    std::function<void(Result<int64_t>)> on_complete) {
  Status s = tape_->ReadChecked(
      file, [this, file, attempt,
             cb = std::move(on_complete)](Result<int64_t> bytes) mutable {
        if (bytes.ok()) {
          if (cb) {
            cb(std::move(bytes));
          }
          return;
        }
        read_faults_->Add(1);
        if (obs::Tracer* tracer = ActiveTracer()) {
          tracer->InstantEvent("hsm.read_fault", "storage",
                               {{"file", file},
                                {"attempt", std::to_string(attempt)}});
        }
        if (attempt + 1 >= fault_policy_.max_read_attempts) {
          read_failures_->Add(1);
          if (cb) {
            cb(std::move(bytes));
          }
          return;
        }
        // An operator repairs the medium, then the recall is retried.
        DFLOW_LOG(Warning) << "HSM: recall of '" << file << "' hit "
                           << bytes.status().ToString()
                           << "; operator repair scheduled";
        simulation_->Schedule(
            fault_policy_.operator_repair_seconds,
            [this, file, attempt, cb = std::move(cb)]() mutable {
              operator_repairs_->Add(1);
              if (obs::Tracer* tracer = ActiveTracer()) {
                tracer->InstantEvent("hsm.operator_repair", "storage",
                                     {{"file", file}});
              }
              tape_->RepairBadBlock(file);
              RecallWithRetry(file, attempt + 1, std::move(cb));
            });
      });
  // ReadChecked fails synchronously only for absent files, and presence
  // was verified before the first recall; tape files are never deleted.
  DFLOW_CHECK_OK(s);
}

}  // namespace dflow::storage
