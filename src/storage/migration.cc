#include "storage/migration.h"

#include <cmath>

#include "util/logging.h"

namespace dflow::storage {

namespace {

/// Virtual seconds -> trace microseconds.
int64_t UsOf(double seconds) {
  return static_cast<int64_t>(std::llround(seconds * 1e6));
}

}  // namespace

MediaMigration::MediaMigration(sim::Simulation* simulation,
                               TapeLibrary* source,
                               TapeLibrary* destination,
                               MigrationConfig config, uint64_t seed)
    : simulation_(simulation), source_(source), destination_(destination),
      config_(config), rng_(seed) {
  DFLOW_CHECK(simulation_ != nullptr);
  DFLOW_CHECK(source_ != nullptr);
  DFLOW_CHECK(destination_ != nullptr);
  DFLOW_CHECK(config_.parallel_streams > 0);
  SetObserver(nullptr, nullptr);
}

void MediaMigration::SetObserver(obs::Tracer* tracer,
                                 obs::MetricsRegistry* metrics) {
  tracer_ = tracer;
  // The registry being left stays alive until every handle has carried
  // its count over.
  std::unique_ptr<obs::MetricsRegistry> previous = std::move(owned_metrics_);
  obs::MetricsRegistry& registry =
      obs::InjectedOrOwned(metrics, &owned_metrics_);
  files_migrated_ =
      registry.GetCounter("migration.files_migrated", files_migrated_);
  files_lost_ = registry.GetCounter("migration.files_lost", files_lost_);
  retries_ = registry.GetCounter("migration.retries", retries_);
  bad_block_repairs_ =
      registry.GetCounter("migration.bad_block_repairs", bad_block_repairs_);
}

MigrationReport MediaMigration::report() const {
  MigrationReport report;
  report.files_total = static_cast<int64_t>(pending_.size());
  report.files_migrated = files_migrated_->Value();
  report.files_lost = files_lost_->Value();
  report.bytes_migrated = bytes_migrated_;
  report.retries = retries_->Value();
  report.bad_block_repairs = bad_block_repairs_->Value();
  report.virtual_seconds = virtual_seconds_;
  return report;
}

Status MediaMigration::Run(
    std::function<void(const MigrationReport&)> on_complete) {
  if (started_) {
    return Status::FailedPrecondition("migration already started");
  }
  started_ = true;
  on_complete_ = std::move(on_complete);
  pending_ = source_->FileNames();
  start_time_ = simulation_->Now();
  if (pending_.empty()) {
    if (on_complete_) {
      simulation_->Schedule(0.0, [this] { on_complete_(report()); });
    }
    return Status::OK();
  }
  for (int i = 0; i < config_.parallel_streams; ++i) {
    PumpNext();
  }
  return Status::OK();
}

void MediaMigration::PumpNext() {
  if (next_ >= pending_.size()) {
    if (in_flight_ == 0) {
      virtual_seconds_ = simulation_->Now() - start_time_;
      if (on_complete_) {
        auto done = std::move(on_complete_);
        on_complete_ = nullptr;
        done(report());
      }
    }
    return;
  }
  std::string file = pending_[next_++];
  ++in_flight_;
  MigrateOne(file, 0, simulation_->Now());
}

void MediaMigration::FinishFile(const std::string& file, int attempt,
                                double start_sec, bool migrated) {
  (migrated ? files_migrated_ : files_lost_)->Add(1);
  if (obs::Tracer* tracer = ActiveTracer()) {
    double end_sec = simulation_->Now();
    tracer->CompleteEvent("migrate_file", "storage", UsOf(start_sec),
                          UsOf(end_sec - start_sec),
                          {{"file", file},
                           {"attempts", std::to_string(attempt + 1)},
                           {"outcome", migrated ? "migrated" : "lost"}});
  }
  --in_flight_;
  PumpNext();
}

void MediaMigration::MigrateOne(const std::string& file, int attempt,
                                double start_sec) {
  Status read = source_->ReadChecked(file, [this, file, attempt, start_sec](
                                               Result<int64_t> read_bytes) {
    if (!read_bytes.ok()) {
      // A bad block on the aging source medium: an operator repairs it,
      // then the read is retried — unless the retry budget is spent.
      if (attempt + 1 > config_.max_retries) {
        DFLOW_LOG(Error) << "migration lost '" << file << "' after retries ("
                         << read_bytes.status().ToString() << ")";
        FinishFile(file, attempt, start_sec, /*migrated=*/false);
        return;
      }
      retries_->Add(1);
      bad_block_repairs_->Add(1);
      simulation_->Schedule(config_.bad_block_repair_seconds,
                            [this, file, attempt, start_sec] {
                              if (obs::Tracer* tracer = ActiveTracer()) {
                                tracer->InstantEvent("bad_block_repair",
                                                     "storage",
                                                     {{"file", file}});
                              }
                              source_->RepairBadBlock(file);
                              MigrateOne(file, attempt + 1, start_sec);
                            });
      return;
    }
    int64_t bytes = *read_bytes;
    // The read stream either verifies or the aging medium produced errors.
    if (rng_.Bernoulli(config_.read_error_probability)) {
      if (attempt + 1 > config_.max_retries) {
        DFLOW_LOG(Error) << "migration lost '" << file
                         << "' after retries";
        FinishFile(file, attempt, start_sec, /*migrated=*/false);
        return;
      }
      retries_->Add(1);
      MigrateOne(file, attempt + 1, start_sec);
      return;
    }
    Status write;
    if (source_->HasContent(file)) {
      // Content-bearing file: decode the source container (instant — the
      // drive time for this file was already paid by ReadChecked above)
      // and let the destination re-compress per ITS config. A Corruption
      // here means the source frames themselves are rotten; retrying the
      // same medium cannot help, so the file is lost.
      Result<std::string> content = source_->ContentSnapshot(file);
      if (!content.ok()) {
        DFLOW_LOG(Error) << "migration: source content of '" << file
                         << "' is rotten: " << content.status().ToString();
        FinishFile(file, attempt, start_sec, /*migrated=*/false);
        return;
      }
      write = destination_->WriteContent(
          file, std::move(*content), [this, file, attempt, start_sec](
                                         int64_t /*stored*/) {
            FinishFile(file, attempt, start_sec, /*migrated=*/true);
          });
    } else {
      write = destination_->Write(
          file, bytes, [this, file, attempt, start_sec] {
            FinishFile(file, attempt, start_sec, /*migrated=*/true);
          });
    }
    if (!write.ok()) {
      DFLOW_LOG(Error) << "migration write failed: " << write.ToString();
      FinishFile(file, attempt, start_sec, /*migrated=*/false);
      return;
    }
    bytes_migrated_ += bytes;
  });
  if (!read.ok()) {
    DFLOW_LOG(Error) << "migration read failed: " << read.ToString();
    FinishFile(file, attempt, start_sec, /*migrated=*/false);
  }
}

Status MediaMigration::Verify() const {
  for (const std::string& file : source_->FileNames()) {
    if (!destination_->Contains(file)) {
      return Status::Corruption("migration verify: '" + file +
                                "' missing on destination");
    }
    if (source_->HasContent(file)) {
      // Content-bearing files are verified byte-for-byte on the RAW
      // payload: the destination re-compressed per its own config, so
      // stored sizes legitimately differ.
      if (!destination_->HasContent(file)) {
        return Status::Corruption("migration verify: content of '" + file +
                                  "' missing on destination");
      }
      DFLOW_ASSIGN_OR_RETURN(std::string src_content,
                             source_->ContentSnapshot(file));
      DFLOW_ASSIGN_OR_RETURN(std::string dst_content,
                             destination_->ContentSnapshot(file));
      if (src_content != dst_content) {
        return Status::Corruption("migration verify: content mismatch for '" +
                                  file + "'");
      }
      continue;
    }
    DFLOW_ASSIGN_OR_RETURN(int64_t src_bytes, source_->FileSize(file));
    DFLOW_ASSIGN_OR_RETURN(int64_t dst_bytes, destination_->FileSize(file));
    if (src_bytes != dst_bytes) {
      return Status::Corruption("migration verify: size mismatch for '" +
                                file + "'");
    }
  }
  return Status::OK();
}

}  // namespace dflow::storage
