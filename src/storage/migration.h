#ifndef DFLOW_STORAGE_MIGRATION_H_
#define DFLOW_STORAGE_MIGRATION_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/tape.h"
#include "util/result.h"
#include "util/rng.h"

namespace dflow::storage {

/// Section 2.2: "A key issue ... is the migration of the data to new
/// storage technologies as they emerge. Storage media costs undoubtedly
/// will decrease, but manpower requirements for migrating the data are
/// significant and care is needed to avoid loss of data."
struct MigrationConfig {
  /// Concurrent read/write streams (bounded by drive counts anyway).
  int parallel_streams = 2;
  /// Probability that a source read of an aging medium fails and must be
  /// retried (the data-loss risk the paper warns about).
  double read_error_probability = 0.0;
  int max_retries = 3;
  /// Virtual time an operator spends repairing a bad block discovered on
  /// the source medium before the read is retried.
  double bad_block_repair_seconds = 600.0;
};

struct MigrationReport {
  int64_t files_total = 0;
  int64_t files_migrated = 0;
  int64_t files_lost = 0;      // Exhausted retries: data loss.
  int64_t bytes_migrated = 0;
  int64_t retries = 0;
  int64_t bad_block_repairs = 0;  // Operator interventions on the source.
  double virtual_seconds = 0.0;
};

/// Copies every file from an old tape generation to a new one under the
/// simulation clock, with bounded parallelism, read-failure retries, and a
/// final verification that the destination holds every byte the source
/// did. Files whose reads keep failing are counted as lost — the quantity
/// the operator must drive to zero.
class MediaMigration {
 public:
  MediaMigration(sim::Simulation* simulation, TapeLibrary* source,
                 TapeLibrary* destination, MigrationConfig config,
                 uint64_t seed = 42);

  /// Starts the migration; `on_complete` fires (virtual time) with the
  /// final report. FailedPrecondition if already started.
  Status Run(std::function<void(const MigrationReport&)> on_complete);

  /// Post-hoc verification: every source file present on the destination
  /// with identical size.
  Status Verify() const;

  /// Attaches observability hooks (borrowed; either may be null). With a
  /// tracer, every file migration emits one virtual-time span (covering
  /// all of its retries) plus instants for bad-block repairs. The report
  /// counters move into `metrics` (null: a private registry), counts so
  /// far carried over, under "migration.files_migrated", ".files_lost",
  /// ".retries", ".bad_block_repairs".
  void SetObserver(obs::Tracer* tracer, obs::MetricsRegistry* metrics);

  /// The report so far; its counts are read from the registry.
  MigrationReport report() const;

 private:
  void PumpNext();
  void MigrateOne(const std::string& file, int attempt, double start_sec);
  /// Terminal accounting for one file: counters, the per-file span, and
  /// the next pump.
  void FinishFile(const std::string& file, int attempt, double start_sec,
                  bool migrated);
  /// The configured tracer if currently enabled, else null.
  obs::Tracer* ActiveTracer() const {
    return tracer_ != nullptr && tracer_->enabled() ? tracer_ : nullptr;
  }

  sim::Simulation* simulation_;
  TapeLibrary* source_;
  TapeLibrary* destination_;
  MigrationConfig config_;
  Rng rng_;
  std::vector<std::string> pending_;
  size_t next_ = 0;
  int in_flight_ = 0;
  bool started_ = false;
  double start_time_ = 0.0;
  int64_t bytes_migrated_ = 0;
  double virtual_seconds_ = 0.0;
  std::function<void(const MigrationReport&)> on_complete_;

  // Observability: the tracer (null until SetObserver), the one counter
  // store, and handles into it, resolved once per SetObserver.
  obs::Tracer* tracer_ = nullptr;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::Counter* files_migrated_ = nullptr;
  obs::Counter* files_lost_ = nullptr;
  obs::Counter* retries_ = nullptr;
  obs::Counter* bad_block_repairs_ = nullptr;
};

}  // namespace dflow::storage

#endif  // DFLOW_STORAGE_MIGRATION_H_
