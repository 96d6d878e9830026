#ifndef DFLOW_RECOVER_SCRUBBER_H_
#define DFLOW_RECOVER_SCRUBBER_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulation.h"
#include "storage/tape.h"
#include "util/result.h"

namespace dflow::recover {

/// Scrub cadence and repair discipline.
struct ScrubberConfig {
  /// Virtual seconds between scrub cycles (the background cadence; CLEO's
  /// HSM would run this off-shift).
  double cycle_interval_sec = 6.0 * 3600.0;
  /// Files verified per cycle. Each verification is a real tape read — it
  /// pays mount + stream time and contends for drives with production
  /// recalls, which is why the rate is bounded.
  int files_per_cycle = 8;
  /// Delay before a filed repair ticket is executed (an operator walks to
  /// the library — the PR 1 `HsmFaultPolicy::operator_repair_seconds`
  /// discipline).
  double operator_repair_seconds = 900.0;
  /// Full passes over the namespace before the scrubber goes quiet (the
  /// simulation runs to completion when the event queue drains, so the
  /// scrubber must terminate; production would set this high).
  int passes = 1;
};

/// Background storage scrubber: walks a tape archive verifying every file
/// end-to-end (a full read catches loud bad blocks; a stored-checksum
/// comparison catches silent bit rot), files deduplicated repair tickets
/// through the PR 1 operator-repair path, and restores corrupted files
/// from the surviving replica copy — the paper's archives all keep one
/// (Arecibo's dual archival copies, CLEO's HSM sibling tapes, WebLab's
/// Internet-Archive sibling).
///
/// Repair semantics:
///   * loud bad block  -> operator repair on the primary (re-tension /
///     re-write), counted in `repairs_local`; if a replica holds a clean
///     copy the restore is attributed to it (`restored_from_replica`).
///   * silent corruption -> can only be fixed from a clean replica copy
///     (`restored_from_replica`); with no clean copy anywhere the file is
///     counted `unrecoverable` and left for manual triage.
///   * a file already repaired by the time the ticket executes (e.g. an
///     HSM recall's own operator repair raced the scrub ticket) counts as
///     `already_repaired` — never a double repair.
///   * at most one pending ticket per file (`tickets_deduped` counts the
///     suppressed duplicates) — never a lost ticket: every detection
///     either joins an existing ticket or files a new one.
///
/// Observability: the counters live under "scrub.*" in one registry (the
/// one SetObserver attaches, else a private one) and the accessors read
/// them; with a tracer, each cycle emits a virtual-time span plus instants
/// for detections/repairs.
class Scrubber {
 public:
  /// `replica` may be null (no surviving copy to restore from). Borrowed
  /// pointers must outlive the scrubber.
  Scrubber(sim::Simulation* simulation, storage::TapeLibrary* primary,
           storage::TapeLibrary* replica, ScrubberConfig config);

  Scrubber(const Scrubber&) = delete;
  Scrubber& operator=(const Scrubber&) = delete;

  /// Attaches observability hooks (borrowed; either may be null). The
  /// counters move into `metrics` (null: a private registry), counts so
  /// far carried over.
  void SetObserver(obs::Tracer* tracer, obs::MetricsRegistry* metrics);

  /// Schedules the first cycle `cycle_interval_sec` from now.
  /// FailedPrecondition if already started.
  Status Start();

  int64_t files_scanned() const { return files_scanned_->Value(); }
  int64_t bad_blocks_found() const { return bad_blocks_found_->Value(); }
  int64_t silent_corruption_found() const {
    return silent_corruption_found_->Value();
  }
  int64_t tickets_filed() const { return tickets_filed_->Value(); }
  int64_t tickets_deduped() const { return tickets_deduped_->Value(); }
  int64_t repairs_local() const { return repairs_local_->Value(); }
  int64_t restored_from_replica() const {
    return restored_from_replica_->Value();
  }
  int64_t already_repaired() const { return already_repaired_->Value(); }
  int64_t unrecoverable() const { return unrecoverable_->Value(); }
  int passes_completed() const { return static_cast<int>(passes_->Value()); }
  /// Tickets filed but not yet executed.
  int64_t tickets_pending() const {
    return static_cast<int64_t>(pending_tickets_.size());
  }

 private:
  void RunCycle();
  void ScrubFile(const std::string& file);
  void FileTicket(const std::string& file, const std::string& reason);
  void ExecuteTicket(const std::string& file);
  obs::Tracer* ActiveTracer() const {
    return tracer_ != nullptr && tracer_->enabled() ? tracer_ : nullptr;
  }

  sim::Simulation* simulation_;
  storage::TapeLibrary* primary_;
  storage::TapeLibrary* replica_;
  ScrubberConfig config_;

  bool started_ = false;
  std::vector<std::string> worklist_;  // Snapshot of one pass, sorted.
  size_t cursor_ = 0;
  // Passes still to run. Scheduling state, kept off the registry so that a
  // registry shared with other scrubbers cannot end this scrub early.
  int passes_left_;
  std::set<std::string> pending_tickets_;

  // The tracer (null until SetObserver), the one counter store, and
  // handles into it, resolved once per SetObserver.
  obs::Tracer* tracer_ = nullptr;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::Counter* files_scanned_ = nullptr;
  obs::Counter* bad_blocks_found_ = nullptr;
  obs::Counter* silent_corruption_found_ = nullptr;
  obs::Counter* tickets_filed_ = nullptr;
  obs::Counter* tickets_deduped_ = nullptr;
  obs::Counter* repairs_local_ = nullptr;
  obs::Counter* restored_from_replica_ = nullptr;
  obs::Counter* already_repaired_ = nullptr;
  obs::Counter* unrecoverable_ = nullptr;
  obs::Counter* passes_ = nullptr;
};

}  // namespace dflow::recover

#endif  // DFLOW_RECOVER_SCRUBBER_H_
