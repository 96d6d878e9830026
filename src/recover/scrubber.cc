#include "recover/scrubber.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/logging.h"

namespace dflow::recover {

namespace {

/// Virtual seconds -> trace microseconds.
int64_t UsOf(double seconds) {
  return static_cast<int64_t>(std::llround(seconds * 1e6));
}

}  // namespace

Scrubber::Scrubber(sim::Simulation* simulation, storage::TapeLibrary* primary,
                   storage::TapeLibrary* replica, ScrubberConfig config)
    : simulation_(simulation), primary_(primary), replica_(replica),
      config_(config), passes_left_(config.passes) {
  DFLOW_CHECK(simulation_ != nullptr);
  DFLOW_CHECK(primary_ != nullptr);
  DFLOW_CHECK(config_.files_per_cycle > 0);
  DFLOW_CHECK(config_.cycle_interval_sec >= 0.0);
  DFLOW_CHECK(config_.passes >= 1);
  SetObserver(nullptr, nullptr);
}

void Scrubber::SetObserver(obs::Tracer* tracer, obs::MetricsRegistry* metrics) {
  tracer_ = tracer;
  // The registry being left stays alive until every handle has carried
  // its count over.
  std::unique_ptr<obs::MetricsRegistry> previous = std::move(owned_metrics_);
  obs::MetricsRegistry& registry =
      obs::InjectedOrOwned(metrics, &owned_metrics_);
  files_scanned_ = registry.GetCounter("scrub.files_scanned", files_scanned_);
  bad_blocks_found_ =
      registry.GetCounter("scrub.bad_blocks_found", bad_blocks_found_);
  silent_corruption_found_ = registry.GetCounter(
      "scrub.silent_corruption_found", silent_corruption_found_);
  tickets_filed_ = registry.GetCounter("scrub.tickets_filed", tickets_filed_);
  tickets_deduped_ =
      registry.GetCounter("scrub.tickets_deduped", tickets_deduped_);
  repairs_local_ = registry.GetCounter("scrub.repairs_local", repairs_local_);
  restored_from_replica_ = registry.GetCounter("scrub.restored_from_replica",
                                               restored_from_replica_);
  already_repaired_ =
      registry.GetCounter("scrub.already_repaired", already_repaired_);
  unrecoverable_ = registry.GetCounter("scrub.unrecoverable", unrecoverable_);
  passes_ = registry.GetCounter("scrub.passes", passes_);
}

Status Scrubber::Start() {
  if (started_) {
    return Status::FailedPrecondition("scrubber already started");
  }
  started_ = true;
  simulation_->Schedule(config_.cycle_interval_sec, [this] { RunCycle(); });
  return Status::OK();
}

void Scrubber::RunCycle() {
  if (cursor_ >= worklist_.size()) {
    // Fresh pass: snapshot the namespace (sorted — the migration walk
    // order), so files archived mid-pass are picked up next pass.
    worklist_ = primary_->FileNames();
    cursor_ = 0;
    if (worklist_.empty()) {
      // Nothing archived yet; try again next cycle unless out of passes.
      passes_->Add(1);
      if (--passes_left_ > 0) {
        simulation_->Schedule(config_.cycle_interval_sec,
                              [this] { RunCycle(); });
      }
      return;
    }
  }
  double cycle_start = simulation_->Now();
  size_t end = std::min(cursor_ + static_cast<size_t>(config_.files_per_cycle),
                        worklist_.size());
  int scanned_this_cycle = 0;
  for (; cursor_ < end; ++cursor_) {
    ScrubFile(worklist_[cursor_]);
    ++scanned_this_cycle;
  }
  if (obs::Tracer* tracer = ActiveTracer()) {
    tracer->CompleteEvent("scrub.cycle", "recover", UsOf(cycle_start), 0,
                          {{"files", std::to_string(scanned_this_cycle)},
                           {"cursor", std::to_string(cursor_)}});
  }
  bool pass_done = cursor_ >= worklist_.size();
  if (pass_done) {
    passes_->Add(1);
    --passes_left_;
  }
  if (!pass_done || passes_left_ > 0) {
    simulation_->Schedule(config_.cycle_interval_sec, [this] { RunCycle(); });
  }
}

void Scrubber::ScrubFile(const std::string& file) {
  // A scrub verification is a full read: it pays drive mount + stream time
  // and surfaces loud bad blocks exactly like a production recall. The
  // checksum comparison afterwards catches silent bit rot the read does
  // not report.
  Status s = primary_->ReadChecked(file, [this, file](Result<int64_t> bytes) {
    files_scanned_->Add(1);
    if (!bytes.ok()) {
      bad_blocks_found_->Add(1);
      if (obs::Tracer* tracer = ActiveTracer()) {
        tracer->InstantEvent("scrub.bad_block", "recover", {{"file", file}});
      }
      FileTicket(file, "bad_block");
      return;
    }
    if (primary_->IsSilentlyCorrupt(file)) {
      silent_corruption_found_->Add(1);
      if (obs::Tracer* tracer = ActiveTracer()) {
        tracer->InstantEvent("scrub.silent_corruption", "recover",
                             {{"file", file}});
      }
      FileTicket(file, "checksum_mismatch");
    }
  });
  if (!s.ok()) {
    // File vanished between the namespace snapshot and the read (tape
    // files are never deleted today, but stay defensive).
    DFLOW_LOG(Warning) << "scrub: cannot read '" << file
                       << "': " << s.ToString();
  }
}

void Scrubber::FileTicket(const std::string& file, const std::string& reason) {
  if (pending_tickets_.count(file) > 0) {
    // A ticket is already on its way for this file (e.g. the loud bad
    // block was also seen by an HSM recall this pass): never double-file.
    tickets_deduped_->Add(1);
    return;
  }
  pending_tickets_.insert(file);
  tickets_filed_->Add(1);
  if (obs::Tracer* tracer = ActiveTracer()) {
    tracer->InstantEvent("scrub.ticket_filed", "recover",
                         {{"file", file}, {"reason", reason}});
  }
  DFLOW_LOG(Warning) << "scrub: ticket filed for '" << file << "' ("
                     << reason << ") at t=" << simulation_->Now();
  simulation_->Schedule(config_.operator_repair_seconds,
                        [this, file] { ExecuteTicket(file); });
}

void Scrubber::ExecuteTicket(const std::string& file) {
  pending_tickets_.erase(file);
  bool loud = primary_->HasBadBlock(file);
  bool silent = primary_->IsSilentlyCorrupt(file);
  if (!loud && !silent) {
    // Someone else fixed it first (an HSM recall's operator repair, or a
    // concurrent migration re-write). Counting — not re-repairing — is
    // the no-double-repair contract.
    already_repaired_->Add(1);
    if (obs::Tracer* tracer = ActiveTracer()) {
      tracer->InstantEvent("scrub.already_repaired", "recover",
                           {{"file", file}});
    }
    return;
  }
  bool replica_clean = replica_ != nullptr && replica_->Contains(file) &&
                       !replica_->HasBadBlock(file) &&
                       !replica_->IsSilentlyCorrupt(file);
  if (silent && !replica_clean) {
    // Bit rot with no clean copy anywhere: nothing to restore from.
    unrecoverable_->Add(1);
    if (obs::Tracer* tracer = ActiveTracer()) {
      tracer->InstantEvent("scrub.unrecoverable", "recover",
                           {{"file", file}});
    }
    DFLOW_LOG(Error) << "scrub: '" << file
                     << "' silently corrupt with no clean replica";
    return;
  }
  auto finish_repair = [this, file](bool from_replica) {
    primary_->RepairBadBlock(file);
    primary_->ClearSilentCorruption(file);
    if (from_replica) {
      restored_from_replica_->Add(1);
    } else {
      repairs_local_->Add(1);
    }
    if (obs::Tracer* tracer = ActiveTracer()) {
      tracer->InstantEvent("scrub.repaired", "recover",
                           {{"file", file},
                            {"source", from_replica ? "replica" : "local"}});
    }
  };
  if (replica_clean) {
    // Restoring means reading the surviving copy — real drive time on the
    // replica library — then re-writing the primary medium.
    Status s = replica_->ReadChecked(
        file, [this, file, finish_repair](Result<int64_t> bytes) {
          if (!bytes.ok()) {
            // The replica developed a fault between the check and the
            // read; fall back to the local operator repair if the failure
            // was loud, else give up.
            if (primary_->HasBadBlock(file)) {
              finish_repair(/*from_replica=*/false);
            } else {
              unrecoverable_->Add(1);
            }
            return;
          }
          finish_repair(/*from_replica=*/true);
        });
    if (s.ok()) {
      return;
    }
    DFLOW_LOG(Warning) << "scrub: replica read of '" << file
                       << "' failed: " << s.ToString();
  }
  // No replica path: the operator can clear a loud bad block in place
  // (re-tension / re-write from the drive's error-corrected stream).
  finish_repair(/*from_replica=*/false);
}

}  // namespace dflow::recover
