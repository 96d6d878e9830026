#ifndef DFLOW_RECOVER_JOURNAL_H_
#define DFLOW_RECOVER_JOURNAL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "db/wal.h"
#include "util/result.h"

namespace dflow::recover {

/// A crash-durable image of one data product: exactly the fields a
/// resumed pipeline needs to re-emit the product without re-executing the
/// stage that made it. Provenance is deliberately NOT stored — the resumed
/// run re-stamps it through the normal FlowRunner path, which is provably
/// byte-identical because the virtual timeline replays exactly (and it
/// keeps journal records small).
struct JournaledProduct {
  std::string name;
  int64_t bytes = 0;
  /// Sorted key/value attribute pairs (std::map iteration order).
  std::vector<std::pair<std::string, std::string>> attributes;
};

/// One terminal per-(stage, input-product) event of a pipeline run:
/// either the product completed the stage (after zero or more failed
/// attempts) and emitted `outputs`, or it exhausted its retry budget and
/// was dead-lettered with `error`. A record is written once, as a single
/// CRC-framed journal append, when the terminal event happens — so a torn
/// tail can only lose whole events, never leave a half-described one.
struct StageEventRecord {
  enum class Kind : uint8_t { kCompleted = 1, kDeadLettered = 2 };

  Kind kind = Kind::kCompleted;
  std::string stage;
  std::string input;  // Input product name (unique per stage per run).
  /// One entry per FAILED attempt, in attempt order; true = the failure
  /// was an injected fault (consumed one unit of the stage's
  /// forced-failure budget). For kCompleted these are the attempts before
  /// the final, successful one (total attempts = size + 1); for
  /// kDeadLettered every attempt failed, including the fatal last one
  /// (total attempts = size).
  std::vector<bool> injected_failures;
  /// kCompleted only: the products the stage emitted.
  std::vector<JournaledProduct> outputs;
  /// kDeadLettered only: the error string of the final attempt (the one
  /// the DeadLetter carries and Report() prints).
  std::string error;

  /// Length-delimited binary serialization (ByteWriter format).
  std::string Encode() const;
  static Result<StageEventRecord> Decode(std::string_view payload);
};

/// Append-only checkpoint journal of pipeline terminal events, written
/// through db::WalWriter (u32 length, u32 CRC-32, payload — the one frame
/// format) with explicit durability control:
///
///   * Append() keeps the encoded record in memory and syncs every
///     `sync_every` appends (the checkpoint granularity knob: redo work
///     after a crash is bounded by `sync_every - 1` completed-but-unsynced
///     events plus whatever was in flight).
///   * Dead-letter records are synced IMMEDIATELY regardless of
///     `sync_every` — a parked product must survive the process that
///     parked it (operations staff grep the journal next morning).
///   * A SIGKILL loses only the in-memory pending records; everything
///     synced is on disk. A kill mid-sync leaves a torn tail record that
///     replay drops (db::WalReadAll semantics), never a corrupt prefix.
class CheckpointJournal {
 public:
  struct Options {
    /// Sync after this many pending appends. 1 = every terminal event is
    /// durable before the next simulation event runs.
    int sync_every = 1;
  };

  ~CheckpointJournal();

  CheckpointJournal(const CheckpointJournal&) = delete;
  CheckpointJournal& operator=(const CheckpointJournal&) = delete;

  /// Opens `path` for appending (creates it if missing).
  static Result<std::unique_ptr<CheckpointJournal>> Open(
      const std::string& path, Options options);
  static Result<std::unique_ptr<CheckpointJournal>> Open(
      const std::string& path);

  /// Queues one record; dead-letter records force an immediate Sync().
  Status Append(const StageEventRecord& record);

  /// Appends every pending record to the log and flushes it, making each
  /// one kill-durable (page cache survives SIGKILL).
  Status Sync();

  /// Crash-emulation hook for benches/tests: drops the pending (unsynced)
  /// records and closes the log — exactly what SIGKILL does to this
  /// process's view of the journal (the log itself holds only synced
  /// records). The journal is unusable afterwards.
  void Abandon();

  int64_t records_appended() const { return records_appended_; }
  int64_t records_synced() const { return records_synced_; }
  /// Framed bytes synced to the log (0 once abandoned).
  int64_t bytes_written() const {
    return wal_ != nullptr ? wal_->bytes_written() : 0;
  }

 private:
  CheckpointJournal(std::unique_ptr<db::WalWriter> wal, Options options)
      : wal_(std::move(wal)), options_(options) {}

  std::unique_ptr<db::WalWriter> wal_;  // Null once abandoned.
  Options options_;
  std::vector<std::string> pending_;  // Encoded records awaiting a sync.
  int64_t records_appended_ = 0;
  int64_t records_synced_ = 0;
};

/// Read side: loads every intact record from a journal file (torn or
/// corrupt tail records terminate the scan silently, the WAL recovery
/// contract) and indexes them by (stage, input product name) for O(log n)
/// replay lookups. Duplicate keys keep the FIRST record (idempotent
/// resume-after-resume appends).
class JournalReplay {
 public:
  JournalReplay() = default;

  /// NotFound if the file does not exist; Corruption if an intact frame
  /// fails to parse (CRC passed but the payload is not a StageEventRecord
  /// — a format-version or writer bug, not a torn tail).
  static Result<JournalReplay> Load(const std::string& path);

  /// The terminal event for `input` at `stage`, or null if the journal has
  /// none (the product must be re-executed live).
  const StageEventRecord* Find(const std::string& stage,
                               const std::string& input) const;

  size_t size() const { return entries_.size(); }
  int64_t completed() const { return completed_; }
  int64_t dead_lettered() const { return dead_lettered_; }
  int64_t duplicates_ignored() const { return duplicates_ignored_; }

 private:
  std::map<std::pair<std::string, std::string>, StageEventRecord> entries_;
  int64_t completed_ = 0;
  int64_t dead_lettered_ = 0;
  int64_t duplicates_ignored_ = 0;
};

}  // namespace dflow::recover

#endif  // DFLOW_RECOVER_JOURNAL_H_
