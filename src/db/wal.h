#ifndef DFLOW_DB_WAL_H_
#define DFLOW_DB_WAL_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "util/result.h"

namespace dflow::db {

/// Physical operations recorded in the write-ahead log. Mutations between
/// kBegin and kCommit are atomic: recovery applies only complete
/// transactions, so a crash mid-transaction (or a torn tail record) rolls
/// back cleanly. This is the mechanism behind the EventStore merge bench:
/// merging a personal store is one short transaction instead of a
/// long-lived open one.
enum class WalOp : uint8_t {
  kBegin = 1,
  kCommit = 2,
  kCreateTable = 3,
  kCreateIndex = 4,
  kDropTable = 5,
  kInsert = 6,
  kDelete = 7,
  kUpdate = 8,
};

/// Appends length+CRC framed records to a log file.
class WalWriter {
 public:
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Opens `path` for appending (creates it if missing). A torn or
  /// corrupt tail, the bytes past the last intact frame, is cut off first.
  /// `records`, if given, receives the intact records (WalReadAll's
  /// result) from the same scan.
  static Result<std::unique_ptr<WalWriter>> Open(
      const std::string& path, std::vector<std::string>* records = nullptr);

  Status Append(std::string_view payload);
  Status Sync();

  int64_t bytes_written() const { return bytes_written_; }

  /// LSNs: each Append gets sequence number last_lsn()+1 (per-session
  /// record counter); durable_lsn() is the highest LSN known flushed to the
  /// medium. The buffer pool's WAL-before-page barrier is
  /// EnsureDurable(page_lsn): a no-op when already durable, else a Sync.
  uint64_t last_lsn() const { return last_lsn_; }
  uint64_t durable_lsn() const { return durable_lsn_; }
  Status EnsureDurable(uint64_t lsn);

  /// Seeds the LSN counter after recovery replay, so LSNs stay contiguous
  /// with the records already in the log.
  void set_last_lsn(uint64_t lsn) {
    last_lsn_ = lsn;
    durable_lsn_ = lsn;
  }

 private:
  explicit WalWriter(std::FILE* file) : file_(file) {}

  std::FILE* file_;
  int64_t bytes_written_ = 0;
  uint64_t last_lsn_ = 0;
  uint64_t durable_lsn_ = 0;
};

/// Reads every intact record from a log file. A torn or corrupt tail
/// record terminates the scan silently (standard WAL recovery semantics);
/// corruption *before* the tail also just stops the scan, and the caller
/// sees fewer records.
Result<std::vector<std::string>> WalReadAll(const std::string& path);

}  // namespace dflow::db

#endif  // DFLOW_DB_WAL_H_
