#ifndef DFLOW_DB_DATABASE_H_
#define DFLOW_DB_DATABASE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "db/buffer_pool.h"
#include "db/catalog.h"
#include "db/executor.h"
#include "db/parser.h"
#include "db/wal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/result.h"

namespace dflow::db {

struct DatabaseOptions {
  /// Buffer-pool residency bound shared by every table in the database;
  /// 0 = unbounded (all pages stay in memory). Bounded pools evict cold
  /// pages to the page store (in-memory for volatile databases, a
  /// `<wal path>.pages` spill file for durable ones).
  size_t pool_frames = 0;
};

/// The embedded relational engine facade: the role SQLite plays in CLEO's
/// personal EventStore and MySQL / MS SQL Server play in the group and
/// collaboration stores and in the Arecibo / WebLab metadata systems.
///
/// Modes:
///  - Database()            : in-memory, volatile (the "personal" mode).
///  - Database::Open(path)  : durable; every committed mutation is written
///    to a write-ahead log first, and Open replays the log on startup.
///
/// Transactions: BEGIN/COMMIT/ROLLBACK (SQL or the methods below). One
/// transaction at a time (the engine is single-threaded by design; the
/// simulation layer models concurrency). Inside a transaction, mutations
/// are buffered and applied atomically at COMMIT; reads see the
/// pre-transaction state until then. INSERT rows are checked when the
/// statement runs, so a bad row fails its own call. DDL is its own
/// transaction, applied at once. A durable database's log is flushed
/// before any commit or DDL statement returns.
class Database {
 public:
  /// In-memory database with no durability.
  Database();
  explicit Database(DatabaseOptions options);

  /// Durable database backed by a WAL at `path`; replays the committed
  /// transactions of an existing log, after cutting off any torn tail.
  /// The buffer pool spills to `path + ".pages"` (session-scoped: created
  /// fresh on every Open — the WAL is the database of record).
  static Result<std::unique_ptr<Database>> Open(const std::string& path,
                                                DatabaseOptions options = {});

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Parses and executes one SQL statement.
  Result<QueryResult> Execute(std::string_view sql);

  // --- Programmatic API (used by the case-study modules; avoids parse
  // overhead on hot paths) ---
  Status CreateTable(std::string name, Schema schema);
  Status CreateIndex(std::string index_name, const std::string& table,
                     const std::string& column);
  /// Schema set-up that creates only what is missing: the table unless one
  /// of that name exists (its schema is not compared), the index unless
  /// `table` already has one on `column`.
  Status EnsureTable(std::string name, Schema schema);
  Status EnsureIndex(std::string index_name, const std::string& table,
                     const std::string& column);
  Status Insert(const std::string& table, Row row);
  /// Bulk insert of many rows in one transaction; a bad row inserts none.
  Status InsertMany(const std::string& table, std::vector<Row> rows);

  Status Begin();
  Status Commit();
  Status Rollback();
  bool in_transaction() const { return in_txn_; }

  /// Compacts the database: vacuums tombstoned heap space, rebuilds
  /// indexes, and (for durable databases) rewrites the WAL as one snapshot
  /// transaction, bounding recovery time for long-lived metadata stores.
  /// FailedPrecondition inside a transaction.
  Status Checkpoint();

  const Catalog& catalog() const { return catalog_; }
  /// Total bytes of table heap pages (storage accounting).
  int64_t TotalBytes() const { return catalog_.TotalBytes(); }
  int64_t wal_bytes() const {
    return wal_ != nullptr ? wal_->bytes_written() : 0;
  }

  /// The shared buffer pool behind every table (hit/miss/eviction stats,
  /// eviction log, writeback probe).
  BufferPool* pool() const { return pool_.get(); }

  /// Observability: db.pool.* counters and fetch/writeback spans.
  void SetMetricsRegistry(obs::MetricsRegistry* metrics) {
    pool_->SetMetricsRegistry(metrics);
  }
  void SetTracer(obs::Tracer* tracer) { pool_->SetTracer(tracer); }

 private:
  using Op = std::function<Result<int64_t>()>;

  Database(DatabaseOptions options, std::unique_ptr<PageStore> store);

  Result<QueryResult> Dispatch(Statement stmt);

  /// The one transaction frame: kBegin, the records `body` logs, kCommit,
  /// then Sync(). Autocommit DML, Commit(), DDL and the checkpoint snapshot
  /// all frame through here; `log` is null for a volatile database.
  static Status Frame(WalWriter* log, const std::function<Status()>& body);

  /// Runs `op` now, framed as its own transaction, or buffers it for
  /// Commit() if a transaction is open.
  Result<int64_t> RunOrBuffer(Op op);

  // Each step applies one WAL record and, unless replaying_, logs it with
  // that kind's one encoder (row steps log first, so the record's LSN
  // covers the page they dirty). Live statements, ReplayRecord and
  // Checkpoint() all change the catalog through them.
  Status ApplyCreateTable(const std::string& name, Schema schema);
  Status ApplyCreateIndex(const std::string& index_name,
                          const std::string& table, const std::string& column);
  Status ApplyDropTable(const std::string& table);
  Status ApplyInsertRow(TableInfo* table, const Row& row);
  Status ApplyDeleteRow(TableInfo* table, RowId rid, const Row& row);
  Status ApplyUpdateRow(TableInfo* table, RowId rid, const Row& old_row,
                        const Row& new_row);

  /// Checks every row against `table`'s schema, then inserts them as one
  /// buffered or autocommit op: a bad row fails its own call and nothing
  /// of the call is applied.
  Result<int64_t> InsertRows(const std::string& table, std::vector<Row> rows);
  Result<int64_t> ApplyUpdate(const UpdateStmt& stmt);
  Result<int64_t> ApplyDelete(const DeleteStmt& stmt);

  bool logging() const { return wal_ != nullptr && !replaying_; }
  Status ReplayRecord(std::string_view payload);
  Status Recover(const std::vector<std::string>& records);

  std::unique_ptr<BufferPool> pool_;  // Before catalog_: tables point at it.
  Catalog catalog_;
  std::unique_ptr<WalWriter> wal_;
  std::string wal_path_;
  bool in_txn_ = false;
  bool replaying_ = false;
  std::vector<Op> pending_;
};

}  // namespace dflow::db

#endif  // DFLOW_DB_DATABASE_H_
