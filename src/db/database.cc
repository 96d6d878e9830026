#include "db/database.h"

#include <cstdio>
#include <utility>

#include "util/byte_buffer.h"

namespace dflow::db {

namespace {

// Varint-coded: most tables are small, so page/slot are usually one byte
// each instead of a fixed six.
void EncodeRowId(ByteWriter& w, RowId rid) {
  w.PutVarint(rid.page);
  w.PutVarint(rid.slot);
}

Result<RowId> DecodeRowId(ByteReader& r) {
  DFLOW_ASSIGN_OR_RETURN(uint64_t page, r.GetVarint());
  DFLOW_ASSIGN_OR_RETURN(uint64_t slot, r.GetVarint());
  if (page > 0xffffffffu || slot > 0xffffu) {
    return Status::Corruption("row id out of range");
  }
  return RowId{static_cast<uint32_t>(page), static_cast<uint16_t>(slot)};
}

// The one encoder of each WalOp kind; Database::ReplayRecord is the one
// decoder. Every record leads with its op and a name.
ByteWriter Record(WalOp op, const std::string& name) {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(op));
  w.PutString(name);
  return w;
}

std::string CreateTableRecord(const std::string& table, const Schema& schema) {
  ByteWriter w = Record(WalOp::kCreateTable, table);
  schema.EncodeTo(w);
  return w.Take();
}

std::string CreateIndexRecord(const std::string& index_name,
                              const std::string& table,
                              const std::string& column) {
  ByteWriter w = Record(WalOp::kCreateIndex, index_name);
  w.PutString(table);
  w.PutString(column);
  return w.Take();
}

std::string DropTableRecord(const std::string& table) {
  return Record(WalOp::kDropTable, table).Take();
}

std::string InsertRecord(const std::string& table, const Row& row) {
  ByteWriter w = Record(WalOp::kInsert, table);
  EncodeRow(row, w);
  return w.Take();
}

std::string DeleteRecord(const std::string& table, RowId rid) {
  ByteWriter w = Record(WalOp::kDelete, table);
  EncodeRowId(w, rid);
  return w.Take();
}

std::string UpdateRecord(const std::string& table, RowId rid, const Row& row) {
  ByteWriter w = Record(WalOp::kUpdate, table);
  EncodeRowId(w, rid);
  EncodeRow(row, w);
  return w.Take();
}

void IndexInsert(TableInfo* table, const Row& row, RowId rid) {
  for (const auto& index : table->indexes) {
    index->tree->Insert(row[index->column_index], rid);
  }
}

void IndexRemove(TableInfo* table, const Row& row, RowId rid) {
  for (const auto& index : table->indexes) {
    index->tree->Remove(row[index->column_index], rid);
  }
}

// An INSERT's VALUES evaluated into full rows, which InsertRows checks.
Result<std::vector<Row>> EvaluateInsert(const Catalog& catalog,
                                        const InsertStmt& stmt) {
  DFLOW_ASSIGN_OR_RETURN(TableInfo * table, catalog.Get(stmt.table));
  const Schema& schema = table->heap->schema();

  // Schema position of each value: the INSERT's column list, else in order.
  std::vector<size_t> positions;
  for (const std::string& col : stmt.columns) {
    DFLOW_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(col));
    positions.push_back(idx);
  }
  for (size_t i = 0; stmt.columns.empty() && i < schema.NumColumns(); ++i) {
    positions.push_back(i);
  }

  std::vector<Row> rows;
  static const Row kEmptyRow;
  for (const std::vector<ExprPtr>& exprs : stmt.rows) {
    if (exprs.size() != positions.size()) {
      return Status::InvalidArgument("INSERT arity mismatch");
    }
    Row row(schema.NumColumns(), Value::Null());
    for (size_t i = 0; i < exprs.size(); ++i) {
      DFLOW_ASSIGN_OR_RETURN(row[positions[i]], exprs[i]->Eval(kEmptyRow));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace

Database::Database(DatabaseOptions options, std::unique_ptr<PageStore> store)
    : pool_(std::make_unique<BufferPool>(BufferPoolOptions{options.pool_frames},
                                         std::move(store))),
      catalog_(pool_.get()) {
  // LSN plumbing reads through wal_ at call time: wal_ is null for volatile
  // databases (pages stay LSN 0, no barrier) and is swapped by Checkpoint.
  pool_->SetWal(
      [this] { return wal_ != nullptr ? wal_->last_lsn() : 0; },
      [this] { return wal_ != nullptr ? wal_->durable_lsn() : 0; },
      [this](uint64_t lsn) {
        return wal_ != nullptr ? wal_->EnsureDurable(lsn) : Status::OK();
      });
}

Database::Database() : Database(DatabaseOptions{}) {}

Database::Database(DatabaseOptions options)
    : Database(options, std::make_unique<MemPageStore>()) {}

Result<std::unique_ptr<Database>> Database::Open(const std::string& path,
                                                 DatabaseOptions options) {
  DFLOW_ASSIGN_OR_RETURN(auto store, FilePageStore::Create(path + ".pages"));
  auto db =
      std::unique_ptr<Database>(new Database(options, std::move(store)));
  // One scan of the log both cuts a torn tail off and yields the records.
  std::vector<std::string> records;
  DFLOW_ASSIGN_OR_RETURN(auto wal, WalWriter::Open(path, &records));
  DFLOW_RETURN_IF_ERROR(db->Recover(records));
  db->wal_ = std::move(wal);
  db->wal_path_ = path;
  // Seed LSNs past the replayed records so page stamps stay monotone with
  // the log (replayed pages carry LSN 0: their records are already
  // durable, no barrier needed).
  db->wal_->set_last_lsn(records.size());
  return db;
}

Status Database::Recover(const std::vector<std::string>& records) {
  replaying_ = true;
  Status status = Status::OK();
  // Only a transaction's records count, once its kCommit is read: one cut
  // off before its kCommit (a torn tail, a failed statement) never applies.
  bool in_txn = false;
  std::vector<const std::string*> txn;
  for (auto it = records.begin(); it != records.end() && status.ok(); ++it) {
    if (it->empty()) {
      continue;
    }
    switch (static_cast<WalOp>(static_cast<uint8_t>((*it)[0]))) {
      case WalOp::kBegin:
        in_txn = true;
        txn.clear();
        break;
      case WalOp::kCommit:
        for (size_t i = 0; i < txn.size() && status.ok(); ++i) {
          status = ReplayRecord(*txn[i]);
        }
        in_txn = false;
        txn.clear();
        break;
      default:
        if (in_txn) {
          txn.push_back(&*it);
        }
    }
  }
  replaying_ = false;
  return status;
}

Status Database::ReplayRecord(std::string_view payload) {
  ByteReader r(payload);
  DFLOW_ASSIGN_OR_RETURN(uint8_t op_byte, r.GetU8());
  // Every record leads with a name: its table's, or for kCreateIndex the
  // index's. Decoded rows are checked against the table like live ones.
  DFLOW_ASSIGN_OR_RETURN(std::string name, r.GetString());
  switch (static_cast<WalOp>(op_byte)) {
    case WalOp::kCreateTable: {
      DFLOW_ASSIGN_OR_RETURN(Schema schema, Schema::DecodeFrom(r));
      return ApplyCreateTable(name, std::move(schema));
    }
    case WalOp::kCreateIndex: {
      DFLOW_ASSIGN_OR_RETURN(std::string table, r.GetString());
      DFLOW_ASSIGN_OR_RETURN(std::string column, r.GetString());
      return ApplyCreateIndex(name, table, column);
    }
    case WalOp::kDropTable:
      return ApplyDropTable(name);
    case WalOp::kInsert: {
      DFLOW_ASSIGN_OR_RETURN(TableInfo * table, catalog_.Get(name));
      DFLOW_ASSIGN_OR_RETURN(Row row, DecodeRow(r));
      DFLOW_ASSIGN_OR_RETURN(row,
                             table->heap->schema().ValidateRow(std::move(row)));
      return ApplyInsertRow(table, row);
    }
    case WalOp::kDelete: {
      DFLOW_ASSIGN_OR_RETURN(TableInfo * table, catalog_.Get(name));
      DFLOW_ASSIGN_OR_RETURN(RowId rid, DecodeRowId(r));
      DFLOW_ASSIGN_OR_RETURN(Row row, table->heap->Get(rid));
      return ApplyDeleteRow(table, rid, row);
    }
    case WalOp::kUpdate: {
      DFLOW_ASSIGN_OR_RETURN(TableInfo * table, catalog_.Get(name));
      DFLOW_ASSIGN_OR_RETURN(RowId rid, DecodeRowId(r));
      DFLOW_ASSIGN_OR_RETURN(Row new_row, DecodeRow(r));
      DFLOW_ASSIGN_OR_RETURN(
          new_row, table->heap->schema().ValidateRow(std::move(new_row)));
      DFLOW_ASSIGN_OR_RETURN(Row old_row, table->heap->Get(rid));
      return ApplyUpdateRow(table, rid, old_row, new_row);
    }
    default:
      return Status::Corruption("unknown WAL op");
  }
}

Status Database::Frame(WalWriter* log, const std::function<Status()>& body) {
  if (log == nullptr) {
    return body();
  }
  const char begin = static_cast<char>(WalOp::kBegin);
  const char commit = static_cast<char>(WalOp::kCommit);
  DFLOW_RETURN_IF_ERROR(log->Append(std::string_view(&begin, 1)));
  DFLOW_RETURN_IF_ERROR(body());
  DFLOW_RETURN_IF_ERROR(log->Append(std::string_view(&commit, 1)));
  return log->Sync();
}

Result<QueryResult> Database::Execute(std::string_view sql) {
  DFLOW_ASSIGN_OR_RETURN(Statement stmt, ParseSql(sql));
  return Dispatch(std::move(stmt));
}

Result<QueryResult> Database::Dispatch(Statement stmt) {
  QueryResult result;
  if (auto* select = std::get_if<SelectStmt>(&stmt)) {
    return ExecuteSelect(catalog_, *select);
  }
  if (std::get_if<BeginStmt>(&stmt) != nullptr) {
    DFLOW_RETURN_IF_ERROR(Begin());
    return result;
  }
  if (std::get_if<CommitStmt>(&stmt) != nullptr) {
    DFLOW_RETURN_IF_ERROR(Commit());
    return result;
  }
  if (std::get_if<RollbackStmt>(&stmt) != nullptr) {
    DFLOW_RETURN_IF_ERROR(Rollback());
    return result;
  }
  // DDL is not transactional: applied (and framed) immediately.
  if (auto* create = std::get_if<CreateTableStmt>(&stmt)) {
    DFLOW_RETURN_IF_ERROR(
        CreateTable(std::move(create->table), Schema(create->columns)));
    return result;
  }
  if (auto* index = std::get_if<CreateIndexStmt>(&stmt)) {
    DFLOW_RETURN_IF_ERROR(
        CreateIndex(std::move(index->index_name), index->table, index->column));
    return result;
  }
  if (auto* drop = std::get_if<DropTableStmt>(&stmt)) {
    if (!drop->if_exists || catalog_.Find(drop->table) != nullptr) {
      DFLOW_RETURN_IF_ERROR(Frame(
          wal_.get(), [&] { return ApplyDropTable(drop->table); }));
    }
    return result;
  }
  if (auto* insert = std::get_if<InsertStmt>(&stmt)) {
    DFLOW_ASSIGN_OR_RETURN(std::vector<Row> rows,
                           EvaluateInsert(catalog_, *insert));
    DFLOW_ASSIGN_OR_RETURN(result.affected,
                           InsertRows(insert->table, std::move(rows)));
    return result;
  }
  if (auto* update = std::get_if<UpdateStmt>(&stmt)) {
    DFLOW_ASSIGN_OR_RETURN(
        result.affected,
        RunOrBuffer([this, owned = std::move(*update)] {
          return ApplyUpdate(owned);
        }));
    return result;
  }
  if (auto* del = std::get_if<DeleteStmt>(&stmt)) {
    DFLOW_ASSIGN_OR_RETURN(
        result.affected,
        RunOrBuffer([this, owned = std::move(*del)] {
          return ApplyDelete(owned);
        }));
    return result;
  }
  return Status::Internal("unhandled statement kind");
}

Result<int64_t> Database::RunOrBuffer(Op op) {
  if (in_txn_) {
    pending_.push_back(std::move(op));
    return int64_t{0};  // Affected count is unknown until COMMIT.
  }
  Result<int64_t> affected = int64_t{0};
  DFLOW_RETURN_IF_ERROR(Frame(wal_.get(), [&] {
    affected = op();
    return affected.status();
  }));
  return affected;
}

Status Database::Begin() {
  if (in_txn_) {
    return Status::FailedPrecondition("transaction already open");
  }
  in_txn_ = true;
  pending_.clear();
  return Status::OK();
}

Status Database::Commit() {
  if (!in_txn_) {
    return Status::FailedPrecondition("no open transaction");
  }
  in_txn_ = false;
  std::vector<Op> ops = std::exchange(pending_, {});
  return Frame(wal_.get(), [&]() -> Status {
    for (Op& op : ops) {
      DFLOW_RETURN_IF_ERROR(op().status());
    }
    return Status::OK();
  });
}

Status Database::Rollback() {
  if (!in_txn_) {
    return Status::FailedPrecondition("no open transaction");
  }
  in_txn_ = false;
  pending_.clear();
  return Status::OK();
}

Status Database::Checkpoint() {
  if (in_txn_) {
    return Status::FailedPrecondition("cannot checkpoint in a transaction");
  }
  // The snapshot goes to a new log beside the old one; the old log and
  // catalog stay as they are until the snapshot is complete and renamed.
  std::unique_ptr<WalWriter> snapshot;
  const std::string snapshot_path = wal_path_ + ".ckpt";
  if (wal_ != nullptr) {
    std::remove(snapshot_path.c_str());
    DFLOW_ASSIGN_OR_RETURN(snapshot, WalWriter::Open(snapshot_path));
  }
  // Vacuum by replay: every snapshot record is written, then replayed into
  // an empty catalog, so the rebuilt rowids are by construction the rowids
  // recovery produces from the snapshot, and later physical WAL records
  // stay valid after recovery.
  Catalog live = std::exchange(catalog_, Catalog(pool_.get()));
  replaying_ = true;
  Status status = Frame(snapshot.get(), [&]() -> Status {
    auto replay = [&](const std::string& record) -> Status {
      if (snapshot != nullptr) {
        DFLOW_RETURN_IF_ERROR(snapshot->Append(record));
      }
      return ReplayRecord(record);
    };
    for (const std::string& name : live.TableNames()) {
      const TableInfo* table = live.Find(name);
      DFLOW_RETURN_IF_ERROR(
          replay(CreateTableRecord(table->name, table->heap->schema())));
      for (const auto& index : table->indexes) {
        DFLOW_RETURN_IF_ERROR(replay(
            CreateIndexRecord(index->name, table->name, index->column)));
      }
      Status copied = Status::OK();
      DFLOW_RETURN_IF_ERROR(table->heap->ForEach([&](RowId, const Row& row) {
        copied = replay(InsertRecord(table->name, row));
        return copied.ok();
      }));
      DFLOW_RETURN_IF_ERROR(copied);
    }
    return Status::OK();
  });
  replaying_ = false;
  if (status.ok() && snapshot != nullptr &&
      std::rename(snapshot_path.c_str(), wal_path_.c_str()) != 0) {
    status = Status::IOError("checkpoint rename failed");
  }
  if (!status.ok()) {
    catalog_ = std::move(live);
    return status;
  }
  if (snapshot != nullptr) {
    // Keep LSNs monotone across the swap: resident pages stamped under the
    // old log must never look "ahead" of the new one (their content is
    // fully covered by the just-synced snapshot).
    snapshot->set_last_lsn(wal_->last_lsn());
    wal_ = std::move(snapshot);
  }
  return Status::OK();
}

Status Database::CreateTable(std::string name, Schema schema) {
  return Frame(wal_.get(),
               [&] { return ApplyCreateTable(name, std::move(schema)); });
}

Status Database::CreateIndex(std::string index_name, const std::string& table,
                             const std::string& column) {
  return Frame(wal_.get(),
               [&] { return ApplyCreateIndex(index_name, table, column); });
}

Status Database::EnsureTable(std::string name, Schema schema) {
  return catalog_.Find(name) != nullptr
             ? Status::OK()
             : CreateTable(std::move(name), std::move(schema));
}

Status Database::EnsureIndex(std::string index_name, const std::string& table,
                             const std::string& column) {
  DFLOW_ASSIGN_OR_RETURN(const TableInfo* info, catalog_.Get(table));
  return info->FindIndexOnColumn(column) != nullptr
             ? Status::OK()
             : CreateIndex(std::move(index_name), table, column);
}

Status Database::Insert(const std::string& table, Row row) {
  std::vector<Row> rows;
  rows.push_back(std::move(row));
  return InsertRows(table, std::move(rows)).status();
}

Status Database::InsertMany(const std::string& table, std::vector<Row> rows) {
  return InsertRows(table, std::move(rows)).status();
}

Result<int64_t> Database::InsertRows(const std::string& table,
                                     std::vector<Row> rows) {
  DFLOW_ASSIGN_OR_RETURN(TableInfo * info, catalog_.Get(table));
  for (Row& row : rows) {
    DFLOW_ASSIGN_OR_RETURN(row,
                           info->heap->schema().ValidateRow(std::move(row)));
  }
  return RunOrBuffer(
      [this, table, rows = std::move(rows)]() -> Result<int64_t> {
        DFLOW_ASSIGN_OR_RETURN(TableInfo * info, catalog_.Get(table));
        for (const Row& row : rows) {
          DFLOW_RETURN_IF_ERROR(ApplyInsertRow(info, row));
        }
        return static_cast<int64_t>(rows.size());
      });
}

Result<int64_t> Database::ApplyUpdate(const UpdateStmt& stmt) {
  DFLOW_ASSIGN_OR_RETURN(TableInfo * table, catalog_.Get(stmt.table));
  const Schema& schema = table->heap->schema();
  std::vector<std::pair<size_t, ExprPtr>> assignments;
  for (const auto& [col, expr] : stmt.assignments) {
    DFLOW_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(col));
    DFLOW_RETURN_IF_ERROR(expr->Bind(schema));
    assignments.emplace_back(idx, expr);
  }
  DFLOW_ASSIGN_OR_RETURN(auto matches, CollectMatches(*table, stmt.where));
  // Every new row is computed and checked before the first one applies,
  // so a bad row fails the statement with no row of it updated.
  std::vector<Row> new_rows;
  new_rows.reserve(matches.size());
  for (const auto& [rid, row] : matches) {
    Row new_row = row;
    for (const auto& [idx, expr] : assignments) {
      DFLOW_ASSIGN_OR_RETURN(Value v, expr->Eval(row));
      new_row[idx] = std::move(v);
    }
    DFLOW_ASSIGN_OR_RETURN(new_row, schema.ValidateRow(std::move(new_row)));
    new_rows.push_back(std::move(new_row));
  }
  for (size_t i = 0; i < matches.size(); ++i) {
    DFLOW_RETURN_IF_ERROR(ApplyUpdateRow(table, matches[i].first,
                                         matches[i].second, new_rows[i]));
  }
  return static_cast<int64_t>(matches.size());
}

Result<int64_t> Database::ApplyDelete(const DeleteStmt& stmt) {
  DFLOW_ASSIGN_OR_RETURN(TableInfo * table, catalog_.Get(stmt.table));
  DFLOW_ASSIGN_OR_RETURN(auto matches, CollectMatches(*table, stmt.where));
  for (auto& [rid, row] : matches) {
    DFLOW_RETURN_IF_ERROR(ApplyDeleteRow(table, rid, row));
  }
  return static_cast<int64_t>(matches.size());
}

// DDL steps apply, then log (they touch no page, so no LSN orders them):
// a failed DDL statement logs no record of its own.
Status Database::ApplyCreateTable(const std::string& name, Schema schema) {
  DFLOW_RETURN_IF_ERROR(catalog_.AddTable(name, std::move(schema)));
  return logging() ? wal_->Append(CreateTableRecord(
                         name, catalog_.Find(name)->heap->schema()))
                   : Status::OK();
}

Status Database::ApplyCreateIndex(const std::string& index_name,
                                  const std::string& table_name,
                                  const std::string& column) {
  DFLOW_ASSIGN_OR_RETURN(TableInfo * table, catalog_.Get(table_name));
  for (const auto& index : table->indexes) {
    if (index->name == index_name) {
      return Status::AlreadyExists("index '" + index_name +
                                   "' already exists");
    }
  }
  DFLOW_ASSIGN_OR_RETURN(size_t column_index,
                         table->heap->schema().IndexOf(column));
  auto info = std::make_unique<IndexInfo>();
  info->name = index_name;
  info->column = column;
  info->column_index = column_index;
  info->tree = std::make_unique<BTreeIndex>();
  // Backfill from existing rows.
  DFLOW_RETURN_IF_ERROR(table->heap->ForEach([&](RowId rid, const Row& row) {
    info->tree->Insert(row[column_index], rid);
    return true;
  }));
  table->indexes.push_back(std::move(info));
  return logging() ? wal_->Append(
                         CreateIndexRecord(index_name, table_name, column))
                   : Status::OK();
}

Status Database::ApplyDropTable(const std::string& table) {
  DFLOW_RETURN_IF_ERROR(catalog_.DropTable(table));
  return logging() ? wal_->Append(DropTableRecord(table)) : Status::OK();
}

Status Database::ApplyInsertRow(TableInfo* table, const Row& row) {
  if (logging()) {
    DFLOW_RETURN_IF_ERROR(wal_->Append(InsertRecord(table->name, row)));
  }
  DFLOW_ASSIGN_OR_RETURN(RowId rid, table->heap->Insert(row));
  IndexInsert(table, row, rid);
  return Status::OK();
}

Status Database::ApplyDeleteRow(TableInfo* table, RowId rid, const Row& row) {
  if (logging()) {
    DFLOW_RETURN_IF_ERROR(wal_->Append(DeleteRecord(table->name, rid)));
  }
  IndexRemove(table, row, rid);
  return table->heap->Delete(rid);
}

Status Database::ApplyUpdateRow(TableInfo* table, RowId rid,
                                const Row& old_row, const Row& new_row) {
  if (logging()) {
    DFLOW_RETURN_IF_ERROR(
        wal_->Append(UpdateRecord(table->name, rid, new_row)));
  }
  IndexRemove(table, old_row, rid);
  DFLOW_ASSIGN_OR_RETURN(RowId new_rid, table->heap->Update(rid, new_row));
  IndexInsert(table, new_row, new_rid);
  return Status::OK();
}

}  // namespace dflow::db
