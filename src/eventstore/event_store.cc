#include "eventstore/event_store.h"

#include <algorithm>
#include <map>
#include <set>
#include <string_view>

#include "util/byte_buffer.h"
#include "util/logging.h"

namespace dflow::eventstore {

namespace {

db::Schema FilesSchema() {
  return db::Schema({
      {"run", db::Type::kInt64, false},
      {"data_type", db::Type::kString, false},
      {"version", db::Type::kString, false},
      {"registered_at", db::Type::kInt64, false},
      {"bytes", db::Type::kInt64, false},
      {"location", db::Type::kString, true},
      {"prov", db::Type::kString, true},
  });
}

db::Schema GradesSchema() {
  return db::Schema({
      {"grade", db::Type::kString, false},
      {"ts", db::Type::kInt64, false},
      {"run_first", db::Type::kInt64, false},
      {"run_last", db::Type::kInt64, false},
      {"data_type", db::Type::kString, false},
      {"version", db::Type::kString, false},
  });
}

}  // namespace

std::string_view StoreScaleToString(StoreScale scale) {
  switch (scale) {
    case StoreScale::kPersonal:
      return "personal";
    case StoreScale::kGroup:
      return "group";
    case StoreScale::kCollaboration:
      return "collaboration";
  }
  return "?";
}

EventStore::EventStore(StoreScale scale, std::unique_ptr<db::Database> db)
    : scale_(scale), db_(std::move(db)) {}

Result<std::unique_ptr<EventStore>> EventStore::Create(
    StoreScale scale, const std::string& wal_path) {
  std::unique_ptr<db::Database> db;
  if (wal_path.empty()) {
    db = std::make_unique<db::Database>();
  } else {
    if (scale == StoreScale::kPersonal) {
      return Status::InvalidArgument(
          "personal stores are self-contained and in-memory");
    }
    DFLOW_ASSIGN_OR_RETURN(db, db::Database::Open(wal_path));
  }
  auto store =
      std::unique_ptr<EventStore>(new EventStore(scale, std::move(db)));
  DFLOW_RETURN_IF_ERROR(store->InitSchema());
  return store;
}

Status EventStore::InitSchema() {
  if (db_->catalog().Find("files") != nullptr) {
    return Status::OK();  // Recovered from WAL.
  }
  DFLOW_RETURN_IF_ERROR(db_->CreateTable("files", FilesSchema()));
  DFLOW_RETURN_IF_ERROR(db_->CreateTable("grades", GradesSchema()));
  DFLOW_RETURN_IF_ERROR(db_->CreateIndex("files_by_run", "files", "run"));
  DFLOW_RETURN_IF_ERROR(
      db_->CreateIndex("grades_by_grade", "grades", "grade"));
  return Status::OK();
}

Status EventStore::RegisterFile(const FileEntry& entry) {
  auto existing = GetFile(entry.run, entry.data_type, entry.version);
  if (existing.ok()) {
    return Status::AlreadyExists(
        "file (run=" + std::to_string(entry.run) + ", " + entry.data_type +
        ", " + entry.version + ") already registered");
  }
  ByteWriter prov_writer;
  entry.provenance.EncodeTo(prov_writer);
  return db_->Insert(
      "files",
      db::Row{db::Value::Int(entry.run), db::Value::String(entry.data_type),
              db::Value::String(entry.version),
              db::Value::Int(entry.registered_at), db::Value::Int(entry.bytes),
              db::Value::String(entry.location),
              db::Value::String(prov_writer.Take())});
}

Result<FileEntry> EventStore::RowToFile(const db::Row& row) {
  FileEntry entry;
  entry.run = row[0].AsInt();
  entry.data_type = row[1].AsString();
  entry.version = row[2].AsString();
  entry.registered_at = row[3].AsInt();
  entry.bytes = row[4].AsInt();
  entry.location = row[5].is_null() ? "" : row[5].AsString();
  if (!row[6].is_null() && !row[6].AsString().empty()) {
    ByteReader reader(row[6].AsString());
    DFLOW_ASSIGN_OR_RETURN(entry.provenance,
                           prov::ProvenanceRecord::DecodeFrom(reader));
  }
  return entry;
}

Result<std::vector<FileEntry>> EventStore::AllFiles() const {
  auto table = db_->catalog().Get("files");
  DFLOW_RETURN_IF_ERROR(table.status());
  std::vector<FileEntry> out;
  out.reserve(static_cast<size_t>((*table)->heap->num_rows()));
  Status scan = Status::OK();
  DFLOW_RETURN_IF_ERROR(
      (*table)->heap->ForEach([&](db::RowId, const db::Row& row) {
        auto entry = RowToFile(row);
        if (!entry.ok()) {
          scan = entry.status();
          return false;
        }
        out.push_back(*std::move(entry));
        return true;
      }));
  DFLOW_RETURN_IF_ERROR(scan);
  return out;
}

Result<FileEntry> EventStore::GetFile(int64_t run,
                                      const std::string& data_type,
                                      const std::string& version) const {
  auto table = db_->catalog().Get("files");
  DFLOW_RETURN_IF_ERROR(table.status());
  // Narrow by the run index, then match the remaining key fields.
  const db::IndexInfo* index = (*table)->FindIndexOnColumn("run");
  DFLOW_CHECK(index != nullptr);
  for (db::RowId rid : index->tree->Find(db::Value::Int(run))) {
    DFLOW_ASSIGN_OR_RETURN(db::Row row, (*table)->heap->Get(rid));
    if (row[1].AsString() == data_type && row[2].AsString() == version) {
      return RowToFile(row);
    }
  }
  return Status::NotFound("no file (run=" + std::to_string(run) + ", " +
                          data_type + ", " + version + ")");
}

std::vector<std::string> EventStore::Versions(
    int64_t run, const std::string& data_type) const {
  std::vector<std::pair<int64_t, std::string>> found;
  auto table = db_->catalog().Get("files");
  if (!table.ok()) {
    return {};
  }
  const db::IndexInfo* index = (*table)->FindIndexOnColumn("run");
  for (db::RowId rid : index->tree->Find(db::Value::Int(run))) {
    auto row = (*table)->heap->Get(rid);
    if (row.ok() && (*row)[1].AsString() == data_type) {
      found.emplace_back((*row)[3].AsInt(), (*row)[2].AsString());
    }
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> versions;
  versions.reserve(found.size());
  for (auto& [ts, version] : found) {
    versions.push_back(std::move(version));
  }
  return versions;
}

Status EventStore::AssignGrade(const std::string& grade, int64_t timestamp,
                               RunRange range, const std::string& data_type,
                               const std::string& version) {
  if (range.last < range.first) {
    return Status::InvalidArgument("empty run range");
  }
  return db_->Insert(
      "grades",
      db::Row{db::Value::String(grade), db::Value::Int(timestamp),
              db::Value::Int(range.first), db::Value::Int(range.last),
              db::Value::String(data_type), db::Value::String(version)});
}

Result<std::vector<EventStore::GradeRow>> EventStore::GradeRows(
    const std::string& grade) const {
  auto table = db_->catalog().Get("grades");
  DFLOW_RETURN_IF_ERROR(table.status());
  std::vector<GradeRow> out;
  const db::IndexInfo* index = (*table)->FindIndexOnColumn("grade");
  DFLOW_CHECK(index != nullptr);
  for (db::RowId rid : index->tree->Find(db::Value::String(grade))) {
    DFLOW_ASSIGN_OR_RETURN(db::Row row, (*table)->heap->Get(rid));
    GradeRow grade_row;
    grade_row.ts = row[1].AsInt();
    grade_row.range = RunRange{row[2].AsInt(), row[3].AsInt()};
    grade_row.data_type = row[4].AsString();
    grade_row.version = row[5].AsString();
    out.push_back(std::move(grade_row));
  }
  return out;
}

Result<std::vector<EventStore::GradeAssignment>> EventStore::GradeHistory(
    const std::string& grade) const {
  DFLOW_ASSIGN_OR_RETURN(std::vector<GradeRow> rows, GradeRows(grade));
  std::vector<GradeAssignment> history;
  history.reserve(rows.size());
  for (GradeRow& row : rows) {
    history.push_back(GradeAssignment{row.ts, row.range,
                                      std::move(row.data_type),
                                      std::move(row.version)});
  }
  std::sort(history.begin(), history.end(),
            [](const GradeAssignment& a, const GradeAssignment& b) {
              return a.timestamp < b.timestamp;
            });
  return history;
}

std::vector<std::string> EventStore::GradeNames() const {
  std::set<std::string> names;
  auto table = db_->catalog().Get("grades");
  if (!table.ok()) {
    return {};
  }
  Status s = (*table)->heap->ForEach([&](db::RowId, const db::Row& row) {
    names.insert(row[0].AsString());
    return true;
  });
  (void)s;
  return std::vector<std::string>(names.begin(), names.end());
}

Result<std::vector<FileEntry>> EventStore::Resolve(const std::string& grade,
                                                   int64_t analysis_ts) const {
  DFLOW_ASSIGN_OR_RETURN(std::vector<GradeRow> rows, GradeRows(grade));
  // Decodes every file and verifies its provenance hash, whether or not
  // the snapshot selects it.
  DFLOW_ASSIGN_OR_RETURN(std::vector<FileEntry> files, AllFiles());

  // The data types the grade covers at all: the first-time-data exception
  // admits *new* data of a kind the grade already organizes, not unrelated
  // data types, and no row can cover any other type.
  std::set<std::string_view> grade_data_types;
  for (const GradeRow& row : rows) {
    grade_data_types.insert(row.data_type);
  }
  // The snapshots at or before analysis_ts, newest first; equal timestamps
  // keep index order, so the first row covering a file is the most recent
  // snapshot covering it, the earliest-listed on a tie.
  std::vector<const GradeRow*> snapshots;
  for (const GradeRow& row : rows) {
    if (row.ts <= analysis_ts) {
      snapshots.push_back(&row);
    }
  }
  std::stable_sort(snapshots.begin(), snapshots.end(),
                   [](const GradeRow* a, const GradeRow* b) {
                     return a->ts > b->ts;
                   });
  // Versions per (run, data_type), for the first-time-data rule.
  std::map<std::pair<int64_t, std::string_view>, int> version_counts;
  for (const FileEntry& file : files) {
    ++version_counts[{file.run, file.data_type}];
  }

  std::vector<size_t> chosen;
  for (size_t i = 0; i < files.size(); ++i) {
    const FileEntry& file = files[i];
    if (grade_data_types.count(file.data_type) == 0) {
      continue;
    }
    auto covering = std::find_if(
        snapshots.begin(), snapshots.end(), [&file](const GradeRow* row) {
          return row->data_type == file.data_type &&
                 row->range.Contains(file.run);
        });
    if (covering != snapshots.end()) {
      if ((*covering)->version == file.version) {
        chosen.push_back(i);
      }
      continue;
    }
    // First-time-data exception: exactly one version ever registered.
    if (version_counts[{file.run, file.data_type}] == 1) {
      chosen.push_back(i);
    }
  }
  std::sort(chosen.begin(), chosen.end(), [&files](size_t a, size_t b) {
    if (files[a].run != files[b].run) {
      return files[a].run < files[b].run;
    }
    return files[a].data_type < files[b].data_type;
  });
  std::vector<FileEntry> out;
  out.reserve(chosen.size());
  for (size_t i : chosen) {
    out.push_back(std::move(files[i]));
  }
  return out;
}

Status EventStore::Merge(const EventStore& other) {
  DFLOW_ASSIGN_OR_RETURN(std::vector<FileEntry> incoming, other.AllFiles());
  // Gather grade rows of every grade in `other`.
  auto grades_table = other.db_->catalog().Get("grades");
  DFLOW_RETURN_IF_ERROR(grades_table.status());
  std::vector<db::Row> incoming_grades;
  DFLOW_RETURN_IF_ERROR(
      (*grades_table)->heap->ForEach([&](db::RowId, const db::Row& row) {
        incoming_grades.push_back(row);
        return true;
      }));

  // Snapshot existing grade rows for duplicate suppression.
  auto own_grades = db_->catalog().Get("grades");
  DFLOW_RETURN_IF_ERROR(own_grades.status());
  std::vector<db::Row> existing_grades;
  DFLOW_RETURN_IF_ERROR(
      (*own_grades)->heap->ForEach([&](db::RowId, const db::Row& row) {
        existing_grades.push_back(row);
        return true;
      }));
  auto same_row = [](const db::Row& a, const db::Row& b) {
    if (a.size() != b.size()) {
      return false;
    }
    for (size_t i = 0; i < a.size(); ++i) {
      if (!(a[i] == b[i])) {
        return false;
      }
    }
    return true;
  };

  // One short transaction for the whole merge — the paper's integrity
  // stratagem for the centrally managed stores.
  DFLOW_RETURN_IF_ERROR(db_->Begin());
  Status status = Status::OK();
  for (const FileEntry& entry : incoming) {
    if (GetFile(entry.run, entry.data_type, entry.version).ok()) {
      continue;  // Already present.
    }
    ByteWriter prov_writer;
    entry.provenance.EncodeTo(prov_writer);
    status = db_->Insert(
        "files",
        db::Row{db::Value::Int(entry.run), db::Value::String(entry.data_type),
                db::Value::String(entry.version),
                db::Value::Int(entry.registered_at),
                db::Value::Int(entry.bytes), db::Value::String(entry.location),
                db::Value::String(prov_writer.Take())});
    if (!status.ok()) {
      break;
    }
  }
  if (status.ok()) {
    for (const db::Row& row : incoming_grades) {
      bool duplicate = false;
      for (const db::Row& existing : existing_grades) {
        if (same_row(row, existing)) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) {
        continue;
      }
      status = db_->Insert("grades", row);
      if (!status.ok()) {
        break;
      }
    }
  }
  if (!status.ok()) {
    DFLOW_RETURN_IF_ERROR(db_->Rollback());
    return status;
  }
  return db_->Commit();
}

int64_t EventStore::NumFiles() const {
  auto table = db_->catalog().Get("files");
  return table.ok() ? (*table)->heap->num_rows() : 0;
}

int64_t EventStore::TotalBytes() const {
  auto table = db_->catalog().Get("files");
  if (!table.ok()) {
    return 0;
  }
  int64_t total = 0;
  Status s = (*table)->heap->ForEach([&](db::RowId, const db::Row& row) {
    total += row[4].AsInt();
    return true;
  });
  (void)s;
  return total;
}

}  // namespace dflow::eventstore
