#include "eventstore/event_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>

#include "util/rng.h"

namespace dflow::eventstore {
namespace {

FileEntry MakeFile(int64_t run, const std::string& data_type,
                   const std::string& version, int64_t registered_at,
                   int64_t bytes = 1000) {
  FileEntry entry;
  entry.run = run;
  entry.data_type = data_type;
  entry.version = version;
  entry.registered_at = registered_at;
  entry.bytes = bytes;
  entry.location = "/hsm/" + data_type + "/" + std::to_string(run);
  return entry;
}

class EventStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto store = EventStore::Create(StoreScale::kCollaboration);
    ASSERT_TRUE(store.ok());
    store_ = *std::move(store);
  }

  std::unique_ptr<EventStore> store_;
};

TEST_F(EventStoreTest, RegisterAndGet) {
  ASSERT_TRUE(store_->RegisterFile(MakeFile(1, "recon", "R1", 100)).ok());
  EXPECT_TRUE(store_->RegisterFile(MakeFile(1, "recon", "R1", 100))
                  .IsAlreadyExists());
  auto file = store_->GetFile(1, "recon", "R1");
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file->bytes, 1000);
  EXPECT_TRUE(store_->GetFile(1, "recon", "R2").status().IsNotFound());
  EXPECT_EQ(store_->NumFiles(), 1);
  EXPECT_EQ(store_->TotalBytes(), 1000);
}

TEST_F(EventStoreTest, VersionsSortedByRegistration) {
  ASSERT_TRUE(store_->RegisterFile(MakeFile(5, "recon", "R2", 200)).ok());
  ASSERT_TRUE(store_->RegisterFile(MakeFile(5, "recon", "R1", 100)).ok());
  EXPECT_EQ(store_->Versions(5, "recon"),
            (std::vector<std::string>{"R1", "R2"}));
  EXPECT_TRUE(store_->Versions(5, "mc").empty());
}

TEST_F(EventStoreTest, SnapshotResolutionByTimestamp) {
  // Runs 1-10 reconstructed twice; grade moves to R2 at ts=500.
  for (int64_t run = 1; run <= 10; ++run) {
    ASSERT_TRUE(store_->RegisterFile(MakeFile(run, "recon", "R1", 100)).ok());
    ASSERT_TRUE(store_->RegisterFile(MakeFile(run, "recon", "R2", 450)).ok());
  }
  ASSERT_TRUE(
      store_->AssignGrade("physics", 200, {1, 10}, "recon", "R1").ok());
  ASSERT_TRUE(
      store_->AssignGrade("physics", 500, {1, 10}, "recon", "R2").ok());

  // Analysis started at ts=300 sees R1 -- and *still* sees R1 when
  // resolved again much later (reproducibility).
  auto early = store_->Resolve("physics", 300);
  ASSERT_TRUE(early.ok());
  ASSERT_EQ(early->size(), 10u);
  for (const FileEntry& file : *early) {
    EXPECT_EQ(file.version, "R1");
  }
  // Analysis started after the upgrade sees R2.
  auto late = store_->Resolve("physics", 600);
  ASSERT_TRUE(late.ok());
  for (const FileEntry& file : *late) {
    EXPECT_EQ(file.version, "R2");
  }
  // "the date specified is not limited to a set of magic values": any
  // timestamp between snapshots resolves to the most recent prior one.
  auto between = store_->Resolve("physics", 499);
  for (const FileEntry& file : *between) {
    EXPECT_EQ(file.version, "R1");
  }
}

TEST_F(EventStoreTest, AnalysisBeforeAnySnapshotSeesOnlyFirstTimeData) {
  ASSERT_TRUE(store_->RegisterFile(MakeFile(1, "recon", "R1", 100)).ok());
  ASSERT_TRUE(store_->AssignGrade("physics", 200, {1, 1}, "recon", "R1").ok());
  // Timestamp before the first snapshot: the grade mapping doesn't apply,
  // but run 1 recon has a single version ever -> first-time rule admits it.
  auto resolved = store_->Resolve("physics", 50);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved->size(), 1u);
}

TEST_F(EventStoreTest, FirstTimeDataAppearsWithoutTimestampChange) {
  // Analysis pinned at ts=300 with runs 1-5 on R1.
  for (int64_t run = 1; run <= 5; ++run) {
    ASSERT_TRUE(store_->RegisterFile(MakeFile(run, "recon", "R1", 100)).ok());
  }
  ASSERT_TRUE(store_->AssignGrade("physics", 200, {1, 5}, "recon", "R1").ok());
  auto before = store_->Resolve("physics", 300);
  EXPECT_EQ(before->size(), 5u);

  // New runs 6-7 taken and reconstructed for the first time at ts=900.
  ASSERT_TRUE(store_->RegisterFile(MakeFile(6, "recon", "R1", 900)).ok());
  ASSERT_TRUE(store_->RegisterFile(MakeFile(7, "recon", "R1", 900)).ok());
  // They appear in the old snapshot without changing the timestamp.
  auto after = store_->Resolve("physics", 300);
  EXPECT_EQ(after->size(), 7u);

  // But a *second* version of run 6 makes it ambiguous: the pinned
  // snapshot no longer includes run 6 until a grade assignment covers it.
  ASSERT_TRUE(store_->RegisterFile(MakeFile(6, "recon", "R2", 950)).ok());
  auto ambiguous = store_->Resolve("physics", 300);
  EXPECT_EQ(ambiguous->size(), 6u);
}

TEST_F(EventStoreTest, GradesAreIndependent) {
  ASSERT_TRUE(store_->RegisterFile(MakeFile(1, "recon", "R1", 100)).ok());
  ASSERT_TRUE(store_->RegisterFile(MakeFile(1, "recon", "R2", 150)).ok());
  ASSERT_TRUE(store_->AssignGrade("physics", 200, {1, 1}, "recon", "R1").ok());
  ASSERT_TRUE(
      store_->AssignGrade("preliminary", 200, {1, 1}, "recon", "R2").ok());
  EXPECT_EQ((*store_->Resolve("physics", 300))[0].version, "R1");
  EXPECT_EQ((*store_->Resolve("preliminary", 300))[0].version, "R2");
}

TEST_F(EventStoreTest, RunRangesScopeAssignments) {
  for (int64_t run = 1; run <= 10; ++run) {
    ASSERT_TRUE(store_->RegisterFile(MakeFile(run, "recon", "R1", 100)).ok());
    ASSERT_TRUE(store_->RegisterFile(MakeFile(run, "recon", "R2", 150)).ok());
  }
  // Only runs 1-5 upgraded to R2.
  ASSERT_TRUE(store_->AssignGrade("physics", 200, {1, 10}, "recon", "R1").ok());
  ASSERT_TRUE(store_->AssignGrade("physics", 300, {1, 5}, "recon", "R2").ok());
  auto resolved = store_->Resolve("physics", 400);
  ASSERT_EQ(resolved->size(), 10u);
  for (const FileEntry& file : *resolved) {
    EXPECT_EQ(file.version, file.run <= 5 ? "R2" : "R1") << file.run;
  }
}

TEST_F(EventStoreTest, GradeHistoryRecordsEvolution) {
  ASSERT_TRUE(store_->RegisterFile(MakeFile(1, "recon", "R1", 100)).ok());
  ASSERT_TRUE(store_->AssignGrade("physics", 300, {1, 5}, "recon", "R2").ok());
  ASSERT_TRUE(store_->AssignGrade("physics", 100, {1, 9}, "recon", "R1").ok());
  ASSERT_TRUE(store_->AssignGrade("prelim", 200, {1, 9}, "recon", "R1").ok());

  auto history = store_->GradeHistory("physics");
  ASSERT_TRUE(history.ok());
  ASSERT_EQ(history->size(), 2u);
  // Ascending by timestamp.
  EXPECT_EQ((*history)[0].timestamp, 100);
  EXPECT_EQ((*history)[0].version, "R1");
  EXPECT_EQ((*history)[0].range.last, 9);
  EXPECT_EQ((*history)[1].timestamp, 300);
  EXPECT_EQ((*history)[1].version, "R2");

  EXPECT_TRUE(store_->GradeHistory("ghost")->empty());
  EXPECT_EQ(store_->GradeNames(),
            (std::vector<std::string>{"physics", "prelim"}));
}

TEST_F(EventStoreTest, InvalidRangeRejected) {
  EXPECT_TRUE(store_->AssignGrade("physics", 100, {5, 2}, "recon", "R1")
                  .IsInvalidArgument());
}

TEST_F(EventStoreTest, MergePersonalIntoCollaboration) {
  // The paper's workflow: an offsite job fills a personal store, ships
  // it, and the collaboration store merges it in one transaction.
  auto personal_or = EventStore::Create(StoreScale::kPersonal);
  ASSERT_TRUE(personal_or.ok());
  EventStore& personal = **personal_or;
  EXPECT_EQ(personal.CommandPrefix(), "personal");
  EXPECT_EQ(store_->CommandPrefix(), "collaboration");

  prov::ProcessingStep step;
  step.module = "mc_generation";
  step.version = prov::VersionTag{"MC", "Gen_05A", 1100000000};
  for (int64_t run = 100; run < 110; ++run) {
    FileEntry entry = MakeFile(run, "mc", "MC_Gen_05A", 1000, 5000);
    entry.provenance.AddStep(step);
    ASSERT_TRUE(personal.RegisterFile(entry).ok());
  }
  ASSERT_TRUE(
      personal.AssignGrade("mc_prod", 1100, {100, 109}, "mc", "MC_Gen_05A")
          .ok());

  // Pre-existing collaboration content is untouched by the merge.
  ASSERT_TRUE(store_->RegisterFile(MakeFile(1, "recon", "R1", 100)).ok());
  ASSERT_TRUE(store_->Merge(personal).ok());
  EXPECT_EQ(store_->NumFiles(), 11);
  auto merged = store_->GetFile(105, "mc", "MC_Gen_05A");
  ASSERT_TRUE(merged.ok());
  // Provenance travelled with the file.
  ASSERT_EQ(merged->provenance.steps().size(), 1u);
  EXPECT_EQ(merged->provenance.steps()[0].module, "mc_generation");
  // Grade assignments merged too.
  auto resolved = store_->Resolve("mc_prod", 1200);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved->size(), 10u);

  // Merging again is idempotent.
  ASSERT_TRUE(store_->Merge(personal).ok());
  EXPECT_EQ(store_->NumFiles(), 11);
}

// A file Resolve does not return still has its provenance hash verified:
// a tampered record fails the whole resolution.
TEST_F(EventStoreTest, ResolveVerifiesProvenanceOfUnselectedFiles) {
  prov::ProcessingStep step;
  step.module = "recon";
  step.version = prov::VersionTag{"Recon", "Feb13_04_P2", 1076630400};
  for (int64_t run = 1; run <= 3; ++run) {
    for (const char* version : {"R1", "R2"}) {
      FileEntry entry = MakeFile(run, "recon", version, 100);
      entry.provenance.AddStep(step);
      ASSERT_TRUE(store_->RegisterFile(entry).ok());
    }
  }
  ASSERT_TRUE(store_->AssignGrade("physics", 200, {1, 3}, "recon", "R1").ok());
  ASSERT_TRUE(store_->AssignGrade("physics", 500, {1, 3}, "recon", "R2").ok());
  auto clean = store_->Resolve("physics", 600);
  ASSERT_TRUE(clean.ok());
  ASSERT_EQ(clean->size(), 3u);
  for (const FileEntry& file : *clean) {
    EXPECT_EQ(file.version, "R2");
  }

  // Rewrite run 2's superseded R1 row with one hex digit of its stored
  // summary hash changed.
  FileEntry tampered = MakeFile(2, "recon", "R1", 100);
  tampered.provenance.AddStep(step);
  ByteWriter w;
  tampered.provenance.EncodeTo(w);
  std::string prov = w.Take();
  prov.back() = prov.back() == '0' ? '1' : '0';
  db::Database& db = store_->database();
  ASSERT_TRUE(
      db.Execute("DELETE FROM files WHERE run = 2 AND version = 'R1'").ok());
  ASSERT_TRUE(db.Insert("files", db::Row{db::Value::Int(2),
                                         db::Value::String("recon"),
                                         db::Value::String("R1"),
                                         db::Value::Int(100),
                                         db::Value::Int(1000),
                                         db::Value::String("/hsm/recon/2"),
                                         db::Value::String(prov)})
                  .ok());
  EXPECT_TRUE(store_->Resolve("physics", 600).status().IsCorruption());
}

// EventStore::Resolve before the newest-first rewrite, kept as the
// reference: for every file, a scan of all grade rows for the newest one
// covering it. It reads its inputs as the store does: the grade's rows in
// `grades_by_grade` order and every file in heap order.
Result<std::vector<FileEntry>> ReferenceResolve(const EventStore& store,
                                                const std::string& grade,
                                                int64_t analysis_ts) {
  struct GradeRow {
    int64_t ts;
    RunRange range;
    std::string data_type;
    std::string version;
  };
  const db::Catalog& catalog = store.database().catalog();
  DFLOW_ASSIGN_OR_RETURN(db::TableInfo * grades, catalog.Get("grades"));
  std::vector<GradeRow> rows;
  for (db::RowId rid : grades->FindIndexOnColumn("grade")->tree->Find(
           db::Value::String(grade))) {
    DFLOW_ASSIGN_OR_RETURN(db::Row row, grades->heap->Get(rid));
    rows.push_back(GradeRow{row[1].AsInt(),
                            RunRange{row[2].AsInt(), row[3].AsInt()},
                            row[4].AsString(), row[5].AsString()});
  }
  DFLOW_ASSIGN_OR_RETURN(db::TableInfo * files_table, catalog.Get("files"));
  std::vector<FileEntry> files;
  Status decode = Status::OK();
  DFLOW_RETURN_IF_ERROR(
      files_table->heap->ForEach([&](db::RowId, const db::Row& row) {
        FileEntry entry;
        entry.run = row[0].AsInt();
        entry.data_type = row[1].AsString();
        entry.version = row[2].AsString();
        entry.registered_at = row[3].AsInt();
        entry.bytes = row[4].AsInt();
        entry.location = row[5].is_null() ? "" : row[5].AsString();
        if (!row[6].is_null() && !row[6].AsString().empty()) {
          ByteReader reader(row[6].AsString());
          auto provenance = prov::ProvenanceRecord::DecodeFrom(reader);
          if (!provenance.ok()) {
            decode = provenance.status();
            return false;
          }
          entry.provenance = *std::move(provenance);
        }
        files.push_back(std::move(entry));
        return true;
      }));
  DFLOW_RETURN_IF_ERROR(decode);

  std::map<std::pair<int64_t, std::string>, int> version_counts;
  for (const FileEntry& file : files) {
    ++version_counts[{file.run, file.data_type}];
  }
  std::set<std::string> grade_data_types;
  for (const GradeRow& row : rows) {
    grade_data_types.insert(row.data_type);
  }
  std::vector<FileEntry> out;
  for (const FileEntry& file : files) {
    const GradeRow* best = nullptr;
    for (const GradeRow& row : rows) {
      if (row.ts > analysis_ts || row.data_type != file.data_type ||
          !row.range.Contains(file.run)) {
        continue;
      }
      if (best == nullptr || row.ts > best->ts) {
        best = &row;
      }
    }
    if (best != nullptr) {
      if (best->version == file.version) {
        out.push_back(file);
      }
      continue;
    }
    if (version_counts[{file.run, file.data_type}] == 1 &&
        grade_data_types.count(file.data_type) > 0) {
      out.push_back(file);
    }
  }
  std::sort(out.begin(), out.end(), [](const FileEntry& a, const FileEntry& b) {
    if (a.run != b.run) {
      return a.run < b.run;
    }
    return a.data_type < b.data_type;
  });
  return out;
}

// A seeded store: runs with zero to three versions of each data type
// ("mc" is never graded), some with provenance, and two grades whose
// assignments share timestamps and nest or overlap their run ranges,
// assigned out of timestamp order. Returns every assignment timestamp.
std::set<int64_t> FillSeededStore(EventStore& store, Rng& rng) {
  const int64_t runs = rng.Uniform(2, 12);
  for (int64_t run = 1; run <= runs; ++run) {
    for (const char* data_type : {"raw", "recon", "mc"}) {
      const int64_t versions = rng.Uniform(0, 3);
      for (int64_t v = 1; v <= versions; ++v) {
        FileEntry entry =
            MakeFile(run, data_type, "V" + std::to_string(v),
                     rng.Uniform(0, 700), rng.Uniform(1, 1 << 20));
        if (rng.Bernoulli(0.3)) {
          prov::ProcessingStep step;
          step.module = "pass" + std::to_string(rng.Uniform(1, 3));
          step.version = prov::VersionTag{"Recon", "P" + std::to_string(v),
                                          rng.Uniform(0, 1000)};
          step.input_files.push_back("/raw/" + std::to_string(run));
          entry.provenance.AddStep(step);
        }
        EXPECT_TRUE(store.RegisterFile(entry).ok());
      }
    }
  }
  std::set<int64_t> timestamps;
  for (const char* grade : {"physics", "prelim"}) {
    const int64_t assignments = rng.Uniform(1, 8);
    for (int64_t k = 0; k < assignments; ++k) {
      const int64_t ts = 100 * rng.Uniform(1, 6);  // Ties are common.
      const int64_t first = rng.Uniform(1, runs);
      const int64_t last = rng.Uniform(first, runs + 2);
      const char* data_type = rng.Bernoulli(0.7) ? "recon" : "raw";
      EXPECT_TRUE(store
                      .AssignGrade(grade, ts, {first, last}, data_type,
                                   "V" + std::to_string(rng.Uniform(1, 3)))
                      .ok());
      timestamps.insert(ts);
    }
  }
  return timestamps;
}

TEST(EventStoreResolveTest, MatchesReferenceOnSeededStores) {
  Rng rng(20060403);
  size_t resolved_files = 0;
  for (int trial = 0; trial < 200; ++trial) {
    auto store = EventStore::Create(StoreScale::kCollaboration);
    ASSERT_TRUE(store.ok());
    std::set<int64_t> assigned = FillSeededStore(**store, rng);
    // Before, at, between and after every assignment.
    std::set<int64_t> analysis_times = {0, 10000};
    for (int64_t ts : assigned) {
      analysis_times.insert({ts - 1, ts, ts + 1, ts + 50});
    }
    for (const char* grade : {"physics", "prelim", "unknown"}) {
      for (int64_t ts : analysis_times) {
        auto got = (*store)->Resolve(grade, ts);
        auto want = ReferenceResolve(**store, grade, ts);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_TRUE(want.ok()) << want.status().ToString();
        ASSERT_EQ(got->size(), want->size())
            << "trial " << trial << " grade " << grade << " ts " << ts;
        for (size_t i = 0; i < want->size(); ++i) {
          const FileEntry& a = (*got)[i];
          const FileEntry& b = (*want)[i];
          ASSERT_EQ(a.run, b.run);
          ASSERT_EQ(a.data_type, b.data_type);
          ASSERT_EQ(a.version, b.version);
          ASSERT_EQ(a.registered_at, b.registered_at);
          ASSERT_EQ(a.bytes, b.bytes);
          ASSERT_EQ(a.location, b.location);
          ASSERT_EQ(a.provenance.SummaryHash(), b.provenance.SummaryHash());
        }
        resolved_files += want->size();
      }
    }
  }
  // The stores exercise the selection, not just empty answers.
  EXPECT_GT(resolved_files, 10000u);
}

TEST_F(EventStoreTest, PersonalStoreCannotBeDurable) {
  EXPECT_TRUE(EventStore::Create(StoreScale::kPersonal, "/tmp/nope.wal")
                  .status()
                  .IsInvalidArgument());
}

TEST(EventStoreDurabilityTest, CollaborationStoreSurvivesReopen) {
  std::filesystem::path path =
      std::filesystem::temp_directory_path() / "dflow_es_test.wal";
  std::filesystem::remove(path);
  {
    auto store = EventStore::Create(StoreScale::kCollaboration, path.string());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(
        (*store)->RegisterFile(MakeFile(1, "recon", "R1", 100)).ok());
    ASSERT_TRUE(
        (*store)->AssignGrade("physics", 200, {1, 1}, "recon", "R1").ok());
  }
  auto reopened = EventStore::Create(StoreScale::kCollaboration,
                                     path.string());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->NumFiles(), 1);
  auto resolved = (*reopened)->Resolve("physics", 300);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved->size(), 1u);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace dflow::eventstore
