// Crash-point property test: for a log of committed transactions, a crash
// (simulated by truncating the WAL at an arbitrary byte) must recover the
// database to a *transaction-consistent prefix* — never a partially
// applied transaction, never corrupted state. The torn-tail test sharpens
// this to EVERY byte offset of the final transaction's records, and the
// convergence test checks that Checkpoint() compaction and raw WAL replay
// land on the same logical state.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "db/database.h"

namespace dflow::db {
namespace {

class CrashRecoveryTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("dflow_crash_" + std::to_string(GetParam()) + ".wal");
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::filesystem::path path_;
};

TEST_P(CrashRecoveryTest, TruncationYieldsTransactionConsistentPrefix) {
  // Build a log: schema, then 12 transactions of 5 inserts each. Each
  // transaction inserts rows tagged with its index, so a consistent state
  // has row counts in {0, 5, 10, ..., 60} *after* the schema exists.
  {
    auto db = Database::Open(path_.string());
    ASSERT_TRUE((*db)->Execute("CREATE TABLE t (txn INT, k INT)").ok());
    for (int txn = 0; txn < 12; ++txn) {
      ASSERT_TRUE((*db)->Begin().ok());
      for (int k = 0; k < 5; ++k) {
        ASSERT_TRUE((*db)
                        ->Execute("INSERT INTO t VALUES (" +
                                  std::to_string(txn) + ", " +
                                  std::to_string(k) + ")")
                        .ok());
      }
      ASSERT_TRUE((*db)->Commit().ok());
    }
  }
  const auto full_size =
      static_cast<int64_t>(std::filesystem::file_size(path_));

  // Truncate at a pseudo-random set of byte offsets determined by the
  // parameter (a full per-byte sweep is O(size^2) work; a stride sweep
  // with varying phase covers every region across the suite).
  const int phase = GetParam();
  for (int64_t cut = phase; cut <= full_size; cut += 37) {
    // Rebuild the truncated file.
    std::filesystem::copy_file(
        path_, path_.string() + ".cut",
        std::filesystem::copy_options::overwrite_existing);
    std::filesystem::resize_file(path_.string() + ".cut",
                                 static_cast<uintmax_t>(cut));
    auto db = Database::Open(path_.string() + ".cut");
    ASSERT_TRUE(db.ok()) << "cut at " << cut;
    if ((*db)->catalog().Find("t") == nullptr) {
      // Crash before the schema committed: acceptable prefix.
      continue;
    }
    auto count = (*db)->Execute("SELECT COUNT(*) FROM t");
    ASSERT_TRUE(count.ok()) << "cut at " << cut;
    int64_t rows = count->rows[0][0].AsInt();
    EXPECT_EQ(rows % 5, 0) << "partial transaction visible at cut " << cut;
    // And the visible transactions are exactly 0..rows/5-1 (a prefix).
    if (rows > 0) {
      auto max_txn = (*db)->Execute("SELECT MAX(txn), COUNT(*) FROM t");
      EXPECT_EQ(max_txn->rows[0][0].AsInt(), rows / 5 - 1)
          << "non-prefix transactions at cut " << cut;
    }
    std::filesystem::remove(path_.string() + ".cut");
  }
}

INSTANTIATE_TEST_SUITE_P(Phases, CrashRecoveryTest,
                         ::testing::Values(0, 7, 13, 22, 31));

class TornTailTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            (std::string("dflow_torn_") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name() +
             ".wal");
    std::filesystem::remove(path_);
  }
  void TearDown() override {
    std::filesystem::remove(path_);
    std::filesystem::remove(path_.string() + ".cut");
    std::filesystem::remove(path_.string() + ".pages");
    std::filesystem::remove(path_.string() + ".cut.pages");
  }

  std::filesystem::path path_;
};

// A SIGKILL mid-append tears the FINAL transaction at an arbitrary byte.
// Sweep every single offset inside its records: recovery must always land
// on exactly the committed prefix (the first three transactions), with the
// torn fourth invisible — never half-applied, never an open error.
TEST_F(TornTailTest, FinalTransactionTornAtEveryByte) {
  {
    auto db = Database::Open(path_.string());
    ASSERT_TRUE((*db)->Execute("CREATE TABLE t (txn INT, k INT)").ok());
    for (int txn = 0; txn < 3; ++txn) {
      ASSERT_TRUE((*db)->Begin().ok());
      for (int k = 0; k < 5; ++k) {
        ASSERT_TRUE((*db)
                        ->Execute("INSERT INTO t VALUES (" +
                                  std::to_string(txn) + ", " +
                                  std::to_string(k) + ")")
                        .ok());
      }
      ASSERT_TRUE((*db)->Commit().ok());
    }
  }
  const auto prefix_size =
      static_cast<int64_t>(std::filesystem::file_size(path_));
  {
    auto db = Database::Open(path_.string());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Begin().ok());
    for (int k = 0; k < 5; ++k) {
      ASSERT_TRUE(
          (*db)
              ->Execute("INSERT INTO t VALUES (3, " + std::to_string(k) + ")")
              .ok());
    }
    ASSERT_TRUE((*db)->Commit().ok());
  }
  const auto full_size =
      static_cast<int64_t>(std::filesystem::file_size(path_));
  ASSERT_GT(full_size, prefix_size);

  const std::string cut_path = path_.string() + ".cut";
  for (int64_t cut = prefix_size; cut <= full_size; ++cut) {
    std::filesystem::copy_file(
        path_, cut_path, std::filesystem::copy_options::overwrite_existing);
    std::filesystem::resize_file(cut_path, static_cast<uintmax_t>(cut));
    auto db = Database::Open(cut_path);
    ASSERT_TRUE(db.ok()) << "cut at " << cut;
    auto count = (*db)->Execute("SELECT COUNT(*), MAX(txn) FROM t");
    ASSERT_TRUE(count.ok()) << "cut at " << cut;
    const int64_t rows = count->rows[0][0].AsInt();
    if (cut < full_size) {
      // Any tear inside the final transaction hides it entirely.
      EXPECT_EQ(rows, 15) << "cut at " << cut;
      EXPECT_EQ(count->rows[0][1].AsInt(), 2) << "cut at " << cut;
    } else {
      EXPECT_EQ(rows, 20);
      EXPECT_EQ(count->rows[0][1].AsInt(), 3);
    }

    // A transaction committed after recovering over the tear must survive
    // the next open: Open cut the torn bytes, so the new records follow
    // the intact ones instead of sitting behind the tear.
    ASSERT_TRUE((*db)->Begin().ok());
    ASSERT_TRUE((*db)->Execute("INSERT INTO t VALUES (9, 0)").ok());
    ASSERT_TRUE((*db)->Commit().ok());
    db->reset();
    auto reopened = Database::Open(cut_path);
    ASSERT_TRUE(reopened.ok()) << "cut at " << cut;
    auto after = (*reopened)->Execute("SELECT COUNT(*), MAX(txn) FROM t");
    ASSERT_TRUE(after.ok()) << "cut at " << cut;
    EXPECT_EQ(after->rows[0][0].AsInt(), rows + 1) << "cut at " << cut;
    EXPECT_EQ(after->rows[0][1].AsInt(), 9) << "cut at " << cut;
  }
}

// An acknowledged CREATE TABLE is durable: a process that dies right after
// it returns (no destructors, no stdio flush at exit) still leaves the
// table in the log.
TEST_F(TornTailTest, AcknowledgedDdlSurvivesProcessDeath) {
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    auto db = Database::Open(path_.string());
    const bool created =
        db.ok() && (*db)->Execute("CREATE TABLE t (k INT)").ok();
    _exit(created ? 0 : 1);
  }
  int wait_status = 0;
  ASSERT_EQ(waitpid(child, &wait_status, 0), child);
  ASSERT_TRUE(WIFEXITED(wait_status));
  ASSERT_EQ(WEXITSTATUS(wait_status), 0);
  auto db = Database::Open(path_.string());
  ASSERT_TRUE(db.ok());
  EXPECT_NE((*db)->catalog().Find("t"), nullptr);
}

// SIGKILL mid-PAGE-writeback: the buffer pool's spill store dies after an
// arbitrary byte budget, tearing a page frame mid-write (the page-level
// analogue of the WAL torn-tail sweep; FilePageStoreTest covers every
// single byte offset of one frame at the store level — here the tear is
// driven through the full engine under eviction pressure). The WAL is then
// cut at its durable size as of the LAST writeback — exactly what the OS
// had when the process died — and recovery must land on a
// transaction-consistent prefix. Along the way, every writeback must obey
// WAL-before-page: no page image may carry an LSN past the durable WAL.
TEST_F(TornTailTest, PageWritebackTornAtSweptBudgets) {
  const std::string cut_path = path_.string() + ".cut";
  for (int64_t budget = 0; budget < 64 * 1024; budget += 997) {
    std::filesystem::remove(path_);
    std::filesystem::remove(path_.string() + ".pages");
    int64_t committed_txns = 0;
    uintmax_t durable_wal_bytes = 0;
    int64_t wal_violations = 0;
    {
      DatabaseOptions opts;
      opts.pool_frames = 3;  // Evictions (and writebacks) on every txn.
      auto db = Database::Open(path_.string(), opts);
      ASSERT_TRUE(db.ok());
      PageStore* store = (*db)->pool()->store();
      (*db)->pool()->SetWritebackProbe(
          [&, store](uint32_t, uint64_t page_lsn, uint64_t durable_lsn) {
            if (page_lsn > durable_lsn) {
              ++wal_violations;
            }
            // The barrier just synced: the on-disk WAL size IS the durable
            // prefix the OS would keep if we died inside this writeback.
            // Post-mortem writebacks (store already abandoned) are the
            // test driver outliving the "crash" — they must not count.
            if (!store->abandoned()) {
              durable_wal_bytes = std::filesystem::file_size(path_);
            }
          });
      ASSERT_TRUE((*db)->Execute("CREATE TABLE t (txn INT, pad TEXT)").ok());
      store->AbandonAfter(budget);
      for (int txn = 0; txn < 60; ++txn) {
        ASSERT_TRUE((*db)->Begin().ok());
        for (int k = 0; k < 5; ++k) {
          ASSERT_TRUE((*db)
                          ->Execute("INSERT INTO t VALUES (" +
                                    std::to_string(txn) + ", '" +
                                    std::string(400, 'p') + "')")
                          .ok());
        }
        ASSERT_TRUE((*db)->Commit().ok());
        if ((*db)->pool()->store()->abandoned()) {
          break;  // The "process" died tearing a page during this txn.
        }
        ++committed_txns;
      }
      ASSERT_TRUE((*db)->pool()->store()->abandoned())
          << "budget " << budget << " never exhausted";
      EXPECT_EQ(wal_violations, 0) << "budget " << budget;
    }
    ASSERT_GT(durable_wal_bytes, 0u) << "budget " << budget;

    // Reconstruct what disk held at death: the WAL cut at its last durable
    // size (the torn .pages spill is discarded wholesale by Open).
    std::filesystem::copy_file(
        path_, cut_path, std::filesystem::copy_options::overwrite_existing);
    std::filesystem::resize_file(cut_path, durable_wal_bytes);
    auto db = Database::Open(cut_path);
    ASSERT_TRUE(db.ok()) << "budget " << budget;
    ASSERT_NE((*db)->catalog().Find("t"), nullptr) << "budget " << budget;
    auto count = (*db)->Execute("SELECT COUNT(*), MAX(txn) FROM t");
    ASSERT_TRUE(count.ok()) << "budget " << budget;
    const int64_t rows = count->rows[0][0].AsInt();
    EXPECT_EQ(rows % 5, 0) << "partial txn visible, budget " << budget;
    EXPECT_GE(rows / 5, committed_txns) << "committed txn lost, budget "
                                        << budget;
    if (rows > 0) {
      EXPECT_EQ(count->rows[0][1].AsInt(), rows / 5 - 1)
          << "non-prefix txns, budget " << budget;
    }
  }
}

// Compaction and replay must agree: recovering from the raw churned WAL
// and recovering from a Checkpoint()ed copy of the same WAL produce the
// same catalog and the same rows.
TEST_F(TornTailTest, CheckpointAndReplayConverge) {
  {
    auto db = Database::Open(path_.string());
    ASSERT_TRUE((*db)->Execute("CREATE TABLE t (x INT, y INT)").ok());
    for (int i = 0; i < 60; ++i) {
      ASSERT_TRUE((*db)
                      ->Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                                ", " + std::to_string(i * i) + ")")
                      .ok());
    }
    ASSERT_TRUE((*db)->Execute("DELETE FROM t WHERE x < 20").ok());
    ASSERT_TRUE((*db)->Execute("UPDATE t SET y = 0 WHERE x >= 50").ok());
  }
  const std::string checkpointed = path_.string() + ".cut";  // Reuses cleanup.
  std::filesystem::copy_file(
      path_, checkpointed, std::filesystem::copy_options::overwrite_existing);
  {
    auto db = Database::Open(checkpointed);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  // The compacted log is a different byte stream...
  EXPECT_NE(std::filesystem::file_size(path_),
            std::filesystem::file_size(checkpointed));

  auto rows_of = [](const std::string& file) {
    std::vector<std::pair<int64_t, int64_t>> rows;
    auto db = Database::Open(file);
    EXPECT_TRUE(db.ok());
    EXPECT_NE((*db)->catalog().Find("t"), nullptr);
    auto result = (*db)->Execute("SELECT x, y FROM t");
    EXPECT_TRUE(result.ok());
    for (const auto& row : result->rows) {
      rows.emplace_back(row[0].AsInt(), row[1].AsInt());
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  // ...but both recover to the identical logical state.
  const auto raw = rows_of(path_.string());
  const auto compact = rows_of(checkpointed);
  ASSERT_EQ(raw.size(), 40u);
  EXPECT_EQ(raw, compact);
  EXPECT_EQ(raw.front(), (std::pair<int64_t, int64_t>{20, 400}));
  EXPECT_EQ(raw.back(), (std::pair<int64_t, int64_t>{59, 0}));
}

}  // namespace
}  // namespace dflow::db
