#include "db/wal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "db/database.h"

namespace dflow::db {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("dflow_wal_test_" +
             std::to_string(::testing::UnitTest::GetInstance()
                                ->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::filesystem::path path_;
};

TEST_F(WalTest, AppendAndReadBack) {
  {
    auto writer = WalWriter::Open(path_.string());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append("first").ok());
    ASSERT_TRUE((*writer)->Append("second record").ok());
    ASSERT_TRUE((*writer)->Append("").ok());
    ASSERT_TRUE((*writer)->Sync().ok());
  }
  auto records = WalReadAll(path_.string());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[0], "first");
  EXPECT_EQ((*records)[1], "second record");
  EXPECT_EQ((*records)[2], "");
}

TEST_F(WalTest, MissingFileIsNotFound) {
  EXPECT_TRUE(WalReadAll(path_.string()).status().IsNotFound());
}

TEST_F(WalTest, TornTailIsDropped) {
  {
    auto writer = WalWriter::Open(path_.string());
    ASSERT_TRUE((*writer)->Append("intact").ok());
    ASSERT_TRUE((*writer)->Append("will be torn").ok());
    ASSERT_TRUE((*writer)->Sync().ok());
  }
  // Truncate mid-way through the second record's payload.
  auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size - 4);
  auto records = WalReadAll(path_.string());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0], "intact");
}

// A writer opened over a torn tail cuts the tail off first, so what it
// appends follows the intact frames instead of sitting behind bytes every
// reader stops at. Swept over every byte of the last frame.
TEST_F(WalTest, OpenCutsTornTailBeforeAppending) {
  const std::string last = "torn last frame";
  {
    auto writer = WalWriter::Open(path_.string());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append("first").ok());
    ASSERT_TRUE((*writer)->Append("second").ok());
    ASSERT_TRUE((*writer)->Append(last).ok());
    ASSERT_TRUE((*writer)->Sync().ok());
  }
  std::string full;
  {
    std::ifstream in(path_, std::ios::binary);
    full.assign(std::istreambuf_iterator<char>(in), {});
  }
  const size_t last_start = full.size() - 8 - last.size();
  for (size_t cut = last_start; cut < full.size(); ++cut) {
    std::ofstream(path_, std::ios::binary | std::ios::trunc)
        << full.substr(0, cut);
    {
      auto writer = WalWriter::Open(path_.string());
      ASSERT_TRUE(writer.ok()) << "cut at " << cut;
      ASSERT_TRUE((*writer)->Append("after").ok());
      ASSERT_TRUE((*writer)->Sync().ok());
    }
    auto records = WalReadAll(path_.string());
    ASSERT_TRUE(records.ok());
    EXPECT_EQ(*records,
              (std::vector<std::string>{"first", "second", "after"}))
        << "cut at " << cut;
  }
}

TEST_F(WalTest, CorruptPayloadStopsScan) {
  {
    auto writer = WalWriter::Open(path_.string());
    ASSERT_TRUE((*writer)->Append("good").ok());
    ASSERT_TRUE((*writer)->Append("to be corrupted").ok());
    ASSERT_TRUE((*writer)->Sync().ok());
  }
  // Flip a byte in the second payload.
  std::fstream file(path_, std::ios::in | std::ios::out | std::ios::binary);
  file.seekp(-3, std::ios::end);
  file.put('X');
  file.close();
  auto records = WalReadAll(path_.string());
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 1u);
}

TEST_F(WalTest, DatabaseSurvivesReopen) {
  {
    auto db = Database::Open(path_.string());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Execute("CREATE TABLE t (x INT, s TEXT)").ok());
    ASSERT_TRUE((*db)->Execute("CREATE INDEX tx ON t (x)").ok());
    ASSERT_TRUE(
        (*db)->Execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')").ok());
    ASSERT_TRUE((*db)->Execute("UPDATE t SET s = 'bb' WHERE x = 2").ok());
    ASSERT_TRUE((*db)->Execute("DELETE FROM t WHERE x = 1").ok());
  }
  auto db = Database::Open(path_.string());
  ASSERT_TRUE(db.ok());
  auto result = (*db)->Execute("SELECT x, s FROM t");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].AsInt(), 2);
  EXPECT_EQ(result->rows[0][1].AsString(), "bb");
  // Index survived and still works after recovery.
  auto indexed = (*db)->Execute("SELECT * FROM t WHERE x = 2");
  ASSERT_TRUE(indexed.ok());
  EXPECT_EQ(indexed->rows.size(), 1u);
}

TEST_F(WalTest, UncommittedTransactionRollsBackOnRecovery) {
  {
    auto db = Database::Open(path_.string());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Execute("CREATE TABLE t (x INT)").ok());
    ASSERT_TRUE((*db)->Execute("INSERT INTO t VALUES (1)").ok());
    ASSERT_TRUE((*db)->Execute("BEGIN").ok());
    ASSERT_TRUE((*db)->Execute("INSERT INTO t VALUES (2)").ok());
    // Database object destroyed without COMMIT: the begin/ops records may
    // be flushed, but no commit marker exists.
    ASSERT_TRUE((*db)->Commit().ok());  // First commit the txn...
  }
  // ...then simulate a *torn* commit by truncating the commit record.
  auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size - 5);
  auto db = Database::Open(path_.string());
  ASSERT_TRUE(db.ok());
  auto result = (*db)->Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(result.ok());
  // The second transaction's insert vanished with its commit marker.
  EXPECT_EQ(result->rows[0][0].AsInt(), 1);
}

TEST_F(WalTest, MutationsAfterRecoveryAppend) {
  {
    auto db = Database::Open(path_.string());
    ASSERT_TRUE((*db)->Execute("CREATE TABLE t (x INT)").ok());
    ASSERT_TRUE((*db)->Execute("INSERT INTO t VALUES (1)").ok());
  }
  {
    auto db = Database::Open(path_.string());
    ASSERT_TRUE((*db)->Execute("INSERT INTO t VALUES (2)").ok());
  }
  auto db = Database::Open(path_.string());
  EXPECT_EQ((*db)->Execute("SELECT COUNT(*) FROM t")->rows[0][0].AsInt(), 2);
}

TEST_F(WalTest, InsertManyIsAtomic) {
  {
    auto db = Database::Open(path_.string());
    ASSERT_TRUE((*db)->CreateTable(
        "t", Schema({{"x", Type::kInt64, false}})).ok());
    std::vector<Row> rows;
    for (int i = 0; i < 100; ++i) {
      rows.push_back({Value::Int(i)});
    }
    ASSERT_TRUE((*db)->InsertMany("t", std::move(rows)).ok());

    // A bad row fails the whole batch before anything is applied: the
    // table keeps its one row, in memory and after reopen.
    ASSERT_TRUE((*db)->CreateTable(
        "u", Schema({{"x", Type::kInt64, false}})).ok());
    ASSERT_TRUE((*db)->Insert("u", {Value::Int(0)}).ok());
    std::vector<Row> bad = {{Value::Int(1)}, {Value::Null()}, {Value::Int(3)}};
    EXPECT_TRUE((*db)->InsertMany("u", std::move(bad)).IsInvalidArgument());
    EXPECT_FALSE((*db)->in_transaction());
    EXPECT_EQ((*db)->Execute("SELECT COUNT(*) FROM u")->rows[0][0].AsInt(), 1);
  }
  auto db = Database::Open(path_.string());
  EXPECT_EQ((*db)->Execute("SELECT COUNT(*) FROM t")->rows[0][0].AsInt(),
            100);
  EXPECT_EQ((*db)->Execute("SELECT COUNT(*) FROM u")->rows[0][0].AsInt(), 1);
}

// SQL INSERT rows are checked when the statement runs, buffered or not: a
// bad row fails its own statement and none of the statement's rows apply.
TEST_F(WalTest, BadSqlInsertRowFailsItsOwnStatement) {
  {
    auto db = Database::Open(path_.string());
    ASSERT_TRUE((*db)->Execute("CREATE TABLE u (x INT NOT NULL)").ok());
    EXPECT_TRUE((*db)->Execute("INSERT INTO u VALUES (1), (NULL)")
                    .status()
                    .IsInvalidArgument());
    ASSERT_TRUE((*db)->Execute("BEGIN").ok());
    ASSERT_TRUE((*db)->Execute("INSERT INTO u VALUES (2)").ok());
    EXPECT_TRUE((*db)->Execute("INSERT INTO u VALUES (3), ('x')")
                    .status()
                    .IsInvalidArgument());
    ASSERT_TRUE((*db)->Execute("COMMIT").ok());
    EXPECT_EQ((*db)->Execute("SELECT COUNT(*) FROM u")->rows[0][0].AsInt(), 1);
  }
  auto db = Database::Open(path_.string());
  auto rows = (*db)->Execute("SELECT x FROM u");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][0].AsInt(), 2);
}

// A SQL UPDATE computes and checks every new row before it applies any: a
// bad k-th row fails the statement with rows 1..k-1 untouched, in memory
// and after reopening.
TEST_F(WalTest, BadSqlUpdateRowFailsItsWholeStatement) {
  auto expect_b = [](Database* db, const std::vector<int64_t>& want) {
    auto rows = db->Execute("SELECT b FROM t ORDER BY b");
    ASSERT_TRUE(rows.ok()) << rows.status().message();
    ASSERT_EQ(rows->rows.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(rows->rows[i][0].AsInt(), want[i]) << "row " << i;
    }
  };
  {
    auto db = Database::Open(path_.string());
    ASSERT_TRUE((*db)->Execute("CREATE TABLE t (a INT, b INT NOT NULL)").ok());
    ASSERT_TRUE(
        (*db)->Execute("INSERT INTO t VALUES (1, 10), (2, 20), (NULL, 30)")
            .ok());
    EXPECT_TRUE(
        (*db)->Execute("UPDATE t SET b = a").status().IsInvalidArgument());
    expect_b(db->get(), {10, 20, 30});
  }
  auto db = Database::Open(path_.string());
  ASSERT_TRUE(db.ok());
  expect_b(db->get(), {10, 20, 30});
}

}  // namespace
}  // namespace dflow::db
