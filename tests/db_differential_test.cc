// Differential property tests for the SQL engine: random data, a battery
// of parameterized predicates, and two oracles --
//  (1) a plain C++ reference evaluation of the same predicate, and
//  (2) the same query on an unindexed copy of the table (so an index-scan
//      plan and a sequential-scan plan must agree row-for-row).
// A third suite checks ORDER BY, before and after aggregation, against a
// C++ reference stable sort.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "db/database.h"
#include "util/rng.h"

namespace dflow::db {
namespace {

struct TestRow {
  int64_t a;
  int64_t b;
  double c;
  std::string s;
};

struct PredicateCase {
  std::string sql;                              // WHERE clause.
  std::function<bool(const TestRow&)> matches;  // Reference.
};

std::vector<TestRow> RandomRows(Rng& rng, int n) {
  static const char* kWords[] = {"alpha", "beta", "gamma", "delta", "руны",
                                 "epsilon"};
  std::vector<TestRow> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    rows.push_back(TestRow{rng.Uniform(-50, 50), rng.Uniform(0, 9),
                           rng.UniformReal(-1.0, 1.0),
                           kWords[rng.Uniform(0, 5)]});
  }
  return rows;
}

std::vector<PredicateCase> Cases(Rng& rng) {
  int64_t k1 = rng.Uniform(-50, 50);
  int64_t k2 = rng.Uniform(0, 9);
  double k3 = rng.UniformReal(-1.0, 1.0);
  std::vector<PredicateCase> cases;
  cases.push_back({"a = " + std::to_string(k1),
                   [k1](const TestRow& r) { return r.a == k1; }});
  cases.push_back({"a < " + std::to_string(k1),
                   [k1](const TestRow& r) { return r.a < k1; }});
  cases.push_back({"a >= " + std::to_string(k1) + " AND b = " +
                       std::to_string(k2),
                   [k1, k2](const TestRow& r) {
                     return r.a >= k1 && r.b == k2;
                   }});
  cases.push_back({"a + b > " + std::to_string(k1),
                   [k1](const TestRow& r) { return r.a + r.b > k1; }});
  cases.push_back({"c > " + std::to_string(k3) + " OR b < " +
                       std::to_string(k2),
                   [k3, k2](const TestRow& r) {
                     return r.c > k3 || r.b < k2;
                   }});
  cases.push_back({"NOT (a = " + std::to_string(k1) + ")",
                   [k1](const TestRow& r) { return r.a != k1; }});
  cases.push_back({"s = 'gamma'",
                   [](const TestRow& r) { return r.s == "gamma"; }});
  cases.push_back({"s LIKE '%a'", [](const TestRow& r) {
                     return !r.s.empty() && r.s.back() == 'a';
                   }});
  cases.push_back({"a % 3 = 0 AND a > 0", [](const TestRow& r) {
                     return r.a > 0 && r.a % 3 == 0;
                   }});
  cases.push_back({"b * b >= " + std::to_string(k2 * k2),
                   [k2](const TestRow& r) {
                     return r.b * r.b >= k2 * k2;
                   }});
  return cases;
}

/// Canonical multiset encoding of a result for comparison.
std::vector<std::string> Canonical(const QueryResult& result) {
  std::vector<std::string> out;
  out.reserve(result.rows.size());
  for (const Row& row : result.rows) {
    std::string line;
    for (const Value& value : row) {
      line += value.ToString();
      line += '|';
    }
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

class SqlDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(SqlDifferentialTest, EngineMatchesReferenceAndPlansAgree) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 11);
  std::vector<TestRow> rows = RandomRows(rng, 400);

  Database indexed, bare;
  Schema schema({{"a", Type::kInt64, false},
                 {"b", Type::kInt64, false},
                 {"c", Type::kDouble, false},
                 {"s", Type::kString, false}});
  ASSERT_TRUE(indexed.CreateTable("t", schema).ok());
  ASSERT_TRUE(indexed.CreateIndex("ta", "t", "a").ok());
  ASSERT_TRUE(indexed.CreateIndex("ts", "t", "s").ok());
  ASSERT_TRUE(bare.CreateTable("t", schema).ok());
  for (const TestRow& row : rows) {
    Row encoded{Value::Int(row.a), Value::Int(row.b), Value::Double(row.c),
                Value::String(row.s)};
    ASSERT_TRUE(indexed.Insert("t", encoded).ok());
    ASSERT_TRUE(bare.Insert("t", encoded).ok());
  }

  for (const PredicateCase& test_case : Cases(rng)) {
    const std::string sql = "SELECT a, b, s FROM t WHERE " + test_case.sql;
    auto from_indexed = indexed.Execute(sql);
    auto from_bare = bare.Execute(sql);
    ASSERT_TRUE(from_indexed.ok()) << sql;
    ASSERT_TRUE(from_bare.ok()) << sql;

    // Oracle 1: reference count + content.
    std::vector<std::string> expected;
    for (const TestRow& row : rows) {
      if (test_case.matches(row)) {
        expected.push_back(std::to_string(row.a) + "|" +
                           std::to_string(row.b) + "|" + row.s + "|");
      }
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(Canonical(*from_indexed), expected) << sql;

    // Oracle 2: plan equivalence.
    EXPECT_EQ(Canonical(*from_indexed), Canonical(*from_bare)) << sql;
  }

  // Aggregates agree with reference sums.
  int64_t ref_sum = 0;
  for (const TestRow& row : rows) {
    ref_sum += row.a;
  }
  auto agg = indexed.Execute("SELECT SUM(a), COUNT(*) FROM t");
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg->rows[0][0].AsInt(), ref_sum);
  EXPECT_EQ(agg->rows[0][1].AsInt(), 400);

  // Join plan equivalence: index-nested-loop (right join key indexed in
  // `indexed`) must produce exactly the nested-loop rows from `bare`.
  for (Database* db : {&indexed, &bare}) {
    ASSERT_TRUE(db->CreateTable("labels",
                                Schema({{"key", Type::kInt64, false},
                                        {"label", Type::kString, false}}))
                    .ok());
    for (int64_t key = -50; key <= 50; key += 5) {
      ASSERT_TRUE(db->Insert("labels", {Value::Int(key),
                                        Value::String("L" +
                                                      std::to_string(key))})
                      .ok());
    }
  }
  const std::string join_sql =
      "SELECT label, b FROM labels JOIN t ON key = a WHERE b < 5";
  auto join_indexed = indexed.Execute(join_sql);
  auto join_bare = bare.Execute(join_sql);
  ASSERT_TRUE(join_indexed.ok()) << join_indexed.status();
  ASSERT_TRUE(join_bare.ok());
  EXPECT_EQ(Canonical(*join_indexed), Canonical(*join_bare));
  EXPECT_FALSE(join_indexed->rows.empty());

  // Mutation equivalence: the same UPDATE + DELETE leaves both databases
  // with identical contents.
  const std::string update = "UPDATE t SET b = b + 1 WHERE a > 0";
  const std::string del = "DELETE FROM t WHERE s = 'beta' OR b = 5";
  ASSERT_TRUE(indexed.Execute(update).ok());
  ASSERT_TRUE(bare.Execute(update).ok());
  ASSERT_TRUE(indexed.Execute(del).ok());
  ASSERT_TRUE(bare.Execute(del).ok());
  auto indexed_all = indexed.Execute("SELECT * FROM t");
  auto bare_all = bare.Execute("SELECT * FROM t");
  ASSERT_TRUE(indexed_all.ok());
  ASSERT_TRUE(bare_all.ok());
  EXPECT_EQ(Canonical(*indexed_all), Canonical(*bare_all));

  // And the index is still internally consistent afterwards.
  const TableInfo* table = indexed.catalog().Find("t");
  ASSERT_NE(table, nullptr);
  for (const auto& index : table->indexes) {
    EXPECT_TRUE(index->tree->CheckInvariants());
    EXPECT_EQ(index->tree->size(), table->heap->num_rows());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlDifferentialTest, ::testing::Range(0, 10));

/// Output rows, in order, one "v|v|...|" line each.
std::vector<std::string> Lines(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  for (const Row& row : rows) {
    std::string line;
    for (const Value& value : row) {
      line += value.ToString();
      line += '|';
    }
    out.push_back(std::move(line));
  }
  return out;
}

/// The reference: `rows` stable-sorted on one key per row, key column i
/// descending when desc[i]; then DISTINCT keeps each line's first
/// occurrence.
std::vector<std::string> ReferenceOrder(const std::vector<Row>& rows,
                                        const std::vector<Row>& keys,
                                        const std::vector<bool>& desc,
                                        bool distinct = false) {
  std::vector<size_t> order(rows.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    for (size_t i = 0; i < desc.size(); ++i) {
      int c = keys[x][i].Compare(keys[y][i]);
      if (c != 0) {
        return desc[i] ? c > 0 : c < 0;
      }
    }
    return false;
  });
  std::vector<Row> sorted;
  for (size_t i : order) {
    sorted.push_back(rows[i]);
  }
  std::vector<std::string> lines = Lines(sorted);
  if (distinct) {
    std::vector<std::string> unique;
    for (const std::string& line : lines) {
      if (std::find(unique.begin(), unique.end(), line) == unique.end()) {
        unique.push_back(line);
      }
    }
    lines = std::move(unique);
  }
  return lines;
}

/// Groups `rows` on column `column` in the engine's group order (ascending
/// encoded key), as (group value, rows of the group).
std::vector<std::pair<Value, std::vector<Row>>> GroupOn(
    const std::vector<Row>& rows, size_t column) {
  std::map<std::string, std::pair<Value, std::vector<Row>>> groups;
  for (const Row& row : rows) {
    ByteWriter key;
    row[column].EncodeTo(key);
    auto& group = groups[key.Take()];
    group.first = row[column];
    group.second.push_back(row);
  }
  std::vector<std::pair<Value, std::vector<Row>>> out;
  for (auto& [key, group] : groups) {
    out.push_back(std::move(group));
  }
  return out;
}

class OrderByDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(OrderByDifferentialTest, OneSortStepMatchesReferenceStableSort) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 3);
  static const char* kWords[] = {"delta", "alpha", "epsilon", "beta"};
  // Few distinct keys, so ties are common; b is NULL in about a quarter of
  // the rows. With no index, the scan order is the insertion order.
  Database db;
  ASSERT_TRUE(db.CreateTable("t", Schema({{"a", Type::kInt64, false},
                                          {"b", Type::kInt64, true},
                                          {"c", Type::kDouble, false},
                                          {"s", Type::kString, false}}))
                  .ok());
  std::vector<Row> rows;
  for (int i = 0; i < 40; ++i) {
    Row row{Value::Int(rng.Uniform(-2, 2)),
            rng.Uniform(0, 3) == 0 ? Value::Null()
                                   : Value::Int(rng.Uniform(0, 4)),
            Value::Double(rng.UniformReal(-1.0, 1.0)),
            Value::String(kWords[rng.Uniform(0, 3)])};
    ASSERT_TRUE(db.Insert("t", row).ok());
    rows.push_back(std::move(row));
  }
  enum { kA, kB, kC, kS };

  struct Case {
    std::string sql;
    std::vector<std::string> expected;
  };
  std::vector<Case> cases;

  // A plain projection, ordered by columns it does not project.
  {
    std::vector<Row> out, keys;
    for (const Row& row : rows) {
      out.push_back({row[kS], row[kC]});
      keys.push_back({row[kB], row[kA]});
    }
    cases.push_back({"SELECT s, c FROM t ORDER BY b DESC, a",
                     ReferenceOrder(out, keys, {true, false})});
  }
  // DISTINCT after the sort keeps each row's first occurrence.
  {
    std::vector<Row> out, keys;
    for (const Row& row : rows) {
      out.push_back({row[kS], row[kB]});
      keys.push_back({row[kS], row[kB]});
    }
    cases.push_back({"SELECT DISTINCT s, b FROM t ORDER BY s DESC, b",
                     ReferenceOrder(out, keys, {true, false},
                                    /*distinct=*/true)});
  }
  // After aggregation the keys come from the output row: HAVING on an
  // alias, then a count tie broken by the group key, NULL group first.
  {
    std::vector<Row> out, keys;
    for (const auto& [b, group] : GroupOn(rows, kB)) {
      int64_t total = 0;
      for (const Row& row : group) {
        total += row[kA].AsInt();
      }
      Value n = Value::Int(static_cast<int64_t>(group.size()));
      if (group.size() > 1) {
        out.push_back({b, n, Value::Int(total)});
        keys.push_back({n, b});
      }
    }
    cases.push_back({"SELECT b, COUNT(*) AS n, SUM(a) AS total FROM t "
                     "GROUP BY b HAVING n > 1 ORDER BY n DESC, b",
                     ReferenceOrder(out, keys, {true, false})});
  }
  // Count ties keep the group order.
  {
    std::vector<Row> out, keys;
    for (const auto& [s, group] : GroupOn(rows, kS)) {
      Value top = group.front()[kC];
      for (const Row& row : group) {
        if (row[kC].Compare(top) > 0) {
          top = row[kC];
        }
      }
      Value n = Value::Int(static_cast<int64_t>(group.size()));
      out.push_back({s, n, top});
      keys.push_back({n});
    }
    cases.push_back({"SELECT s, COUNT(*) AS n, MAX(c) FROM t GROUP BY s "
                     "ORDER BY n",
                     ReferenceOrder(out, keys, {false})});
  }

  for (const Case& test_case : cases) {
    auto full = db.Execute(test_case.sql);
    ASSERT_TRUE(full.ok()) << test_case.sql << ": " << full.status();
    EXPECT_EQ(Lines(full->rows), test_case.expected) << test_case.sql;

    // Every LIMIT from 0 to past the row count, at offsets around both
    // ends, cuts the one sorted result.
    const size_t count = test_case.expected.size();
    for (size_t limit = 0; limit <= count + 1; ++limit) {
      for (size_t offset : {size_t{0}, size_t{1}, count / 2, count,
                            count + 1}) {
        const std::string sql = test_case.sql + " LIMIT " +
                                std::to_string(limit) + " OFFSET " +
                                std::to_string(offset);
        auto cut = db.Execute(sql);
        ASSERT_TRUE(cut.ok()) << sql << ": " << cut.status();
        size_t begin = std::min(offset, count);
        size_t end = std::min(begin + limit, count);
        EXPECT_EQ(Lines(cut->rows),
                  std::vector<std::string>(
                      test_case.expected.begin() + static_cast<long>(begin),
                      test_case.expected.begin() + static_cast<long>(end)))
            << sql;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderByDifferentialTest,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace dflow::db
