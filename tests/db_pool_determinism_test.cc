// Determinism gate for the buffer pool: two same-seed runs of a randomized
// workload must produce (1) the identical eviction sequence — page by page,
// in order — and (2) identical db.pool.* counter snapshots. Eviction is a
// pure function of the access history on a logical clock; nothing about
// wall time, allocator layout, or hash-map iteration may leak in. A
// different seed must change the sequence (the gate detects real work, not
// a constant).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "db/database.h"
#include "obs/metrics.h"
#include "util/md5.h"
#include "util/rng.h"

namespace dflow::db {
namespace {

struct RunResult {
  std::vector<uint32_t> evictions;
  std::string counters_json;
  std::string eviction_md5;
};

RunResult RunWorkload(uint64_t seed, size_t frames) {
  obs::MetricsRegistry metrics;
  DatabaseOptions opts;
  opts.pool_frames = frames;
  Database db(opts);
  db.SetMetricsRegistry(&metrics);
  EXPECT_TRUE(db.Execute("CREATE TABLE t (id INT, v INT, pad TEXT)").ok());
  EXPECT_TRUE(db.Execute("CREATE INDEX idx ON t (id)").ok());

  Rng rng(seed);
  int64_t next_id = 0;
  // Long enough that every seed evicts more than the gate's floor of 100
  // pages, though a scan pins each heap page only once.
  for (int round = 0; round < 700; ++round) {
    int64_t dice = rng.Uniform(0, 9);
    if (dice < 6 || next_id == 0) {
      std::string pad(static_cast<size_t>(rng.Uniform(30, 250)), 'd');
      EXPECT_TRUE(db.Execute("INSERT INTO t VALUES (" +
                             std::to_string(next_id++) + ", " +
                             std::to_string(rng.Uniform(0, 999)) + ", '" +
                             pad + "')")
                      .ok());
    } else if (dice < 8) {
      // Point reads through the index pull cold pages back in.
      EXPECT_TRUE(db.Execute("SELECT v FROM t WHERE id = " +
                             std::to_string(rng.Uniform(0, next_id - 1)))
                      .ok());
    } else if (dice < 9) {
      EXPECT_TRUE(db.Execute("UPDATE t SET v = " +
                             std::to_string(rng.Uniform(0, 999)) +
                             " WHERE id = " +
                             std::to_string(rng.Uniform(0, next_id - 1)))
                      .ok());
    } else {
      EXPECT_TRUE(db.Execute("SELECT COUNT(*), MAX(v) FROM t").ok());
    }
  }

  RunResult result;
  result.evictions = db.pool()->eviction_log();
  result.counters_json = metrics.SnapshotJson();
  std::string bytes;
  for (uint32_t pid : result.evictions) {
    bytes += std::to_string(pid);
    bytes += ',';
  }
  result.eviction_md5 = Md5::HexOf(bytes);
  return result;
}

TEST(PoolDeterminismTest, SameSeedSameEvictionsAndCounters) {
  for (uint64_t seed : {0x1deaull, 42ull, 7777ull}) {
    auto a = RunWorkload(seed, 4);
    auto b = RunWorkload(seed, 4);
    ASSERT_GT(a.evictions.size(), 100u) << "workload never stressed the pool";
    EXPECT_EQ(a.evictions, b.evictions) << "seed " << seed;
    EXPECT_EQ(a.eviction_md5, b.eviction_md5) << "seed " << seed;
    EXPECT_EQ(a.counters_json, b.counters_json) << "seed " << seed;
  }
}

TEST(PoolDeterminismTest, DifferentSeedsDiverge) {
  auto a = RunWorkload(1, 4);
  auto b = RunWorkload(2, 4);
  EXPECT_NE(a.eviction_md5, b.eviction_md5);
}

TEST(PoolDeterminismTest, PoolSizeChangesEvictionsButCountersStayCoherent) {
  auto small = RunWorkload(42, 4);
  auto large = RunWorkload(42, 64);
  // A larger pool evicts strictly less under the same workload.
  EXPECT_LT(large.evictions.size(), small.evictions.size());
}

}  // namespace
}  // namespace dflow::db
