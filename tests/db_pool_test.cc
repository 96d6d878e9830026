// Buffer-pool unit tests: frame bound + LRU-K eviction determinism, pin
// semantics, page-id recycling, the PageStore torn-frame discipline, and
// the WAL-before-page barrier observed through the writeback probe.

#include "db/buffer_pool.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "db/database.h"
#include "db/page_store.h"

namespace dflow::db {
namespace {

std::unique_ptr<BufferPool> MakePool(size_t max_frames) {
  return std::make_unique<BufferPool>(BufferPoolOptions{max_frames},
                                      std::make_unique<MemPageStore>());
}

TEST(BufferPoolTest, AllocatePinReadBack) {
  auto pool = MakePool(0);
  uint32_t pid = *pool->Allocate();
  {
    auto ref = pool->Pin(pid);
    ASSERT_TRUE(ref.ok());
    ASSERT_TRUE((*ref)->Insert("hello").ok());
    ref->MarkDirty();
  }
  auto ref = pool->Pin(pid);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(*(*ref)->Get(0), "hello");
  EXPECT_EQ(pool->stats().allocations, 1);
  EXPECT_EQ(pool->stats().evictions, 0);
}

TEST(BufferPoolTest, BoundedPoolSpillsAndReloads) {
  auto pool = MakePool(2);
  std::vector<uint32_t> pids;
  for (int i = 0; i < 6; ++i) {
    uint32_t pid = *pool->Allocate();
    pids.push_back(pid);
    auto ref = pool->Pin(pid);
    ASSERT_TRUE((*ref)->Insert("page " + std::to_string(i)).ok());
    ref->MarkDirty();
  }
  EXPECT_LE(pool->resident_pages(), 2u);
  EXPECT_GE(pool->stats().evictions, 4);
  // Every page survives its round trips through the store.
  for (int i = 0; i < 6; ++i) {
    auto ref = pool->Pin(pids[i]);
    ASSERT_TRUE(ref.ok()) << "page " << i;
    EXPECT_EQ(*(*ref)->Get(0), "page " + std::to_string(i));
  }
  EXPECT_GT(pool->stats().misses, 0);
}

TEST(BufferPoolTest, PinnedFramesAreNotEvicted) {
  auto pool = MakePool(2);
  uint32_t a = *pool->Allocate();
  auto held = *pool->Pin(a);
  // Fill well past the bound while `a` stays pinned.
  for (int i = 0; i < 5; ++i) {
    uint32_t pid = *pool->Allocate();
    auto ref = *pool->Pin(pid);
    ref.MarkDirty();
  }
  for (uint32_t evicted : pool->eviction_log()) {
    EXPECT_NE(evicted, a);
  }
  // The pinned frame is resident and untouched.
  EXPECT_EQ((*held).num_slots(), 0);
  EXPECT_LE(pool->resident_pages(), 3u);  // Bound + the pinned overflow.
}

TEST(BufferPoolTest, TrimsBackToBoundAfterUnpin) {
  auto pool = MakePool(2);
  uint32_t a = *pool->Allocate();
  {
    auto held = *pool->Pin(a);
    for (int i = 0; i < 5; ++i) {
      (void)*pool->Allocate();
    }
  }
  // Unpin trimmed residency back under the bound.
  EXPECT_LE(pool->resident_pages(), 2u);
}

TEST(BufferPoolTest, LruKPrefersColdSingleTouchPages) {
  auto pool = MakePool(3);
  uint32_t a = *pool->Allocate();
  uint32_t b = *pool->Allocate();
  uint32_t c = *pool->Allocate();
  // `a` and `b` get second touches (K=2 history); `c` stays single-touch.
  (void)*pool->Pin(a);
  (void)*pool->Pin(b);
  uint32_t d = *pool->Allocate();  // Forces one eviction.
  (void)d;
  ASSERT_EQ(pool->eviction_log().size(), 1u);
  EXPECT_EQ(pool->eviction_log()[0], c);
}

TEST(BufferPoolTest, EvictionOrderIsDeterministic) {
  auto run = [] {
    auto pool = MakePool(4);
    std::vector<uint32_t> pids;
    for (int i = 0; i < 4; ++i) {
      pids.push_back(*pool->Allocate());
    }
    // A fixed access pattern, then pressure.
    (void)*pool->Pin(pids[2]);
    (void)*pool->Pin(pids[0]);
    (void)*pool->Pin(pids[2]);
    for (int i = 0; i < 8; ++i) {
      (void)*pool->Allocate();
    }
    return pool->eviction_log();
  };
  auto first = run();
  EXPECT_EQ(first, run());
  EXPECT_EQ(first.size(), 8u);
}

TEST(BufferPoolTest, FreeRecyclesSmallestIdFirst) {
  auto pool = MakePool(0);
  uint32_t a = *pool->Allocate();
  uint32_t b = *pool->Allocate();
  uint32_t c = *pool->Allocate();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(c, 2u);
  ASSERT_TRUE(pool->Free(c).ok());
  ASSERT_TRUE(pool->Free(a).ok());
  EXPECT_EQ(*pool->Allocate(), a);  // Smallest freed id first.
  EXPECT_EQ(*pool->Allocate(), c);
  EXPECT_EQ(*pool->Allocate(), 3u);
}

TEST(BufferPoolTest, FreeOfPinnedPageFails) {
  auto pool = MakePool(0);
  uint32_t pid = *pool->Allocate();
  auto ref = *pool->Pin(pid);
  EXPECT_TRUE(pool->Free(pid).IsFailedPrecondition());
}

TEST(BufferPoolTest, FreeOfUnallocatedIdFails) {
  auto pool = MakePool(0);
  EXPECT_FALSE(pool->Free(7).ok());
  uint32_t pid = *pool->Allocate();
  ASSERT_TRUE(pool->Free(pid).ok());
  EXPECT_FALSE(pool->Free(pid).ok());  // Double free.
}

TEST(BufferPoolTest, CountersMirrorIntoMetricsRegistry) {
  obs::MetricsRegistry metrics;
  auto pool = MakePool(1);
  pool->SetMetricsRegistry(&metrics);
  uint32_t a = *pool->Allocate();
  uint32_t b = *pool->Allocate();  // Evicts a.
  (void)*pool->Pin(b);             // Hit.
  (void)*pool->Pin(a);             // Miss (reload).
  EXPECT_EQ(metrics.GetCounter("db.pool.allocations")->Value(), 2);
  EXPECT_GE(metrics.GetCounter("db.pool.evictions")->Value(), 1);
  EXPECT_GE(metrics.GetCounter("db.pool.hits")->Value(), 1);
  EXPECT_GE(metrics.GetCounter("db.pool.misses")->Value(), 1);
  EXPECT_GE(metrics.GetCounter("db.pool.writebacks")->Value(), 1);
}

// --- PageStore discipline ---

TEST(PageStoreTest, MemStoreRoundTripAndNotFound) {
  MemPageStore store;
  std::string image;
  EXPECT_TRUE(store.Read(0, &image).status().IsNotFound());
  Page page;
  ASSERT_TRUE(page.Insert("payload").ok());
  page.set_lsn(42);
  ASSERT_TRUE(store.Write(3, page.Image(), 42).ok());
  auto lsn = store.Read(3, &image);
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 42u);
  auto round = Page::FromImage(image);
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(*round->Get(0), "payload");
  EXPECT_EQ(round->lsn(), 42u);
}

class FilePageStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             (std::string("dflow_pages_") +
              ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                .string();
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::string path_;
};

TEST_F(FilePageStoreTest, RoundTripAndHoleDetection) {
  auto store = *FilePageStore::Create(path_);
  Page page;
  ASSERT_TRUE(page.Insert("on disk").ok());
  ASSERT_TRUE(store->Write(5, page.Image(), 9).ok());
  std::string image;
  // Slot 5 round-trips; slots 0..4 are holes (never written), not torn.
  auto lsn = store->Read(5, &image);
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 9u);
  EXPECT_EQ(*(*Page::FromImage(image)).Get(0), "on disk");
  for (uint32_t pid = 0; pid < 5; ++pid) {
    EXPECT_TRUE(store->Read(pid, &image).status().IsNotFound()) << pid;
  }
  EXPECT_TRUE(store->Read(6, &image).status().IsNotFound());
}

// A writeback torn at EVERY byte offset must read back as Corruption (or,
// for a zero-byte tear, NotFound) — never as valid data. This is the
// store-level half of the crash-chaos gate: whatever byte the "process"
// died at, the damage is detected, and recovery falls back to the WAL.
TEST_F(FilePageStoreTest, TornWritebackDetectedAtEveryByte) {
  Page page;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(page.Insert("record " + std::to_string(i)).ok());
  }
  page.set_lsn(7);
  for (size_t budget = 0; budget < FilePageStore::kSlotBytes; budget += 1) {
    auto store = *FilePageStore::Create(path_);
    store->AbandonAfter(static_cast<int64_t>(budget));
    ASSERT_TRUE(store->Write(0, page.Image(), 7).ok());
    ASSERT_TRUE(store->abandoned());

    auto reopened = *FilePageStore::OpenExisting(path_);
    std::string image;
    auto read = reopened->Read(0, &image);
    ASSERT_FALSE(read.ok()) << "torn at byte " << budget;
    if (budget == 0) {
      EXPECT_TRUE(read.status().IsNotFound());
    } else {
      EXPECT_TRUE(read.status().IsCorruption()) << "torn at byte " << budget;
    }
  }
  // Sanity: an untorn write reads back fine.
  auto store = *FilePageStore::Create(path_);
  ASSERT_TRUE(store->Write(0, page.Image(), 7).ok());
  auto reopened = *FilePageStore::OpenExisting(path_);
  std::string image;
  EXPECT_TRUE(reopened->Read(0, &image).ok());
}

TEST_F(FilePageStoreTest, WritesAfterAbandonGoNowhere) {
  auto store = *FilePageStore::Create(path_);
  Page page;
  store->AbandonAfter(0);
  ASSERT_TRUE(store->Write(0, page.Image(), 1).ok());
  ASSERT_TRUE(store->Write(1, page.Image(), 2).ok());
  EXPECT_EQ(store->bytes_written(), 0);
}

// --- Page::FromImage validation ---

TEST(PageImageTest, RejectsWrongSizeBadMagicAndBitRot) {
  EXPECT_TRUE(Page::FromImage("short").status().IsCorruption());

  Page page;
  ASSERT_TRUE(page.Insert("abc").ok());
  std::string image(page.Image());
  ASSERT_TRUE(Page::FromImage(image).ok());

  std::string bad_magic = image;
  bad_magic[0] = 'X';
  EXPECT_TRUE(Page::FromImage(bad_magic).status().IsCorruption());

  // Corrupt the slot directory so the slot points outside the page.
  std::string bad_slot = image;
  bad_slot[16] = '\xff';
  bad_slot[17] = '\x7f';
  EXPECT_TRUE(Page::FromImage(bad_slot).status().IsCorruption());
}

TEST(PageImageTest, LsnSurvivesMutationsAndRoundTrip) {
  Page page;
  page.set_lsn(1234);
  ASSERT_TRUE(page.Insert("x").ok());
  ASSERT_TRUE(page.Insert("y").ok());
  ASSERT_TRUE(page.Delete(0).ok());
  page.Compact();
  EXPECT_EQ(page.lsn(), 1234u);
  auto round = Page::FromImage(page.Image());
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->lsn(), 1234u);
  EXPECT_EQ(round->live_records(), 1);
}

// --- WAL-before-page, end to end through the Database ---

TEST(WalBeforePageTest, EvictionWritebacksNeverOutrunDurableWal) {
  auto dir = std::filesystem::temp_directory_path();
  auto path = (dir / "dflow_wbp.wal").string();
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".pages");

  {
    DatabaseOptions opts;
    opts.pool_frames = 2;  // Tiny: evictions on nearly every statement.
    auto db = Database::Open(path, opts);
    ASSERT_TRUE(db.ok());
    int64_t violations = 0, writebacks = 0;
    (*db)->pool()->SetWritebackProbe(
        [&](uint32_t, uint64_t page_lsn, uint64_t durable_lsn) {
          ++writebacks;
          if (page_lsn > durable_lsn) {
            ++violations;
          }
        });
    ASSERT_TRUE((*db)->Execute("CREATE TABLE t (k INT, pad TEXT)").ok());
    for (int i = 0; i < 400; ++i) {
      ASSERT_TRUE((*db)
                      ->Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                                ", '" + std::string(120, 'p') + "')")
                      .ok());
    }
    ASSERT_TRUE((*db)->Execute("DELETE FROM t WHERE k < 50").ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
    EXPECT_GT(writebacks, 0);
    EXPECT_EQ(violations, 0)
        << "a page image reached the store ahead of its WAL record";
  }
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".pages");
}

// --- The read path pins each heap page once per scan ---

int64_t Pins(const Database& db) {
  BufferPool::Stats stats = db.pool()->stats();
  return stats.hits + stats.misses;
}

TEST(ScanPinsTest, SequentialScanPinsEachHeapPageOnce) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (k INT, flag INT, pad TEXT)").ok());
  std::vector<Row> rows;
  for (int64_t k = 0; k < 2000; ++k) {
    rows.push_back(
        {Value::Int(k), Value::Int(0), Value::String(std::string(40, 'p'))});
  }
  ASSERT_TRUE(db.InsertMany("t", std::move(rows)).ok());
  const int64_t pages =
      static_cast<int64_t>(db.catalog().Find("t")->heap->num_pages());
  ASSERT_GT(pages, 1);

  // A SELECT with no usable index pins each page once, not once more per
  // row it reads.
  int64_t before = Pins(db);
  auto all = db.Execute("SELECT * FROM t");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->rows.size(), 2000u);
  EXPECT_EQ(Pins(db) - before, pages);

  // UPDATE and DELETE pin each page once for their scan, plus once for
  // each row they change (every update here fits in place).
  before = Pins(db);
  auto updated = db.Execute("UPDATE t SET flag = 1 WHERE k % 7 = 0");
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(updated->affected, 286);
  EXPECT_EQ(Pins(db) - before, pages + 286);

  before = Pins(db);
  auto deleted = db.Execute("DELETE FROM t WHERE flag = 1");
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(deleted->affected, 286);
  EXPECT_EQ(Pins(db) - before, pages + 286);
}

}  // namespace
}  // namespace dflow::db
