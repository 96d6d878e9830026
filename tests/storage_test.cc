#include <gtest/gtest.h>

#include "sim/simulation.h"
#include "storage/disk.h"
#include "storage/file_catalog.h"
#include "storage/hsm.h"
#include "storage/tape.h"
#include "storage/tier_store.h"
#include "util/units.h"

namespace dflow::storage {
namespace {

TEST(DiskVolumeTest, AllocateFreeAccounting) {
  DiskVolume disk("d0", 100 * kGB, 200.0e6, 0.005);
  EXPECT_TRUE(disk.Allocate(60 * kGB).ok());
  EXPECT_EQ(disk.used_bytes(), 60 * kGB);
  EXPECT_EQ(disk.FreeBytes(), 40 * kGB);
  EXPECT_TRUE(disk.Allocate(50 * kGB).IsResourceExhausted());
  EXPECT_TRUE(disk.Free(60 * kGB).ok());
  EXPECT_TRUE(disk.Free(1).IsInvalidArgument());
  EXPECT_TRUE(disk.Allocate(-1).IsInvalidArgument());
}

TEST(DiskVolumeTest, AccessTimeSeekPlusStream) {
  DiskVolume disk("d0", kTB, 100.0e6, 0.01);
  EXPECT_NEAR(disk.AccessTime(100 * kMB), 0.01 + 1.0, 1e-9);
}

TEST(RaidArrayTest, ParityReducesCapacityNotBandwidthScaling) {
  RaidArray raid("r0", 10, 2, kTB, 100.0e6, 0.01);
  EXPECT_EQ(raid.volume().capacity_bytes(), 8 * kTB);
  EXPECT_DOUBLE_EQ(raid.volume().bandwidth(), 8 * 100.0e6);
}

TEST(TapeLibraryTest, WriteReadAccounting) {
  sim::Simulation simulation;
  TapeLibraryConfig config;
  config.num_drives = 2;
  config.mount_seconds = 90.0;
  config.stream_bytes_per_sec = 100.0e6;
  TapeLibrary tape(&simulation, "ctc", config);

  bool wrote = false;
  ASSERT_TRUE(tape.Write("block1", 10 * kGB, [&] { wrote = true; }).ok());
  simulation.Run();
  EXPECT_TRUE(wrote);
  // 90 s mount + 100 s stream.
  EXPECT_NEAR(simulation.Now(), 190.0, 1e-6);
  EXPECT_EQ(tape.used_bytes(), 10 * kGB);

  int64_t read_bytes = 0;
  ASSERT_TRUE(tape.ReadChecked("block1", [&](Result<int64_t> n) {
                    ASSERT_TRUE(n.ok());
                    read_bytes = *n;
                  })
                  .ok());
  simulation.Run();
  EXPECT_EQ(read_bytes, 10 * kGB);
  EXPECT_EQ(tape.mounts(), 2);
}

TEST(TapeLibraryTest, ErrorsAndDriveContention) {
  sim::Simulation simulation;
  TapeLibraryConfig config;
  config.num_drives = 1;
  TapeLibrary tape(&simulation, "ctc", config);
  ASSERT_TRUE(tape.Write("a", kGB, nullptr).ok());
  EXPECT_TRUE(tape.Write("a", kGB, nullptr).IsAlreadyExists());
  EXPECT_TRUE(tape.ReadChecked("missing", nullptr).IsNotFound());

  // Two more writes contend for the single drive.
  double t_b = 0, t_c = 0;
  ASSERT_TRUE(tape.Write("b", kGB, [&] { t_b = simulation.Now(); }).ok());
  ASSERT_TRUE(tape.Write("c", kGB, [&] { t_c = simulation.Now(); }).ok());
  simulation.Run();
  EXPECT_GT(t_c, t_b);  // Serialized on the drive.
}

TEST(TapeLibraryTest, CapacityEnforced) {
  sim::Simulation simulation;
  TapeLibraryConfig config;
  config.capacity_bytes = 5 * kGB;
  TapeLibrary tape(&simulation, "small", config);
  EXPECT_TRUE(tape.Write("a", 4 * kGB, nullptr).ok());
  EXPECT_TRUE(tape.Write("b", 2 * kGB, nullptr).IsResourceExhausted());
}

TEST(HsmCacheTest, HitIsFastMissRecallsFromTape) {
  sim::Simulation simulation;
  DiskVolume cache("cache", 100 * kGB, 400.0e6, 0.005);
  TapeLibrary tape(&simulation, "tape", TapeLibraryConfig{});
  HsmCache hsm(&simulation, &cache, &tape);

  ASSERT_TRUE(hsm.Put("run1", 10 * kGB, nullptr).ok());
  simulation.Run();
  EXPECT_TRUE(hsm.InCache("run1"));
  EXPECT_TRUE(tape.Contains("run1"));

  // Hit: served from disk.
  double start = simulation.Now();
  int64_t got = 0;
  ASSERT_TRUE(hsm.GetChecked("run1", [&](Result<int64_t> n) {
                   ASSERT_TRUE(n.ok());
                   got = *n;
                 })
                  .ok());
  simulation.Run();
  EXPECT_EQ(got, 10 * kGB);
  EXPECT_EQ(hsm.hits(), 1);
  double hit_latency = simulation.Now() - start;

  // Evict, then a miss must recall from tape (mount latency dominates).
  hsm.Evict("run1");
  EXPECT_FALSE(hsm.InCache("run1"));
  start = simulation.Now();
  ASSERT_TRUE(hsm.GetChecked("run1", nullptr).ok());
  simulation.Run();
  double miss_latency = simulation.Now() - start;
  EXPECT_EQ(hsm.misses(), 1);
  EXPECT_GT(miss_latency, hit_latency * 2);
  EXPECT_TRUE(hsm.InCache("run1"));  // Reinstalled after recall.
}

TEST(HsmCacheTest, LruEviction) {
  sim::Simulation simulation;
  DiskVolume cache("cache", 3 * kGB, 400.0e6, 0.005);
  TapeLibrary tape(&simulation, "tape", TapeLibraryConfig{});
  HsmCache hsm(&simulation, &cache, &tape);

  ASSERT_TRUE(hsm.Put("a", kGB, nullptr).ok());
  ASSERT_TRUE(hsm.Put("b", kGB, nullptr).ok());
  ASSERT_TRUE(hsm.Put("c", kGB, nullptr).ok());
  simulation.Run();
  // Touch "a" so "b" is the LRU victim.
  ASSERT_TRUE(hsm.GetChecked("a", nullptr).ok());
  simulation.Run();
  ASSERT_TRUE(hsm.Put("d", kGB, nullptr).ok());
  simulation.Run();
  EXPECT_TRUE(hsm.InCache("a"));
  EXPECT_FALSE(hsm.InCache("b"));
  EXPECT_TRUE(hsm.InCache("d"));
  EXPECT_EQ(hsm.evictions(), 1);
}

TEST(HsmCacheTest, OversizeFileRejectedWithoutCorruptingState) {
  sim::Simulation simulation;
  DiskVolume cache("cache", 2 * kGB, 400.0e6, 0.005);
  TapeLibrary tape(&simulation, "tape", TapeLibraryConfig{});
  HsmCache hsm(&simulation, &cache, &tape);
  ASSERT_TRUE(hsm.Put("small", kGB, nullptr).ok());
  simulation.Run();
  // A file larger than the whole cache cannot be staged.
  EXPECT_TRUE(hsm.Put("huge", 5 * kGB, nullptr).IsResourceExhausted());
  // Existing content is untouched and still servable.
  EXPECT_TRUE(hsm.InCache("small"));
  int64_t got = 0;
  ASSERT_TRUE(hsm.GetChecked("small", [&](Result<int64_t> n) {
                   ASSERT_TRUE(n.ok());
                   got = *n;
                 })
                  .ok());
  simulation.Run();
  EXPECT_EQ(got, kGB);
}

TEST(HsmCacheTest, MissingFileIsNotFound) {
  sim::Simulation simulation;
  DiskVolume cache("cache", kGB, 400.0e6, 0.005);
  TapeLibrary tape(&simulation, "tape", TapeLibraryConfig{});
  HsmCache hsm(&simulation, &cache, &tape);
  EXPECT_TRUE(hsm.GetChecked("ghost", nullptr).IsNotFound());
}

TEST(HsmCacheTest, FailedRecallLeavesNothingCached) {
  sim::Simulation simulation;
  DiskVolume cache("cache", 10 * kGB, 400.0e6, 0.005);
  TapeLibrary tape(&simulation, "tape", TapeLibraryConfig{});
  HsmCache hsm(&simulation, &cache, &tape);
  HsmFaultPolicy policy;
  policy.max_read_attempts = 1;  // No operator repair: the block stays bad.
  hsm.SetFaultPolicy(policy);
  ASSERT_TRUE(hsm.Put("cursed", kGB, nullptr).ok());
  simulation.Run();
  hsm.Evict("cursed");
  tape.MarkBadBlock("cursed");

  const int64_t free_before = cache.FreeBytes();
  const int64_t evictions_before = hsm.evictions();
  Status seen = Status::OK();
  ASSERT_TRUE(hsm.GetChecked("cursed", [&](Result<int64_t> r) {
                   seen = r.status();
                 })
                  .ok());
  simulation.Run();
  EXPECT_TRUE(seen.IsIOError());
  EXPECT_EQ(hsm.read_failures(), 1);
  // The speculative install is rolled back: no entry, no disk bytes held.
  EXPECT_FALSE(hsm.InCache("cursed"));
  EXPECT_EQ(cache.FreeBytes(), free_before);
  EXPECT_EQ(hsm.evictions(), evictions_before + 1);

  // The next read is a miss that meets the still-bad block again, not a
  // cache hit on bytes that never arrived.
  const int64_t hits_before = hsm.hits();
  const int64_t misses_before = hsm.misses();
  seen = Status::OK();
  ASSERT_TRUE(hsm.GetChecked("cursed", [&](Result<int64_t> r) {
                   seen = r.status();
                 })
                  .ok());
  simulation.Run();
  EXPECT_TRUE(seen.IsIOError());
  EXPECT_EQ(hsm.hits(), hits_before);
  EXPECT_EQ(hsm.misses(), misses_before + 1);
  EXPECT_TRUE(tape.HasBadBlock("cursed"));
  EXPECT_FALSE(hsm.InCache("cursed"));
}

TEST(TierStoreTest, RegistrationAndCosts) {
  TierStore store;
  ASSERT_TRUE(store.RegisterGroup("tracks", 96, Tier::kHot).ok());
  ASSERT_TRUE(store.RegisterGroup("raw_hits", 12000, Tier::kCold).ok());
  EXPECT_TRUE(store.RegisterGroup("tracks", 1, Tier::kHot).IsAlreadyExists());
  EXPECT_TRUE(store.RegisterGroup("zero", 0, Tier::kHot).IsInvalidArgument());

  EXPECT_EQ(*store.GroupTier("tracks"), Tier::kHot);
  EXPECT_EQ(*store.BytesPerEvent({"tracks", "raw_hits"}), 12096);

  // Hot-only analysis is far cheaper than one touching the cold group.
  double hot_cost = *store.ReadCost({"tracks"}, 100000);
  double cold_cost = *store.ReadCost({"tracks", "raw_hits"}, 100000);
  EXPECT_GT(cold_cost, hot_cost * 10);
}

TEST(TierStoreTest, MoveGroupChangesCost) {
  TierStore store;
  ASSERT_TRUE(store.RegisterGroup("pr0", 24, Tier::kCold).ok());
  double cold = *store.ReadCost({"pr0"}, 1000);
  ASSERT_TRUE(store.MoveGroup("pr0", Tier::kHot).ok());
  double hot = *store.ReadCost({"pr0"}, 1000);
  EXPECT_LT(hot, cold);
  EXPECT_EQ(store.GroupsOnTier(Tier::kHot),
            (std::vector<std::string>{"pr0"}));
  EXPECT_TRUE(store.MoveGroup("nope", Tier::kHot).IsNotFound());
}

TEST(FileCatalogTest, RegisterTrackAudit) {
  FileCatalog catalog;
  FileRecord record;
  record.name = "pointing_001";
  record.bytes = 35 * kGB;
  record.crc32 = 0x1234;
  record.location = Location::kAcquisitionSite;
  ASSERT_TRUE(catalog.Register(record, 0.0).ok());
  EXPECT_TRUE(catalog.Register(record, 0.0).IsAlreadyExists());

  ASSERT_TRUE(
      catalog.UpdateLocation("pointing_001", Location::kInTransit, 10.0).ok());
  ASSERT_TRUE(
      catalog.UpdateLocation("pointing_001", Location::kArchive, 20.0).ok());
  EXPECT_TRUE(
      catalog.UpdateLocation("ghost", Location::kArchive, 0.0).IsNotFound());

  auto got = catalog.Get("pointing_001");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)->location, Location::kArchive);
  EXPECT_EQ((*got)->history.size(), 3u);

  EXPECT_EQ(catalog.BytesAt(Location::kArchive), 35 * kGB);
  EXPECT_EQ(catalog.BytesAt(Location::kInTransit), 0);
  EXPECT_EQ(catalog.TotalBytes(), 35 * kGB);

  // Audit: matching checksum passes, mismatch or unknown file flagged.
  std::map<std::string, uint32_t> checks = {{"pointing_001", 0x1234}};
  EXPECT_TRUE(catalog.Audit(checks).empty());
  checks["pointing_001"] = 0xdead;
  checks["unknown"] = 1;
  auto bad = catalog.Audit(checks);
  EXPECT_EQ(bad.size(), 2u);
}

}  // namespace
}  // namespace dflow::storage
