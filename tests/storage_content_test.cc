// Content-bearing storage tier: chunked wlz compression on tape migrate,
// raw disk copies in the HSM cache, CRC-backed corruption detection on
// compressed recalls, and content-preserving media migration. Content and
// size-only files share one tape record and one HSM read path; the
// size-only reads (and the scrubber and chaos harnesses on them) are
// pinned in storage_test and elsewhere.

#include <string>

#include <gtest/gtest.h>

#include "sim/simulation.h"
#include "storage/disk.h"
#include "storage/hsm.h"
#include "storage/migration.h"
#include "storage/tape.h"
#include "util/rng.h"
#include "util/units.h"

namespace dflow::storage {
namespace {

std::string CatalogPayload(int records) {
  std::string payload;
  for (int i = 0; i < records; ++i) {
    payload += "run=" + std::to_string(i % 97) + ";beam=" +
               std::to_string(i % 7) + ";dm=112.5;snr=8.25;\n";
  }
  return payload;
}

TEST(TapeContentTest, CompressedRoundTripAndAccounting) {
  sim::Simulation simulation;
  TapeLibraryConfig config;
  config.compress_block_bytes = 4096;
  TapeLibrary tape(&simulation, "ctc", config);

  const std::string payload = CatalogPayload(4000);
  int64_t stored = 0;
  ASSERT_TRUE(
      tape.WriteContent("cat", payload, [&](int64_t s) { stored = s; })
          .ok());
  simulation.Run();
  ASSERT_GT(stored, 0);
  // Catalog text compresses: the archive holds FEWER bytes than raw, and
  // the size-only views (FileSize, used_bytes) see the STORED size — the
  // scrubber walk and capacity math are unchanged in kind.
  EXPECT_LT(stored, static_cast<int64_t>(payload.size()));
  EXPECT_EQ(tape.used_bytes(), stored);
  auto file_size = tape.FileSize("cat");
  ASSERT_TRUE(file_size.ok());
  EXPECT_EQ(*file_size, stored);
  EXPECT_TRUE(tape.HasContent("cat"));
  auto raw_size = tape.RawContentSize("cat");
  ASSERT_TRUE(raw_size.ok());
  EXPECT_EQ(*raw_size, static_cast<int64_t>(payload.size()));
  EXPECT_EQ(tape.content_stored_bytes(), stored);
  EXPECT_EQ(tape.content_raw_bytes(),
            static_cast<int64_t>(payload.size()));

  Result<std::string> read = Status::OK();
  ASSERT_TRUE(
      tape.ReadContentChecked("cat", [&](Result<std::string> r) {
            read = std::move(r);
          })
          .ok());
  simulation.Run();
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, payload);
}

TEST(TapeContentTest, RecallLatencyScalesWithStoredBytesPlusDecompress) {
  // Two same-raw-size files, one compressed and one not: the compressed
  // recall streams fewer bytes (faster) but pays the decompress rate.
  sim::Simulation sim_c;
  TapeLibraryConfig compressed_config;
  TapeLibrary tape_c(&sim_c, "c", compressed_config);
  sim::Simulation sim_u;
  TapeLibraryConfig uncompressed_config;
  uncompressed_config.compress_content = false;
  TapeLibrary tape_u(&sim_u, "u", uncompressed_config);

  const std::string payload = CatalogPayload(60000);  // ~2.5 MB.
  ASSERT_TRUE(tape_c.WriteContent("f", payload, nullptr).ok());
  ASSERT_TRUE(tape_u.WriteContent("f", payload, nullptr).ok());
  sim_c.Run();
  sim_u.Run();
  EXPECT_LT(tape_c.used_bytes(), tape_u.used_bytes());

  double t0_c = sim_c.Now();
  double t0_u = sim_u.Now();
  ASSERT_TRUE(tape_c.ReadContentChecked("f", nullptr).ok());
  ASSERT_TRUE(tape_u.ReadContentChecked("f", nullptr).ok());
  sim_c.Run();
  sim_u.Run();
  const double recall_c = sim_c.Now() - t0_c;
  const double recall_u = sim_u.Now() - t0_u;
  // Mount dominates both; the compressed recall must not be SLOWER, and
  // both must exceed the bare mount (streaming + decompress are modeled).
  EXPECT_LE(recall_c, recall_u);
  EXPECT_GT(recall_c, compressed_config.mount_seconds);
}

TEST(TapeContentTest, SilentCorruptionOnCompressedContentTripsFrameCrc) {
  sim::Simulation simulation;
  TapeLibrary tape(&simulation, "ctc", {});
  const std::string payload = CatalogPayload(2000);
  ASSERT_TRUE(tape.WriteContent("cat", payload, nullptr).ok());
  simulation.Run();

  tape.CorruptSilently("cat");
  EXPECT_TRUE(tape.IsSilentlyCorrupt("cat"));
  Result<std::string> read = Status::OK();
  ASSERT_TRUE(
      tape.ReadContentChecked("cat", [&](Result<std::string> r) {
            read = std::move(r);
          })
          .ok());
  simulation.Run();
  // No scrubber involved: the per-frame CRC inside the stored container
  // catches the flipped byte AT RECALL TIME.
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsCorruption()) << read.status().ToString();

  // A clean copy is rewritten over the rotten one: recall works again and
  // the bytes are exact.
  tape.ClearSilentCorruption("cat");
  Result<std::string> repaired = Status::OK();
  ASSERT_TRUE(
      tape.ReadContentChecked("cat", [&](Result<std::string> r) {
            repaired = std::move(r);
          })
          .ok());
  simulation.Run();
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(*repaired, payload);
}

TEST(TapeContentTest, SilentCorruptionOnUncompressedContentReadsRotten) {
  sim::Simulation simulation;
  TapeLibraryConfig config;
  config.compress_content = false;
  TapeLibrary tape(&simulation, "ctc", config);
  const std::string payload = CatalogPayload(500);
  ASSERT_TRUE(tape.WriteContent("cat", payload, nullptr).ok());
  simulation.Run();

  tape.CorruptSilently("cat");
  Result<std::string> read = Status::OK();
  ASSERT_TRUE(
      tape.ReadContentChecked("cat", [&](Result<std::string> r) {
            read = std::move(r);
          })
          .ok());
  simulation.Run();
  // No frame CRCs on raw content: the read SUCCEEDS with rotten bytes —
  // exactly the failure mode the scrubber exists for.
  ASSERT_TRUE(read.ok());
  EXPECT_NE(*read, payload);
  EXPECT_EQ(read->size(), payload.size());
}

TEST(TapeContentTest, BadBlockStillIOErrorAndDuplicateRejected) {
  sim::Simulation simulation;
  TapeLibrary tape(&simulation, "ctc", {});
  ASSERT_TRUE(tape.WriteContent("f", CatalogPayload(100), nullptr).ok());
  simulation.Run();
  EXPECT_TRUE(
      tape.WriteContent("f", "dup", nullptr).IsAlreadyExists());
  EXPECT_TRUE(tape.ReadContentChecked("missing", nullptr).IsNotFound());

  tape.MarkBadBlock("f");
  Result<std::string> read = Status::OK();
  ASSERT_TRUE(
      tape.ReadContentChecked("f", [&](Result<std::string> r) {
            read = std::move(r);
          })
          .ok());
  simulation.Run();
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsIOError());
}

TEST(HsmContentTest, HitServesRawCopyMissRecallsAndInstalls) {
  sim::Simulation simulation;
  DiskVolume disk("cache", 1 * kGB, 200.0e6, 0.005);
  TapeLibrary tape(&simulation, "ctc", {});
  HsmCache hsm(&simulation, &disk, &tape);

  const std::string payload = CatalogPayload(3000);
  int64_t stored = 0;
  ASSERT_TRUE(
      hsm.PutContent("cat", payload, [&](int64_t s) { stored = s; }).ok());
  simulation.Run();
  EXPECT_GT(stored, 0);
  EXPECT_LT(stored, static_cast<int64_t>(payload.size()));
  EXPECT_TRUE(hsm.InCache("cat"));

  // Hit: served from the raw disk copy, no tape mount.
  const int64_t mounts_before = tape.mounts();
  Result<std::string> hit = Status::OK();
  ASSERT_TRUE(
      hsm.GetContentChecked("cat", [&](Result<std::string> r) {
            hit = std::move(r);
          })
          .ok());
  simulation.Run();
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(*hit, payload);
  EXPECT_EQ(tape.mounts(), mounts_before);
  EXPECT_EQ(hsm.hits(), 1);

  // Evict, then miss: recalled from tape (decompressed) and re-installed.
  hsm.Evict("cat");
  EXPECT_FALSE(hsm.InCache("cat"));
  Result<std::string> miss = Status::OK();
  ASSERT_TRUE(
      hsm.GetContentChecked("cat", [&](Result<std::string> r) {
            miss = std::move(r);
          })
          .ok());
  simulation.Run();
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(*miss, payload);
  EXPECT_GT(tape.mounts(), mounts_before);
  EXPECT_TRUE(hsm.InCache("cat"));
  EXPECT_EQ(hsm.misses(), 1);
}

TEST(HsmContentTest, BadBlockRecallRetriesCorruptionFailsFast) {
  sim::Simulation simulation;
  DiskVolume disk("cache", 1 * kGB, 200.0e6, 0.005);
  TapeLibrary tape(&simulation, "ctc", {});
  HsmCache hsm(&simulation, &disk, &tape);
  const std::string payload = CatalogPayload(1000);
  ASSERT_TRUE(hsm.PutContent("cat", payload, nullptr).ok());
  simulation.Run();
  hsm.Evict("cat");

  // IOError (bad block) is operator-repairable: retried per policy.
  tape.MarkBadBlock("cat");
  Result<std::string> recovered = Status::OK();
  ASSERT_TRUE(
      hsm.GetContentChecked("cat", [&](Result<std::string> r) {
            recovered = std::move(r);
          })
          .ok());
  simulation.Run();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(*recovered, payload);
  EXPECT_EQ(hsm.read_faults(), 1);
  EXPECT_EQ(hsm.operator_repairs(), 1);
  EXPECT_EQ(hsm.read_failures(), 0);

  // Corruption (rotten frames) is NOT retried: re-reading the same tape
  // returns the same bytes, so the recall fails fast, counts a failure,
  // and rolls the speculative cache installation back.
  hsm.Evict("cat");
  tape.CorruptSilently("cat");
  Result<std::string> rotten = Status::OK();
  const int64_t repairs_before = hsm.operator_repairs();
  ASSERT_TRUE(
      hsm.GetContentChecked("cat", [&](Result<std::string> r) {
            rotten = std::move(r);
          })
          .ok());
  simulation.Run();
  ASSERT_FALSE(rotten.ok());
  EXPECT_TRUE(rotten.status().IsCorruption());
  EXPECT_EQ(hsm.operator_repairs(), repairs_before) << "corruption retried";
  EXPECT_EQ(hsm.read_failures(), 1);
  EXPECT_FALSE(hsm.InCache("cat")) << "failed recall left cache entry";
}

TEST(HsmContentTest, ContentReadReplacesACopyCachedWithoutBytes) {
  sim::Simulation simulation;
  DiskVolume disk("cache", 1 * kGB, 200.0e6, 0.005);
  TapeLibrary tape(&simulation, "ctc", {});
  HsmCache hsm(&simulation, &disk, &tape);
  const std::string payload = CatalogPayload(1000);
  ASSERT_TRUE(hsm.PutContent("cat", payload, nullptr).ok());
  simulation.Run();
  hsm.Evict("cat");

  // A size-only read caches the file without its bytes...
  ASSERT_TRUE(hsm.GetChecked("cat", nullptr).ok());
  simulation.Run();
  ASSERT_TRUE(hsm.InCache("cat"));
  // ...so a content read misses and replaces that copy with the raw one.
  Result<std::string> got = Status::OK();
  ASSERT_TRUE(
      hsm.GetContentChecked("cat", [&](Result<std::string> r) {
            got = std::move(r);
          })
          .ok());
  simulation.Run();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, payload);
  EXPECT_EQ(hsm.misses(), 2);
  EXPECT_EQ(disk.used_bytes(), static_cast<int64_t>(payload.size()));

  // One cached copy: the next content read hits, one eviction frees it.
  ASSERT_TRUE(hsm.GetContentChecked("cat", nullptr).ok());
  simulation.Run();
  EXPECT_EQ(hsm.hits(), 1);
  hsm.Evict("cat");
  EXPECT_FALSE(hsm.InCache("cat"));
  EXPECT_EQ(disk.used_bytes(), 0);
}

TEST(MigrationContentTest, MigrationRecompressesAndVerifiesContent) {
  sim::Simulation simulation;
  TapeLibraryConfig old_config;
  old_config.compress_block_bytes = 1024;
  TapeLibrary source(&simulation, "old", old_config);
  TapeLibraryConfig new_config;
  new_config.compress_block_bytes = 64 * 1024;  // New generation, new blocks.
  TapeLibrary destination(&simulation, "new", new_config);

  const std::string cat = CatalogPayload(2500);
  const std::string log = CatalogPayload(700) + "tail";
  ASSERT_TRUE(source.WriteContent("cat", cat, nullptr).ok());
  ASSERT_TRUE(source.WriteContent("log", log, nullptr).ok());
  // A size-only neighbor migrates alongside, unchanged semantics.
  ASSERT_TRUE(source.Write("blob", 10 * kMB, nullptr).ok());
  simulation.Run();

  MediaMigration migration(&simulation, &source, &destination, {});
  MigrationReport report;
  ASSERT_TRUE(migration.Run([&](const MigrationReport& r) { report = r; })
                  .ok());
  simulation.Run();
  EXPECT_EQ(report.files_total, 3);
  EXPECT_EQ(report.files_migrated, 3);
  EXPECT_EQ(report.files_lost, 0);

  // Different block size => legitimately different stored size; Verify
  // compares the RAW payload byte-for-byte.
  EXPECT_TRUE(migration.Verify().ok());
  auto dst_cat = destination.ContentSnapshot("cat");
  ASSERT_TRUE(dst_cat.ok());
  EXPECT_EQ(*dst_cat, cat);
  auto src_stored = source.FileSize("cat");
  auto dst_stored = destination.FileSize("cat");
  ASSERT_TRUE(src_stored.ok());
  ASSERT_TRUE(dst_stored.ok());
  EXPECT_NE(*src_stored, *dst_stored);
  // The size-only neighbor still verifies by stored size.
  auto blob_size = destination.FileSize("blob");
  ASSERT_TRUE(blob_size.ok());
  EXPECT_EQ(*blob_size, 10 * kMB);
}

TEST(MigrationContentTest, RottenSourceContentIsCountedLost) {
  sim::Simulation simulation;
  TapeLibrary source(&simulation, "old", {});
  TapeLibrary destination(&simulation, "new", {});
  ASSERT_TRUE(source.WriteContent("ok", CatalogPayload(300), nullptr).ok());
  ASSERT_TRUE(
      source.WriteContent("rot", CatalogPayload(400), nullptr).ok());
  simulation.Run();
  source.CorruptSilently("rot");

  MediaMigration migration(&simulation, &source, &destination, {});
  MigrationReport report;
  ASSERT_TRUE(migration.Run([&](const MigrationReport& r) { report = r; })
                  .ok());
  simulation.Run();
  EXPECT_EQ(report.files_migrated, 1);
  EXPECT_EQ(report.files_lost, 1) << "rotten frames must not migrate";
  EXPECT_TRUE(destination.HasContent("ok"));
  EXPECT_FALSE(destination.HasContent("rot"));
}

}  // namespace
}  // namespace dflow::storage
