// Storage scrubber: end-to-end verification of archived files (loud bad
// blocks and silent bit rot), deduplicated repair tickets through the
// operator-repair path, replica restores, and the no-double-repair /
// no-lost-ticket contract when an HSM recall's own repair races a scrub
// ticket on the same file.

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "recover/scrubber.h"
#include "sim/simulation.h"
#include "storage/disk.h"
#include "storage/hsm.h"
#include "storage/tape.h"
#include "util/units.h"

namespace dflow::recover {
namespace {

void ArchiveFiles(sim::Simulation* sim, storage::TapeLibrary* tape,
                  int count) {
  for (int i = 0; i < count; ++i) {
    ASSERT_TRUE(
        tape->Write("f" + std::to_string(i), (i + 1) * kGB, nullptr).ok());
  }
  sim->Run();
}

TEST(ScrubberTest, DetectsAndRepairsFromReplica) {
  sim::Simulation sim;
  storage::TapeLibrary primary(&sim, "primary", storage::TapeLibraryConfig{});
  storage::TapeLibrary replica(&sim, "replica", storage::TapeLibraryConfig{});
  ArchiveFiles(&sim, &primary, 6);
  ArchiveFiles(&sim, &replica, 6);

  primary.MarkBadBlock("f1");
  primary.MarkBadBlock("f3");
  primary.CorruptSilently("f2");
  primary.CorruptSilently("f4");
  EXPECT_EQ(primary.silent_corruptions_injected(), 2);

  ScrubberConfig config;
  config.cycle_interval_sec = 600.0;
  config.files_per_cycle = 8;  // Whole namespace in one cycle.
  config.operator_repair_seconds = 900.0;
  obs::MetricsRegistry metrics;
  obs::TracerConfig trace_config;
  trace_config.clock = obs::TracerConfig::ClockMode::kExternal;
  trace_config.external_now_sec = [&sim] { return sim.Now(); };
  obs::Tracer tracer(trace_config);
  Scrubber scrubber(&sim, &primary, &replica, config);
  scrubber.SetObserver(&tracer, &metrics);
  ASSERT_TRUE(scrubber.Start().ok());
  EXPECT_FALSE(scrubber.Start().ok());  // Double-start rejected.
  sim.Run();

  EXPECT_EQ(scrubber.files_scanned(), 6);
  EXPECT_EQ(scrubber.bad_blocks_found(), 2);
  EXPECT_EQ(scrubber.silent_corruption_found(), 2);
  EXPECT_EQ(scrubber.tickets_filed(), 4);
  // Every repair came from the clean replica copy (real replica drive
  // time was paid), and every fault is gone.
  EXPECT_EQ(scrubber.restored_from_replica(), 4);
  EXPECT_EQ(scrubber.repairs_local(), 0);
  EXPECT_EQ(scrubber.unrecoverable(), 0);
  EXPECT_EQ(scrubber.tickets_pending(), 0);
  for (const std::string& file : primary.FileNames()) {
    EXPECT_FALSE(primary.HasBadBlock(file)) << file;
    EXPECT_FALSE(primary.IsSilentlyCorrupt(file)) << file;
  }
  // Registry mirrors match the accessors.
  EXPECT_EQ(metrics.CounterValue("scrub.files_scanned"),
            scrubber.files_scanned());
  EXPECT_EQ(metrics.CounterValue("scrub.bad_blocks_found"),
            scrubber.bad_blocks_found());
  EXPECT_EQ(metrics.CounterValue("scrub.silent_corruption_found"),
            scrubber.silent_corruption_found());
  EXPECT_EQ(metrics.CounterValue("scrub.restored_from_replica"),
            scrubber.restored_from_replica());
  // The trace carries the cycle span and the detection instants.
  std::string trace = tracer.ExportChromeJson();
  EXPECT_NE(trace.find("scrub.cycle"), std::string::npos);
  EXPECT_NE(trace.find("scrub.bad_block"), std::string::npos);
  EXPECT_NE(trace.find("scrub.silent_corruption"), std::string::npos);
  EXPECT_NE(trace.find("scrub.repaired"), std::string::npos);
}

TEST(ScrubberTest, SilentCorruptionWithoutReplicaIsUnrecoverable) {
  sim::Simulation sim;
  storage::TapeLibrary primary(&sim, "primary", storage::TapeLibraryConfig{});
  ArchiveFiles(&sim, &primary, 3);
  primary.MarkBadBlock("f0");      // Operator-repairable in place.
  primary.CorruptSilently("f1");   // No clean copy anywhere: lost.

  ScrubberConfig config;
  config.cycle_interval_sec = 60.0;
  Scrubber scrubber(&sim, &primary, /*replica=*/nullptr, config);
  ASSERT_TRUE(scrubber.Start().ok());
  sim.Run();

  EXPECT_EQ(scrubber.repairs_local(), 1);
  EXPECT_EQ(scrubber.unrecoverable(), 1);
  EXPECT_FALSE(primary.HasBadBlock("f0"));
  EXPECT_TRUE(primary.IsSilentlyCorrupt("f1"));  // Left for manual triage.
}

TEST(ScrubberTest, PendingTicketDedupedAcrossPasses) {
  sim::Simulation sim;
  storage::TapeLibrary primary(&sim, "primary", storage::TapeLibraryConfig{});
  ArchiveFiles(&sim, &primary, 2);
  primary.MarkBadBlock("f1");

  ScrubberConfig config;
  config.cycle_interval_sec = 60.0;
  config.files_per_cycle = 4;
  config.passes = 3;
  // The operator takes so long that later passes re-detect the fault
  // while the first ticket is still pending.
  config.operator_repair_seconds = 1.0e6;
  Scrubber scrubber(&sim, &primary, nullptr, config);
  ASSERT_TRUE(scrubber.Start().ok());
  sim.Run();

  EXPECT_EQ(scrubber.passes_completed(), 3);
  EXPECT_GE(scrubber.bad_blocks_found(), 2);  // Re-detected each pass.
  EXPECT_EQ(scrubber.tickets_filed(), 1);     // ...but ticketed once.
  EXPECT_GE(scrubber.tickets_deduped(), 1);
  EXPECT_EQ(scrubber.tickets_pending(), 0);   // Never lost, eventually run.
  EXPECT_EQ(scrubber.repairs_local(), 1);
  EXPECT_FALSE(primary.HasBadBlock("f1"));
}

// The race the satellite task names: an HSM recall hits the bad block and
// schedules its own operator repair; the scrubber independently detects
// the same fault and files a ticket. Exactly one repair happens; the
// scrub ticket still executes (never lost) and counts already_repaired.
TEST(ScrubberTest, HsmRepairRacesScrubTicket) {
  sim::Simulation sim;
  storage::TapeLibrary tape(&sim, "tape", storage::TapeLibraryConfig{});
  storage::DiskVolume disk("cache", 100 * kGB, 400.0e6, 0.005);
  storage::HsmCache hsm(&sim, &disk, &tape);
  bool archived = false;
  ASSERT_TRUE(hsm.Put("run1", 10 * kGB, [&] { archived = true; }).ok());
  sim.Run();
  ASSERT_TRUE(archived);
  hsm.Evict("run1");  // Next Get must recall from tape.
  tape.MarkBadBlock("run1");

  // HSM repair lands at ~900s (fault policy); the scrub ticket executes
  // later, at detection time + 2000s.
  ScrubberConfig config;
  config.cycle_interval_sec = 50.0;
  config.operator_repair_seconds = 2000.0;
  Scrubber scrubber(&sim, &tape, nullptr, config);
  ASSERT_TRUE(scrubber.Start().ok());

  int64_t recalled = 0;
  ASSERT_TRUE(hsm.GetChecked("run1", [&](Result<int64_t> bytes) {
                   ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
                   recalled = *bytes;
                 }).ok());
  sim.Run();

  EXPECT_EQ(recalled, 10 * kGB);
  // Exactly one actual repair — the HSM's.
  EXPECT_EQ(hsm.operator_repairs(), 1);
  EXPECT_EQ(scrubber.repairs_local(), 0);
  // The scrub ticket was filed on detection, survived, and resolved as
  // already-repaired when it executed — not lost, not a double repair.
  EXPECT_EQ(scrubber.tickets_filed(), 1);
  EXPECT_EQ(scrubber.already_repaired(), 1);
  EXPECT_EQ(scrubber.tickets_pending(), 0);
  EXPECT_FALSE(tape.HasBadBlock("run1"));
}

// Stress (ASan/TSan): many independent simulations scrubbing in parallel
// threads, all publishing into ONE shared MetricsRegistry and ONE shared
// Tracer — the cross-thread surface of the scrubber. Sharing the registry
// shares the counters (each scrubber's accessors read every thread's
// counts), so each thread checks its own archive and the registry is
// checked for the totals.
TEST(ScrubberStressTest, ParallelScrubsSharedObservability) {
  constexpr int kThreads = 8;
  constexpr int kFiles = 12;
  obs::MetricsRegistry metrics;
  obs::TracerConfig trace_config;
  obs::Tracer tracer(trace_config);  // Wall clock; content not asserted.
  std::vector<std::thread> threads;
  std::vector<int64_t> healthy(kThreads, 0);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &metrics, &tracer, &healthy] {
      sim::Simulation sim;
      storage::TapeLibrary primary(&sim, "p" + std::to_string(t),
                                   storage::TapeLibraryConfig{});
      storage::TapeLibrary replica(&sim, "r" + std::to_string(t),
                                   storage::TapeLibraryConfig{});
      for (int i = 0; i < kFiles; ++i) {
        (void)primary.Write("f" + std::to_string(i), kGB, nullptr);
        (void)replica.Write("f" + std::to_string(i), kGB, nullptr);
      }
      sim.Run();
      for (int i = 0; i < kFiles; i += 2) {
        if (i % 4 == 0) {
          primary.MarkBadBlock("f" + std::to_string(i));
        } else {
          primary.CorruptSilently("f" + std::to_string(i));
        }
      }
      ScrubberConfig config;
      config.cycle_interval_sec = 100.0;
      config.files_per_cycle = 5;
      Scrubber scrubber(&sim, &primary, &replica, config);
      scrubber.SetObserver(&tracer, &metrics);
      if (!scrubber.Start().ok()) {
        return;
      }
      sim.Run();
      for (int i = 0; i < kFiles; ++i) {
        std::string file = "f" + std::to_string(i);
        if (!primary.HasBadBlock(file) && !primary.IsSilentlyCorrupt(file)) {
          ++healthy[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int64_t h : healthy) {
    EXPECT_EQ(h, kFiles);  // Every injected fault repaired.
  }
  EXPECT_EQ(metrics.CounterValue("scrub.files_scanned"),
            int64_t{kThreads} * kFiles);
  // Each archive needed one repair per faulted file; with every archive
  // healed, an exact total means no scrubber repaired a file twice.
  EXPECT_EQ(metrics.CounterValue("scrub.repairs_local") +
                metrics.CounterValue("scrub.restored_from_replica"),
            int64_t{kThreads} * (kFiles / 2));
}

}  // namespace
}  // namespace dflow::recover
