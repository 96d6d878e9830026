#include <gtest/gtest.h>

#include "net/network_link.h"
#include "net/shipment.h"
#include "net/transfer.h"
#include "util/crc32.h"
#include "util/units.h"

namespace dflow::net {
namespace {

TransferItem Item(const std::string& name, int64_t bytes) {
  return TransferItem{name, bytes, Crc32::Of(name)};
}

TEST(NetworkLinkTest, StreamTimeMatchesBandwidth) {
  sim::Simulation simulation;
  NetworkLinkConfig config;
  config.bandwidth_bits_per_sec = 100.0e6;  // 100 Mb/s.
  config.utilization_cap = 1.0;
  config.propagation_delay_sec = 0.0;
  NetworkLink link(&simulation, "ia_to_cornell", config);

  double done_at = 0.0;
  ASSERT_TRUE(link.Send(Item("crawl", 125 * kMB),  // 125 MB = 10^9 bits.
                        [&](const TransferItem&, DeliveryOutcome outcome) {
                          EXPECT_EQ(outcome, DeliveryOutcome::kDelivered);
                          done_at = simulation.Now();
                        })
                  .ok());
  simulation.Run();
  EXPECT_NEAR(done_at, 10.0, 1e-6);
  EXPECT_EQ(link.bytes_delivered(), 125 * kMB);
}

TEST(NetworkLinkTest, FilesSerializeOnThePipe) {
  sim::Simulation simulation;
  NetworkLinkConfig config;
  config.bandwidth_bits_per_sec = 800.0e6;
  config.utilization_cap = 1.0;
  config.propagation_delay_sec = 0.0;
  NetworkLink link(&simulation, "link", config);
  std::vector<double> completions;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(link.Send(Item("f" + std::to_string(i), 100 * kMB),
                          [&](const TransferItem&, DeliveryOutcome) {
                            completions.push_back(simulation.Now());
                          })
                    .ok());
  }
  simulation.Run();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_NEAR(completions[0], 1.0, 1e-6);
  EXPECT_NEAR(completions[1], 2.0, 1e-6);
  EXPECT_NEAR(completions[2], 3.0, 1e-6);
}

TEST(NetworkLinkTest, FaultInjection) {
  sim::Simulation simulation;
  NetworkLinkConfig config;
  config.corruption_probability = 0.3;
  config.failure_probability = 0.2;
  NetworkLink link(&simulation, "flaky", config, /*seed=*/7);
  int delivered = 0, corrupted = 0, lost = 0;
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(link.Send(Item("f" + std::to_string(i), kMB),
                          [&](const TransferItem&, DeliveryOutcome outcome) {
                            switch (outcome) {
                              case DeliveryOutcome::kDelivered:
                                ++delivered;
                                break;
                              case DeliveryOutcome::kCorrupted:
                                ++corrupted;
                                break;
                              case DeliveryOutcome::kLost:
                                ++lost;
                                break;
                            }
                          })
                    .ok());
  }
  simulation.Run();
  EXPECT_EQ(delivered + corrupted + lost, 500);
  EXPECT_NEAR(lost / 500.0, 0.2, 0.06);
  // Corruption applies to non-lost files: ~0.8 * 0.3 = 0.24.
  EXPECT_NEAR(corrupted / 500.0, 0.24, 0.06);
  EXPECT_EQ(link.items_delivered(), delivered);
}

TEST(ShipmentChannelTest, BatchesDepartOnScheduleAndTransit) {
  sim::Simulation simulation;
  ShipmentConfig config;
  config.shipment_interval_sec = kWeek;
  config.transit_time_sec = 3 * kDay;
  config.disk_damage_probability = 0.0;
  config.file_corruption_probability = 0.0;
  ShipmentChannel channel(&simulation, "arecibo_disks", config);

  double arrival = 0.0;
  ASSERT_TRUE(channel.Send(Item("block", 100 * kGB),
                           [&](const TransferItem&, DeliveryOutcome outcome) {
                             EXPECT_EQ(outcome, DeliveryOutcome::kDelivered);
                             arrival = simulation.Now();
                           })
                  .ok());
  simulation.Run();
  EXPECT_NEAR(arrival, kWeek + 3 * kDay, 1.0);
  EXPECT_EQ(channel.shipments_dispatched(), 1);
  EXPECT_GT(channel.handling_seconds(), 0.0);
}

TEST(ShipmentChannelTest, OverflowWaitsForNextCourier) {
  sim::Simulation simulation;
  ShipmentConfig config;
  config.disk_capacity_bytes = 10 * kGB;
  config.disks_per_shipment = 1;
  config.shipment_interval_sec = kWeek;
  config.transit_time_sec = kDay;
  config.disk_damage_probability = 0.0;
  config.file_corruption_probability = 0.0;
  ShipmentChannel channel(&simulation, "tiny", config);

  std::vector<double> arrivals;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(channel.Send(Item("f" + std::to_string(i), 8 * kGB),
                             [&](const TransferItem&, DeliveryOutcome) {
                               arrivals.push_back(simulation.Now());
                             })
                    .ok());
  }
  simulation.Run();
  ASSERT_EQ(arrivals.size(), 3u);
  // One 8 GB file per 10 GB disk per weekly shipment.
  EXPECT_NEAR(arrivals[0], kWeek + kDay, 1.0);
  EXPECT_NEAR(arrivals[1], 2 * kWeek + kDay, 1.0);
  EXPECT_NEAR(arrivals[2], 3 * kWeek + kDay, 1.0);
  EXPECT_EQ(channel.shipments_dispatched(), 3);
}

TEST(ShipmentChannelTest, OversizeFileRejected) {
  sim::Simulation simulation;
  ShipmentConfig config;
  config.disk_capacity_bytes = kGB;
  ShipmentChannel channel(&simulation, "s", config);
  EXPECT_TRUE(
      channel.Send(Item("big", 2 * kGB), nullptr).IsInvalidArgument());
}

TEST(ShipmentChannelTest, NominalBandwidthBeatsThinWan) {
  sim::Simulation simulation;
  // The paper's comparison: weekly shipments of a 16-disk batch vs
  // Arecibo's thin WAN link.
  ShipmentChannel shipment(&simulation, "disks", ShipmentConfig{});
  NetworkLinkConfig wan;
  wan.bandwidth_bits_per_sec = 20.0e6;  // Thin island uplink.
  NetworkLink link(&simulation, "wan", wan);
  EXPECT_GT(shipment.NominalBandwidth(), link.NominalBandwidth());
}

TEST(TransferManifestTest, VerifyCatchesMismatch) {
  TransferManifest manifest;
  manifest.Add(Item("a", 100));
  EXPECT_TRUE(manifest.Verify(Item("a", 100)).ok());
  EXPECT_TRUE(manifest.Verify(Item("a", 101)).IsCorruption());
  TransferItem tampered = Item("a", 100);
  tampered.crc32 ^= 1;
  EXPECT_TRUE(manifest.Verify(tampered).IsCorruption());
  EXPECT_TRUE(manifest.Verify(Item("b", 1)).IsNotFound());
  EXPECT_EQ(manifest.TotalBytes(), 100);
}

TEST(TransferSchedulerTest, RetriesUntilEverythingLands) {
  sim::Simulation simulation;
  NetworkLinkConfig config;
  config.corruption_probability = 0.25;
  config.failure_probability = 0.1;
  NetworkLink link(&simulation, "flaky", config, /*seed=*/11);
  TransferScheduler scheduler(&simulation, &link, /*max_retries=*/50);

  std::vector<TransferItem> items;
  for (int i = 0; i < 200; ++i) {
    items.push_back(Item("f" + std::to_string(i), kMB));
  }
  bool all_done = false;
  ASSERT_TRUE(scheduler.SendAll(items, [&] { all_done = true; }).ok());
  simulation.Run();
  EXPECT_TRUE(all_done);
  EXPECT_TRUE(scheduler.AllDelivered());
  EXPECT_EQ(scheduler.failures(), 0);
  EXPECT_GT(scheduler.retries(), 0);  // ~35% fault rate must retry some.
}

TEST(TransferSchedulerTest, ExhaustedRetriesAreReportedAsFailures) {
  sim::Simulation simulation;
  NetworkLinkConfig config;
  config.failure_probability = 1.0;  // The link drops everything.
  NetworkLink link(&simulation, "dead", config, /*seed=*/3);
  TransferScheduler scheduler(&simulation, &link, /*max_retries=*/3);
  bool done = false;
  ASSERT_TRUE(scheduler.SendAll({Item("doomed", kMB), Item("also", kMB)},
                                [&] { done = true; })
                  .ok());
  simulation.Run();
  EXPECT_TRUE(done);  // Completion still fires so operators notice.
  EXPECT_EQ(scheduler.failures(), 2);
  EXPECT_EQ(scheduler.retries(), 2 * 3);
  EXPECT_EQ(link.bytes_delivered(), 0);
}

TEST(TransferSchedulerTest, EmptyBatchCompletesImmediately) {
  sim::Simulation simulation;
  NetworkLink link(&simulation, "link", NetworkLinkConfig{});
  TransferScheduler scheduler(&simulation, &link);
  bool done = false;
  ASSERT_TRUE(scheduler.SendAll({}, [&] { done = true; }).ok());
  simulation.Run();
  EXPECT_TRUE(done);
}

TEST(TransferSchedulerTest, SecondSendAllRejected) {
  sim::Simulation simulation;
  NetworkLink link(&simulation, "link", NetworkLinkConfig{});
  TransferScheduler scheduler(&simulation, &link);
  ASSERT_TRUE(scheduler.SendAll({Item("a", 1)}, nullptr).ok());
  EXPECT_TRUE(
      scheduler.SendAll({Item("b", 1)}, nullptr).IsFailedPrecondition());
}

}  // namespace
}  // namespace dflow::net
