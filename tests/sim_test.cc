#include <gtest/gtest.h>

#include <vector>

#include "sim/resource.h"
#include "sim/simulation.h"
#include "sim/stats.h"

namespace dflow::sim {
namespace {

TEST(SimulationTest, EventsRunInTimeOrder) {
  Simulation simulation;
  std::vector<int> order;
  simulation.Schedule(3.0, [&] { order.push_back(3); });
  simulation.Schedule(1.0, [&] { order.push_back(1); });
  simulation.Schedule(2.0, [&] { order.push_back(2); });
  simulation.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(simulation.Now(), 3.0);
  EXPECT_EQ(simulation.events_processed(), 3);
}

TEST(SimulationTest, TiesPreserveSchedulingOrder) {
  Simulation simulation;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    simulation.Schedule(1.0, [&order, i] { order.push_back(i); });
  }
  simulation.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SimulationTest, EventsCanScheduleEvents) {
  Simulation simulation;
  int chain = 0;
  std::function<void()> step = [&] {
    if (++chain < 5) {
      simulation.Schedule(1.0, step);
    }
  };
  simulation.Schedule(1.0, step);
  simulation.Run();
  EXPECT_EQ(chain, 5);
  EXPECT_DOUBLE_EQ(simulation.Now(), 5.0);
}

TEST(SimulationTest, RunUntilStopsAtDeadline) {
  Simulation simulation;
  int fired = 0;
  simulation.Schedule(1.0, [&] { ++fired; });
  simulation.Schedule(10.0, [&] { ++fired; });
  simulation.RunUntil(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(simulation.Now(), 5.0);
  simulation.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulationTest, StepReturnsFalseWhenEmpty) {
  Simulation simulation;
  EXPECT_FALSE(simulation.Step());
  simulation.Schedule(0.0, [] {});
  EXPECT_TRUE(simulation.Step());
  EXPECT_FALSE(simulation.Step());
}

TEST(ResourceTest, SingleServerSerializesJobs) {
  Simulation simulation;
  Resource resource(&simulation, "cpu", 1);
  std::vector<double> completion_times;
  for (int i = 0; i < 3; ++i) {
    resource.Submit(2.0, [&] { completion_times.push_back(simulation.Now()); });
  }
  simulation.Run();
  ASSERT_EQ(completion_times.size(), 3u);
  EXPECT_DOUBLE_EQ(completion_times[0], 2.0);
  EXPECT_DOUBLE_EQ(completion_times[1], 4.0);
  EXPECT_DOUBLE_EQ(completion_times[2], 6.0);
  EXPECT_EQ(resource.jobs_completed(), 3);
}

TEST(ResourceTest, MultipleServersRunInParallel) {
  Simulation simulation;
  Resource resource(&simulation, "pool", 3);
  std::vector<double> completion_times;
  for (int i = 0; i < 3; ++i) {
    resource.Submit(2.0, [&] { completion_times.push_back(simulation.Now()); });
  }
  simulation.Run();
  for (double t : completion_times) {
    EXPECT_DOUBLE_EQ(t, 2.0);
  }
}

TEST(ResourceTest, QueueDelayAccounted) {
  Simulation simulation;
  Resource resource(&simulation, "cpu", 1);
  for (int i = 0; i < 4; ++i) {
    resource.Submit(1.0, nullptr);
  }
  simulation.Run();
  // Delays: 0, 1, 2, 3 -> mean 1.5.
  EXPECT_DOUBLE_EQ(resource.MeanQueueDelay(), 1.5);
  // The first job is dequeued immediately, so at most 3 jobs ever wait.
  EXPECT_EQ(resource.max_queue_length(), 3u);
}

TEST(ResourceTest, UtilizationReflectsLoad) {
  Simulation simulation;
  Resource busy(&simulation, "busy", 1);
  busy.Submit(10.0, nullptr);
  simulation.Run();
  EXPECT_NEAR(busy.Utilization(), 1.0, 1e-9);

  Simulation simulation2;
  Resource idle(&simulation2, "idle", 2);
  idle.Submit(10.0, nullptr);
  simulation2.Run();
  EXPECT_NEAR(idle.Utilization(), 0.5, 1e-9);
}

TEST(SummaryStatsTest, MomentsAndExtremes) {
  SummaryStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.Add(x);
  }
  EXPECT_EQ(stats.count(), 8);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.StdDev(), 2.1380899, 1e-5);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(SummaryStatsTest, MergeMatchesCombinedStream) {
  SummaryStats a, b, combined;
  for (int i = 0; i < 100; ++i) {
    double x = static_cast<double>(i * i % 37);
    combined.Add(x);
    (i % 2 == 0 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_NEAR(a.mean(), combined.mean(), 1e-9);
  EXPECT_NEAR(a.Variance(), combined.Variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), combined.min());
  EXPECT_DOUBLE_EQ(a.max(), combined.max());
}

TEST(SummaryStatsTest, EmptyIsSafe) {
  SummaryStats stats;
  EXPECT_EQ(stats.count(), 0);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.Variance(), 0.0);
}

}  // namespace
}  // namespace dflow::sim
