// Partition-tolerant quorum replication, end to end: seeded partition
// schedules armed through fault::FaultPlan, majority quorum writes/reads
// with hinted handoff and read-repair, and the offline consistency
// checker that proves no acked-write loss and per-key read monotonicity
// over every schedule. The 20-seed schedule sweep is the hard ctest gate
// ISSUE 10 requires: zero violations, and byte-identical same-seed
// histories, decision logs, and state digests.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "cluster/consistency.h"
#include "core/web_service.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "util/md5.h"
#include "util/rng.h"
#include "util/status.h"

namespace dflow::cluster {
namespace {

using core::ServiceRequest;
using core::ServiceResponse;

class EchoService : public core::WebService {
 public:
  Result<ServiceResponse> Handle(const ServiceRequest& request) override {
    ServiceResponse response;
    response.body = "ok:" + request.path;
    response.cache_max_age_sec = ServiceResponse::kUncacheable;
    return response;
  }
  std::vector<std::string> Endpoints() const override { return {"echo"}; }
  const std::string& name() const override { return name_; }

 private:
  std::string name_ = "echo";
};

BackendFactory EchoBackends() {
  return [](int, core::ServiceRegistry* registry) {
    return registry->Mount("svc", std::make_shared<EchoService>());
  };
}

std::string TempDir(const std::string& tag) {
  auto dir = std::filesystem::temp_directory_path() /
             ("dflow_partition_" + tag + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

Version V(int64_t epoch, int64_t counter, const std::string& node) {
  Version version;
  version.epoch = epoch;
  version.counter = counter;
  version.node = node;
  return version;
}

HistoryEvent Ev(HistoryEvent::Kind kind, const std::string& key,
                const std::string& value, Version version) {
  HistoryEvent event;
  event.kind = kind;
  event.key = key;
  event.value = value;
  event.version = version;
  return event;
}

// ---------------------------------------------------------------------
// The offline checker itself: a legal history passes, and each class of
// forbidden behaviour is caught (the checker must not be vacuous).

TEST(ConsistencyCheckerTest, AcceptsLegalHistory) {
  HistoryRecorder history;
  history.Append(Ev(HistoryEvent::Kind::kGetMiss, "k", "", {}));
  history.Append(Ev(HistoryEvent::Kind::kPutOk, "k", "v1", V(0, 1, "node0")));
  history.Append(Ev(HistoryEvent::Kind::kGetOk, "k", "v1", V(0, 1, "node0")));
  history.Append(Ev(HistoryEvent::Kind::kPutFail, "k", "v2", {}));
  history.Append(Ev(HistoryEvent::Kind::kGetFail, "k", "", {}));
  history.Append(Ev(HistoryEvent::Kind::kPutOk, "k", "v3", V(1, 2, "node1")));
  history.Append(Ev(HistoryEvent::Kind::kGetOk, "k", "v3", V(1, 2, "node1")));
  ConsistencyReport report = CheckHistory(history.events());
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.acked_writes, 2);
  EXPECT_EQ(report.rejected_writes, 1);
  EXPECT_EQ(report.reads, 3);
  EXPECT_EQ(report.failed_reads, 1);
}

TEST(ConsistencyCheckerTest, FlagsLostAckedWrite) {
  // Read returns the FIRST ack after a second one landed: the newer
  // acknowledged write is lost from the read's point of view.
  std::vector<HistoryEvent> events = {
      Ev(HistoryEvent::Kind::kPutOk, "k", "v1", V(0, 1, "node0")),
      Ev(HistoryEvent::Kind::kPutOk, "k", "v2", V(0, 2, "node0")),
      Ev(HistoryEvent::Kind::kGetOk, "k", "v1", V(0, 1, "node0")),
  };
  ConsistencyReport report = CheckHistory(events);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.violations, 1);
}

TEST(ConsistencyCheckerTest, FlagsQuorumMissAfterAck) {
  std::vector<HistoryEvent> events = {
      Ev(HistoryEvent::Kind::kPutOk, "k", "v1", V(0, 1, "node0")),
      Ev(HistoryEvent::Kind::kGetMiss, "k", "", {}),
  };
  ConsistencyReport report = CheckHistory(events);
  EXPECT_FALSE(report.ok());
}

TEST(ConsistencyCheckerTest, FlagsFabricatedAndWrongValueReads) {
  std::vector<HistoryEvent> events = {
      Ev(HistoryEvent::Kind::kPutOk, "k", "v1", V(0, 1, "node0")),
      // Fabricated: no acked write ever made (0, 9, node1). It is also
      // "newer" than the latest ack, so it trips the lost-write check too.
      Ev(HistoryEvent::Kind::kGetOk, "k", "zz", V(0, 9, "node1")),
  };
  ConsistencyReport report = CheckHistory(events);
  EXPECT_FALSE(report.ok());

  std::vector<HistoryEvent> wrong_value = {
      Ev(HistoryEvent::Kind::kPutOk, "k", "v1", V(0, 1, "node0")),
      Ev(HistoryEvent::Kind::kGetOk, "k", "not-v1", V(0, 1, "node0")),
  };
  report = CheckHistory(wrong_value);
  EXPECT_FALSE(report.ok());
}

TEST(ConsistencyCheckerTest, FlagsNonMonotonicVersionStamps) {
  // An acked write whose version does not advance past the previous ack.
  std::vector<HistoryEvent> events = {
      Ev(HistoryEvent::Kind::kPutOk, "k", "v2", V(0, 5, "node0")),
      Ev(HistoryEvent::Kind::kPutOk, "k", "v3", V(0, 4, "node0")),
  };
  ConsistencyReport report = CheckHistory(events);
  EXPECT_FALSE(report.ok());
}

// ---------------------------------------------------------------------
// Quorum behaviour under a live partition.

ClusterConfig MajorityConfig(int num_nodes, uint64_t seed) {
  ClusterConfig config;
  config.num_nodes = num_nodes;
  config.replication_factor = 3;
  config.seed = seed;
  config.workers_per_node = 1;
  return config;  // write_quorum/read_quorum 0 => majority (2 of 3).
}

TEST(ClusterPartitionTest, EffectiveQuorumsDefaultToMajority) {
  auto cluster = Cluster::Create(MajorityConfig(5, 1), EchoBackends());
  ASSERT_TRUE(cluster.ok());
  EXPECT_EQ((*cluster)->write_quorum(), 2);  // N = 3 replicas.
  EXPECT_EQ((*cluster)->read_quorum(), 2);

  ClusterConfig pinned = MajorityConfig(5, 1);
  pinned.write_quorum = 9;  // Clamped to N.
  pinned.read_quorum = 1;
  auto clamped = Cluster::Create(pinned, EchoBackends());
  ASSERT_TRUE(clamped.ok());
  EXPECT_EQ((*clamped)->write_quorum(), 3);
  EXPECT_EQ((*clamped)->read_quorum(), 1);
}

TEST(ClusterPartitionTest, MinorityPartitionRejectsAndMajorityProceeds) {
  HistoryRecorder history;
  ClusterConfig config = MajorityConfig(3, 7);
  config.history = &history;
  auto cluster = Cluster::Create(config, EchoBackends());
  ASSERT_TRUE(cluster.ok());

  // Cut node0 off; with rf=3 every shard's chain is all three nodes, so
  // every write needs 2 acks and node0-coordinated ops see only 1 node.
  ASSERT_TRUE((*cluster)->PartitionNodes("node0|node1,node2", 50.0).ok());

  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < 60; ++i) {
    std::string key = "key/" + std::to_string(i);
    Status put = (*cluster)->Put(key, "v" + std::to_string(i));
    if (put.ok()) {
      ++accepted;
    } else {
      EXPECT_TRUE(put.IsResourceExhausted()) << put.message();
      ++rejected;
    }
  }
  // The ingress hash spreads coordinators over all three nodes, so both
  // outcomes occur; only minority-coordinated writes are rejected.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
  ClusterStats mid = (*cluster)->Stats();
  EXPECT_EQ(mid.writes, accepted);
  EXPECT_EQ(mid.put_failures, rejected);
  EXPECT_GT(mid.hints_stored, 0);  // Accepted writes missed node0.
  EXPECT_EQ(mid.partition_transitions, 1);

  // Heal by the clock: hints drain, replicas converge without any reads.
  ASSERT_TRUE((*cluster)->AdvancePartitionTime(60.0).ok());
  ClusterStats healed = (*cluster)->Stats();
  EXPECT_EQ(healed.partition_transitions, 2);
  EXPECT_EQ(healed.hints_drained, healed.hints_stored);
  EXPECT_TRUE((*cluster)->ReplicasConverged());

  for (int i = 0; i < 60; ++i) {
    std::string key = "key/" + std::to_string(i);
    auto value = (*cluster)->Get(key);
    if (value.ok()) {
      EXPECT_EQ(*value, "v" + std::to_string(i));
    } else {
      EXPECT_TRUE(value.status().IsNotFound());  // Its write was rejected.
    }
  }
  ConsistencyReport report = CheckHistory(history.events());
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.acked_writes, accepted);
  EXPECT_EQ(report.rejected_writes, rejected);
}

TEST(ClusterPartitionTest, ReadRepairCoversLostHints) {
  HistoryRecorder history;
  ClusterConfig config = MajorityConfig(3, 13);
  config.history = &history;
  auto cluster = Cluster::Create(config, EchoBackends());
  ASSERT_TRUE(cluster.ok());

  ASSERT_TRUE((*cluster)->PartitionNodes("node0|node1,node2", 40.0).ok());
  int accepted = 0;
  for (int i = 0; i < 40; ++i) {
    if ((*cluster)->Put("key/" + std::to_string(i), "v").ok()) {
      ++accepted;
    }
  }
  ASSERT_GT(accepted, 0);
  ClusterStats mid = (*cluster)->Stats();
  ASSERT_GT(mid.hints_stored, 0);

  // Kill and rejoin both majority nodes IN TURN: each kill drops the
  // hints that node banked for node0, and each rejoin catches the node
  // back up from the surviving majority replica. After the pair, node0's
  // banked writes are gone from every hint store.
  for (const std::string holder : {"node1", "node2"}) {
    ASSERT_TRUE((*cluster)->KillNode(holder).ok());
    ASSERT_TRUE((*cluster)->RejoinNode(holder).ok());
  }

  ASSERT_TRUE((*cluster)->AdvancePartitionTime(50.0).ok());
  ClusterStats healed = (*cluster)->Stats();
  EXPECT_EQ(healed.hints_drained, 0);  // The heal had nothing to deliver.
  EXPECT_FALSE((*cluster)->ReplicasConverged());  // node0 is stale.

  // Quorum reads still return every acked write (W+R>N intersects the
  // majority), and repair node0 in passing.
  for (int i = 0; i < 40; ++i) {
    auto value = (*cluster)->Get("key/" + std::to_string(i));
    if (value.ok()) {
      EXPECT_EQ(*value, "v");
    }
  }
  ClusterStats repaired = (*cluster)->Stats();
  EXPECT_GT(repaired.read_repairs, 0);
  EXPECT_TRUE((*cluster)->ReplicasConverged());
  ConsistencyReport report = CheckHistory(history.events());
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(ClusterPartitionTest, AsymmetricCutStillExcludesPairFromQuorums) {
  auto cluster = Cluster::Create(MajorityConfig(3, 19), EchoBackends());
  ASSERT_TRUE(cluster.ok());

  // One-way damage: node0 cannot send to node1, node1->node0 still up.
  ASSERT_TRUE((*cluster)->CutLink("node0", "node1", 30.0).ok());
  std::string matrix = (*cluster)->ReachabilityMatrix();
  EXPECT_NE(matrix.find("node0->node1 down"), std::string::npos) << matrix;
  EXPECT_NE(matrix.find("node1->node0 up"), std::string::npos) << matrix;

  // Writes still meet quorum: whatever the coordinator, at least two of
  // the three replicas remain mutually reachable (the ack path for the
  // severed pair is gone, but node2 bridges nothing — quorum just forms
  // without the cut pair when the coordinator touches it).
  int accepted = 0;
  for (int i = 0; i < 30; ++i) {
    if ((*cluster)->Put("key/" + std::to_string(i), "v").ok()) {
      ++accepted;
    }
  }
  EXPECT_GT(accepted, 0);
  ClusterStats stats = (*cluster)->Stats();
  // node0-coordinated writes cannot ack node1 (no request path) and
  // node1-coordinated writes cannot ack node0 (no ack path): hints flow.
  EXPECT_GT(stats.hints_stored, 0);

  ASSERT_TRUE((*cluster)->AdvancePartitionTime(31.0).ok());
  EXPECT_EQ((*cluster)->Stats().hints_drained, stats.hints_stored);
  EXPECT_TRUE((*cluster)->ReplicasConverged());
}

TEST(ClusterPartitionTest, PartitionClockIsMonotonicAndValidated) {
  auto cluster = Cluster::Create(MajorityConfig(3, 23), EchoBackends());
  ASSERT_TRUE(cluster.ok());
  EXPECT_EQ((*cluster)->PartitionNow(), 0.0);
  ASSERT_TRUE((*cluster)->AdvancePartitionTime(5.0).ok());
  EXPECT_EQ((*cluster)->PartitionNow(), 5.0);
  EXPECT_TRUE((*cluster)->AdvancePartitionTime(1.0).IsOutOfRange());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE((*cluster)->AdvancePartitionTime(nan).IsOutOfRange());
  EXPECT_EQ((*cluster)->PartitionNow(), 5.0);

  // One check for every way to cut: a duration that is not > 0, an
  // unknown node and a self link are each refused, and cut nothing.
  const std::string all_up = (*cluster)->ReachabilityMatrix();
  const std::string spec = "node0|node1,node2";
  for (double bad : {0.0, -5.0, nan}) {
    EXPECT_TRUE((*cluster)->PartitionNodes(spec, bad).IsInvalidArgument())
        << bad;
    EXPECT_TRUE((*cluster)->CutLink("node0", "node1", bad).IsInvalidArgument())
        << bad;
  }
  EXPECT_TRUE(
      (*cluster)->PartitionNodes("node0|nope", 1.0).IsInvalidArgument());
  EXPECT_TRUE((*cluster)->CutLink("node0", "nope", 1.0).IsInvalidArgument());
  EXPECT_TRUE((*cluster)->CutLink("node0", "node0", 1.0).IsInvalidArgument());
  EXPECT_EQ((*cluster)->ReachabilityMatrix(), all_up);

  // A refused cut leaves no boundary behind: the clock still advances.
  ASSERT_TRUE((*cluster)->AdvancePartitionTime(10.0).ok());
  EXPECT_EQ((*cluster)->PartitionNow(), 10.0);
  EXPECT_EQ((*cluster)->ReachabilityMatrix(), all_up);
  EXPECT_EQ((*cluster)->Stats().partition_transitions, 0);
}

TEST(ClusterPartitionTest, OverlappingCutsOfOneLinkHealAtTheLaterEnd) {
  auto cluster = Cluster::Create(MajorityConfig(3, 37), EchoBackends());
  ASSERT_TRUE(cluster.ok());
  auto down = [&] {
    return (*cluster)->ReachabilityMatrix().find("node0->node1 down") !=
           std::string::npos;
  };
  const std::string spec = "node0|node1,node2";
  ASSERT_TRUE((*cluster)->PartitionNodes(spec, 10.0).ok());
  EXPECT_TRUE(down());
  ASSERT_TRUE((*cluster)->AdvancePartitionTime(5.0).ok());
  ASSERT_TRUE((*cluster)->PartitionNodes(spec, 10.0).ok());  // Until 15.
  EXPECT_EQ((*cluster)->Stats().partition_transitions, 1);

  ASSERT_TRUE((*cluster)->AdvancePartitionTime(10.0).ok());
  EXPECT_TRUE(down());
  EXPECT_EQ((*cluster)->Stats().partition_transitions, 1);
  ASSERT_TRUE((*cluster)->AdvancePartitionTime(15.0).ok());
  EXPECT_FALSE(down());
  EXPECT_EQ((*cluster)->Stats().partition_transitions, 2);
}

TEST(ClusterPartitionTest, PlanArmedLinkCutIsStrictlyOneWay) {
  auto cluster = Cluster::Create(MajorityConfig(3, 7), EchoBackends());
  ASSERT_TRUE(cluster.ok());
  fault::FaultPlanConfig plan_config;
  plan_config.horizon_sec = 100.0;
  fault::FaultProcess process;
  process.kind = fault::FaultKind::kLinkCut;
  process.target = "node0->node1";
  process.rate_per_sec = 0.05;
  process.mean_duration_sec = 30.0;
  plan_config.processes.push_back(process);
  auto plan = fault::FaultPlan::Generate(21, plan_config);
  ASSERT_TRUE(plan.ok());
  ASSERT_FALSE(plan->empty());
  ASSERT_TRUE((*cluster)->ArmPartitionPlan(*plan).ok());

  // Mid-way through the first window only node0->node1 is down; the
  // reverse direction and every other link still flow.
  const fault::FaultEvent& first = plan->events().front();
  ASSERT_TRUE((*cluster)
                  ->AdvancePartitionTime(first.time_sec +
                                         first.duration_sec / 2.0)
                  .ok());
  EXPECT_EQ((*cluster)->ReachabilityMatrix(),
            "node0->node1 down\n"
            "node0->node2 up\n"
            "node1->node0 up\n"
            "node1->node2 up\n"
            "node2->node0 up\n"
            "node2->node1 up\n");

  // Past the last window the cut direction heals by the clock.
  double heal = 0.0;
  for (const fault::FaultEvent& event : plan->events()) {
    heal = std::max(heal, event.time_sec + event.duration_sec);
  }
  ASSERT_TRUE((*cluster)->AdvancePartitionTime(heal + 1.0).ok());
  EXPECT_EQ((*cluster)->ReachabilityMatrix().find("down"), std::string::npos);
}

TEST(ClusterPartitionTest, ArmPlanValidatesTargets) {
  auto cluster = Cluster::Create(MajorityConfig(3, 29), EchoBackends());
  ASSERT_TRUE(cluster.ok());

  fault::FaultPlanConfig plan_config;
  plan_config.horizon_sec = 100.0;
  fault::FaultProcess bad;
  bad.kind = fault::FaultKind::kPartition;
  bad.target = "node0|node9";  // Unknown node.
  bad.rate_per_sec = 0.5;
  plan_config.processes.push_back(bad);
  auto plan = fault::FaultPlan::Generate(3, plan_config);
  ASSERT_TRUE(plan.ok());
  ASSERT_FALSE(plan->empty());
  EXPECT_TRUE((*cluster)->ArmPartitionPlan(*plan).IsInvalidArgument());

  fault::FaultPlanConfig cut_config;
  cut_config.horizon_sec = 100.0;
  fault::FaultProcess malformed;
  malformed.kind = fault::FaultKind::kLinkCut;
  malformed.target = "node0/node1";  // Not a->b.
  malformed.rate_per_sec = 0.5;
  cut_config.processes.push_back(malformed);
  auto cut_plan = fault::FaultPlan::Generate(3, cut_config);
  ASSERT_TRUE(cut_plan.ok());
  ASSERT_FALSE(cut_plan->empty());
  EXPECT_TRUE((*cluster)->ArmPartitionPlan(*cut_plan).IsInvalidArgument());
}

TEST(ClusterPartitionTest, ArmPlanWithABadTargetArmsNothing) {
  // A valid partition beside one bad event: the plan is refused whole, so
  // advancing the clock through the plan's horizon cuts nothing.
  struct Case {
    fault::FaultKind kind;
    std::string target;
    double mean_duration_sec;
  };
  const std::vector<Case> cases = {
      {fault::FaultKind::kLinkCut, "node0node1", 5.0},    // No "->".
      {fault::FaultKind::kLinkCut, "node0->node0", 5.0},  // Self link.
      {fault::FaultKind::kLinkCut, "node0->node9", 5.0},  // Unknown node.
      {fault::FaultKind::kPartition, "node0|node9", 5.0}, // Unknown node.
      {fault::FaultKind::kPartition, "node0|", 5.0},      // Does not parse.
      {fault::FaultKind::kPartition, "node0|node1", 0.0}, // Zero duration.
      {fault::FaultKind::kLinkCut, "node1->node2", 0.0},  // Zero duration.
  };
  for (const Case& bad : cases) {
    auto cluster = Cluster::Create(MajorityConfig(3, 31), EchoBackends());
    ASSERT_TRUE(cluster.ok());
    const std::string matrix = (*cluster)->ReachabilityMatrix();

    fault::FaultPlanConfig plan_config;
    plan_config.horizon_sec = 100.0;
    fault::FaultProcess valid;
    valid.kind = fault::FaultKind::kPartition;
    valid.target = "node0|node1,node2";
    valid.rate_per_sec = 0.1;
    valid.mean_duration_sec = 5.0;
    fault::FaultProcess invalid;
    invalid.kind = bad.kind;
    invalid.target = bad.target;
    invalid.rate_per_sec = 0.1;
    invalid.mean_duration_sec = bad.mean_duration_sec;
    plan_config.processes = {valid, invalid};
    auto plan = fault::FaultPlan::Generate(4, plan_config);
    ASSERT_TRUE(plan.ok());

    Status armed = (*cluster)->ArmPartitionPlan(*plan);
    EXPECT_TRUE(armed.IsInvalidArgument())
        << bad.target << ": " << armed.ToString();
    for (double t = 1.0; t <= 101.0; t += 1.0) {
      ASSERT_TRUE((*cluster)->AdvancePartitionTime(t).ok());
      ASSERT_EQ((*cluster)->ReachabilityMatrix(), matrix)
          << bad.target << " at t=" << t;
    }
    EXPECT_EQ((*cluster)->Stats().partition_transitions, 0) << bad.target;
  }
}

TEST(ClusterPartitionTest, OneAdvanceStopsAtEveryCutAndHeal) {
  // One target partitioned again and again: one advance across the whole
  // horizon must observe every cut and heal, exactly as a cluster stepped
  // to each boundary in turn does.
  fault::FaultPlanConfig plan_config;
  plan_config.horizon_sec = 200.0;
  fault::FaultProcess process;
  process.kind = fault::FaultKind::kPartition;
  process.target = "node0|node1,node2";
  process.rate_per_sec = 0.015;
  process.mean_duration_sec = 10.0;
  plan_config.processes.push_back(process);
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    auto plan = fault::FaultPlan::Generate(seed, plan_config);
    ASSERT_TRUE(plan.ok());
    std::vector<double> boundaries;
    for (const fault::FaultEvent& event : plan->events()) {
      boundaries.push_back(event.time_sec);
      boundaries.push_back(event.time_sec + event.duration_sec);
    }
    std::sort(boundaries.begin(), boundaries.end());

    HistoryRecorder one_history;
    HistoryRecorder stepped_history;
    ClusterConfig one_config = MajorityConfig(3, 43);
    one_config.history = &one_history;
    ClusterConfig stepped_config = MajorityConfig(3, 43);
    stepped_config.history = &stepped_history;
    auto one = Cluster::Create(one_config, EchoBackends());
    auto stepped = Cluster::Create(stepped_config, EchoBackends());
    ASSERT_TRUE(one.ok());
    ASSERT_TRUE(stepped.ok());
    ASSERT_TRUE((*one)->ArmPartitionPlan(*plan).ok());
    ASSERT_TRUE((*stepped)->ArmPartitionPlan(*plan).ok());

    ASSERT_TRUE((*one)->AdvancePartitionTime(200.0).ok());
    for (double boundary : boundaries) {
      if (boundary <= 200.0) {
        ASSERT_TRUE((*stepped)->AdvancePartitionTime(boundary).ok());
      }
    }
    ASSERT_TRUE((*stepped)->AdvancePartitionTime(200.0).ok());

    EXPECT_GT((*stepped)->Stats().partition_transitions, 0) << "seed " << seed;
    EXPECT_EQ((*one)->Stats().partition_transitions,
              (*stepped)->Stats().partition_transitions)
        << "seed " << seed;
    EXPECT_EQ(one_history.ToString(), stepped_history.ToString())
        << "seed " << seed;
  }
}

// ---------------------------------------------------------------------
// Exact accounting for the new failure counter (and its obs mirror).

TEST(ClusterPartitionTest, PutFailuresExactAccounting) {
  obs::MetricsRegistry metrics;
  ClusterConfig config;
  config.num_nodes = 2;
  config.replication_factor = 2;  // Majority of 2 is 2: no dead replicas
                                  // tolerated, so failures are forced.
  config.seed = 31;
  config.metrics = &metrics;
  auto cluster = Cluster::Create(config, EchoBackends());
  ASSERT_TRUE(cluster.ok());

  ASSERT_TRUE((*cluster)->Put("key/a", "v").ok());
  ASSERT_TRUE((*cluster)->KillNode("node1").ok());
  int64_t quorum_failures = 0;
  for (int i = 0; i < 7; ++i) {
    Status put = (*cluster)->Put("key/" + std::to_string(i), "w");
    ASSERT_TRUE(put.IsResourceExhausted()) << put.message();
    ++quorum_failures;
  }
  ASSERT_TRUE((*cluster)->KillNode("node0").ok());
  int64_t dead_failures = 0;
  for (int i = 0; i < 3; ++i) {
    Status put = (*cluster)->Put("key/" + std::to_string(i), "x");
    ASSERT_TRUE(put.IsIOError()) << put.message();
    ++dead_failures;
  }

  ClusterStats stats = (*cluster)->Stats();
  EXPECT_EQ(stats.put_failures, quorum_failures + dead_failures);
  EXPECT_EQ(stats.writes, 1);
  // The obs mirror agrees exactly.
  EXPECT_EQ(metrics.GetCounter("cluster.put_failures")->Value(),
            stats.put_failures);
  EXPECT_EQ(metrics.GetCounter("cluster.writes")->Value(), stats.writes);
}

// ---------------------------------------------------------------------
// The hard gate: >= 20 seeded partition schedules, zero violations, and
// byte-identical same-seed artifacts.

struct ScheduleArtifacts {
  std::string history;
  std::string decision_log;
  std::string state;
  ConsistencyReport report;
  ClusterStats stats;
};

ScheduleArtifacts RunSchedule(uint64_t seed, const std::string& journal_dir) {
  constexpr int kNodes = 5;
  constexpr double kHorizon = 240.0;
  HistoryRecorder history;
  ClusterConfig config;
  config.num_nodes = kNodes;
  config.replication_factor = 3;
  config.seed = seed;
  config.workers_per_node = 1;
  config.journal_dir = journal_dir;
  config.history = &history;
  auto cluster = Cluster::Create(config, EchoBackends());
  EXPECT_TRUE(cluster.ok()) << cluster.status().message();

  // The seeded schedule: group splits and one-way cuts as Poisson
  // processes over the horizon.
  fault::FaultPlanConfig plan_config;
  plan_config.horizon_sec = kHorizon;
  for (const std::string spec :
       {"node0|node1,node2,node3,node4", "node0,node1|node2,node3,node4",
        "node1,node3|node0,node2,node4"}) {
    fault::FaultProcess process;
    process.kind = fault::FaultKind::kPartition;
    process.target = spec;
    process.rate_per_sec = 0.012;
    process.mean_duration_sec = 25.0;
    plan_config.processes.push_back(process);
  }
  for (const std::string link : {"node0->node2", "node3->node1"}) {
    fault::FaultProcess process;
    process.kind = fault::FaultKind::kLinkCut;
    process.target = link;
    process.rate_per_sec = 0.01;
    process.mean_duration_sec = 20.0;
    plan_config.processes.push_back(process);
  }
  auto plan = fault::FaultPlan::Generate(seed, plan_config);
  EXPECT_TRUE(plan.ok());
  EXPECT_TRUE((*cluster)->ArmPartitionPlan(*plan).ok());

  // Drive a seeded op mix through the schedule: writes, reads, and
  // kill/rejoin churn, stepping virtual time between bursts.
  Rng rng(seed * 2654435761ull + 17);
  std::set<std::string> dead;
  for (int step = 0; step < 48; ++step) {
    double t = (kHorizon * (step + 1)) / 48.0;
    EXPECT_TRUE((*cluster)->AdvancePartitionTime(t).ok());
    for (int op = 0; op < 5; ++op) {
      int which = static_cast<int>(rng.Uniform(0, 99));
      std::string key = "key/" + std::to_string(rng.Uniform(0, 39));
      if (which < 45) {
        std::string value =
            "v" + std::to_string(step) + "." + std::to_string(op);
        (void)(*cluster)->Put(key, value);
      } else if (which < 90) {
        (void)(*cluster)->Get(key);
      } else if (which < 95 && dead.empty()) {
        std::string victim =
            "node" + std::to_string(rng.Uniform(0, kNodes - 1));
        if ((*cluster)->KillNode(victim).ok()) {
          dead.insert(victim);
        }
      } else if (!dead.empty()) {
        std::string back = *dead.begin();
        if ((*cluster)->RejoinNode(back).ok()) {
          dead.erase(back);
        }
      }
    }
  }

  // Cool-down: heal everything (stepping far past the last possible heal
  // boundary), rejoin stragglers, then sweep reads so read-repair closes
  // any divergence a killed hint-holder left behind.
  EXPECT_TRUE((*cluster)->AdvancePartitionTime(kHorizon + 10000.0).ok());
  for (const std::string& node : dead) {
    EXPECT_TRUE((*cluster)->RejoinNode(node).ok());
  }
  for (int i = 0; i < 40; ++i) {
    (void)(*cluster)->Get("key/" + std::to_string(i));
  }

  std::vector<std::string> probe_keys;
  for (int i = 0; i < 40; ++i) {
    probe_keys.push_back("key/" + std::to_string(i));
  }
  ScheduleArtifacts artifacts;
  artifacts.history = history.ToString();
  artifacts.decision_log = (*cluster)->DecisionLog(probe_keys);
  artifacts.state = (*cluster)->DescribeState();
  artifacts.report = CheckHistory(history.events());
  artifacts.stats = (*cluster)->Stats();
  EXPECT_TRUE((*cluster)->ReplicasConverged())
      << "seed " << seed << " did not converge after heal + read sweep";
  return artifacts;
}

TEST(ClusterPartitionGate, TwentySeededSchedulesZeroViolations) {
  int64_t total_acked = 0;
  int64_t total_rejected = 0;
  int64_t total_transitions = 0;
  int64_t total_hints = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    std::string dir_a = TempDir("gate_a_" + std::to_string(seed));
    std::string dir_b = TempDir("gate_b_" + std::to_string(seed));
    ScheduleArtifacts a = RunSchedule(seed, dir_a);
    ScheduleArtifacts b = RunSchedule(seed, dir_b);

    EXPECT_TRUE(a.report.ok())
        << "seed " << seed << ":\n" << a.report.ToString();
    EXPECT_EQ(a.history, b.history)
        << "seed " << seed << " history drifted between same-seed runs";
    EXPECT_EQ(a.decision_log, b.decision_log)
        << "seed " << seed << " decision log drifted";
    EXPECT_EQ(a.state, b.state)
        << "seed " << seed << " replicated state drifted";

    total_acked += a.report.acked_writes;
    total_rejected += a.report.rejected_writes;
    total_transitions += a.stats.partition_transitions;
    total_hints += a.stats.hints_stored;
    std::filesystem::remove_all(dir_a);
    std::filesystem::remove_all(dir_b);
  }
  // The sweep is not vacuous: schedules produced real partitions, real
  // rejections, and real hinted handoffs alongside the acked traffic.
  EXPECT_GT(total_acked, 500);
  EXPECT_GT(total_rejected, 0);
  EXPECT_GT(total_transitions, 40);
  EXPECT_GT(total_hints, 0);
}

TEST(ClusterPartitionGate, SchedulesArePinned) {
  // The gate above compares two runs of one binary, so a change that
  // shifts every run alike passes it. This pins the bytes themselves:
  // one MD5 over each seed's history, decision log and state, in order.
  Md5 md5;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    std::string dir = TempDir("pin_" + std::to_string(seed));
    ScheduleArtifacts artifacts = RunSchedule(seed, dir);
    md5.Update(artifacts.history);
    md5.Update(artifacts.decision_log);
    md5.Update(artifacts.state);
    std::filesystem::remove_all(dir);
  }
  EXPECT_EQ(md5.HexDigest(), "0f816bf9b6a9c9a0a4d95737a5020ac7");
}

// ---------------------------------------------------------------------
// Threaded clients against a flapping partition: the TSan/ASan target.
// Ops serialize under the cluster's state lock, so even the concurrent
// history is a linearization the checker must accept.

TEST(ClusterPartitionStressTest, ConcurrentClientsAcrossPartitionFlaps) {
  HistoryRecorder history;
  ClusterConfig config = MajorityConfig(5, 41);
  config.history = &history;
  auto cluster = Cluster::Create(config, EchoBackends());
  ASSERT_TRUE(cluster.ok());

  std::atomic<bool> stop{false};
  std::atomic<int64_t> accepted{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        std::string key = "key/" + std::to_string((i * 7 + t) % 32);
        if (t % 2 == 0) {
          if ((*cluster)
                  ->Put(key, "t" + std::to_string(t) + "." +
                                 std::to_string(i))
                  .ok()) {
            accepted.fetch_add(1);
          }
        } else {
          (void)(*cluster)->Get(key);
        }
      }
    });
  }

  double now = 0.0;
  for (int flap = 0; flap < 12; ++flap) {
    // Isolate one node per flap; the cut heals before the next flap.
    std::string minority = "node" + std::to_string(flap % 5);
    std::string majority;
    for (int n = 0; n < 5; ++n) {
      if (n == flap % 5) {
        continue;
      }
      if (!majority.empty()) {
        majority += ",";
      }
      majority += "node" + std::to_string(n);
    }
    ASSERT_TRUE(
        (*cluster)->PartitionNodes(minority + "|" + majority, 4.0).ok());
    now += 10.0;
    ASSERT_TRUE((*cluster)->AdvancePartitionTime(now).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (std::thread& t : clients) {
    t.join();
  }
  EXPECT_GT(accepted.load(), 0);

  // Heal, then a serialized read sweep; the interleaved history is still
  // a legal serialization.
  ASSERT_TRUE((*cluster)->AdvancePartitionTime(now + 50.0).ok());
  for (int i = 0; i < 32; ++i) {
    (void)(*cluster)->Get("key/" + std::to_string(i));
  }
  EXPECT_TRUE((*cluster)->ReplicasConverged());
  ConsistencyReport report = CheckHistory(history.events());
  EXPECT_TRUE(report.ok()) << report.ToString();
}

}  // namespace
}  // namespace dflow::cluster
