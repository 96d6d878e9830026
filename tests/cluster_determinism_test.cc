// The cluster determinism gate: same seed => byte-identical router
// decision logs, shard maps, state fingerprints, forward-hop transcripts,
// and logical-clock traces, enforced across 1/2/4/8-node configurations —
// including runs with kills, rejoins, and live shard moves in the
// history. A nondeterministic routing, placement or forward-drop change
// fails here, not in a flaky bench.

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "core/web_service.h"
#include "obs/trace.h"
#include "serve/workload_gen.h"
#include "util/md5.h"

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
  std::vector<std::string> Endpoints() const override { return {"item"}; }
  const std::string& name() const override { return name_; }

 private:
  std::string name_ = "echo";
};

BackendFactory EchoBackends() {
  return [](int, core::ServiceRegistry* registry) {
    return registry->Mount("svc", std::make_shared<EchoService>());
  };
}

/// A seeded Zipf request stream shared by every run of a config — the
/// workload side of the fingerprint is pinned by WorkloadGen's own
/// determinism contract.
std::vector<ServiceRequest> WorkloadRequests(uint64_t seed, int n) {
  std::vector<core::ServiceRequest> population;
  for (int i = 0; i < 300; ++i) {
    core::ServiceRequest request;
    request.path = "svc/item/" + std::to_string(i);
    population.push_back(std::move(request));
  }
  serve::WorkloadGen gen(population, /*zipf_s=*/1.1, seed);
  std::vector<ServiceRequest> requests;
  requests.reserve(n);
  for (int i = 0; i < n; ++i) {
    requests.push_back(gen.Next());
  }
  return requests;
}

/// Occurrences of `needle` in `haystack`.
int64_t CountOf(const std::string& haystack, const std::string& needle) {
  int64_t count = 0;
  for (size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

/// The forward-hop model's record of one workload: a cluster with lossy
/// forwards executes it one request at a time, and the transcript holds
/// each request's outcome, the drop and failure counts, and the logical
/// trace, whose `forward_drop` instants name every dropped hop.
struct WireRun {
  std::string transcript;
  int64_t forward_drops = 0;
  int64_t drop_instants = 0;
};

WireRun ExecuteOverLossyForwards(int num_nodes, uint64_t seed,
                                 const std::vector<ServiceRequest>& requests) {
  obs::TracerConfig trace_config;
  trace_config.clock = obs::TracerConfig::ClockMode::kLogical;
  obs::Tracer tracer(trace_config);

  ClusterConfig config;
  config.num_nodes = num_nodes;
  config.replication_factor = 2;
  config.seed = seed;
  config.workers_per_node = 1;
  config.forward_loss_probability = 0.2;
  config.tracer = &tracer;
  auto cluster = Cluster::Create(config, EchoBackends());
  EXPECT_TRUE(cluster.ok()) << cluster.status().message();

  WireRun run;
  for (const ServiceRequest& request : requests) {
    auto response = (*cluster)->Execute(request);
    run.transcript += request.path + " " +
                      (response.ok() ? response->body
                                     : response.status().ToString()) +
                      "\n";
  }
  ClusterStats stats = (*cluster)->Stats();
  run.forward_drops = stats.forward_drops;
  std::string trace = tracer.ExportChromeJson();
  run.drop_instants = CountOf(trace, "\"name\":\"forward_drop\"");
  run.transcript += "forward_drops=" + std::to_string(stats.forward_drops) +
                    " failed=" + std::to_string(stats.failed) + "\n" + trace;
  return run;
}

/// Everything the gate fingerprints about one serialized run.
struct RunArtifacts {
  std::string decision_log_md5;
  std::string map_fingerprint;
  std::string state_fingerprint;
  std::string wire_fingerprint;
  int64_t wire_drops = 0;
  std::string trace_fingerprint;
  std::string responses_md5;
};

/// One fully serialized cluster run: route + execute a seeded workload,
/// apply a deterministic Put history with a kill/rejoin and a shard move
/// in the middle; then a second cluster with the same seed executes the
/// workload over lossy forwards.
RunArtifacts RunOnce(int num_nodes, uint64_t seed) {
  obs::TracerConfig trace_config;
  trace_config.clock = obs::TracerConfig::ClockMode::kLogical;
  obs::Tracer tracer(trace_config);

  ClusterConfig config;
  config.num_nodes = num_nodes;
  config.replication_factor = 2;
  // The history below writes through a one-dead-replica window; pin the
  // pre-quorum availability contract so those writes land on the survivor.
  config.write_quorum = 1;
  config.read_quorum = 1;
  config.seed = seed;
  config.workers_per_node = 1;
  config.tracer = &tracer;
  auto cluster = Cluster::Create(config, EchoBackends());
  EXPECT_TRUE(cluster.ok()) << cluster.status().message();

  std::vector<ServiceRequest> workload = WorkloadRequests(seed, 400);
  std::vector<std::string> keys;
  keys.reserve(workload.size());
  for (const ServiceRequest& request : workload) {
    keys.push_back(Cluster::KeyOf(request));
  }

  Md5 responses;
  for (int i = 0; i < 120; ++i) {
    ServiceRequest request;
    request.path = "svc/item/" + std::to_string(i % 60);
    auto response = (*cluster)->Execute(request);
    EXPECT_TRUE(response.ok());
    responses.Update(response->body);
  }

  // A history with every disruptive transition in it: writes, a node
  // kill + writes it misses + rejoin (multi-node configs), and a pinned
  // shard move. All serialized, so the artifacts must replay bit-for-bit.
  for (int i = 0; i < 80; ++i) {
    EXPECT_TRUE(
        (*cluster)->Put("key/" + std::to_string(i), "a" + std::to_string(i))
            .ok());
  }
  if (num_nodes > 1) {
    EXPECT_TRUE((*cluster)->KillNode("node1").ok());
    for (int i = 40; i < 120; ++i) {
      EXPECT_TRUE((*cluster)
                      ->Put("key/" + std::to_string(i),
                            "b" + std::to_string(i))
                      .ok());
    }
    EXPECT_TRUE((*cluster)->RejoinNode("node1").ok());
    auto move = [&](int shard, const std::string& to) {
      Status moved = (*cluster)->MoveShard(shard, to);
      // AlreadyExists = the target already owned it; both outcomes are
      // deterministic, which is all the gate needs.
      EXPECT_TRUE(moved.ok() || moved.IsAlreadyExists())
          << moved.message();
    };
    move(0, "node0");
    move(1, "node" + std::to_string(num_nodes - 1));
  }

  WireRun wire = ExecuteOverLossyForwards(num_nodes, seed, workload);
  // Every dropped hop left its instant in the trace.
  EXPECT_EQ(wire.drop_instants, wire.forward_drops) << num_nodes << " nodes";

  RunArtifacts artifacts;
  artifacts.decision_log_md5 = Md5::HexOf((*cluster)->DecisionLog(keys));
  artifacts.map_fingerprint = Md5::HexOf((*cluster)->DescribeMap());
  artifacts.state_fingerprint = (*cluster)->Fingerprint();
  artifacts.wire_fingerprint = Md5::HexOf(wire.transcript);
  artifacts.wire_drops = wire.forward_drops;
  artifacts.trace_fingerprint = tracer.Fingerprint();
  artifacts.responses_md5 = responses.HexDigest();
  return artifacts;
}

TEST(ClusterDeterminismGate, SameSeedByteIdenticalAcrossNodeCounts) {
  std::map<int, RunArtifacts> by_nodes;
  for (int nodes : {1, 2, 4, 8}) {
    RunArtifacts first = RunOnce(nodes, 20260807);
    RunArtifacts second = RunOnce(nodes, 20260807);
    EXPECT_EQ(first.decision_log_md5, second.decision_log_md5)
        << nodes << "-node router decisions drifted between same-seed runs";
    EXPECT_EQ(first.map_fingerprint, second.map_fingerprint)
        << nodes << "-node shard map drifted between same-seed runs";
    EXPECT_EQ(first.state_fingerprint, second.state_fingerprint)
        << nodes << "-node replicated state drifted between same-seed runs";
    EXPECT_EQ(first.wire_fingerprint, second.wire_fingerprint)
        << nodes << "-node forward-hop transcript drifted between same-seed "
        << "runs";
    EXPECT_EQ(first.trace_fingerprint, second.trace_fingerprint)
        << nodes << "-node logical trace drifted between same-seed runs";
    EXPECT_EQ(first.responses_md5, second.responses_md5);
    if (nodes > 1) {
      // The lossy cluster really dropped hops, so the transcript is not
      // vacuously comparing loss-free runs.
      EXPECT_GT(first.wire_drops, 0) << nodes << " nodes";
    }
    by_nodes[nodes] = first;
  }
  // Responses are invariant under scale-out: growing the cluster changes
  // where requests run, never what they answer.
  for (int nodes : {2, 4, 8}) {
    EXPECT_EQ(by_nodes[1].responses_md5, by_nodes[nodes].responses_md5)
        << "scaling to " << nodes << " nodes changed response content";
  }
  // And placement genuinely differs by node count (the gate is not
  // vacuously comparing empty artifacts).
  EXPECT_NE(by_nodes[1].map_fingerprint, by_nodes[4].map_fingerprint);
  EXPECT_NE(by_nodes[2].decision_log_md5, by_nodes[8].decision_log_md5);
}

TEST(ClusterDeterminismGate, DifferentSeedsDiverge) {
  RunArtifacts a = RunOnce(4, 1);
  RunArtifacts b = RunOnce(4, 2);
  EXPECT_NE(a.decision_log_md5, b.decision_log_md5);
  EXPECT_NE(a.map_fingerprint, b.map_fingerprint);
  EXPECT_NE(a.wire_fingerprint, b.wire_fingerprint);
  // Different placement, same answers: responses don't depend on the seed.
  EXPECT_EQ(a.responses_md5, b.responses_md5);
}

TEST(ClusterDeterminismGate, RebalanceHandoffNeitherDropsNorDoubleServes) {
  ClusterConfig config;
  config.num_nodes = 3;
  config.replication_factor = 2;
  config.seed = 77;
  config.shard_map.num_shards = 16;
  auto cluster = Cluster::Create(config, EchoBackends());
  ASSERT_TRUE(cluster.ok());

  // A key for every shard (found through the router, so the test can
  // write into a specific shard's dual-write window).
  std::map<int, std::string> key_of_shard;
  for (int i = 0; i < 100 ||
                  key_of_shard.size() <
                      static_cast<size_t>(config.shard_map.num_shards);
       ++i) {
    ASSERT_LT(i, 10000) << "could not cover every shard with a key";
    std::string key = "key/" + std::to_string(i);
    auto decision = (*cluster)->Route(key);
    ASSERT_TRUE(decision.ok());
    key_of_shard.emplace(decision->shard, key);
    if (i < 100) {
      ASSERT_TRUE((*cluster)->Put(key, "v" + std::to_string(i)).ok());
    }
  }
  // Open a window on every shard, write through it, then land the move:
  // reads must stay correct at every step (serialized version of the
  // stress test's claim, so a violation is attributable, not flaky).
  std::vector<std::string> names = (*cluster)->node_names();
  for (int shard = 0; shard < config.shard_map.num_shards; ++shard) {
    const std::string& target = names[shard % names.size()];
    Status begun = (*cluster)->BeginShardMove(shard, target);
    if (begun.IsAlreadyExists()) {
      continue;
    }
    ASSERT_TRUE(begun.ok()) << begun.message();
    // Mid-window write INTO THE MOVING SHARD: must land on the old
    // replicas AND the target.
    ASSERT_TRUE((*cluster)->Put(key_of_shard[shard], "moved").ok());
    ASSERT_TRUE((*cluster)->CompleteShardMove(shard).ok());
  }
  ClusterStats stats = (*cluster)->Stats();
  EXPECT_GT(stats.rebalance_moves, 0);
  EXPECT_GT(stats.dual_writes, 0);
  for (int i = 0; i < 100; ++i) {
    auto value = (*cluster)->Get("key/" + std::to_string(i));
    ASSERT_TRUE(value.ok()) << "key " << i << " dropped in handoff";
  }
  // Completing twice is FailedPrecondition, not a silent second handoff.
  EXPECT_TRUE((*cluster)->CompleteShardMove(0).IsFailedPrecondition());
}

}  // namespace
}  // namespace dflow::cluster
