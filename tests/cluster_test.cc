// The cluster tier end to end: deterministic routing through per-node
// serve loops, EventStore run-range sharding, breaker failover across
// nodes (the PR 5 machinery reused per node), journal-backed kill/rejoin,
// and live shard rebalancing under concurrent traffic.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "core/web_service.h"
#include "db/wal.h"
#include "eventstore/event_store.h"
#include "eventstore/eventstore_service.h"
#include "util/status.h"

namespace dflow::cluster {
namespace {

using core::ServiceRequest;
using core::ServiceResponse;

/// Deterministic echo tagged with the node it runs on, so a response
/// reveals which node's backend actually served it.
class TaggedService : public core::WebService {
 public:
  explicit TaggedService(std::string tag) : tag_(std::move(tag)) {}

  Result<ServiceResponse> Handle(const ServiceRequest& request) override {
    if (failing_.load(std::memory_order_relaxed)) {
      return Status::IOError("backend down on " + tag_);
    }
    ServiceResponse response;
    response.body = tag_ + ":" + request.path;
    response.cache_max_age_sec = ServiceResponse::kUncacheable;
    return response;
  }

  void SetFailing(bool failing) {
    failing_.store(failing, std::memory_order_relaxed);
  }

  std::vector<std::string> Endpoints() const override { return {"echo"}; }
  const std::string& name() const override { return tag_; }

 private:
  std::string tag_;
  std::atomic<bool> failing_{false};
};

ServiceRequest Req(const std::string& path) {
  ServiceRequest request;
  request.path = path;
  return request;
}

/// Node-agnostic echo: the same body no matter which node serves it, for
/// tests that compare cluster responses against a monolith.
BackendFactory PlainBackends() {
  return [](int, core::ServiceRegistry* registry) {
    return registry->Mount("svc", std::make_shared<TaggedService>("svc"));
  };
}

std::string TempDir(const std::string& tag) {
  auto dir = std::filesystem::temp_directory_path() /
             ("dflow_cluster_" + tag + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

TEST(ClusterTest, CreateValidatesConfig) {
  ClusterConfig config;
  config.num_nodes = 0;
  EXPECT_TRUE(
      Cluster::Create(config, PlainBackends()).status().IsInvalidArgument());
  config.num_nodes = 1;
  EXPECT_TRUE(
      Cluster::Create(config, nullptr).status().IsInvalidArgument());
}

TEST(ClusterTest, ExecuteRoutesEveryRequestExactlyOnce) {
  ClusterConfig config;
  config.num_nodes = 4;
  config.seed = 11;
  auto cluster = Cluster::Create(config, PlainBackends());
  ASSERT_TRUE(cluster.ok()) << cluster.status().message();

  const int kRequests = 200;
  for (int i = 0; i < kRequests; ++i) {
    auto response =
        (*cluster)->Execute(Req("svc/echo/" + std::to_string(i)));
    ASSERT_TRUE(response.ok()) << response.status().message();
    // The registry strips the mount prefix before the backend sees it.
    EXPECT_EQ(response->body, "svc:echo/" + std::to_string(i));
  }
  ClusterStats stats = (*cluster)->Stats();
  EXPECT_EQ(stats.requests, kRequests);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.local + stats.forwarded, kRequests);
  EXPECT_GT(stats.forwarded, 0);  // Ingress and owner hashes decorrelate.

  // No double-serve: dispatches across nodes sum to exactly one per
  // request, and more than one node took traffic.
  int64_t dispatched = 0;
  int nodes_used = 0;
  for (const auto& [node, served] : (*cluster)->ServedByNode()) {
    dispatched += served;
    nodes_used += served > 0 ? 1 : 0;
  }
  EXPECT_EQ(dispatched, kRequests);
  EXPECT_GT(nodes_used, 1);
}

TEST(ClusterTest, ResponsesMatchTheMonolith) {
  core::ServiceRegistry monolith;
  ASSERT_TRUE(
      monolith.Mount("svc", std::make_shared<TaggedService>("svc")).ok());

  for (int nodes : {1, 2, 4}) {
    ClusterConfig config;
    config.num_nodes = nodes;
    auto cluster = Cluster::Create(config, PlainBackends());
    ASSERT_TRUE(cluster.ok());
    for (int i = 0; i < 60; ++i) {
      ServiceRequest request = Req("svc/echo/" + std::to_string(i));
      auto direct = monolith.Handle(request);
      auto routed = (*cluster)->Execute(request);
      ASSERT_TRUE(direct.ok());
      ASSERT_TRUE(routed.ok());
      // Scaling out never changes what a request answers.
      EXPECT_EQ(direct->body, routed->body) << "nodes=" << nodes;
    }
  }
}

TEST(ClusterTest, EventStoreRunRangesShardAsUnits) {
  // One collaboration store shared by every node's mount — the cluster
  // shards REQUEST ROUTING over run-ranges; the store itself stays
  // authoritative, exactly like CLEO's shared repository.
  auto store = eventstore::EventStore::Create(
      eventstore::StoreScale::kCollaboration);
  ASSERT_TRUE(store.ok());
  for (int64_t run = 0; run < 100; ++run) {
    eventstore::FileEntry entry;
    entry.run = run;
    entry.data_type = "recon";
    entry.version = "Recon_A";
    entry.registered_at = 10 + run;
    entry.bytes = 1000 + run;
    entry.location = "hsm:/recon/" + std::to_string(run);
    ASSERT_TRUE((*store)->RegisterFile(entry).ok());
  }
  core::ServiceRegistry monolith;
  ASSERT_TRUE(
      monolith
          .Mount("es", std::make_shared<eventstore::EventStoreService>(
                           store->get()))
          .ok());

  ClusterConfig config;
  config.num_nodes = 4;
  config.seed = 5;
  eventstore::EventStore* shared = store->get();
  auto cluster = Cluster::Create(
      config, [shared](int, core::ServiceRegistry* registry) {
        return registry->Mount(
            "es", std::make_shared<eventstore::EventStoreService>(shared));
      });
  ASSERT_TRUE(cluster.ok());

  const int64_t kRunsPerRange = 10;
  std::map<std::string, std::string> range_target;
  for (int64_t run = 0; run < 100; ++run) {
    // Run-ranges are the unit of placement: every run in a decade routes
    // to the same node.
    std::string range_key = Cluster::KeyForRunRange(run, kRunsPerRange);
    auto decision = (*cluster)->Route(range_key);
    ASSERT_TRUE(decision.ok());
    auto [it, inserted] =
        range_target.emplace(range_key, decision->target);
    EXPECT_EQ(it->second, decision->target)
        << "run " << run << " left its range's node";

    ServiceRequest request = Req("es/versions");
    request.params["run"] = std::to_string(run);
    request.params["data_type"] = "recon";
    auto direct = monolith.Handle(request);
    auto routed = (*cluster)->Execute(request);
    ASSERT_TRUE(direct.ok()) << direct.status().message();
    ASSERT_TRUE(routed.ok()) << routed.status().message();
    EXPECT_EQ(direct->body, routed->body);
  }
  EXPECT_EQ(range_target.size(), 10u);
  std::map<std::string, int> nodes_hit;
  for (const auto& [range, node] : range_target) {
    ++nodes_hit[node];
  }
  EXPECT_GT(nodes_hit.size(), 1u);  // Ranges spread across the cluster.
}

TEST(ClusterTest, BreakerFailsOverToSuccessorNode) {
  // Per-node backends this time: node0's dies, and node0's own serve loop
  // must fail over to node1's registry through the PR 5 breaker.
  std::vector<std::shared_ptr<TaggedService>> backends;
  for (int i = 0; i < 2; ++i) {
    backends.push_back(
        std::make_shared<TaggedService>("node" + std::to_string(i)));
  }
  ClusterConfig config;
  config.num_nodes = 2;
  config.replication_factor = 1;  // No chain fallback: the breaker alone
                                  // must absorb the failure.
  config.seed = 3;
  auto cluster = Cluster::Create(
      config, [&backends](int node, core::ServiceRegistry* registry) {
        return registry->Mount("svc", backends[node]);
      });
  ASSERT_TRUE(cluster.ok());

  // Find keys owned by node0 (replication_factor 1 => chain == {owner}).
  std::vector<std::string> node0_keys;
  for (int i = 0; node0_keys.size() < 40 && i < 4000; ++i) {
    std::string path = "svc/echo/" + std::to_string(i);
    auto decision = (*cluster)->Route(Cluster::KeyOf(Req(path)));
    ASSERT_TRUE(decision.ok());
    if (decision->target == "node0") {
      node0_keys.push_back(path);
    }
  }
  ASSERT_EQ(node0_keys.size(), 40u);

  backends[0]->SetFailing(true);
  int node1_tagged = 0;
  for (const std::string& path : node0_keys) {
    auto response = (*cluster)->Execute(Req(path));
    if (response.ok() && response->body.rfind("node1:", 0) == 0) {
      ++node1_tagged;
    }
  }
  auto stats = (*cluster)->NodeServeStats("node0");
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->breaker_opened, 1);
  EXPECT_GT(stats->failover_requests, 0);
  // Once open, node0 serves node1-tagged responses via the replica
  // registry — requests keep succeeding with the primary backend dead.
  EXPECT_GT(node1_tagged, 0);

  backends[0]->SetFailing(false);
}

TEST(ClusterTest, KillRejoinReplaysJournalAndCatchesUp) {
  std::string dir = TempDir("rejoin");
  ClusterConfig config;
  config.num_nodes = 3;
  config.replication_factor = 2;
  // Availability-over-consistency (the pre-quorum contract): with one of
  // two replicas dead, writes must still land on the survivor.
  config.write_quorum = 1;
  config.read_quorum = 1;
  config.seed = 21;
  config.journal_dir = dir;
  auto cluster = Cluster::Create(config, PlainBackends());
  ASSERT_TRUE(cluster.ok());

  auto put_batch = [&](int lo, int hi, const std::string& tag) {
    for (int i = lo; i < hi; ++i) {
      ASSERT_TRUE((*cluster)
                      ->Put("key/" + std::to_string(i),
                            tag + std::to_string(i))
                      .ok());
    }
  };
  put_batch(0, 100, "v1-");

  ASSERT_TRUE((*cluster)->KillNode("node0").ok());
  EXPECT_FALSE((*cluster)->IsAlive("node0"));
  EXPECT_TRUE((*cluster)->KillNode("node0").IsFailedPrecondition());

  // Writes while node0 is down: overwrites AND fresh keys it will have to
  // catch up on at rejoin (they are not in its journal).
  put_batch(50, 150, "v2-");

  ASSERT_TRUE((*cluster)->RejoinNode("node0").ok());
  EXPECT_TRUE((*cluster)->IsAlive("node0"));
  ClusterStats stats = (*cluster)->Stats();
  EXPECT_GT(stats.journal_replayed, 0);
  EXPECT_GT(stats.catchup_shards, 0);

  auto expect_all_keys = [&](const std::string& when) {
    for (int i = 0; i < 150; ++i) {
      auto value = (*cluster)->Get("key/" + std::to_string(i));
      ASSERT_TRUE(value.ok()) << when << ": key " << i;
      std::string want =
          (i >= 50 ? "v2-" : "v1-") + std::to_string(i);
      EXPECT_EQ(*value, want) << when << ": key " << i;
    }
  };
  expect_all_keys("after rejoin");

  // Prove node0's rebuilt copies are real: kill each OTHER node in turn
  // and read everything through what remains.
  ASSERT_TRUE((*cluster)->KillNode("node1").ok());
  expect_all_keys("node1 dead");
  ASSERT_TRUE((*cluster)->RejoinNode("node1").ok());
  ASSERT_TRUE((*cluster)->KillNode("node2").ok());
  expect_all_keys("node2 dead");

  std::filesystem::remove_all(dir);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

TEST(ClusterTest, TornJournalTailReplaysIntactRecords) {
  std::string dir = TempDir("torn");
  ClusterConfig config;
  config.num_nodes = 3;
  config.replication_factor = 2;
  config.seed = 23;
  config.journal_dir = dir;
  auto cluster = Cluster::Create(config, PlainBackends());
  ASSERT_TRUE(cluster.ok());
  constexpr int kKeys = 24;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(
        (*cluster)->Put("key/" + std::to_string(i), "v" + std::to_string(i))
            .ok());
  }
  ASSERT_TRUE((*cluster)->KillNode("node0").ok());

  const std::string journal = dir + "/cluster_node0.journal";
  auto frames = db::WalReadAll(journal);
  ASSERT_TRUE(frames.ok());
  ASSERT_GE(frames->size(), 2u);
  const int64_t intact = static_cast<int64_t>(frames->size()) - 1;
  const std::string full = ReadFile(journal);
  const size_t last_start = full.size() - 8 - frames->back().size();

  // Cut the last record at every byte offset: rejoin replays exactly the
  // intact prefix, and owner catch-up restores the one write the cut lost.
  for (size_t cut = last_start; cut < full.size(); ++cut) {
    WriteFile(journal, full.substr(0, cut));
    ClusterStats before = (*cluster)->Stats();
    ASSERT_TRUE((*cluster)->RejoinNode("node0").ok()) << "cut=" << cut;
    ClusterStats after = (*cluster)->Stats();
    EXPECT_EQ(after.journal_replayed - before.journal_replayed, intact)
        << "cut=" << cut;
    EXPECT_EQ(after.catchup_shards - before.catchup_shards, 1)
        << "cut=" << cut;
    EXPECT_TRUE((*cluster)->ReplicasConverged()) << "cut=" << cut;
    for (int i = 0; i < kKeys; ++i) {
      auto value = (*cluster)->Get("key/" + std::to_string(i));
      ASSERT_TRUE(value.ok()) << "cut=" << cut << " key " << i;
      EXPECT_EQ(*value, "v" + std::to_string(i)) << "cut=" << cut;
    }
    ASSERT_TRUE((*cluster)->KillNode("node0").ok());
  }
  std::filesystem::remove_all(dir);
}

TEST(ClusterTest, CorruptJournalRecordLeavesNodeDeadAndUntouched) {
  std::string dir = TempDir("corrupt");
  ClusterConfig config;
  config.num_nodes = 3;
  config.replication_factor = 2;
  config.seed = 24;
  config.journal_dir = dir;
  auto cluster = Cluster::Create(config, PlainBackends());
  ASSERT_TRUE(cluster.ok());
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE((*cluster)->Put("key/" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE((*cluster)->KillNode("node0").ok());
  const std::string journal = dir + "/cluster_node0.journal";
  const std::string intact = ReadFile(journal);
  auto frames = db::WalReadAll(journal);
  ASSERT_TRUE(frames.ok());
  ASSERT_FALSE(frames->empty());

  // A whole frame with a valid CRC, after the intact records, whose
  // payload is not a replica write: garbage (truncated as a record), and
  // a real record with one trailing byte.
  for (const std::string& payload :
       {std::string("not a cluster record"), frames->back() + "x"}) {
    WriteFile(journal, intact);
    {
      auto wal = db::WalWriter::Open(journal);
      ASSERT_TRUE(wal.ok());
      ASSERT_TRUE((*wal)->Append(payload).ok());
      ASSERT_TRUE((*wal)->Sync().ok());
    }
    const std::string state = (*cluster)->DescribeState();
    const int64_t replayed = (*cluster)->Stats().journal_replayed;

    Status rejoin = (*cluster)->RejoinNode("node0");
    EXPECT_TRUE(rejoin.IsCorruption()) << rejoin.ToString();
    EXPECT_FALSE((*cluster)->IsAlive("node0"));
    EXPECT_EQ((*cluster)->DescribeState(), state);
    EXPECT_EQ((*cluster)->Stats().journal_replayed, replayed);
  }
  std::filesystem::remove_all(dir);
}

TEST(ClusterTest, ForwardLossRetriesDeterministically) {
  auto run = [] {
    ClusterConfig config;
    config.num_nodes = 4;
    config.replication_factor = 3;
    config.seed = 9;
    config.forward_loss_probability = 0.4;
    auto cluster = Cluster::Create(config, PlainBackends());
    EXPECT_TRUE(cluster.ok());
    for (int i = 0; i < 150; ++i) {
      (void)(*cluster)->Execute(Req("svc/echo/" + std::to_string(i)));
    }
    return (*cluster)->Stats();
  };
  ClusterStats first = run();
  ClusterStats second = run();
  EXPECT_GT(first.forward_drops, 0);
  // The loss draws are per-(key, link, attempt) hashes, not RNG state:
  // identical runs drop identical hops.
  EXPECT_EQ(first.forward_drops, second.forward_drops);
  EXPECT_EQ(first.failed, second.failed);
  EXPECT_EQ(first.local, second.local);
  EXPECT_EQ(first.forwarded, second.forwarded);
  // With three replicas, a dropped hop almost always finds another copy.
  EXPECT_LT(first.failed, first.requests / 10);
}

TEST(ClusterStressTest, RebalanceUnderTrafficDropsNothing) {
  ClusterConfig config;
  config.num_nodes = 4;
  config.replication_factor = 2;
  config.seed = 17;
  config.shard_map.num_shards = 32;
  config.workers_per_node = 2;
  config.queue_depth = 4096;
  auto cluster = Cluster::Create(config, PlainBackends());
  ASSERT_TRUE(cluster.ok());

  const int kKeys = 64;
  std::map<int, std::string> key_of_shard;
  for (int i = 0; i < kKeys ||
                  key_of_shard.size() <
                      static_cast<size_t>(config.shard_map.num_shards);
       ++i) {
    ASSERT_LT(i, 10000) << "could not cover every shard with a key";
    std::string key = "key/" + std::to_string(i);
    auto decision = (*cluster)->Route(key);
    ASSERT_TRUE(decision.ok());
    key_of_shard.emplace(decision->shard, key);
    if (i < kKeys) {
      ASSERT_TRUE(
          (*cluster)->Put(key, "v" + std::to_string(i)).ok());
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<int64_t> execute_errors{0};
  std::atomic<int64_t> get_errors{0};
  std::atomic<int64_t> put_errors{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        int k = (i * 13 + t) % kKeys;
        if (!(*cluster)
                 ->Execute(Req("svc/echo/" + std::to_string(k)))
                 .ok()) {
          execute_errors.fetch_add(1);
        }
        if (!(*cluster)->Get("key/" + std::to_string(k)).ok()) {
          get_errors.fetch_add(1);
        }
        if (t == 0 &&
            !(*cluster)
                 ->Put("key/" + std::to_string(k), "w" + std::to_string(i))
                 .ok()) {
          put_errors.fetch_add(1);
        }
      }
    });
  }

  // Sweep every shard to a rotating target while the clients hammer away:
  // each move opens a dual-write window, then pins ownership.
  std::vector<std::string> names = (*cluster)->node_names();
  int moves_done = 0;
  for (int round = 0; round < 2; ++round) {
    for (int shard = 0; shard < config.shard_map.num_shards; ++shard) {
      const std::string& target =
          names[(shard + round + 1) % names.size()];
      Status begun = (*cluster)->BeginShardMove(shard, target);
      if (begun.IsAlreadyExists()) {
        continue;  // Already owned by the target this round.
      }
      ASSERT_TRUE(begun.ok()) << begun.message();
      // A write inside every window (on top of whatever the concurrent
      // clients land there): the dual-write path is exercised per move,
      // not left to scheduling luck.
      ASSERT_TRUE((*cluster)->Put(key_of_shard[shard], "mid-move").ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ASSERT_TRUE((*cluster)->CompleteShardMove(shard).ok());
      ++moves_done;
    }
  }
  stop.store(true);
  for (std::thread& t : clients) {
    t.join();
  }

  EXPECT_GT(moves_done, 0);
  EXPECT_EQ(execute_errors.load(), 0);
  EXPECT_EQ(get_errors.load(), 0);
  EXPECT_EQ(put_errors.load(), 0);
  ClusterStats stats = (*cluster)->Stats();
  EXPECT_EQ(stats.failed, 0);
  EXPECT_GT(stats.rebalance_moves, 0);
  EXPECT_GT(stats.dual_writes, 0);

  // No double-serve: every successful Execute dispatched exactly once.
  int64_t dispatched = 0;
  for (const auto& [node, served] : (*cluster)->ServedByNode()) {
    dispatched += served;
  }
  EXPECT_EQ(dispatched, stats.requests - stats.failed);

  // Every key survived two full rebalance sweeps.
  for (int i = 0; i < kKeys; ++i) {
    EXPECT_TRUE((*cluster)->Get("key/" + std::to_string(i)).ok())
        << "key " << i << " lost in rebalance";
  }
}

TEST(ClusterTest, MembershipErrorPathsReturnSpecificCodes) {
  ClusterConfig config;
  config.num_nodes = 2;
  config.replication_factor = 2;
  config.seed = 5;
  auto cluster = Cluster::Create(config, PlainBackends());
  ASSERT_TRUE(cluster.ok());

  // Unknown ids are NotFound on both membership verbs.
  EXPECT_TRUE((*cluster)->KillNode("node9").IsNotFound());
  EXPECT_TRUE((*cluster)->RejoinNode("node9").IsNotFound());

  // Rejoining a node that was never killed is a precondition failure,
  // not a silent no-op (the journal-replay path must not run twice).
  EXPECT_TRUE((*cluster)->RejoinNode("node0").IsFailedPrecondition());

  // Killing twice: the second kill is FailedPrecondition, and the node
  // stays rejoinable afterwards.
  ASSERT_TRUE((*cluster)->KillNode("node1").ok());
  EXPECT_TRUE((*cluster)->KillNode("node1").IsFailedPrecondition());
  EXPECT_TRUE((*cluster)->RejoinNode("node1").ok());
  EXPECT_TRUE((*cluster)->IsAlive("node1"));
}

TEST(ClusterTest, FullyDeadShardDistinguishesWriteAndReadErrors) {
  ClusterConfig config;
  config.num_nodes = 2;
  config.replication_factor = 1;  // One replica per shard: killing both
                                  // nodes kills every shard outright.
  config.seed = 6;
  auto cluster = Cluster::Create(config, PlainBackends());
  ASSERT_TRUE(cluster.ok());

  ASSERT_TRUE((*cluster)->Put("key/a", "v").ok());
  ASSERT_TRUE((*cluster)->KillNode("node0").ok());
  ASSERT_TRUE((*cluster)->KillNode("node1").ok());

  // The write path keeps the PR 7 contract (IOError: no alive replica);
  // the read path reports quorum starvation (ResourceExhausted). Both
  // rejections land in the failure counters.
  Status put = (*cluster)->Put("key/a", "w");
  EXPECT_TRUE(put.IsIOError()) << put.message();
  auto got = (*cluster)->Get("key/a");
  EXPECT_TRUE(got.status().IsResourceExhausted()) << got.status().message();
  ClusterStats stats = (*cluster)->Stats();
  EXPECT_EQ(stats.put_failures, 1);
  EXPECT_EQ(stats.get_failures, 1);
  EXPECT_EQ(stats.writes, 1);
}

}  // namespace
}  // namespace dflow::cluster
