#ifndef DFLOW_CLUSTER_CLUSTER_H_
#define DFLOW_CLUSTER_CLUSTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/consistency.h"
#include "cluster/router.h"
#include "cluster/shard_map.h"
#include "core/web_service.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "recover/journal.h"
#include "serve/response_cache.h"
#include "serve/serve_loop.h"
#include "sim/simulation.h"
#include "util/result.h"

namespace dflow::cluster {

struct ClusterConfig {
  /// Simulated nodes, named "node0".."node<N-1>".
  int num_nodes = 1;
  /// Copies of every shard's replicated state (clamped to num_nodes). The
  /// router's failover chain has this length, so a request survives
  /// replication_factor - 1 dead nodes.
  int replication_factor = 2;
  /// Consistent-hash placement knobs; `shard_map.seed` is overwritten with
  /// `seed` so one value pins the whole cluster.
  ShardMapConfig shard_map;
  uint64_t seed = 42;

  /// Per-node serve tier: each node runs its own ServeLoop over its own
  /// ServiceRegistry — the model is one synchronous service process per
  /// node (per-mount locking), so cluster capacity grows with node count.
  int workers_per_node = 2;
  size_t queue_depth = 128;
  double default_deadline_sec = 0.0;
  /// Optional per-node response cache (hits bypass the node's mount lock).
  bool enable_cache = false;
  size_t cache_capacity_bytes = 4u << 20;
  /// When true, every node's ServeLoop runs the recovery tier's circuit
  /// breaker with the successor node's registry registered via
  /// SetReplica(), so a failing backend on one node fails over to the
  /// next — the PR 5 machinery, reused per node.
  bool breaker_failover = true;

  /// Cross-node forwarding model for the wall-clock path: a request whose
  /// target is not its ingress node pays one simulated hop of this much
  /// latency each way.
  double forward_latency_sec = 0.0;
  /// Per-(key, link, attempt) forward loss. Drawn from a seeded hash, so a
  /// given key either always drops on a given hop or never does —
  /// deterministic regardless of thread interleaving.
  double forward_loss_probability = 0.0;

  /// Quorum sizes for the replicated-state path, counted against the
  /// effective replica set N = min(replication_factor, num_nodes).
  /// 0 means majority (N/2 + 1); explicit values are clamped to [1, N].
  /// With the defaults W + R > N, so every quorum read intersects every
  /// acknowledged write's quorum and returns the latest ack — the
  /// freshness argument DESIGN.md §6 spells out. Setting both to 1
  /// restores the PR 7 availability-over-consistency contract (write all
  /// reachable, ack on one; read the first reachable copy).
  int write_quorum = 0;
  int read_quorum = 0;

  /// Directory for per-node checkpoint journals ("" disables journaling).
  /// Every replicated write a node applies is journaled, and RejoinNode()
  /// replays the journal to rebuild the node's shard state byte for byte.
  std::string journal_dir;

  /// Optional seeded operation history (borrowed; must outlive the
  /// cluster). Every Put/Get outcome, kill, rejoin, and reachability
  /// transition is appended under the state lock, stamped with partition
  /// virtual time — the input the offline consistency checker proves
  /// quorum safety over.
  HistoryRecorder* history = nullptr;

  /// Optional observability (borrowed; must outlive the cluster). Counters
  /// live under "cluster.*" in `metrics` (null: a private registry) and
  /// Stats() reads them; spans/instants are recorded on one trace track
  /// per node (named "cluster/<node>").
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
};

/// Mounts a node's backends into its registry; invoked once per node at
/// Create() time. Every node must expose the same mount prefixes (the
/// router may send any endpoint's traffic to any replica).
using BackendFactory =
    std::function<Status(int node_index, core::ServiceRegistry* registry)>;

struct ClusterStats {
  int64_t requests = 0;        // Execute() calls.
  int64_t local = 0;           // Served at the ingress node.
  int64_t forwarded = 0;       // Paid at least one cross-node hop.
  int64_t reroutes = 0;        // Dead/unreachable replicas skipped.
  int64_t forward_drops = 0;   // Simulated per-hop losses (each retried).
  int64_t failed = 0;          // Execute() exhausted the replica chain.
  int64_t writes = 0;          // Put() calls acknowledged (>= W acks).
  int64_t put_failures = 0;    // Put() rejections: no alive replica OR
                               // write quorum not met. (Before quorums,
                               // write-path IOErrors were invisible —
                               // only Execute() exhaustion was counted.)
  int64_t get_failures = 0;    // Get() rejections (read quorum not met).
  int64_t replica_writes = 0;  // Per-node write applications.
  int64_t read_repairs = 0;    // Stale consulted copies fixed by reads.
  int64_t hints_stored = 0;    // Writes banked for unreachable replicas.
  int64_t hints_drained = 0;   // Hints delivered after a heal/rejoin.
  int64_t partition_transitions = 0;  // Reachability-matrix changes.
  int64_t dual_writes = 0;     // Extra applications to an in-flight
                               // rebalance target (the handoff window).
  int64_t rebalance_moves = 0;
  int64_t kills = 0;
  int64_t rejoins = 0;
  int64_t journal_replayed = 0;  // Records replayed across rejoins.
  int64_t catchup_shards = 0;    // Shards re-synced from the owner at
                                 // rejoin (writes missed while dead).
};

/// N simulated nodes behind one deterministic router: consistent-hash
/// sharding over serve endpoints and replicated key/value shard state,
/// quorum replication (versioned writes, hinted handoff, read-repair)
/// with journal-backed kill/rejoin, and live shard rebalancing with a
/// dual-write handoff window.
///
/// Two request paths share the router and the shard map:
///   * Execute() — the serve path. Requests are routed to their shard's
///     first alive reachable replica and dispatched through that node's
///     ServeLoop (admission control, per-node cache, breaker failover
///     included). Backends are mounted identically on every node, so any
///     replica answers any endpoint.
///   * Put()/Get() — the replicated-state path. A write is stamped with a
///     monotonic (epoch, counter, coordinator) version, applied to every
///     alive replica the coordinator can reach, and acknowledged iff at
///     least `write_quorum` replicas applied it; replicas that are alive
///     but unreachable get a hint banked on the first acking replica,
///     drained when the pair heals. A read consults every reachable
///     replica, requires `read_quorum` answers, returns the newest
///     version, and read-repairs any stale consulted copy in place.
///
/// Partitions are seeded, not ad hoc: ArmPartitionPlan() arms a
/// fault::FaultPlan's kPartition/kLinkCut events on a private virtual-time
/// net::Topology, and AdvancePartitionTime() steps the clock through every
/// cut and heal boundary, refreshing the reachability matrix the router
/// and quorum paths consult. Reachability is distinct from liveness: a
/// partitioned node keeps its state and resumes the moment links heal.
///
/// Thread-safe: any number of client threads may call Execute/Put/Get
/// concurrently with kills, rejoins, partition transitions, and shard
/// moves. Routing decisions and shard-state transitions are serialized
/// under one state lock; serve dispatch happens outside it.
class Cluster {
 public:
  static Result<std::unique_ptr<Cluster>> Create(ClusterConfig config,
                                                 BackendFactory backends);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Canonical routing key of a request (the response cache's canonical
  /// form, so the same request always lands on the same shard).
  static std::string KeyOf(const core::ServiceRequest& request);

  /// Shard key that groups EventStore run numbers into ranges of
  /// `runs_per_range` ("runs:0-9", "runs:10-19", ...): the unit in which
  /// run ownership is placed and moved.
  static std::string KeyForRunRange(int64_t run, int64_t runs_per_range);

  /// Routes `key` under the current map + liveness view.
  Result<RouteDecision> Route(const std::string& key) const;

  /// Serve path (blocking). Walks the replica chain: dead nodes and
  /// simulated forward drops advance to the next replica; the first
  /// reachable node's ServeLoop answer (including its errors — breaker
  /// failover happens inside the node) is the response. ResourceExhausted
  /// with an empty chain.
  Result<core::ServiceResponse> Execute(const core::ServiceRequest& request);

  /// Replicated-state quorum write. The coordinator (the key's ingress
  /// node if usable, else the first usable chain replica) stamps the next
  /// (epoch, counter, coordinator) version and applies it to every alive
  /// replica reachable from itself; alive-but-unreachable replicas get a
  /// hint banked on the first acking replica. OK iff >= write_quorum
  /// replicas applied. IOError if no replica of the shard is alive (the
  /// pre-quorum contract); ResourceExhausted when replicas are alive but
  /// fewer than W are reachable. Because ops are serialized under the
  /// state lock, the coordinator counts its reachable set BEFORE applying
  /// anything, so a rejected write has zero side effects — no replica
  /// holds a version the checker would have to explain away.
  Status Put(const std::string& key, const std::string& value);

  /// Replicated-state quorum read. Consults every alive replica of the
  /// key's shard reachable from the coordinator; ResourceExhausted when
  /// fewer than read_quorum answered, NotFound when the quorum agrees the
  /// key is absent. Returns the newest version's value and schedules
  /// read-repair: every consulted replica holding an older (or no) copy
  /// is overwritten in place (apply-if-newer, counted in read_repairs).
  Result<std::string> Get(const std::string& key);

  /// Marks a node dead: the router skips it, writes bypass it, and its
  /// volatile shard state is dropped (its journal survives). Requests
  /// already admitted to its ServeLoop still complete — a kill stops NEW
  /// traffic, the in-flight tail drains.
  Status KillNode(const std::string& node_id);

  /// Brings a dead node back: replays its checkpoint journal to rebuild
  /// shard state, then re-syncs from each shard's current owner any shard
  /// whose writes it missed while dead (counted in catchup_shards).
  Status RejoinNode(const std::string& node_id);

  bool IsAlive(const std::string& node_id) const;

  /// --- Seeded partition fault surface -------------------------------
  /// The cluster owns a private virtual-time clock and a full-mesh
  /// net::Topology over its nodes; partitions are armed as fault-plan
  /// events and stepped deterministically, never from wall clock.

  /// Arms every kPartition ("a,b|c,d" group spec) and kLinkCut ("a->b")
  /// event of `plan` on the partition topology. InvalidArgument on a
  /// malformed target; events must lie at or after PartitionNow().
  Status ArmPartitionPlan(const fault::FaultPlan& plan);

  /// Cuts every directed link crossing the group boundary for
  /// `duration_sec` of virtual time, effective immediately.
  Status PartitionNodes(const std::string& group_spec, double duration_sec);

  /// One-way cut of from->to only; to->from stays up. Quorum membership
  /// needs both directions (request out, ack back), so a one-way cut
  /// excludes the far node from quorums without symmetric damage.
  Status CutLink(const std::string& from, const std::string& to,
                 double duration_sec);

  /// Advances the partition clock to `time_sec` (monotonic; OutOfRange to
  /// go backward), stepping through every armed cut and heal boundary in
  /// order. Each reachability change bumps the version epoch, appends a
  /// kReach history event, and drains hints across newly-healed pairs.
  Status AdvancePartitionTime(double time_sec);

  /// Current virtual time of the partition clock.
  double PartitionNow() const;

  /// Canonical per-link "a->b up|down" dump of the partition topology —
  /// the reachability matrix, in link-name order.
  std::string ReachabilityMatrix() const;

  /// True when every alive node holds an identical copy of every shard it
  /// replicates (per-shard content digests agree across the alive replica
  /// set) — the post-heal convergence gate the bench waits on.
  bool ReplicasConverged() const;

  /// Effective quorum sizes after defaulting and clamping.
  int write_quorum() const { return write_quorum_; }
  int read_quorum() const { return read_quorum_; }

  /// Live rebalancing. BeginShardMove snapshots the shard onto `to_node`
  /// and opens the dual-write window (writes apply to the old replica set
  /// AND the target; reads stay on the old owner). CompleteShardMove pins
  /// ownership to the target and trims nodes that left the replica set.
  /// The window is bounded by the caller: every Begin must be Completed.
  Status BeginShardMove(int shard, const std::string& to_node);
  Status CompleteShardMove(int shard);
  /// Begin + Complete in one call (still safe under live traffic; the
  /// window is just short).
  Status MoveShard(int shard, const std::string& to_node);

  std::vector<std::string> node_names() const;
  const ShardMapConfig& shard_map_config() const {
    return config_.shard_map;
  }
  ClusterStats Stats() const;

  /// Requests dispatched into each node's serve loop (by node name) —
  /// the load-balance view the benches print.
  std::map<std::string, int64_t> ServedByNode() const;

  /// One node's ServeLoop stats (admission, cache, breaker bookkeeping).
  Result<serve::ServeStats> NodeServeStats(const std::string& node_id) const;

  /// Decision log over `keys` under the current map/liveness — the
  /// determinism gate's router oracle.
  std::string DecisionLog(const std::vector<std::string>& keys) const;

  /// Canonical dump of the shard map (owners, overrides).
  std::string DescribeMap() const;

  /// Canonical dump of every node's replicated state: per-shard applied
  /// counts, entry counts, and content digests, nodes in name order. Two
  /// clusters with equal DescribeState() hold byte-identical state.
  std::string DescribeState() const;

  /// MD5 over DescribeMap() + DescribeState().
  std::string Fingerprint() const;

 private:
  /// One replicated value plus the version that wrote it. Merges
  /// everywhere (hints, read-repair, rejoin pulls) are apply-if-newer on
  /// the version, so they are idempotent and order-free.
  struct VersionedValue {
    std::string value;
    Version version;
  };

  struct ShardData {
    int64_t applied = 0;  // Writes applied (journal records on disk).
    std::map<std::string, VersionedValue> entries;

    /// Order-free content digest (XOR of per-entry hashes over key,
    /// value, AND version), so a journal replay that re-applies in a
    /// different order converges to the same value.
    uint64_t ContentDigest() const;
  };

  /// One hinted write banked for an unreachable replica.
  struct Hint {
    std::string target;  // Node the write could not reach.
    int shard = 0;
    std::string key;
    std::string value;
    Version version;
  };

  struct Node {
    std::string name;
    int index = 0;
    core::ServiceRegistry registry;
    std::unique_ptr<serve::ShardedResponseCache> cache;
    std::atomic<bool> alive{true};
    std::atomic<int64_t> served{0};
    std::map<int, ShardData> shards;  // Guarded by Cluster::mu_.
    /// Hints this node banks for currently-unreachable peers, in arrival
    /// order. Volatile like shard state: a kill drops them. Guarded by
    /// Cluster::mu_.
    std::vector<Hint> hints;
    std::unique_ptr<recover::CheckpointJournal> journal;
    std::string journal_path;
    int64_t journal_seq = 0;  // Monotonic per-node write sequence.
    int trace_tid = 0;        // This node's trace track.
    // Declared last: the loop must die before the registry/cache it uses.
    std::unique_ptr<serve::ServeLoop> loop;
  };

  explicit Cluster(ClusterConfig config);
  Status Init(const BackendFactory& backends);

  Result<Node*> FindNode(const std::string& node_id) const;
  /// Requires mu_. Applies one versioned write to `node`'s copy of
  /// `shard` iff `version` is newer than the resident copy, and journals
  /// the application. Returns true when the write applied.
  bool ApplyWrite(Node* node, int shard, const std::string& key,
                  const std::string& value, const Version& version);
  /// Requires mu_. The replica set writes must reach right now: alive
  /// members of the map's replica chain plus any in-flight move target.
  Result<std::vector<Node*>> WriteSetLocked(int shard);
  /// Requires mu_. Both directions up on the partition topology (and not
  /// severed by name). Self is always reachable.
  bool BiReachableLocked(const std::string& a, const std::string& b) const;
  /// Requires mu_. Recomputes the reachability matrix from the topology,
  /// and on any change bumps the epoch, records kReach, and drains hints
  /// across pairs that just became bidirectionally reachable.
  void RefreshReachabilityLocked(const std::string& cause);
  /// Requires mu_. Delivers every hint whose (holder -> target) pair is
  /// bidirectionally reachable and whose target is alive; apply-if-newer
  /// on the target, then the hint is dropped either way.
  void DrainHintsLocked();
  /// Requires mu_. Appends to the configured history recorder (no-op
  /// when none), stamping the partition clock's current time.
  void RecordLocked(HistoryEvent event);
  /// True when the deterministic per-(key, hop, attempt) loss draw fires.
  bool ForwardDropped(const std::string& key, const std::string& from,
                      const std::string& to, int attempt) const;

  ClusterConfig config_;
  ShardMap map_;
  Router router_;
  int write_quorum_ = 1;  // Effective sizes (defaulted + clamped).
  int read_quorum_ = 1;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::map<std::string, Node*> nodes_by_name_;
  std::map<int, std::string> moving_;  // shard -> move target (window open).

  // Partition machinery (all guarded by mu_). The sim clock only ever
  // advances through AdvancePartitionTime(), so reachability is a pure
  // function of (armed plan, advance calls) — no wall time anywhere.
  sim::Simulation partition_sim_;
  std::unique_ptr<net::Topology> topology_;
  /// One injector per armed plan, kept alive because armed events
  /// reference their injector until they fire.
  std::vector<std::unique_ptr<fault::Injector>> partition_injectors_;
  std::vector<double> partition_boundaries_;  // Cut/heal times, sorted.
  std::string reachability_;                  // Last computed matrix.
  int64_t epoch_ = 0;            // Bumps on kill/rejoin/reach changes.
  int64_t version_counter_ = 0;  // Bumps per coordinated write.

  mutable std::mutex mu_;  // Guards map_, moving_, and all shard state.

  // The cluster's one counter store (config_.metrics, or owned_metrics_)
  // and handles into it, resolved once in Init(); Stats() reads them.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::Counter* requests_ = nullptr;
  obs::Counter* local_ = nullptr;
  obs::Counter* forwarded_ = nullptr;
  obs::Counter* reroutes_ = nullptr;
  obs::Counter* forward_drops_ = nullptr;
  obs::Counter* failed_ = nullptr;
  obs::Counter* writes_ = nullptr;
  obs::Counter* put_failures_ = nullptr;
  obs::Counter* get_failures_ = nullptr;
  obs::Counter* replica_writes_ = nullptr;
  obs::Counter* read_repairs_ = nullptr;
  obs::Counter* hints_stored_ = nullptr;
  obs::Counter* hints_drained_ = nullptr;
  obs::Counter* partition_transitions_ = nullptr;
  obs::Counter* dual_writes_ = nullptr;
  obs::Counter* rebalance_moves_ = nullptr;
  obs::Counter* kills_ = nullptr;
  obs::Counter* rejoins_ = nullptr;
  obs::Counter* journal_replayed_ = nullptr;
  obs::Counter* catchup_shards_ = nullptr;
};

}  // namespace dflow::cluster

#endif  // DFLOW_CLUSTER_CLUSTER_H_
