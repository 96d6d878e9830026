#include "cluster/cluster.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>

#include "util/byte_buffer.h"
#include "util/logging.h"
#include "util/md5.h"
#include "util/strings.h"

namespace dflow::cluster {
namespace {

/// Trace tracks 0..k are claimed by real threads in first-use order; node
/// tracks start high so they never collide.
constexpr int kNodeTrackBase = 1000;

std::string NodeName(int index) { return "node" + std::to_string(index); }

/// One replica write as a node journal holds it: a single ByteWriter
/// record per application, replayed in append order by RejoinNode().
struct ReplicaWrite {
  int shard = 0;
  std::string key;
  std::string value;
  Version version;
};

std::string EncodeReplicaWrite(int shard, const std::string& key,
                               const std::string& value,
                               const Version& version) {
  ByteWriter w;
  w.PutVarint(static_cast<uint64_t>(shard));
  w.PutString(key);
  w.PutString(value);
  w.PutVarint(static_cast<uint64_t>(version.epoch));
  w.PutVarint(static_cast<uint64_t>(version.counter));
  w.PutString(version.node);
  return w.Take();
}

/// Corruption on a truncated record, trailing bytes, or a shard outside
/// [0, num_shards): a frame that passed its CRC but is not a replica write.
Result<ReplicaWrite> DecodeReplicaWrite(std::string_view payload,
                                        int num_shards) {
  ByteReader r(payload);
  ReplicaWrite write;
  DFLOW_ASSIGN_OR_RETURN(uint64_t shard, r.GetVarint());
  if (shard >= static_cast<uint64_t>(num_shards)) {
    return Status::Corruption("cluster journal record names shard " +
                              std::to_string(shard));
  }
  write.shard = static_cast<int>(shard);
  DFLOW_ASSIGN_OR_RETURN(write.key, r.GetString());
  DFLOW_ASSIGN_OR_RETURN(write.value, r.GetString());
  DFLOW_ASSIGN_OR_RETURN(uint64_t epoch, r.GetVarint());
  DFLOW_ASSIGN_OR_RETURN(uint64_t counter, r.GetVarint());
  write.version.epoch = static_cast<int64_t>(epoch);
  write.version.counter = static_cast<int64_t>(counter);
  DFLOW_ASSIGN_OR_RETURN(write.version.node, r.GetString());
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes in cluster journal record");
  }
  return write;
}

/// Empty-shard digest basis: a node holding no copy of a shard digests the
/// same as one holding an empty copy, so convergence compares content, not
/// map-entry existence.
constexpr uint64_t kEmptyShardDigest = 0x6a09e667f3bcc909ull;

std::string TimeTag(double t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "t=%.6f", t);
  return buf;
}

int ClampQuorum(int requested, int n) {
  if (requested <= 0) {
    return n / 2 + 1;  // Majority default.
  }
  return requested > n ? n : requested;
}

}  // namespace

uint64_t Cluster::ShardData::ContentDigest() const {
  uint64_t digest = kEmptyShardDigest;
  for (const auto& [key, entry] : entries) {
    digest ^= Hash64(key + "=" + entry.value + "@" + entry.version.ToString(),
                     0x3c6ef372fe94f82bull);
  }
  return digest;
}

Cluster::Cluster(ClusterConfig config)
    : config_(std::move(config)),
      map_([this] {
        ShardMapConfig map_config = config_.shard_map;
        map_config.seed = config_.seed;
        return map_config;
      }()),
      router_(&map_, config_.replication_factor) {
  config_.shard_map.seed = config_.seed;
}

Result<std::unique_ptr<Cluster>> Cluster::Create(ClusterConfig config,
                                                 BackendFactory backends) {
  if (config.num_nodes < 1) {
    return Status::InvalidArgument("cluster needs at least one node");
  }
  if (backends == nullptr) {
    return Status::InvalidArgument("backend factory must not be null");
  }
  std::unique_ptr<Cluster> cluster(new Cluster(std::move(config)));
  DFLOW_RETURN_IF_ERROR(cluster->Init(backends));
  return cluster;
}

Status Cluster::Init(const BackendFactory& backends) {
  router_.SetAliveCheck([this](const std::string& node_id) {
    auto it = nodes_by_name_.find(node_id);
    return it != nodes_by_name_.end() &&
           it->second->alive.load(std::memory_order_acquire);
  });
  // The router only runs under mu_ (Route/Get/DecisionLog all lock), so
  // the callback may read the cut table directly.
  router_.SetReachableCheck([this](const std::string& from,
                                   const std::string& to) {
    return BiReachableLocked(from, to);
  });

  int effective_replicas = config_.replication_factor < 1
                               ? 1
                               : config_.replication_factor;
  if (effective_replicas > config_.num_nodes) {
    effective_replicas = config_.num_nodes;
  }
  write_quorum_ = ClampQuorum(config_.write_quorum, effective_replicas);
  read_quorum_ = ClampQuorum(config_.read_quorum, effective_replicas);

  obs::MetricsRegistry& metrics =
      obs::InjectedOrOwned(config_.metrics, &owned_metrics_);
  requests_ = metrics.GetCounter("cluster.requests");
  local_ = metrics.GetCounter("cluster.local");
  forwarded_ = metrics.GetCounter("cluster.forwarded");
  reroutes_ = metrics.GetCounter("cluster.reroutes");
  forward_drops_ = metrics.GetCounter("cluster.forward_drops");
  failed_ = metrics.GetCounter("cluster.failed");
  writes_ = metrics.GetCounter("cluster.writes");
  put_failures_ = metrics.GetCounter("cluster.put_failures");
  get_failures_ = metrics.GetCounter("cluster.get_failures");
  replica_writes_ = metrics.GetCounter("cluster.replica_writes");
  read_repairs_ = metrics.GetCounter("cluster.read_repairs");
  hints_stored_ = metrics.GetCounter("cluster.hints_stored");
  hints_drained_ = metrics.GetCounter("cluster.hints_drained");
  partition_transitions_ = metrics.GetCounter("cluster.partition_transitions");
  dual_writes_ = metrics.GetCounter("cluster.dual_writes");
  rebalance_moves_ = metrics.GetCounter("cluster.rebalance_moves");
  kills_ = metrics.GetCounter("cluster.kills");
  rejoins_ = metrics.GetCounter("cluster.rejoins");
  journal_replayed_ = metrics.GetCounter("cluster.journal_replayed");
  catchup_shards_ = metrics.GetCounter("cluster.catchup_shards");

  for (int i = 0; i < config_.num_nodes; ++i) {
    auto node = std::make_unique<Node>();
    node->name = NodeName(i);
    node->trace_tid = kNodeTrackBase + i;
    DFLOW_RETURN_IF_ERROR(map_.AddNode(node->name));
    DFLOW_RETURN_IF_ERROR(backends(i, &node->registry));
    if (!config_.journal_dir.empty()) {
      node->journal_path =
          config_.journal_dir + "/cluster_" + node->name + ".journal";
      DFLOW_ASSIGN_OR_RETURN(node->journal,
                             db::WalWriter::Open(node->journal_path));
    }
    if (config_.tracer != nullptr && config_.tracer->enabled()) {
      config_.tracer->NameTrack(node->trace_tid, "cluster/" + node->name);
    }
    if (config_.enable_cache) {
      serve::CacheConfig cache_config;
      cache_config.capacity_bytes = config_.cache_capacity_bytes;
      node->cache =
          std::make_unique<serve::ShardedResponseCache>(cache_config);
    }
    serve::ServeConfig serve_config;
    serve_config.num_workers = config_.workers_per_node;
    serve_config.max_queue_depth = config_.queue_depth;
    // No registry: each node's loop counts into its own private one
    // (NodeServeStats); a shared registry would merge the nodes' counts.
    serve_config.metrics = nullptr;
    // With another replica to move on to, a failing backend's requests
    // fail fast on this node and Execute() walks on to the next replica.
    serve_config.breaker.enabled = config_.num_nodes > 1;
    node->loop = std::make_unique<serve::ServeLoop>(
        &node->registry, serve_config, node->cache.get());
    nodes_.push_back(std::move(node));
  }
  for (const auto& node : nodes_) {
    nodes_by_name_[node->name] = node.get();
  }
  // Nothing is cut yet: everything starts reachable.
  reachability_ = ReachabilityMatrixLocked();
  return Status::OK();
}

std::string Cluster::KeyOf(const core::ServiceRequest& request) {
  return serve::ShardedResponseCache::CanonicalKey(request);
}

std::string Cluster::KeyForRunRange(int64_t run, int64_t runs_per_range) {
  DFLOW_CHECK(runs_per_range > 0);
  int64_t lo = (run / runs_per_range) * runs_per_range;
  return "runs:" + std::to_string(lo) + "-" +
         std::to_string(lo + runs_per_range - 1);
}

Result<Cluster::Node*> Cluster::FindNode(const std::string& node_id) const {
  auto it = nodes_by_name_.find(node_id);
  if (it == nodes_by_name_.end()) {
    return Status::NotFound("unknown node '" + node_id + "'");
  }
  return it->second;
}

Result<RouteDecision> Cluster::Route(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return router_.Decide(key);
}

bool Cluster::ForwardDropped(const std::string& key, const std::string& from,
                             const std::string& to, int attempt) const {
  if (config_.forward_loss_probability <= 0.0) {
    return false;
  }
  uint64_t draw = Hash64(key + "@" + from + "->" + to + "#" +
                             std::to_string(attempt),
                         config_.seed ^ 0x5851f42d4c957f2dull);
  return static_cast<double>(draw) /
             static_cast<double>(UINT64_MAX) <
         config_.forward_loss_probability;
}

Result<core::ServiceResponse> Cluster::Execute(
    const core::ServiceRequest& request) {
  requests_->Add(1);

  std::string key = KeyOf(request);
  Result<RouteDecision> routed = Route(key);
  if (!routed.ok()) {
    failed_->Add(1);
    return routed.status();
  }
  RouteDecision decision = *std::move(routed);
  if (decision.reroutes > 0) {
    reroutes_->Add(decision.reroutes);
  }

  // Walk the chain from the chosen target onward; simulated forward drops
  // and nodes that died or were partitioned away after routing advance to
  // the next replica.
  auto start = std::find(decision.chain.begin(), decision.chain.end(),
                         decision.target);
  int attempt = 0;
  Status last_error =
      Status::ResourceExhausted("every replica of shard " +
                                std::to_string(decision.shard) + " is dead");
  for (auto it = start; it != decision.chain.end(); ++it, ++attempt) {
    Result<Node*> found = FindNode(*it);
    if (!found.ok() || !(*found)->alive.load(std::memory_order_acquire)) {
      reroutes_->Add(1);
      continue;
    }
    bool pair_reachable;
    {
      std::lock_guard<std::mutex> lock(mu_);
      pair_reachable = BiReachableLocked(decision.ingress, *it);
    }
    if (!pair_reachable) {
      reroutes_->Add(1);
      continue;
    }
    Node* node = *found;
    bool hop = node->name != decision.ingress;
    if (hop && ForwardDropped(key, decision.ingress, node->name, attempt)) {
      forward_drops_->Add(1);
      if (config_.tracer != nullptr && config_.tracer->enabled()) {
        config_.tracer->InstantEvent("forward_drop", "cluster",
                                     {{"key", key},
                                      {"from", decision.ingress},
                                      {"attempt", std::to_string(attempt)}},
                                     node->trace_tid);
      }
      last_error = Status::IOError("forward to " + node->name + " dropped");
      continue;
    }
    if (hop && config_.forward_latency_sec > 0.0) {
      // Request hop now, response hop after dispatch.
      std::this_thread::sleep_for(
          std::chrono::duration<double>(config_.forward_latency_sec));
    }
    if (hop) {
      forwarded_->Add(1);
    } else {
      local_->Add(1);
    }
    if (config_.tracer != nullptr && config_.tracer->enabled()) {
      config_.tracer->InstantEvent(
          "dispatch", "cluster",
          {{"key", key},
           {"shard", std::to_string(decision.shard)},
           {"hop", hop ? "1" : "0"}},
          node->trace_tid);
    }
    Result<core::ServiceResponse> response =
        node->loop->Execute(request);
    if (hop && config_.forward_latency_sec > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(config_.forward_latency_sec));
    }
    if (response.ok()) {
      return response;
    }
    // Shed / deadline / backend error (or the node's breaker failing
    // fast): the next replica gets a chance.
    last_error = response.status();
  }
  failed_->Add(1);
  return last_error;
}

bool Cluster::ApplyWrite(Node* node, int shard, const std::string& key,
                         const std::string& value, const Version& version) {
  ShardData& data = node->shards[shard];
  auto have = data.entries.find(key);
  if (have != data.entries.end() && !(have->second.version < version)) {
    return false;  // Apply-if-newer: resident copy already at/past this.
  }
  data.entries[key] = VersionedValue{value, version};
  ++data.applied;
  replica_writes_->Add(1);
  if (node->journal != nullptr) {
    DFLOW_CHECK_OK(node->journal->Append(
        EncodeReplicaWrite(shard, key, value, version)));
    DFLOW_CHECK_OK(node->journal->Sync());
  }
  return true;
}

bool Cluster::LinkDownLocked(const std::string& from,
                             const std::string& to) const {
  auto it = cut_until_.find({from, to});
  return it != cut_until_.end() && partition_now_ < it->second;
}

bool Cluster::BiReachableLocked(const std::string& a,
                                const std::string& b) const {
  // Quorum membership needs the request out AND the ack back, so a
  // one-way cut excludes the pair even though one direction still flows.
  return a == b || (!LinkDownLocked(a, b) && !LinkDownLocked(b, a));
}

std::string Cluster::ReachabilityMatrixLocked() const {
  std::string out;
  for (const auto& [from, unused_from] : nodes_by_name_) {
    for (const auto& [to, unused_to] : nodes_by_name_) {
      if (from != to) {
        out += from + "->" + to +
               (LinkDownLocked(from, to) ? " down\n" : " up\n");
      }
    }
  }
  return out;
}

void Cluster::RecordLocked(HistoryEvent event) {
  if (config_.history == nullptr) {
    return;
  }
  event.time_sec = partition_now_;
  config_.history->Append(std::move(event));
}

void Cluster::DrainHintsLocked() {
  for (auto& holder : nodes_) {
    if (holder->hints.empty() ||
        !holder->alive.load(std::memory_order_acquire)) {
      continue;
    }
    std::vector<Hint> kept;
    for (Hint& hint : holder->hints) {
      auto target_it = nodes_by_name_.find(hint.target);
      Node* target =
          target_it == nodes_by_name_.end() ? nullptr : target_it->second;
      if (target == nullptr ||
          !target->alive.load(std::memory_order_acquire) ||
          !BiReachableLocked(holder->name, hint.target)) {
        kept.push_back(std::move(hint));
        continue;
      }
      // Delivered (apply-if-newer keeps this idempotent against
      // read-repair and rejoin catch-up racing the same write home).
      ApplyWrite(target, hint.shard, hint.key, hint.value, hint.version);
      hints_drained_->Add(1);
    }
    holder->hints = std::move(kept);
  }
}

void Cluster::RefreshReachabilityLocked(const std::string& cause) {
  std::string matrix = ReachabilityMatrixLocked();
  if (matrix == reachability_) {
    return;
  }
  reachability_ = std::move(matrix);
  ++epoch_;
  partition_transitions_->Add(1);
  HistoryEvent event;
  event.kind = HistoryEvent::Kind::kReach;
  event.detail = cause + " epoch=" + std::to_string(epoch_) + " rm=" +
                 Md5::HexOf(reachability_).substr(0, 8);
  RecordLocked(std::move(event));
  // Pairs that just became bidirectionally reachable can take their
  // banked writes now.
  DrainHintsLocked();
}

Result<std::vector<Cluster::Node*>> Cluster::WriteSetLocked(int shard) {
  DFLOW_ASSIGN_OR_RETURN(
      std::vector<std::string> replicas,
      map_.ReplicasOfShard(shard, config_.replication_factor));
  std::vector<Node*> targets;
  for (const std::string& name : replicas) {
    DFLOW_ASSIGN_OR_RETURN(Node * node, FindNode(name));
    if (node->alive.load(std::memory_order_acquire)) {
      targets.push_back(node);
    }
  }
  auto moving = moving_.find(shard);
  if (moving != moving_.end()) {
    DFLOW_ASSIGN_OR_RETURN(Node * target, FindNode(moving->second));
    if (target->alive.load(std::memory_order_acquire) &&
        std::find(targets.begin(), targets.end(), target) == targets.end()) {
      targets.push_back(target);
      dual_writes_->Add(1);
    }
  }
  return targets;
}

Status Cluster::Put(const std::string& key, const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  int shard = map_.ShardOf(key);
  DFLOW_ASSIGN_OR_RETURN(std::vector<Node*> targets, WriteSetLocked(shard));

  auto reject = [&](Status status, const std::string& why) {
    put_failures_->Add(1);
    HistoryEvent event;
    event.kind = HistoryEvent::Kind::kPutFail;
    event.key = key;
    event.detail = why;
    RecordLocked(std::move(event));
    return status;
  };

  if (targets.empty()) {
    return reject(Status::IOError("no alive replica for shard " +
                                  std::to_string(shard)),
                  "no alive replica");
  }

  // Coordinator: the key's ingress node when alive, else the first alive
  // chain replica — the node the client's write actually lands on.
  std::string coordinator = router_.IngressOf(key);
  if (!IsAlive(coordinator)) {
    coordinator = targets.front()->name;
  }

  // Count the reachable set BEFORE applying anything: a sub-quorum write
  // is rejected with zero side effects (ops are serialized under mu_, so
  // nothing observes the intermediate state either way).
  std::vector<Node*> acked;
  std::vector<Node*> missed;  // Alive but partitioned away: hint these.
  for (Node* node : targets) {
    (BiReachableLocked(coordinator, node->name) ? acked : missed)
        .push_back(node);
  }
  if (static_cast<int>(acked.size()) < write_quorum_) {
    return reject(
        Status::ResourceExhausted(
            "write quorum not met for shard " + std::to_string(shard) +
            ": " + std::to_string(acked.size()) + " of " +
            std::to_string(write_quorum_) + " replicas reachable"),
        "quorum " + std::to_string(acked.size()) + "<" +
            std::to_string(write_quorum_));
  }

  Version version{epoch_, ++version_counter_, coordinator};
  for (Node* node : acked) {
    ApplyWrite(node, shard, key, value, version);
  }
  for (Node* node : missed) {
    // Hinted handoff: the first acking replica banks the write for the
    // unreachable one, to be drained when the pair heals.
    acked.front()->hints.push_back(Hint{node->name, shard, key, value,
                                        version});
    hints_stored_->Add(1);
  }

  writes_->Add(1);
  HistoryEvent event;
  event.kind = HistoryEvent::Kind::kPutOk;
  event.key = key;
  event.value = value;
  event.node = coordinator;
  event.version = version;
  event.acks = static_cast<int>(acked.size());
  RecordLocked(std::move(event));
  return Status::OK();
}

Result<std::string> Cluster::Get(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  int shard = map_.ShardOf(key);
  DFLOW_ASSIGN_OR_RETURN(
      std::vector<std::string> replicas,
      map_.ReplicasOfShard(shard, config_.replication_factor));

  auto reject = [&](const std::string& message, const std::string& why) {
    get_failures_->Add(1);
    HistoryEvent event;
    event.kind = HistoryEvent::Kind::kGetFail;
    event.key = key;
    event.detail = why;
    RecordLocked(std::move(event));
    return Status::ResourceExhausted(message);
  };

  std::vector<Node*> alive;
  for (const std::string& name : replicas) {
    auto it = nodes_by_name_.find(name);
    if (it != nodes_by_name_.end() &&
        it->second->alive.load(std::memory_order_acquire)) {
      alive.push_back(it->second);
    }
  }
  if (alive.empty()) {
    return reject("every replica of shard " + std::to_string(shard) +
                      " is dead or unreachable",
                  "no alive replica");
  }

  std::string coordinator = router_.IngressOf(key);
  if (!IsAlive(coordinator)) {
    coordinator = alive.front()->name;
  }
  std::vector<Node*> consulted;
  for (Node* node : alive) {
    if (BiReachableLocked(coordinator, node->name)) {
      consulted.push_back(node);
    }
  }
  if (static_cast<int>(consulted.size()) < read_quorum_) {
    return reject("read quorum not met for shard " + std::to_string(shard) +
                      ": " + std::to_string(consulted.size()) + " of " +
                      std::to_string(read_quorum_) + " replicas reachable",
                  "quorum " + std::to_string(consulted.size()) + "<" +
                      std::to_string(read_quorum_));
  }

  // Newest version across the quorum wins; W + R > N guarantees at least
  // one consulted replica holds the latest acknowledged write.
  const VersionedValue* best = nullptr;
  for (Node* node : consulted) {
    auto shard_it = node->shards.find(shard);
    if (shard_it == node->shards.end()) {
      continue;
    }
    auto entry = shard_it->second.entries.find(key);
    if (entry == shard_it->second.entries.end()) {
      continue;
    }
    if (best == nullptr || best->version < entry->second.version) {
      best = &entry->second;
    }
  }

  HistoryEvent event;
  event.key = key;
  event.node = coordinator;
  event.acks = static_cast<int>(consulted.size());
  if (best == nullptr) {
    event.kind = HistoryEvent::Kind::kGetMiss;
    RecordLocked(std::move(event));
    return Status::NotFound("key '" + key + "' not found");
  }
  // Copy out before read-repair: ApplyWrite mutates the maps `best`
  // points into.
  std::string value = best->value;
  Version version = best->version;
  for (Node* node : consulted) {
    if (ApplyWrite(node, shard, key, value, version)) {
      read_repairs_->Add(1);
    }
  }
  event.kind = HistoryEvent::Kind::kGetOk;
  event.value = value;
  event.version = version;
  RecordLocked(std::move(event));
  return value;
}

Status Cluster::KillNode(const std::string& node_id) {
  std::lock_guard<std::mutex> lock(mu_);
  DFLOW_ASSIGN_OR_RETURN(Node * node, FindNode(node_id));
  if (!node->alive.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("node '" + node_id +
                                      "' is already dead");
  }
  node->alive.store(false, std::memory_order_release);
  // Volatile state dies with the process; the journal file survives.
  // Banked hints are volatile too — a killed holder loses them, and the
  // target's rejoin catch-up is what covers the gap.
  node->shards.clear();
  node->hints.clear();
  node->journal.reset();
  ++epoch_;  // Membership change: later writes order after everything
             // the dead node acked.
  kills_->Add(1);
  HistoryEvent event;
  event.kind = HistoryEvent::Kind::kKill;
  event.node = node->name;
  event.detail = "epoch=" + std::to_string(epoch_);
  RecordLocked(std::move(event));
  if (config_.tracer != nullptr && config_.tracer->enabled()) {
    config_.tracer->InstantEvent("node_kill", "cluster", {},
                                 node->trace_tid);
  }
  return Status::OK();
}

Status Cluster::RejoinNode(const std::string& node_id) {
  std::lock_guard<std::mutex> lock(mu_);
  DFLOW_ASSIGN_OR_RETURN(Node * node, FindNode(node_id));
  if (node->alive.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("node '" + node_id + "' is alive");
  }

  if (!node->journal_path.empty()) {
    Result<std::vector<std::string>> frames =
        db::WalReadAll(node->journal_path);
    if (!frames.ok() && !frames.status().IsNotFound()) {
      return frames.status();
    }
    // Decode every record before applying any, so a Corruption leaves the
    // node dead and its state untouched.
    std::vector<ReplicaWrite> writes;
    if (frames.ok()) {
      writes.reserve(frames->size());
      for (const std::string& frame : *frames) {
        DFLOW_ASSIGN_OR_RETURN(
            ReplicaWrite write,
            DecodeReplicaWrite(frame, map_.config().num_shards));
        writes.push_back(std::move(write));
      }
    }
    // Append order, each record only if newer than the resident copy (the
    // merge every other path uses).
    for (ReplicaWrite& write : writes) {
      ShardData& data = node->shards[write.shard];
      auto have = data.entries.find(write.key);
      if (have == data.entries.end() || have->second.version < write.version) {
        data.entries[write.key] =
            VersionedValue{std::move(write.value), write.version};
      }
      ++data.applied;
      journal_replayed_->Add(1);
    }
    DFLOW_ASSIGN_OR_RETURN(node->journal,
                           db::WalWriter::Open(node->journal_path));
  }

  // Anti-entropy: writes that landed while the node was dead are missing
  // from its journal. Re-sync any shard this node replicates whose content
  // differs from the current owner's authoritative copy, and drop shards
  // it no longer replicates (ownership may have moved while it was down).
  node->alive.store(true, std::memory_order_release);
  for (int shard = 0; shard < map_.config().num_shards; ++shard) {
    Result<std::vector<std::string>> replicas =
        map_.ReplicasOfShard(shard, config_.replication_factor);
    if (!replicas.ok()) {
      continue;
    }
    bool member = std::find(replicas->begin(), replicas->end(),
                            node->name) != replicas->end();
    if (!member) {
      node->shards.erase(shard);
      continue;
    }
    // The authoritative copy: the first ALIVE replica other than the
    // rejoiner that the rejoiner can actually talk to (while it was dead,
    // that copy took the writes). A partitioned-away peer syncs later,
    // when the heal drains hints and reads repair.
    Node* owner = nullptr;
    for (const std::string& name : *replicas) {
      auto it = nodes_by_name_.find(name);
      if (it != nodes_by_name_.end() && it->second != node &&
          it->second->alive.load(std::memory_order_acquire) &&
          BiReachableLocked(node->name, name)) {
        owner = it->second;
        break;
      }
    }
    if (owner == nullptr) {
      continue;  // Sole survivor: its journal IS the authority.
    }
    auto owner_it = owner->shards.find(shard);
    const ShardData* truth =
        owner_it == owner->shards.end() ? nullptr : &owner_it->second;
    auto mine_it = node->shards.find(shard);
    uint64_t mine_digest = mine_it == node->shards.end()
                               ? kEmptyShardDigest
                               : mine_it->second.ContentDigest();
    uint64_t truth_digest =
        truth == nullptr ? kEmptyShardDigest : truth->ContentDigest();
    if (mine_digest == truth_digest) {
      continue;
    }
    catchup_shards_->Add(1);
    if (truth == nullptr) {
      node->shards.erase(shard);
      continue;
    }
    for (const auto& [key, entry] : truth->entries) {
      ApplyWrite(node, shard, key, entry.value, entry.version);
    }
  }
  ++epoch_;  // Membership change, mirroring KillNode.
  rejoins_->Add(1);
  HistoryEvent event;
  event.kind = HistoryEvent::Kind::kRejoin;
  event.node = node->name;
  event.detail = "epoch=" + std::to_string(epoch_);
  RecordLocked(std::move(event));
  // Hints banked for this node while it was unreachable-by-death deliver
  // now, AFTER journal replay and owner catch-up: apply-if-newer makes
  // the three sources commute.
  DrainHintsLocked();
  if (config_.tracer != nullptr && config_.tracer->enabled()) {
    config_.tracer->InstantEvent("node_rejoin", "cluster", {},
                                 node->trace_tid);
  }
  return Status::OK();
}

bool Cluster::IsAlive(const std::string& node_id) const {
  auto it = nodes_by_name_.find(node_id);
  return it != nodes_by_name_.end() &&
         it->second->alive.load(std::memory_order_acquire);
}

Status Cluster::ExpandCuts(fault::FaultKind kind, const std::string& target,
                           double start, double duration_sec,
                           std::vector<Cut>* cuts) const {
  if (!(duration_sec > 0.0)) {
    return Status::InvalidArgument("cut of '" + target +
                                   "' needs a duration > 0");
  }
  // A link cut "a->b" is a one-way cut from group {a} to group {b}.
  std::vector<std::vector<std::string>> groups;
  if (kind == fault::FaultKind::kLinkCut) {
    size_t sep = target.find("->");
    if (sep == std::string::npos) {
      return Status::InvalidArgument("link cut target '" + target +
                                     "' is not of the form a->b");
    }
    groups = {{target.substr(0, sep)}, {target.substr(sep + 2)}};
  } else {
    for (const std::string& group : Split(target, '|')) {
      groups.push_back(Split(group, ','));
    }
    if (groups.size() < 2) {
      return Status::InvalidArgument("partition '" + target +
                                     "' needs at least two groups");
    }
  }
  std::map<std::string, size_t> group_of;
  for (size_t g = 0; g < groups.size(); ++g) {
    for (const std::string& name : groups[g]) {
      if (nodes_by_name_.count(name) == 0) {
        return Status::InvalidArgument("'" + target +
                                       "' names unknown node '" + name +
                                       "'");
      }
      if (!group_of.emplace(name, g).second) {
        return Status::InvalidArgument("'" + target + "' names '" + name +
                                       "' twice");
      }
    }
  }
  const bool one_way = kind == fault::FaultKind::kLinkCut;
  for (const auto& [from, from_group] : group_of) {
    for (const auto& [to, to_group] : group_of) {
      if (from_group != to_group && !(one_way && from_group > to_group)) {
        cuts->push_back(Cut{start, start + duration_sec, from, to});
      }
    }
  }
  return Status::OK();
}

void Cluster::AddBoundariesLocked(const std::vector<Cut>& cuts) {
  for (const Cut& cut : cuts) {
    partition_boundaries_.push_back(cut.start);
    partition_boundaries_.push_back(cut.end);
  }
  std::sort(partition_boundaries_.begin(), partition_boundaries_.end());
  partition_boundaries_.erase(
      std::unique(partition_boundaries_.begin(), partition_boundaries_.end()),
      partition_boundaries_.end());
}

void Cluster::TakeEffectLocked(const Cut& cut) {
  auto [it, inserted] = cut_until_.try_emplace({cut.from, cut.to}, cut.end);
  if (!inserted) {
    it->second = std::max(it->second, cut.end);
  }
}

Status Cluster::ArmPartitionPlan(const fault::FaultPlan& plan) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const fault::FaultEvent& event : plan.events()) {
    if (!(event.time_sec >= partition_now_)) {
      return Status::OutOfRange("fault event at t=" +
                                std::to_string(event.time_sec) +
                                " is behind the partition clock");
    }
  }
  std::vector<Cut> cuts;
  for (const fault::FaultEvent& event : plan.events()) {
    if (event.kind == fault::FaultKind::kPartition ||
        event.kind == fault::FaultKind::kLinkCut) {
      DFLOW_RETURN_IF_ERROR(ExpandCuts(event.kind, event.target,
                                       event.time_sec, event.duration_sec,
                                       &cuts));
    }
  }
  // Every cut's start and end are reachability boundaries the advance
  // loop must stop at; the cuts wait there for the clock.
  AddBoundariesLocked(cuts);
  armed_cuts_.insert(armed_cuts_.end(), cuts.begin(), cuts.end());
  return Status::OK();
}

Status Cluster::CutNow(fault::FaultKind kind, const std::string& target,
                       double duration_sec) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Cut> cuts;
  DFLOW_RETURN_IF_ERROR(
      ExpandCuts(kind, target, partition_now_, duration_sec, &cuts));
  AddBoundariesLocked(cuts);
  for (const Cut& cut : cuts) {
    TakeEffectLocked(cut);
  }
  RefreshReachabilityLocked(
      (kind == fault::FaultKind::kPartition ? "partition " : "cut ") + target);
  return Status::OK();
}

Status Cluster::PartitionNodes(const std::string& group_spec,
                               double duration_sec) {
  return CutNow(fault::FaultKind::kPartition, group_spec, duration_sec);
}

Status Cluster::CutLink(const std::string& from, const std::string& to,
                        double duration_sec) {
  return CutNow(fault::FaultKind::kLinkCut, from + "->" + to, duration_sec);
}

void Cluster::StepPartitionClockLocked(double time_sec) {
  partition_now_ = time_sec;
  auto due = std::partition(
      armed_cuts_.begin(), armed_cuts_.end(),
      [time_sec](const Cut& cut) { return cut.start > time_sec; });
  for (auto it = due; it != armed_cuts_.end(); ++it) {
    TakeEffectLocked(*it);
  }
  armed_cuts_.erase(due, armed_cuts_.end());
  RefreshReachabilityLocked(TimeTag(time_sec));
}

Status Cluster::AdvancePartitionTime(double time_sec) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!(time_sec >= partition_now_)) {
    return Status::OutOfRange(
        "partition clock only advances (now=" +
        std::to_string(partition_now_) + ", asked=" +
        std::to_string(time_sec) + ")");
  }
  // Stop at every cut/heal boundary in (now, time_sec] so each
  // reachability transition is observed — epoch bumps, history records,
  // and hint drains happen per transition, not once at the end.
  for (double boundary : partition_boundaries_) {
    if (boundary > partition_now_ && boundary <= time_sec) {
      StepPartitionClockLocked(boundary);
    }
  }
  StepPartitionClockLocked(time_sec);
  return Status::OK();
}

double Cluster::PartitionNow() const {
  std::lock_guard<std::mutex> lock(mu_);
  return partition_now_;
}

std::string Cluster::ReachabilityMatrix() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reachability_;
}

bool Cluster::ReplicasConverged() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (int shard = 0; shard < map_.config().num_shards; ++shard) {
    Result<std::vector<std::string>> replicas =
        map_.ReplicasOfShard(shard, config_.replication_factor);
    if (!replicas.ok()) {
      continue;
    }
    bool first = true;
    uint64_t want = 0;
    for (const std::string& name : *replicas) {
      auto it = nodes_by_name_.find(name);
      if (it == nodes_by_name_.end() ||
          !it->second->alive.load(std::memory_order_acquire)) {
        continue;
      }
      auto shard_it = it->second->shards.find(shard);
      uint64_t digest = shard_it == it->second->shards.end()
                            ? kEmptyShardDigest
                            : shard_it->second.ContentDigest();
      if (first) {
        want = digest;
        first = false;
      } else if (digest != want) {
        return false;
      }
    }
  }
  return true;
}

Status Cluster::BeginShardMove(int shard, const std::string& to_node) {
  std::lock_guard<std::mutex> lock(mu_);
  DFLOW_ASSIGN_OR_RETURN(Node * target, FindNode(to_node));
  if (!target->alive.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("move target '" + to_node +
                                      "' is dead");
  }
  DFLOW_ASSIGN_OR_RETURN(std::string owner, map_.OwnerOfShard(shard));
  if (owner == to_node) {
    return Status::AlreadyExists("node '" + to_node + "' already owns shard " +
                                 std::to_string(shard));
  }
  if (moving_.count(shard) != 0) {
    return Status::FailedPrecondition("shard " + std::to_string(shard) +
                                      " is already moving");
  }
  // Catch-up copy: snapshot the owner's current shard content onto the
  // target. Writes from here on dual-apply (WriteSetLocked), so the target
  // stays current through the window.
  DFLOW_ASSIGN_OR_RETURN(Node * owner_node, FindNode(owner));
  auto owner_it = owner_node->shards.find(shard);
  if (owner_it != owner_node->shards.end()) {
    for (const auto& [key, entry] : owner_it->second.entries) {
      ApplyWrite(target, shard, key, entry.value, entry.version);
    }
  }
  moving_[shard] = to_node;
  return Status::OK();
}

Status Cluster::CompleteShardMove(int shard) {
  std::lock_guard<std::mutex> lock(mu_);
  auto moving = moving_.find(shard);
  if (moving == moving_.end()) {
    return Status::FailedPrecondition("shard " + std::to_string(shard) +
                                      " is not moving");
  }
  std::string to_node = moving->second;
  DFLOW_RETURN_IF_ERROR(map_.SetOverride(shard, to_node));
  moving_.erase(moving);
  // Trim copies on nodes that fell out of the replica set (often the old
  // owner drops to backup replica and keeps its copy; a node pushed past
  // the chain loses it).
  DFLOW_ASSIGN_OR_RETURN(
      std::vector<std::string> replicas,
      map_.ReplicasOfShard(shard, config_.replication_factor));
  for (auto& node : nodes_) {
    if (std::find(replicas.begin(), replicas.end(), node->name) ==
        replicas.end()) {
      node->shards.erase(shard);
    }
  }
  rebalance_moves_->Add(1);
  if (config_.tracer != nullptr && config_.tracer->enabled()) {
    config_.tracer->InstantEvent(
        "shard_move", "cluster",
        {{"shard", std::to_string(shard)}, {"to", to_node}});
  }
  return Status::OK();
}

Status Cluster::MoveShard(int shard, const std::string& to_node) {
  DFLOW_RETURN_IF_ERROR(BeginShardMove(shard, to_node));
  return CompleteShardMove(shard);
}

std::vector<std::string> Cluster::node_names() const {
  std::vector<std::string> names;
  names.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    names.push_back(node->name);
  }
  return names;
}

ClusterStats Cluster::Stats() const {
  ClusterStats stats;
  stats.requests = requests_->Value();
  stats.local = local_->Value();
  stats.forwarded = forwarded_->Value();
  stats.reroutes = reroutes_->Value();
  stats.forward_drops = forward_drops_->Value();
  stats.failed = failed_->Value();
  stats.writes = writes_->Value();
  stats.put_failures = put_failures_->Value();
  stats.get_failures = get_failures_->Value();
  stats.replica_writes = replica_writes_->Value();
  stats.read_repairs = read_repairs_->Value();
  stats.hints_stored = hints_stored_->Value();
  stats.hints_drained = hints_drained_->Value();
  stats.partition_transitions = partition_transitions_->Value();
  stats.dual_writes = dual_writes_->Value();
  stats.rebalance_moves = rebalance_moves_->Value();
  stats.kills = kills_->Value();
  stats.rejoins = rejoins_->Value();
  stats.journal_replayed = journal_replayed_->Value();
  stats.catchup_shards = catchup_shards_->Value();
  return stats;
}

std::map<std::string, int64_t> Cluster::ServedByNode() const {
  std::map<std::string, int64_t> served;
  for (const auto& node : nodes_) {
    served[node->name] = node->loop->Stats().offered;
  }
  return served;
}

Result<serve::ServeStats> Cluster::NodeServeStats(
    const std::string& node_id) const {
  DFLOW_ASSIGN_OR_RETURN(Node * node, FindNode(node_id));
  return node->loop->Stats();
}

std::string Cluster::DecisionLog(const std::vector<std::string>& keys) const {
  std::lock_guard<std::mutex> lock(mu_);
  return router_.DecisionLog(keys);
}

std::string Cluster::DescribeMap() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.Describe();
}

std::string Cluster::DescribeState() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& node : nodes_) {
    out += node->name;
    out += node->alive.load(std::memory_order_acquire) ? " alive\n"
                                                       : " dead\n";
    for (const auto& [shard, data] : node->shards) {
      char line[96];
      std::snprintf(line, sizeof(line),
                    "  shard=%d applied=%lld entries=%zu digest=%016llx\n",
                    shard, static_cast<long long>(data.applied),
                    data.entries.size(),
                    static_cast<unsigned long long>(data.ContentDigest()));
      out += line;
    }
  }
  return out;
}

std::string Cluster::Fingerprint() const {
  Md5 md5;
  md5.Update(DescribeMap());
  md5.Update(DescribeState());
  return md5.HexDigest();
}

}  // namespace dflow::cluster
