#include "serve/response_cache.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace dflow::serve {

namespace {

constexpr size_t kPerEntryOverhead = 64;

// FNV-1a 64-bit: deterministic across platforms and runs (std::hash makes
// no such promise), so shard assignment — and therefore per-shard counter
// expectations in tests — replays exactly.
uint64_t Fnv1a(std::string_view s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

ShardedResponseCache::ShardedResponseCache(CacheConfig config)
    : config_(config) {
  DFLOW_CHECK(config_.num_shards > 0);
  shards_.reserve(static_cast<size_t>(config_.num_shards));
  for (int i = 0; i < config_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  shard_capacity_bytes_ =
      config_.capacity_bytes / static_cast<size_t>(config_.num_shards);
}

void ShardedResponseCache::CanonicalKeyInto(
    const core::ServiceRequest& request, std::string* out) {
  // '\x1e' (record sep) between fields, '\x1f' (unit sep) between key and
  // value: no parameter content can forge another request's key.
  out->clear();
  out->append(request.path);
  for (const auto& [name, value] : request.params) {  // std::map: sorted.
    out->push_back('\x1e');
    out->append(name);
    out->push_back('\x1f');
    out->append(value);
  }
}

std::string ShardedResponseCache::CanonicalKey(
    const core::ServiceRequest& request) {
  std::string key;
  key.reserve(request.path.size() + 16 * request.params.size());
  CanonicalKeyInto(request, &key);
  return key;
}

int ShardedResponseCache::ShardOf(std::string_view key) const {
  return static_cast<int>(Fnv1a(key) %
                          static_cast<uint64_t>(shards_.size()));
}

size_t ShardedResponseCache::EntryBytes(
    std::string_view key, const core::ServiceResponse& response) {
  return key.size() + response.body.size() + response.content_type.size() +
         kPerEntryOverhead;
}

ResponsePtr ShardedResponseCache::LookupShared(std::string_view key,
                                               double now_sec) {
  Shard& shard = *shards_[static_cast<size_t>(ShardOf(key))];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);  // Heterogeneous: no temporary string.
  if (it == shard.index.end()) {
    ++shard.stats.misses;
    return nullptr;
  }
  auto entry_it = it->second;
  if (entry_it->expires_at_sec > 0.0 && now_sec >= entry_it->expires_at_sec) {
    shard.bytes -= entry_it->bytes;
    shard.lru.erase(entry_it);
    shard.index.erase(it);
    ++shard.stats.expirations;
    ++shard.stats.misses;
    return nullptr;
  }
  // Refresh recency: splice to the front of the LRU list (relinks nodes,
  // allocates nothing), then hand out another reference to the body.
  shard.lru.splice(shard.lru.begin(), shard.lru, entry_it);
  ++shard.stats.hits;
  return entry_it->response;
}

void ShardedResponseCache::InsertShared(std::string_view key,
                                        ResponsePtr response, double now_sec,
                                        double ttl_sec) {
  if (response == nullptr) {
    return;
  }
  size_t bytes = EntryBytes(key, *response);
  Shard& shard = *shards_[static_cast<size_t>(ShardOf(key))];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (bytes > shard_capacity_bytes_) {
    return;  // Would evict the whole shard and then itself; not worth it.
  }
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    shard.bytes -= it->second->bytes;
    shard.lru.erase(it->second);
    shard.index.erase(it);
  }
  double effective_ttl = config_.default_ttl_sec;
  if (ttl_sec > 0.0) {
    effective_ttl = effective_ttl > 0.0 ? std::min(effective_ttl, ttl_sec)
                                        : ttl_sec;
  }
  Entry entry;
  entry.key = std::string(key);
  entry.response = std::move(response);
  entry.expires_at_sec =
      effective_ttl > 0.0 ? now_sec + effective_ttl : 0.0;
  entry.bytes = bytes;
  shard.lru.push_front(std::move(entry));
  shard.index.emplace(shard.lru.front().key, shard.lru.begin());
  shard.bytes += bytes;
  ++shard.stats.inserts;
  while (shard.bytes > shard_capacity_bytes_) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    ++shard.stats.evictions;
  }
}

bool ShardedResponseCache::Erase(const std::string& key) {
  Shard& shard = *shards_[static_cast<size_t>(ShardOf(key))];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    return false;
  }
  shard.bytes -= it->second->bytes;
  shard.lru.erase(it->second);
  shard.index.erase(it);
  return true;
}

void ShardedResponseCache::Clear() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.lru.clear();
    shard.index.clear();
    shard.bytes = 0;
  }
}

CacheStats ShardedResponseCache::ShardStats(int shard_index) const {
  DFLOW_CHECK(shard_index >= 0 &&
              shard_index < static_cast<int>(shards_.size()));
  const Shard& shard = *shards_[static_cast<size_t>(shard_index)];
  std::lock_guard<std::mutex> lock(shard.mu);
  CacheStats stats = shard.stats;
  stats.bytes = shard.bytes;
  stats.entries = shard.lru.size();
  return stats;
}

CacheStats ShardedResponseCache::Totals() const {
  // Each ShardStats() call snapshots that shard's counters under its own
  // mutex — the shard lock every writer holds — so no individual counter
  // (or the bytes/entries pair) is ever read mid-update.
  CacheStats total;
  for (int i = 0; i < num_shards(); ++i) {
    CacheStats s = ShardStats(i);
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
    total.expirations += s.expirations;
    total.inserts += s.inserts;
    total.bytes += s.bytes;
    total.entries += s.entries;
  }
  return total;
}

}  // namespace dflow::serve
