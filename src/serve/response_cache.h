#ifndef DFLOW_SERVE_RESPONSE_CACHE_H_
#define DFLOW_SERVE_RESPONSE_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/web_service.h"

namespace dflow::serve {

/// Cached responses are immutable and handed out by reference count: a hit
/// copies a shared_ptr (one atomic increment), never the body bytes. This
/// is what makes the serve hit path memcpy-free — every reader shares the
/// one body the handler produced.
using ResponsePtr = std::shared_ptr<const core::ServiceResponse>;

struct CacheConfig {
  /// Number of independently locked shards. More shards, less contention;
  /// capacity is divided evenly across them.
  int num_shards = 16;
  /// Total byte budget across all shards (keys + bodies + content types +
  /// a fixed per-entry overhead). Least-recently-used entries are evicted
  /// per shard once its slice of the budget is exceeded.
  size_t capacity_bytes = 64u << 20;
  /// Default time-to-live in seconds; 0 means entries never expire (they
  /// still churn out via LRU). Individual inserts may pass a tighter TTL
  /// (e.g. from a handler's `cache_max_age_sec` hint).
  double default_ttl_sec = 0.0;
};

/// Per-shard (and aggregate) counters. A hit moves the entry to the MRU
/// position; a lookup of an expired entry counts one expiration AND one
/// miss; an insert that displaces older entries counts one eviction per
/// displaced entry.
struct CacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int64_t expirations = 0;
  int64_t inserts = 0;
  size_t bytes = 0;
  size_t entries = 0;

  double hit_rate() const {
    int64_t lookups = hits + misses;
    return lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups;
  }
};

/// N-shard LRU response cache for the dissemination tier. Keys are
/// canonicalized requests (path + sorted params); each shard is an LRU
/// list + hash map under its own mutex, so concurrent clients touching
/// different shards never contend. Time is supplied by the caller in
/// seconds (any monotonic origin), which keeps TTL behavior deterministic
/// under test and compatible with virtual-time harnesses.
///
/// Thread-safe. Entries larger than one shard's capacity slice are not
/// cached at all (they would only evict everything and then themselves).
class ShardedResponseCache {
 public:
  explicit ShardedResponseCache(CacheConfig config = {});

  /// Canonical cache key for a request: the path plus every parameter in
  /// sorted key order, joined with non-printing separators so distinct
  /// requests can never collide ("a=b&c=" vs "a=b&c" stay distinct).
  /// `ServiceRequest::params` is an ordered map, so two requests that
  /// differ only in parameter insertion order canonicalize identically.
  static std::string CanonicalKey(const core::ServiceRequest& request);

  /// Allocation-conscious form: builds the canonical key into `*out`
  /// (cleared first). A caller that reuses one string across requests pays
  /// zero allocations once its capacity has warmed up — the serve hit path
  /// depends on this.
  static void CanonicalKeyInto(const core::ServiceRequest& request,
                               std::string* out);

  /// Zero-copy lookup: returns a refcounted handle to the cached response
  /// (refreshing its recency), or nullptr on miss/expiry. Performs no heap
  /// allocation and no body copy — the hot path of the dissemination tier.
  /// `now_sec` must be non-decreasing per key for TTL accounting to make
  /// sense.
  ResponsePtr LookupShared(std::string_view key, double now_sec);

  /// Inserts (or replaces) the shared response under `key`. `ttl_sec` == 0
  /// uses the config default; > 0 overrides it (the effective TTL is the
  /// tighter of the two when both are set). The body is NOT copied — the
  /// cache shares ownership with every outstanding reader.
  void InsertShared(std::string_view key, ResponsePtr response,
                    double now_sec, double ttl_sec = 0.0);

  /// Removes `key` if present; returns whether it was.
  bool Erase(const std::string& key);

  /// Drops every entry (counters are preserved).
  void Clear();

  /// Aggregate counters. Each shard's counters are snapshotted atomically
  /// under that shard's own lock (the same lock every mutation holds), so
  /// the per-shard slices are internally consistent — hits/misses/bytes
  /// from one shard can never tear mid-update. Shards are read one after
  /// another, so the aggregate is a sequence of per-shard snapshots, not a
  /// single global freeze — the usual sharded-counter semantics.
  CacheStats Totals() const;
  CacheStats ShardStats(int shard) const;
  int num_shards() const { return static_cast<int>(shards_.size()); }
  /// Which shard `key` lives in (FNV-1a; stable across runs/platforms).
  int ShardOf(std::string_view key) const;

 private:
  /// Transparent heterogeneous hash so LookupShared can probe the index
  /// with a string_view — no temporary std::string on the hit path.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  struct Entry {
    std::string key;
    ResponsePtr response;
    double expires_at_sec = 0.0;  // 0 = never.
    size_t bytes = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // Front = most recently used.
    std::unordered_map<std::string, std::list<Entry>::iterator, StringHash,
                       std::equal_to<>>
        index;
    size_t bytes = 0;
    CacheStats stats;
  };

  static size_t EntryBytes(std::string_view key,
                           const core::ServiceResponse& response);

  CacheConfig config_;
  size_t shard_capacity_bytes_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace dflow::serve

#endif  // DFLOW_SERVE_RESPONSE_CACHE_H_
