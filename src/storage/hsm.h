#ifndef DFLOW_STORAGE_HSM_H_
#define DFLOW_STORAGE_HSM_H_

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/disk.h"
#include "storage/tape.h"
#include "util/result.h"

namespace dflow::storage {

/// Retry discipline for tape recalls that hit bad blocks: each failed
/// attempt is followed by an operator repair (clearing the bad block)
/// after `operator_repair_seconds` of virtual time, then a re-read, up to
/// `max_read_attempts` total tries.
struct HsmFaultPolicy {
  int max_read_attempts = 3;
  double operator_repair_seconds = 900.0;  // A human walks to the library.
};

/// Hierarchical storage management: a disk cache in front of a tape
/// library, with write-through puts and LRU eviction — the system the
/// paper says CLEO's data lives in ("most of the data are stored in a
/// hierarchical storage management system (which automatically moves data
/// between tape and disk cache)").
class HsmCache {
 public:
  /// `cache_disk` and `tape` are borrowed; they must outlive the cache.
  HsmCache(sim::Simulation* simulation, DiskVolume* cache_disk,
           TapeLibrary* tape);

  /// Stores a new file: lands in the disk cache (evicting LRU files as
  /// needed) and is archived to tape. `on_complete` fires when the tape
  /// copy is durable.
  Status Put(const std::string& file, int64_t bytes,
             std::function<void()> on_complete);

  /// Reads a file. A cache hit costs one disk access; a miss recalls from
  /// tape and installs the file in the cache. The callback receives the
  /// byte count, or the error of a recall that failed for good: IOError
  /// (bad blocks) is retried after an operator repair up to the fault
  /// policy's attempts; anything else fails fast. A failed recall leaves
  /// the file out of the cache.
  Status GetChecked(const std::string& file,
                    std::function<void(Result<int64_t>)> on_complete);

  /// Content-bearing Put: the raw bytes land in the disk cache (raw — the
  /// disk tier trades capacity for latency) and are written through to
  /// tape, where they are chunk-compressed per the tape config.
  /// `on_complete` receives the STORED tape byte count once durable.
  Status PutContent(const std::string& file, std::string content,
                    std::function<void(int64_t)> on_complete);

  /// Content-bearing GetChecked: a hit streams the raw copy from disk (no
  /// decompression — the hot tier stays raw); a miss recalls and decodes
  /// it from tape, with the same retries and rollback. A Corruption result
  /// (a compressed frame's CRC failed) fails fast — operator repair fixes
  /// media, not rot.
  Status GetContentChecked(const std::string& file,
                           std::function<void(Result<std::string>)> done);

  void SetFaultPolicy(HsmFaultPolicy policy) { fault_policy_ = policy; }
  const HsmFaultPolicy& fault_policy() const { return fault_policy_; }

  /// Attaches observability hooks (borrowed; either may be null). With a
  /// tracer, cache reads, tape recalls (spanning every bad-block retry),
  /// and archive puts emit virtual-time spans; operator repairs emit
  /// instants. The cache/fault counters move into `metrics` (null: a
  /// private registry), counts so far carried over, under
  /// "hsm.cache_hits", ".cache_misses", ".evictions", ".read_faults",
  /// ".operator_repairs", ".read_failures"; the accessors read them.
  void SetObserver(obs::Tracer* tracer, obs::MetricsRegistry* metrics);

  /// Tape recalls that failed on a bad block (before retry).
  int64_t read_faults() const { return read_faults_->Value(); }
  /// Operator interventions performed (bad-block repairs).
  int64_t operator_repairs() const { return operator_repairs_->Value(); }
  /// Recalls abandoned after exhausting the fault policy.
  int64_t read_failures() const { return read_failures_->Value(); }

  /// Drops a file from the disk cache (it remains on tape).
  void Evict(const std::string& file);

  bool InCache(const std::string& file) const {
    return entries_.count(file) > 0;
  }

  int64_t hits() const { return hits_->Value(); }
  int64_t misses() const { return misses_->Value(); }
  double HitRate() const {
    int64_t total = hits() + misses();
    return total == 0 ? 0.0
                      : static_cast<double>(hits()) /
                            static_cast<double>(total);
  }
  int64_t evictions() const { return evictions_->Value(); }

 private:
  /// What a read delivers: the byte count, plus the raw bytes when content
  /// was asked for.
  struct Fetched {
    int64_t bytes = 0;
    std::string content;
  };

  /// Frees cache space for `bytes`, evicting least-recently-used files.
  Status MakeRoom(int64_t bytes);
  void InstallInCache(const std::string& file, int64_t bytes,
                      std::optional<std::string> content);
  void Touch(const std::string& file);
  /// The landing step behind Put and PutContent: room, the disk copy, and
  /// after the disk write the tape write (content-bearing when `content`
  /// is set), under one "hsm.archive_put" span. `on_durable` gets the
  /// stored tape byte count.
  Status Land(const std::string& file, int64_t bytes,
              std::optional<std::string> content,
              std::function<void(int64_t)> on_durable);
  /// The read step behind GetChecked and GetContentChecked. A hit is a
  /// cached copy (holding its bytes if content is wanted). A miss installs
  /// the file, recalls it under one "hsm.recall" span, and on a terminal
  /// failure evicts the install again.
  Status Fetch(const std::string& file, bool want_content,
               std::function<void(Result<Fetched>)> done);
  /// Reads `file` from tape (decoded when `want_content`), retrying an
  /// IOError after an operator repair up to the fault policy's attempts
  /// and failing fast on anything else. A size-only read delivers no
  /// bytes.
  void RecallWithRetry(const std::string& file, bool want_content,
                       int attempt,
                       std::function<void(Result<std::string>)> done);

  sim::Simulation* simulation_;
  DiskVolume* cache_disk_;
  TapeLibrary* tape_;

  // LRU list: front = most recent. The map holds each cached file's size,
  // its list position, and its raw bytes if it is content-bearing.
  struct Entry {
    int64_t bytes;
    std::list<std::string>::iterator lru_it;
    std::optional<std::string> content;
  };
  std::list<std::string> lru_;
  std::map<std::string, Entry> entries_;

  // Observability: the tracer (null until SetObserver), the one counter
  // store, and handles into it, resolved once per SetObserver.
  obs::Tracer* tracer_ = nullptr;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Counter* read_faults_ = nullptr;
  obs::Counter* operator_repairs_ = nullptr;
  obs::Counter* read_failures_ = nullptr;
  /// The configured tracer if currently enabled, else null.
  obs::Tracer* ActiveTracer() const {
    return tracer_ != nullptr && tracer_->enabled() ? tracer_ : nullptr;
  }

  HsmFaultPolicy fault_policy_;
};

}  // namespace dflow::storage

#endif  // DFLOW_STORAGE_HSM_H_
