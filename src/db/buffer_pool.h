#ifndef DFLOW_DB_BUFFER_POOL_H_
#define DFLOW_DB_BUFFER_POOL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "db/page.h"
#include "db/page_store.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/result.h"

namespace dflow::db {

struct BufferPoolOptions {
  /// Maximum resident frames; 0 = unbounded (every page stays in memory,
  /// the pre-pool behavior). Pinned frames can push residency above the
  /// bound transiently — pins are short-lived (one operation) by contract,
  /// and the pool trims back to the bound as pins drop.
  size_t max_frames = 0;
};

/// Frame-table buffer pool: the one path every page access takes. Pages
/// live in frames while hot; a bounded pool evicts cold pages to a
/// PageStore (LRU-K, K=2) and reloads them on demand, so tables spill to
/// the store transparently and working sets can exceed RAM.
///
/// Eviction is deterministic: victims are chosen by LRU-K backward
/// distance on a logical access clock, with ties broken by
/// (older-last-access, smaller page id). Two runs that perform the same
/// page accesses evict the same pages in the same order — the eviction log
/// is a replayable artifact, which is what makes the differential and
/// determinism gates possible.
///
/// WAL-before-page: before a dirty page image reaches the store, the pool
/// calls the registered `ensure_durable(lsn)` barrier with the page's LSN,
/// so no page image can land on disk describing a mutation whose WAL
/// record might be lost. (Recovery is still logical WAL replay; the
/// barrier keeps the spill file from ever being *ahead* of the log.)
///
/// Not thread-safe, by design: the engine is single-threaded and the serve
/// tier serializes per-mount access (see ServeLoop).
class BufferPool {
 public:
  BufferPool(BufferPoolOptions options, std::unique_ptr<PageStore> store);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// RAII pin: the frame cannot be evicted while a PageRef is alive.
  /// MarkDirty() records a mutation, stamping the page with the current
  /// WAL LSN (via the registered provider).
  class PageRef {
   public:
    PageRef() = default;
    PageRef(PageRef&& other) noexcept { *this = std::move(other); }
    PageRef& operator=(PageRef&& other) noexcept;
    PageRef(const PageRef&) = delete;
    PageRef& operator=(const PageRef&) = delete;
    ~PageRef();

    Page* get() const;
    Page* operator->() const { return get(); }
    Page& operator*() const { return *get(); }
    explicit operator bool() const { return pool_ != nullptr; }

    /// Marks the frame dirty and stamps the page LSN from the pool's LSN
    /// provider. Call after (or around) any page mutation.
    void MarkDirty();

   private:
    friend class BufferPool;
    PageRef(BufferPool* pool, size_t frame_idx)
        : pool_(pool), frame_idx_(frame_idx) {}

    BufferPool* pool_ = nullptr;
    size_t frame_idx_ = 0;
  };

  /// Allocates a fresh page id with an empty, dirty, resident page.
  /// Freed ids are recycled smallest-first (deterministic).
  Result<uint32_t> Allocate();

  /// Releases `pid`: drops the frame (no writeback) and recycles the id.
  /// FailedPrecondition if the page is currently pinned.
  Status Free(uint32_t pid);

  /// Pins `pid`, fetching it from the store on a miss.
  Result<PageRef> Pin(uint32_t pid);

  /// Writes back every dirty resident page (frames stay resident).
  Status FlushAll();

  /// WAL coordination: `current_lsn` stamps dirty pages; `ensure_durable`
  /// is the WAL-before-page barrier invoked before any dirty writeback.
  void SetWal(std::function<uint64_t()> current_lsn,
              std::function<uint64_t()> durable_lsn,
              std::function<Status(uint64_t)> ensure_durable);

  /// Observability: counts into `metrics` from now on (null: a private
  /// registry), carrying the counts so far over. Counters are
  /// "db.pool.hits", ".misses", ".evictions", ".writebacks",
  /// ".allocations", ".frees"; stats() reads them.
  void SetMetricsRegistry(obs::MetricsRegistry* metrics);
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Test hook: called at every dirty writeback with (pid, page_lsn,
  /// durable_wal_lsn_at_write) — the WAL-before-page proof point.
  using WritebackProbe =
      std::function<void(uint32_t pid, uint64_t page_lsn,
                         uint64_t durable_lsn)>;
  void SetWritebackProbe(WritebackProbe probe) {
    writeback_probe_ = std::move(probe);
  }

  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
    int64_t writebacks = 0;
    int64_t allocations = 0;
    int64_t frees = 0;
  };
  Stats stats() const;

  size_t resident_pages() const { return page_table_.size(); }
  size_t max_frames() const { return options_.max_frames; }
  PageStore* store() const { return store_.get(); }

  /// Every eviction in order (page ids). The determinism gate asserts two
  /// same-seed runs produce identical logs.
  const std::vector<uint32_t>& eviction_log() const { return eviction_log_; }

 private:
  struct Frame {
    uint32_t pid = 0;
    Page page;
    int pin_count = 0;
    bool dirty = false;
    bool in_use = false;
    // LRU-K (K=2) history: last_access > prev_access, 0 = never.
    uint64_t last_access = 0;
    uint64_t prev_access = 0;
  };

  size_t AcquireFrameSlot();
  /// Evicts the LRU-K victim among unpinned frames; false if none.
  Result<bool> EvictOne();
  Status WriteBack(Frame& frame);
  void Touch(Frame& frame);
  void TrimToBound();

  BufferPoolOptions options_;
  std::unique_ptr<PageStore> store_;
  std::vector<std::unique_ptr<Frame>> frames_;
  std::vector<size_t> free_frames_;            // Reuse stack (LIFO).
  std::unordered_map<uint32_t, size_t> page_table_;  // pid -> frame idx.
  std::set<uint32_t> free_pids_;
  uint32_t next_pid_ = 0;
  uint64_t access_clock_ = 0;

  std::function<uint64_t()> current_lsn_;
  std::function<uint64_t()> durable_lsn_;
  std::function<Status(uint64_t)> ensure_durable_;
  WritebackProbe writeback_probe_;

  std::vector<uint32_t> eviction_log_;

  // The pool's one counter store and handles into it.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Counter* writebacks_ = nullptr;
  obs::Counter* allocations_ = nullptr;
  obs::Counter* frees_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace dflow::db

#endif  // DFLOW_DB_BUFFER_POOL_H_
