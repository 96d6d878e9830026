#include "db/buffer_pool.h"

#include <limits>

#include "util/logging.h"

namespace dflow::db {

BufferPool::BufferPool(BufferPoolOptions options,
                       std::unique_ptr<PageStore> store)
    : options_(options), store_(std::move(store)) {
  DFLOW_CHECK(store_ != nullptr);
  SetMetricsRegistry(nullptr);
}

void BufferPool::SetWal(std::function<uint64_t()> current_lsn,
                        std::function<uint64_t()> durable_lsn,
                        std::function<Status(uint64_t)> ensure_durable) {
  current_lsn_ = std::move(current_lsn);
  durable_lsn_ = std::move(durable_lsn);
  ensure_durable_ = std::move(ensure_durable);
}

void BufferPool::SetMetricsRegistry(obs::MetricsRegistry* metrics) {
  // The registry being left stays alive until every handle has carried
  // its count over.
  std::unique_ptr<obs::MetricsRegistry> previous = std::move(owned_metrics_);
  obs::MetricsRegistry& registry =
      obs::InjectedOrOwned(metrics, &owned_metrics_);
  hits_ = registry.GetCounter("db.pool.hits", hits_);
  misses_ = registry.GetCounter("db.pool.misses", misses_);
  evictions_ = registry.GetCounter("db.pool.evictions", evictions_);
  writebacks_ = registry.GetCounter("db.pool.writebacks", writebacks_);
  allocations_ = registry.GetCounter("db.pool.allocations", allocations_);
  frees_ = registry.GetCounter("db.pool.frees", frees_);
}

BufferPool::Stats BufferPool::stats() const {
  Stats stats;
  stats.hits = hits_->Value();
  stats.misses = misses_->Value();
  stats.evictions = evictions_->Value();
  stats.writebacks = writebacks_->Value();
  stats.allocations = allocations_->Value();
  stats.frees = frees_->Value();
  return stats;
}

BufferPool::PageRef& BufferPool::PageRef::operator=(PageRef&& other) noexcept {
  if (this != &other) {
    this->~PageRef();
    pool_ = other.pool_;
    frame_idx_ = other.frame_idx_;
    other.pool_ = nullptr;
  }
  return *this;
}

BufferPool::PageRef::~PageRef() {
  if (pool_ == nullptr) {
    return;
  }
  Frame& frame = *pool_->frames_[frame_idx_];
  DFLOW_CHECK(frame.pin_count > 0);
  --frame.pin_count;
  if (frame.pin_count == 0) {
    pool_->TrimToBound();
  }
  pool_ = nullptr;
}

Page* BufferPool::PageRef::get() const {
  DFLOW_CHECK(pool_ != nullptr);
  return &pool_->frames_[frame_idx_]->page;
}

void BufferPool::PageRef::MarkDirty() {
  DFLOW_CHECK(pool_ != nullptr);
  Frame& frame = *pool_->frames_[frame_idx_];
  frame.dirty = true;
  if (pool_->current_lsn_) {
    uint64_t lsn = pool_->current_lsn_();
    if (lsn > 0) {
      frame.page.set_lsn(lsn);
    }
  }
}

void BufferPool::Touch(Frame& frame) {
  frame.prev_access = frame.last_access;
  frame.last_access = ++access_clock_;
}

Result<bool> BufferPool::EvictOne() {
  // LRU-K (K=2) victim: frames referenced fewer than K times have infinite
  // backward K-distance and go first (ties: older last access, then
  // smaller page id); otherwise the frame with the oldest K-th-most-recent
  // access loses. The scan order is the frame vector, so selection is a
  // pure function of the access history — never of hash-map layout.
  Frame* victim = nullptr;
  for (const auto& frame_ptr : frames_) {
    Frame& f = *frame_ptr;
    if (!f.in_use || f.pin_count > 0) {
      continue;
    }
    if (victim == nullptr) {
      victim = &f;
      continue;
    }
    bool f_inf = f.prev_access == 0;
    bool v_inf = victim->prev_access == 0;
    bool better;
    if (f_inf != v_inf) {
      better = f_inf;  // Infinite distance evicts first.
    } else if (f_inf) {
      better = f.last_access != victim->last_access
                   ? f.last_access < victim->last_access
                   : f.pid < victim->pid;
    } else if (f.prev_access != victim->prev_access) {
      better = f.prev_access < victim->prev_access;
    } else if (f.last_access != victim->last_access) {
      better = f.last_access < victim->last_access;
    } else {
      better = f.pid < victim->pid;
    }
    if (better) {
      victim = &f;
    }
  }
  if (victim == nullptr) {
    return false;
  }
  if (victim->dirty) {
    DFLOW_RETURN_IF_ERROR(WriteBack(*victim));
  }
  size_t idx = page_table_.at(victim->pid);
  page_table_.erase(victim->pid);
  eviction_log_.push_back(victim->pid);
  evictions_->Add(1);
  victim->in_use = false;
  victim->page = Page();
  free_frames_.push_back(idx);
  return true;
}

Status BufferPool::WriteBack(Frame& frame) {
  uint64_t page_lsn = frame.page.lsn();
  if (page_lsn > 0 && ensure_durable_) {
    // WAL-before-page: the log record that produced this image must be
    // durable before the image itself can reach the store.
    DFLOW_RETURN_IF_ERROR(ensure_durable_(page_lsn));
  }
  if (writeback_probe_) {
    writeback_probe_(frame.pid, page_lsn,
                     durable_lsn_ ? durable_lsn_() : 0);
  }
  int64_t start_us = 0;
  bool traced = tracer_ != nullptr && tracer_->enabled();
  if (traced) {
    start_us = tracer_->NowUs();
  }
  DFLOW_RETURN_IF_ERROR(store_->Write(frame.pid, frame.page.Image(),
                                      page_lsn));
  if (traced) {
    int64_t end_us = tracer_->NowUs();
    tracer_->CompleteEvent("db.pool.writeback", "db", start_us,
                           end_us - start_us,
                           {{"pid", std::to_string(frame.pid)}});
  }
  frame.dirty = false;
  writebacks_->Add(1);
  return Status::OK();
}

void BufferPool::TrimToBound() {
  if (options_.max_frames == 0) {
    return;
  }
  while (page_table_.size() > options_.max_frames) {
    auto evicted = EvictOne();
    if (!evicted.ok() || !*evicted) {
      break;  // All pinned (transient overflow) or store error; stop.
    }
  }
}

size_t BufferPool::AcquireFrameSlot() {
  if (!free_frames_.empty()) {
    size_t idx = free_frames_.back();
    free_frames_.pop_back();
    return idx;
  }
  frames_.push_back(std::make_unique<Frame>());
  return frames_.size() - 1;
}

Result<uint32_t> BufferPool::Allocate() {
  // Make room first so the new frame itself never gets picked as victim.
  if (options_.max_frames != 0 &&
      page_table_.size() >= options_.max_frames) {
    DFLOW_RETURN_IF_ERROR(EvictOne().status());
  }
  uint32_t pid;
  if (!free_pids_.empty()) {
    pid = *free_pids_.begin();
    free_pids_.erase(free_pids_.begin());
  } else {
    DFLOW_CHECK(next_pid_ < std::numeric_limits<uint32_t>::max());
    pid = next_pid_++;
  }
  size_t idx = AcquireFrameSlot();
  Frame& frame = *frames_[idx];
  frame.pid = pid;
  frame.page = Page();
  frame.pin_count = 0;
  frame.dirty = true;  // Must reach the store even if never re-touched.
  frame.in_use = true;
  frame.last_access = 0;
  frame.prev_access = 0;
  if (current_lsn_) {
    uint64_t lsn = current_lsn_();
    if (lsn > 0) {
      frame.page.set_lsn(lsn);
    }
  }
  Touch(frame);
  page_table_[pid] = idx;
  allocations_->Add(1);
  return pid;
}

Status BufferPool::Free(uint32_t pid) {
  if (pid >= next_pid_ || free_pids_.count(pid) > 0) {
    return Status::InvalidArgument("free of unallocated page id");
  }
  auto it = page_table_.find(pid);
  if (it != page_table_.end()) {
    Frame& frame = *frames_[it->second];
    if (frame.pin_count > 0) {
      return Status::FailedPrecondition("cannot free a pinned page");
    }
    frame.in_use = false;
    frame.page = Page();
    free_frames_.push_back(it->second);
    page_table_.erase(it);
  }
  free_pids_.insert(pid);
  frees_->Add(1);
  return Status::OK();
}

Result<BufferPool::PageRef> BufferPool::Pin(uint32_t pid) {
  auto it = page_table_.find(pid);
  if (it != page_table_.end()) {
    Frame& frame = *frames_[it->second];
    Touch(frame);
    ++frame.pin_count;
    hits_->Add(1);
    return PageRef(this, it->second);
  }
  // Miss: fetch from the store into a frame.
  misses_->Add(1);
  if (options_.max_frames != 0 &&
      page_table_.size() >= options_.max_frames) {
    DFLOW_RETURN_IF_ERROR(EvictOne().status());
  }
  int64_t start_us = 0;
  bool traced = tracer_ != nullptr && tracer_->enabled();
  if (traced) {
    start_us = tracer_->NowUs();
  }
  std::string image;
  DFLOW_ASSIGN_OR_RETURN(uint64_t lsn, store_->Read(pid, &image));
  DFLOW_ASSIGN_OR_RETURN(Page page, Page::FromImage(image));
  (void)lsn;  // The authoritative LSN rides inside the page header.
  if (traced) {
    int64_t end_us = tracer_->NowUs();
    tracer_->CompleteEvent("db.pool.fetch", "db", start_us,
                           end_us - start_us,
                           {{"pid", std::to_string(pid)}});
  }
  size_t idx = AcquireFrameSlot();
  Frame& frame = *frames_[idx];
  frame.pid = pid;
  frame.page = std::move(page);
  frame.pin_count = 1;
  frame.dirty = false;
  frame.in_use = true;
  frame.last_access = 0;
  frame.prev_access = 0;
  Touch(frame);
  page_table_[pid] = idx;
  return PageRef(this, idx);
}

Status BufferPool::FlushAll() {
  for (const auto& frame_ptr : frames_) {
    Frame& frame = *frame_ptr;
    if (frame.in_use && frame.dirty) {
      DFLOW_RETURN_IF_ERROR(WriteBack(frame));
    }
  }
  return Status::OK();
}

}  // namespace dflow::db
