#ifndef DFLOW_SERVE_REQUEST_SCRATCH_H_
#define DFLOW_SERVE_REQUEST_SCRATCH_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace dflow::serve {

/// Per-thread scratch for the serve front door: a reusable canonical-key
/// buffer. It warms up once and is reused for the life of the thread,
/// which is what lets the cache-hit path run with 0 allocations (the
/// regression test pins exactly that).
///
/// Instrumented: `allocated_bytes()` counts every observed growth of the
/// key buffer, so a test can warm the path, snapshot the count, run N more
/// requests, and assert it did not move.
///
/// NOT thread-safe; use ForThisThread() and keep it on that thread.
class RequestScratch {
 public:
  RequestScratch() = default;
  RequestScratch(const RequestScratch&) = delete;
  RequestScratch& operator=(const RequestScratch&) = delete;

  /// The calling thread's scratch (thread_local; constructed on first
  /// use, lives until thread exit).
  static RequestScratch& ForThisThread();

  /// Reusable canonical-key buffer. Callers overwrite it per request;
  /// capacity grows monotonically. Report growth via NoteStringGrowth so
  /// the instrumentation sees it.
  std::string& KeyBuffer() { return key_buffer_; }

  /// Call after an operation that may have grown a tracked string:
  /// accounts (new_cap - old_cap) as allocated bytes. Returns the byte
  /// delta (0 when the capacity was already warm).
  int64_t NoteStringGrowth(size_t old_cap, size_t new_cap);

  /// Bytes of observed growth since construction. A flat count ==
  /// allocation-free operation.
  int64_t allocated_bytes() const { return allocated_bytes_; }

 private:
  std::string key_buffer_;
  int64_t allocated_bytes_ = 0;
};

}  // namespace dflow::serve

#endif  // DFLOW_SERVE_REQUEST_SCRATCH_H_
