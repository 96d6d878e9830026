#include "serve/request_scratch.h"

namespace dflow::serve {

RequestScratch& RequestScratch::ForThisThread() {
  thread_local RequestScratch scratch;
  return scratch;
}

int64_t RequestScratch::NoteStringGrowth(size_t old_cap, size_t new_cap) {
  if (new_cap <= old_cap) {
    return 0;
  }
  const int64_t delta = static_cast<int64_t>(new_cap - old_cap);
  allocated_bytes_ += delta;
  return delta;
}

}  // namespace dflow::serve
