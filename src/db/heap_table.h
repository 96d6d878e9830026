#ifndef DFLOW_DB_HEAP_TABLE_H_
#define DFLOW_DB_HEAP_TABLE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "db/buffer_pool.h"
#include "db/page.h"
#include "db/schema.h"
#include "util/byte_buffer.h"
#include "util/result.h"

namespace dflow::db {

/// Physical address of a row: page number + slot within the page. Stable
/// across deletes (slots are tombstoned, not reused), so indexes can store
/// RowIds. The page number is table-local (the table's Nth page), not a
/// buffer-pool page id — RowIds survive checkpoint rebuilds and are
/// independent of which pool the table lives in.
struct RowId {
  uint32_t page = 0;
  uint16_t slot = 0;

  bool operator==(const RowId& other) const {
    return page == other.page && slot == other.slot;
  }
  bool operator<(const RowId& other) const {
    return page != other.page ? page < other.page : slot < other.slot;
  }
};

/// A heap file of slotted pages storing encoded rows of one schema.
/// Rows append to the last page with room; full pages stay where they are.
///
/// Every page access goes through a BufferPool: the table holds page *ids*
/// (page_ids_[n] = pool id of the table's nth page) and pins pages on
/// demand, so a bounded pool spills cold pages to its PageStore and the
/// table's data can exceed RAM transparently. A table constructed without
/// a pool gets a private unbounded in-memory one (the pre-pool behavior).
class HeapTable {
 public:
  explicit HeapTable(Schema schema, BufferPool* pool = nullptr);
  ~HeapTable();

  HeapTable(const HeapTable&) = delete;
  HeapTable& operator=(const HeapTable&) = delete;

  const Schema& schema() const { return schema_; }

  /// Validates against the schema and stores the row.
  Result<RowId> Insert(const Row& row);

  Result<Row> Get(RowId id) const;
  Status Delete(RowId id);
  /// In-place if it fits, else delete + reinsert (the returned RowId may
  /// differ from `id`).
  Result<RowId> Update(RowId id, const Row& row);

  int64_t num_rows() const { return num_rows_; }
  size_t num_pages() const { return page_ids_.size(); }

  /// Total bytes occupied by page images (the storage-accounting hook).
  int64_t SizeBytes() const {
    return static_cast<int64_t>(page_ids_.size() * kPageSize);
  }

  BufferPool* pool() const { return pool_; }

  /// Calls fn(RowId, Row&&) for every live row in physical order, each
  /// decoded once and handed over; stops early if fn returns false. Pins
  /// each page once.
  template <typename Fn>
  Status ForEach(Fn&& fn) const {
    for (uint32_t p = 0; p < page_ids_.size(); ++p) {
      DFLOW_ASSIGN_OR_RETURN(BufferPool::PageRef ref,
                             pool_->Pin(page_ids_[p]));
      for (uint16_t s = 0; s < ref->num_slots(); ++s) {
        auto record = ref->Get(s);
        if (!record.ok()) {
          continue;  // Tombstone.
        }
        ByteReader reader(*record);
        DFLOW_ASSIGN_OR_RETURN(Row row, DecodeRow(reader));
        if (!fn(RowId{p, s}, std::move(row))) {
          return Status::OK();
        }
      }
    }
    return Status::OK();
  }

 private:
  /// Checks `row` against the schema and encodes it into record_, widened
  /// as ValidateRow widens it. Only a row that must widen is copied.
  Result<std::string_view> Encode(const Row& row);
  Result<RowId> InsertEncoded(std::string_view record);
  Result<BufferPool::PageRef> PinLocal(uint32_t local_page) const;

  Schema schema_;
  BufferPool* pool_;                         // Never null after ctor.
  std::unique_ptr<BufferPool> owned_pool_;   // Fallback when none provided.
  std::vector<uint32_t> page_ids_;           // Local page n -> pool pid.
  int64_t num_rows_ = 0;
  ByteWriter record_;                        // Reused by every Encode.
};

}  // namespace dflow::db

#endif  // DFLOW_DB_HEAP_TABLE_H_
