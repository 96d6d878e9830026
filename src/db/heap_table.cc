#include "db/heap_table.h"

#include "util/byte_buffer.h"

namespace dflow::db {

HeapTable::HeapTable(Schema schema, BufferPool* pool)
    : schema_(std::move(schema)), pool_(pool) {
  if (pool_ == nullptr) {
    owned_pool_ = std::make_unique<BufferPool>(
        BufferPoolOptions{}, std::make_unique<MemPageStore>());
    pool_ = owned_pool_.get();
  }
}

HeapTable::~HeapTable() {
  // Return this table's pages to the pool so dropped tables release frames
  // and their ids get recycled. Best-effort: a pinned page here would be a
  // caller bug (no PageRef may outlive the table).
  for (uint32_t pid : page_ids_) {
    (void)pool_->Free(pid);
  }
}

Result<BufferPool::PageRef> HeapTable::PinLocal(uint32_t local_page) const {
  if (local_page >= page_ids_.size()) {
    return Status::NotFound("page out of range");
  }
  return pool_->Pin(page_ids_[local_page]);
}

Result<std::string_view> HeapTable::Encode(const Row& row) {
  DFLOW_ASSIGN_OR_RETURN(bool widens, schema_.CheckRow(row));
  if (widens) {
    DFLOW_ASSIGN_OR_RETURN(Row widened, schema_.ValidateRow(row));
    return Encode(widened);
  }
  record_.Clear();
  EncodeRow(row, record_);
  return std::string_view(record_.data());
}

Result<RowId> HeapTable::Insert(const Row& row) {
  DFLOW_ASSIGN_OR_RETURN(std::string_view record, Encode(row));
  DFLOW_ASSIGN_OR_RETURN(RowId id, InsertEncoded(record));
  ++num_rows_;
  return id;
}

Result<RowId> HeapTable::InsertEncoded(std::string_view record) {
  if (!page_ids_.empty()) {
    DFLOW_ASSIGN_OR_RETURN(BufferPool::PageRef ref,
                           pool_->Pin(page_ids_.back()));
    auto slot = ref->Insert(record);
    if (slot.ok()) {
      ref.MarkDirty();
      return RowId{static_cast<uint32_t>(page_ids_.size() - 1), *slot};
    }
    if (!slot.status().IsResourceExhausted()) {
      return slot.status();
    }
  }
  DFLOW_ASSIGN_OR_RETURN(uint32_t pid, pool_->Allocate());
  page_ids_.push_back(pid);
  DFLOW_ASSIGN_OR_RETURN(BufferPool::PageRef ref, pool_->Pin(pid));
  DFLOW_ASSIGN_OR_RETURN(uint16_t slot, ref->Insert(record));
  ref.MarkDirty();
  return RowId{static_cast<uint32_t>(page_ids_.size() - 1), slot};
}

Result<Row> HeapTable::Get(RowId id) const {
  DFLOW_ASSIGN_OR_RETURN(BufferPool::PageRef ref, PinLocal(id.page));
  DFLOW_ASSIGN_OR_RETURN(std::string_view record, ref->Get(id.slot));
  ByteReader r(record);
  return DecodeRow(r);
}

Status HeapTable::Delete(RowId id) {
  DFLOW_ASSIGN_OR_RETURN(BufferPool::PageRef ref, PinLocal(id.page));
  DFLOW_RETURN_IF_ERROR(ref->Delete(id.slot));
  ref.MarkDirty();
  --num_rows_;
  return Status::OK();
}

Result<RowId> HeapTable::Update(RowId id, const Row& row) {
  DFLOW_ASSIGN_OR_RETURN(std::string_view record, Encode(row));
  {
    DFLOW_ASSIGN_OR_RETURN(BufferPool::PageRef ref, PinLocal(id.page));
    Status in_place = ref->Update(id.slot, record);
    if (in_place.ok()) {
      ref.MarkDirty();
      return id;
    }
    if (!in_place.IsResourceExhausted()) {
      return in_place;
    }
    DFLOW_RETURN_IF_ERROR(ref->Delete(id.slot));
    ref.MarkDirty();
  }
  return InsertEncoded(record);
}

}  // namespace dflow::db
