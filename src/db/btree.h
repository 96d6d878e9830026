#ifndef DFLOW_DB_BTREE_H_
#define DFLOW_DB_BTREE_H_

#include <functional>
#include <memory>
#include <vector>

#include "db/heap_table.h"
#include "db/value.h"

namespace dflow::db {

/// In-memory B+Tree secondary index mapping column values to RowIds.
/// Duplicates are supported by ordering entries on (key, RowId); leaves are
/// chained for range scans. Deletion removes entries without rebalancing
/// (lazy deletion): underfull nodes are tolerated, which keeps the code
/// small and is the standard trade-off for index workloads dominated by
/// inserts and scans, as all the metadata workloads in this library are.
class BTreeIndex {
 public:
  explicit BTreeIndex(size_t max_keys = 64);

  BTreeIndex(const BTreeIndex&) = delete;
  BTreeIndex& operator=(const BTreeIndex&) = delete;

  void Insert(const Value& key, RowId rid);

  /// Removes the (key, rid) entry. Returns false if absent.
  bool Remove(const Value& key, RowId rid);

  /// All RowIds stored under exactly `key`.
  std::vector<RowId> Find(const Value& key) const;

  /// Visits entries with lo <= key <= hi in key order. Null bound pointers
  /// mean unbounded; inclusivity flags apply only when the bound is set.
  /// `fn` returns false to stop early.
  void Scan(const Value* lo, bool lo_inclusive, const Value* hi,
            bool hi_inclusive,
            const std::function<bool(const Value&, RowId)>& fn) const;

  int64_t size() const { return size_; }
  int height() const;

  /// Validates B+Tree invariants (key ordering within and across nodes,
  /// child key ranges vs separators). Used by property tests.
  bool CheckInvariants() const;

 private:
  struct Entry {
    Value key;
    RowId rid;
  };
  struct Node {
    bool leaf = true;
    std::vector<Entry> entries;              // Leaf payload.
    std::vector<Entry> separators;           // Internal: child count - 1.
    std::vector<std::unique_ptr<Node>> children;
    Node* next = nullptr;                    // Leaf chain.
  };

  static int CompareEntry(const Entry& a, const Entry& b);
  static bool EntryLess(const Entry& a, const Entry& b) {
    return CompareEntry(a, b) < 0;
  }
  /// The child of internal `node` whose range holds `entry`: the first
  /// separator greater than it, found by binary search.
  static size_t ChildIndex(const Node& node, const Entry& entry);
  Node* FindLeaf(const Entry& probe) const;
  /// Splits `child` (index `child_idx` of `parent`), which must be full.
  void SplitChild(Node* parent, size_t child_idx);
  void InsertNonFull(Node* node, Entry entry);
  bool CheckNode(const Node* node, const Value* lo, const Value* hi) const;

  size_t max_keys_;
  std::unique_ptr<Node> root_;
  int64_t size_ = 0;
};

}  // namespace dflow::db

#endif  // DFLOW_DB_BTREE_H_
