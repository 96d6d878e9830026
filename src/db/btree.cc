#include "db/btree.h"

#include <algorithm>

#include "util/logging.h"

namespace dflow::db {

namespace {
constexpr RowId kMinRowId{0, 0};
}  // namespace

BTreeIndex::BTreeIndex(size_t max_keys) : max_keys_(max_keys) {
  DFLOW_CHECK(max_keys_ >= 4);
  root_ = std::make_unique<Node>();
}

int BTreeIndex::CompareEntry(const Entry& a, const Entry& b) {
  int c = a.key.Compare(b.key);
  if (c != 0) {
    return c;
  }
  if (a.rid == b.rid) {
    return 0;
  }
  return a.rid < b.rid ? -1 : 1;
}

size_t BTreeIndex::ChildIndex(const Node& node, const Entry& entry) {
  // Separators are sorted, so "separator <= entry" holds for a prefix of
  // them and upper_bound finds the first one past it.
  auto it = std::upper_bound(node.separators.begin(), node.separators.end(),
                             entry, [](const Entry& e, const Entry& sep) {
                               return CompareEntry(sep, e) > 0;
                             });
  return static_cast<size_t>(it - node.separators.begin());
}

void BTreeIndex::SplitChild(Node* parent, size_t child_idx) {
  Node* child = parent->children[child_idx].get();
  auto sibling = std::make_unique<Node>();
  sibling->leaf = child->leaf;

  Entry separator_entry{Value::Null(), kMinRowId};
  if (child->leaf) {
    size_t mid = child->entries.size() / 2;
    sibling->entries.assign(
        std::make_move_iterator(child->entries.begin() + mid),
        std::make_move_iterator(child->entries.end()));
    child->entries.resize(mid);
    separator_entry = sibling->entries.front();
    sibling->next = child->next;
    child->next = sibling.get();
  } else {
    // Internal split: the middle separator moves up; children and the
    // remaining separators split around it.
    size_t mid = child->separators.size() / 2;
    separator_entry.key = std::move(child->separators[mid].key);
    separator_entry.rid = child->separators[mid].rid;
    sibling->separators.assign(
        std::make_move_iterator(child->separators.begin() + mid + 1),
        std::make_move_iterator(child->separators.end()));
    child->separators.resize(mid);
    sibling->children.assign(
        std::make_move_iterator(child->children.begin() + mid + 1),
        std::make_move_iterator(child->children.end()));
    child->children.resize(mid + 1);
  }
  parent->separators.insert(parent->separators.begin() + child_idx,
                            std::move(separator_entry));
  parent->children.insert(parent->children.begin() + child_idx + 1,
                          std::move(sibling));
}

void BTreeIndex::InsertNonFull(Node* node, Entry entry) {
  while (!node->leaf) {
    size_t idx = ChildIndex(*node, entry);
    Node* child = node->children[idx].get();
    bool full = child->leaf ? child->entries.size() >= max_keys_
                            : child->separators.size() >= max_keys_;
    if (full) {
      SplitChild(node, idx);
      if (CompareEntry(node->separators[idx], entry) <= 0) {
        ++idx;
      }
      child = node->children[idx].get();
    }
    node = child;
  }
  auto it = std::lower_bound(node->entries.begin(), node->entries.end(),
                             entry, EntryLess);
  node->entries.insert(it, std::move(entry));
}

void BTreeIndex::Insert(const Value& key, RowId rid) {
  bool root_full = root_->leaf ? root_->entries.size() >= max_keys_
                               : root_->separators.size() >= max_keys_;
  if (root_full) {
    auto new_root = std::make_unique<Node>();
    new_root->leaf = false;
    new_root->children.push_back(std::move(root_));
    root_ = std::move(new_root);
    SplitChild(root_.get(), 0);
  }
  InsertNonFull(root_.get(), Entry{key, rid});
  ++size_;
}

BTreeIndex::Node* BTreeIndex::FindLeaf(const Entry& probe) const {
  Node* node = root_.get();
  while (!node->leaf) {
    node = node->children[ChildIndex(*node, probe)].get();
  }
  return node;
}

bool BTreeIndex::Remove(const Value& key, RowId rid) {
  const Entry probe{key, rid};
  Node* leaf = FindLeaf(probe);
  auto it = std::lower_bound(leaf->entries.begin(), leaf->entries.end(),
                             probe, EntryLess);
  if (it == leaf->entries.end() || CompareEntry(*it, probe) != 0) {
    return false;
  }
  leaf->entries.erase(it);
  --size_;
  return true;
}

std::vector<RowId> BTreeIndex::Find(const Value& key) const {
  std::vector<RowId> out;
  Scan(&key, /*lo_inclusive=*/true, &key, /*hi_inclusive=*/true,
       [&out](const Value&, RowId rid) {
         out.push_back(rid);
         return true;
       });
  return out;
}

void BTreeIndex::Scan(
    const Value* lo, bool lo_inclusive, const Value* hi, bool hi_inclusive,
    const std::function<bool(const Value&, RowId)>& fn) const {
  // The first leaf is entered at the first entry not below lo; the entries
  // before it hold smaller keys, which the lo check below would skip.
  const Node* leaf = root_.get();
  size_t first = 0;
  if (lo != nullptr) {
    const Entry probe{*lo, kMinRowId};
    leaf = FindLeaf(probe);
    first = static_cast<size_t>(
        std::lower_bound(leaf->entries.begin(), leaf->entries.end(), probe,
                         EntryLess) -
        leaf->entries.begin());
  } else {
    while (!leaf->leaf) {
      leaf = leaf->children.front().get();
    }
  }
  for (; leaf != nullptr; leaf = leaf->next, first = 0) {
    for (size_t i = first; i < leaf->entries.size(); ++i) {
      const Entry& entry = leaf->entries[i];
      if (lo != nullptr) {
        int c = entry.key.Compare(*lo);
        if (c < 0 || (c == 0 && !lo_inclusive)) {
          continue;
        }
      }
      if (hi != nullptr) {
        int c = entry.key.Compare(*hi);
        if (c > 0 || (c == 0 && !hi_inclusive)) {
          return;
        }
      }
      if (!fn(entry.key, entry.rid)) {
        return;
      }
    }
  }
}

int BTreeIndex::height() const {
  int h = 1;
  const Node* node = root_.get();
  while (!node->leaf) {
    node = node->children.front().get();
    ++h;
  }
  return h;
}

bool BTreeIndex::CheckNode(const Node* node, const Value* lo,
                           const Value* hi) const {
  auto in_range = [&](const Value& v) {
    if (lo != nullptr && v.Compare(*lo) < 0) {
      return false;
    }
    if (hi != nullptr && v.Compare(*hi) > 0) {
      return false;
    }
    return true;
  };
  if (node->leaf) {
    for (size_t i = 0; i < node->entries.size(); ++i) {
      if (!in_range(node->entries[i].key)) {
        return false;
      }
      if (i > 0 &&
          CompareEntry(node->entries[i - 1], node->entries[i]) > 0) {
        return false;
      }
    }
    return true;
  }
  if (node->children.size() != node->separators.size() + 1) {
    return false;
  }
  for (size_t i = 0; i < node->separators.size(); ++i) {
    if (!in_range(node->separators[i].key)) {
      return false;
    }
    if (i > 0 && CompareEntry(node->separators[i - 1],
                              node->separators[i]) > 0) {
      return false;
    }
  }
  for (size_t i = 0; i < node->children.size(); ++i) {
    const Value* child_lo = (i == 0) ? lo : &node->separators[i - 1].key;
    const Value* child_hi =
        (i == node->separators.size()) ? hi : &node->separators[i].key;
    if (!CheckNode(node->children[i].get(), child_lo, child_hi)) {
      return false;
    }
  }
  return true;
}

bool BTreeIndex::CheckInvariants() const {
  return CheckNode(root_.get(), nullptr, nullptr);
}

}  // namespace dflow::db
