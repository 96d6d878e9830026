#include "db/btree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace dflow::db {
namespace {

RowId Rid(uint32_t page, uint16_t slot = 0) { return RowId{page, slot}; }

TEST(BTreeTest, InsertAndFind) {
  BTreeIndex index;
  index.Insert(Value::Int(5), Rid(1));
  index.Insert(Value::Int(3), Rid(2));
  index.Insert(Value::Int(8), Rid(3));
  EXPECT_EQ(index.Find(Value::Int(3)), (std::vector<RowId>{Rid(2)}));
  EXPECT_TRUE(index.Find(Value::Int(4)).empty());
  EXPECT_EQ(index.size(), 3);
}

TEST(BTreeTest, DuplicateKeysAllFound) {
  BTreeIndex index;
  for (uint32_t i = 0; i < 100; ++i) {
    index.Insert(Value::Int(7), Rid(i));
  }
  EXPECT_EQ(index.Find(Value::Int(7)).size(), 100u);
}

TEST(BTreeTest, RemoveSpecificEntry) {
  BTreeIndex index;
  index.Insert(Value::Int(1), Rid(10));
  index.Insert(Value::Int(1), Rid(20));
  EXPECT_TRUE(index.Remove(Value::Int(1), Rid(10)));
  EXPECT_EQ(index.Find(Value::Int(1)), (std::vector<RowId>{Rid(20)}));
  EXPECT_FALSE(index.Remove(Value::Int(1), Rid(10)));  // Already gone.
  EXPECT_FALSE(index.Remove(Value::Int(99), Rid(0)));  // Never existed.
  EXPECT_EQ(index.size(), 1);
}

TEST(BTreeTest, SplitsGrowHeight) {
  BTreeIndex index(/*max_keys=*/4);
  EXPECT_EQ(index.height(), 1);
  for (int i = 0; i < 100; ++i) {
    index.Insert(Value::Int(i), Rid(static_cast<uint32_t>(i)));
  }
  EXPECT_GT(index.height(), 2);
  EXPECT_TRUE(index.CheckInvariants());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(index.Find(Value::Int(i)).size(), 1u) << i;
  }
}

TEST(BTreeTest, RangeScanOrderedInclusive) {
  BTreeIndex index(/*max_keys=*/4);
  for (int i = 0; i < 50; ++i) {
    index.Insert(Value::Int(i * 2), Rid(static_cast<uint32_t>(i)));
  }
  std::vector<int64_t> keys;
  Value lo = Value::Int(10), hi = Value::Int(20);
  index.Scan(&lo, true, &hi, true, [&](const Value& key, RowId) {
    keys.push_back(key.AsInt());
    return true;
  });
  EXPECT_EQ(keys, (std::vector<int64_t>{10, 12, 14, 16, 18, 20}));
}

TEST(BTreeTest, RangeScanExclusiveBounds) {
  BTreeIndex index;
  for (int i = 0; i < 10; ++i) {
    index.Insert(Value::Int(i), Rid(static_cast<uint32_t>(i)));
  }
  std::vector<int64_t> keys;
  Value lo = Value::Int(2), hi = Value::Int(5);
  index.Scan(&lo, false, &hi, false, [&](const Value& key, RowId) {
    keys.push_back(key.AsInt());
    return true;
  });
  EXPECT_EQ(keys, (std::vector<int64_t>{3, 4}));
}

TEST(BTreeTest, UnboundedScanVisitsEverythingInOrder) {
  BTreeIndex index(/*max_keys=*/4);
  Rng rng(5);
  std::vector<int64_t> inserted;
  for (int i = 0; i < 500; ++i) {
    int64_t key = rng.Uniform(0, 200);
    inserted.push_back(key);
    index.Insert(Value::Int(key), Rid(static_cast<uint32_t>(i)));
  }
  std::sort(inserted.begin(), inserted.end());
  std::vector<int64_t> scanned;
  index.Scan(nullptr, true, nullptr, true, [&](const Value& key, RowId) {
    scanned.push_back(key.AsInt());
    return true;
  });
  EXPECT_EQ(scanned, inserted);
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(BTreeTest, ScanEarlyStop) {
  BTreeIndex index;
  for (int i = 0; i < 20; ++i) {
    index.Insert(Value::Int(i), Rid(static_cast<uint32_t>(i)));
  }
  int visited = 0;
  index.Scan(nullptr, true, nullptr, true, [&](const Value&, RowId) {
    return ++visited < 5;
  });
  EXPECT_EQ(visited, 5);
}

TEST(BTreeTest, StringKeys) {
  BTreeIndex index;
  index.Insert(Value::String("banana"), Rid(1));
  index.Insert(Value::String("apple"), Rid(2));
  index.Insert(Value::String("cherry"), Rid(3));
  std::vector<std::string> keys;
  index.Scan(nullptr, true, nullptr, true, [&](const Value& key, RowId) {
    keys.push_back(key.AsString());
    return true;
  });
  EXPECT_EQ(keys, (std::vector<std::string>{"apple", "banana", "cherry"}));
}

// Property test: random interleaved inserts and removes checked against a
// reference multimap, with invariants verified throughout.
class BTreePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BTreePropertyTest, MatchesReferenceMultimap) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 1);
  BTreeIndex index(/*max_keys=*/8);
  std::multimap<int64_t, RowId> reference;

  for (int op = 0; op < 2000; ++op) {
    int64_t key = rng.Uniform(0, 100);
    if (rng.Bernoulli(0.7) || reference.empty()) {
      RowId rid = Rid(static_cast<uint32_t>(op));
      index.Insert(Value::Int(key), rid);
      reference.emplace(key, rid);
    } else {
      // Remove a random existing entry.
      auto it = reference.begin();
      std::advance(it, rng.Uniform(0, static_cast<int64_t>(
                                          reference.size()) - 1));
      EXPECT_TRUE(index.Remove(Value::Int(it->first), it->second));
      reference.erase(it);
    }
  }

  EXPECT_EQ(index.size(), static_cast<int64_t>(reference.size()));
  EXPECT_TRUE(index.CheckInvariants());
  // Every key's RowId set matches.
  for (int64_t key = 0; key <= 100; ++key) {
    auto [lo, hi] = reference.equal_range(key);
    std::multiset<std::pair<uint32_t, uint16_t>> expected;
    for (auto it = lo; it != hi; ++it) {
      expected.insert({it->second.page, it->second.slot});
    }
    std::multiset<std::pair<uint32_t, uint16_t>> actual;
    for (RowId rid : index.Find(Value::Int(key))) {
      actual.insert({rid.page, rid.slot});
    }
    EXPECT_EQ(actual, expected) << "key=" << key;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreePropertyTest, ::testing::Range(0, 8));

// Differential test of the child descent: each insert order below is loaded
// into a BTreeIndex and a std::multimap, and every Find and Scan must give
// the multimap's entries in (key, RowId) order. RowIds follow insertion
// order, so within one key the multimap's order is RowId order too.
enum class Order { kAscending, kDescending, kBatchOf8, kRandom, kDuplicates };

// 1,000 keys in the given order: distinct ascending or descending keys,
// serve_cold's candidate load (40 keys of 25 rows, batches of 8 keys with
// row i of every key in the batch before row i + 1 of any), uniform random
// keys, or 5 keys repeated.
std::vector<int64_t> KeysInOrder(Order order, uint64_t seed) {
  constexpr int64_t kN = 1000;
  std::vector<int64_t> keys;
  Rng rng(seed);
  switch (order) {
    case Order::kAscending:
      for (int64_t i = 0; i < kN; ++i) {
        keys.push_back(i);
      }
      break;
    case Order::kDescending:
      for (int64_t i = kN - 1; i >= 0; --i) {
        keys.push_back(i);
      }
      break;
    case Order::kBatchOf8: {
      constexpr int64_t kKeys = 40;
      constexpr int64_t kRows = kN / kKeys;
      for (int64_t first = 0; first < kKeys; first += 8) {
        for (int64_t row = 0; row < kRows; ++row) {
          for (int64_t k = first; k < std::min(kKeys, first + 8); ++k) {
            keys.push_back(k);
          }
        }
      }
      break;
    }
    case Order::kRandom:
      for (int64_t i = 0; i < kN; ++i) {
        keys.push_back(rng.Uniform(0, kN / 2));
      }
      break;
    case Order::kDuplicates:
      for (int64_t i = 0; i < kN; ++i) {
        keys.push_back(rng.Uniform(0, 4));
      }
      break;
  }
  return keys;
}

// String keys sort lexicographically, not numerically: "k10" < "k9".
Value IntKey(int64_t k) { return Value::Int(k); }
Value StringKey(int64_t k) {
  std::string key = "k";
  key += std::to_string(k);
  return Value::String(std::move(key));
}

struct DiffCase {
  size_t max_keys;
  bool string_keys;
  Order order;
};

std::string CaseName(const ::testing::TestParamInfo<DiffCase>& info) {
  static const char* kOrders[] = {"Ascending", "Descending", "BatchOf8",
                                  "Random", "Duplicates"};
  return std::string(kOrders[static_cast<int>(info.param.order)]) +
         (info.param.string_keys ? "String" : "Int") + "Max" +
         std::to_string(info.param.max_keys);
}

class BTreeDifferentialTest : public ::testing::TestWithParam<DiffCase> {};

TEST_P(BTreeDifferentialTest, FindAndScanMatchMultimap) {
  const DiffCase& param = GetParam();
  auto key_of = param.string_keys ? StringKey : IntKey;
  const std::vector<int64_t> keys = KeysInOrder(
      param.order, 0xb7ee0000ull + static_cast<uint64_t>(param.order));

  BTreeIndex index(param.max_keys);
  // Keys held as Values, ordered by Value::Compare as the tree orders them.
  std::multimap<Value, RowId> model;
  for (size_t i = 0; i < keys.size(); ++i) {
    const RowId rid = Rid(static_cast<uint32_t>(i / 50),
                          static_cast<uint16_t>(i % 50));
    index.Insert(key_of(keys[i]), rid);
    model.emplace(key_of(keys[i]), rid);
  }
  ASSERT_EQ(index.size(), static_cast<int64_t>(model.size()));
  ASSERT_TRUE(index.CheckInvariants());
  ASSERT_GT(index.height(), 1);

  using Hit = std::pair<Value, RowId>;
  auto scan = [&](const Value* lo, bool lo_inc, const Value* hi,
                  bool hi_inc) {
    std::vector<Hit> hits;
    index.Scan(lo, lo_inc, hi, hi_inc, [&](const Value& key, RowId rid) {
      hits.emplace_back(key, rid);
      return true;
    });
    return hits;
  };
  // The model's answer: entries from the first not below lo to the last
  // not above hi, none if the bounds leave no room.
  auto want = [&](const Value* lo, bool lo_inc, const Value* hi,
                  bool hi_inc) {
    auto first = lo == nullptr ? model.begin()
                 : lo_inc      ? model.lower_bound(*lo)
                               : model.upper_bound(*lo);
    auto last = hi == nullptr ? model.end()
                : hi_inc      ? model.upper_bound(*hi)
                              : model.lower_bound(*hi);
    std::vector<Hit> hits;
    if (lo != nullptr && hi != nullptr) {
      const int c = lo->Compare(*hi);
      if (c > 0 || (c == 0 && !(lo_inc && hi_inc))) {
        return hits;
      }
    }
    for (auto it = first; it != last; ++it) {
      hits.emplace_back(it->first, it->second);
    }
    return hits;
  };

  // Every distinct key, and keys absent from the tree.
  std::vector<Value> probes;
  for (auto it = model.begin(); it != model.end();
       it = model.upper_bound(it->first)) {
    probes.push_back(it->first);
  }
  probes.push_back(key_of(-1));
  probes.push_back(key_of(1 << 20));
  if (param.string_keys) {
    probes.push_back(Value::String("k1!"));  // Between "k1" and "k10".
  }

  for (const Value& key : probes) {
    auto [first, last] = model.equal_range(key);
    std::vector<RowId> rids;
    for (auto it = first; it != last; ++it) {
      rids.push_back(it->second);
    }
    ASSERT_EQ(index.Find(key), rids) << "key=" << key.ToString();
  }

  // Scan with each probe as a bound, inclusive and exclusive: alone, and
  // paired with itself and with the next probe. Every separator is one of
  // these keys, so every scan that starts or stops on a leaf boundary is
  // among them.
  for (size_t p = 0; p < probes.size(); ++p) {
    const Value* key = &probes[p];
    const Value* next = &probes[std::min(p + 1, probes.size() - 1)];
    for (bool inc : {true, false}) {
      ASSERT_EQ(scan(key, inc, nullptr, true), want(key, inc, nullptr, true))
          << "lo=" << key->ToString() << " inclusive=" << inc;
      ASSERT_EQ(scan(nullptr, true, key, inc), want(nullptr, true, key, inc))
          << "hi=" << key->ToString() << " inclusive=" << inc;
      for (bool hi_inc : {true, false}) {
        for (const Value* hi : {key, next}) {
          ASSERT_EQ(scan(key, inc, hi, hi_inc), want(key, inc, hi, hi_inc))
              << "lo=" << key->ToString() << (inc ? "]" : ")")
              << " hi=" << hi->ToString() << (hi_inc ? "]" : ")");
        }
      }
    }
  }
  ASSERT_EQ(scan(nullptr, true, nullptr, true),
            want(nullptr, true, nullptr, true));
}

std::vector<DiffCase> AllDiffCases() {
  std::vector<DiffCase> cases;
  for (size_t max_keys : {size_t{8}, size_t{64}}) {
    for (bool string_keys : {false, true}) {
      for (Order order : {Order::kAscending, Order::kDescending,
                          Order::kBatchOf8, Order::kRandom,
                          Order::kDuplicates}) {
        cases.push_back({max_keys, string_keys, order});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Orders, BTreeDifferentialTest,
                         ::testing::ValuesIn(AllDiffCases()), CaseName);

}  // namespace
}  // namespace dflow::db
