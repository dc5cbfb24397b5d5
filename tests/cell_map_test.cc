#include "storage/cell_map.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/schema.h"
#include "common/value.h"

namespace mlfs {
namespace {

OnlineCell MakeCell(double v, Timestamp event_time = 1) {
  static SchemaPtr schema =
      Schema::Create({{"v", FeatureType::kDouble, true}}).value();
  OnlineCell cell;
  cell.row = Row::CreateUnsafe(schema, {Value::Double(v)});
  cell.event_time = event_time;
  cell.expires_at = kMaxTimestamp;
  return cell;
}

uint64_t H(const std::string& key) { return HashBytes(key); }

TEST(CellMapTest, InsertFindErase) {
  CellMap map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(H("a"), "a"), nullptr);

  auto [cell, inserted] = map.Insert(H("a"), "a", MakeCell(1.0));
  EXPECT_TRUE(inserted);
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(map.size(), 1u);

  const OnlineCell* found = map.Find(H("a"), "a");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->row.value(0).double_value(), 1.0);
  EXPECT_EQ(map.Find(H("b"), "b"), nullptr);

  EXPECT_TRUE(map.Erase(H("a"), "a"));
  EXPECT_FALSE(map.Erase(H("a"), "a"));
  EXPECT_EQ(map.Find(H("a"), "a"), nullptr);
  EXPECT_TRUE(map.empty());
}

TEST(CellMapTest, DuplicateInsertKeepsExistingCell) {
  CellMap map;
  map.Insert(H("k"), "k", MakeCell(1.0));
  auto [cell, inserted] = map.Insert(H("k"), "k", MakeCell(2.0));
  EXPECT_FALSE(inserted);
  EXPECT_EQ(cell->row.value(0).double_value(), 1.0);  // Untouched.
  EXPECT_EQ(map.size(), 1u);
}

TEST(CellMapTest, GrowsPastInitialCapacityAndKeepsAllEntries) {
  CellMap map;
  constexpr int kN = 10000;  // Forces many rehashes.
  for (int i = 0; i < kN; ++i) {
    std::string key = "key" + std::to_string(i);
    auto [cell, inserted] = map.Insert(H(key), key, MakeCell(i));
    ASSERT_TRUE(inserted) << key;
  }
  EXPECT_EQ(map.size(), static_cast<size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    std::string key = "key" + std::to_string(i);
    const OnlineCell* cell = map.Find(H(key), key);
    ASSERT_NE(cell, nullptr) << key;
    EXPECT_EQ(cell->row.value(0).double_value(), static_cast<double>(i));
  }
}

TEST(CellMapTest, TombstonesDoNotBreakProbeChainsOrLeak) {
  CellMap map;
  // Insert / erase in waves so probe chains repeatedly cross tombstones
  // and the same-size tombstone sweep triggers.
  for (int wave = 0; wave < 20; ++wave) {
    for (int i = 0; i < 500; ++i) {
      std::string key = "w" + std::to_string(wave) + "_" + std::to_string(i);
      ASSERT_TRUE(map.Insert(H(key), key, MakeCell(i)).second);
    }
    for (int i = 0; i < 500; i += 2) {
      std::string key = "w" + std::to_string(wave) + "_" + std::to_string(i);
      ASSERT_TRUE(map.Erase(H(key), key));
    }
  }
  EXPECT_EQ(map.size(), 20u * 250u);
  // Every odd key from every wave must still be reachable.
  for (int wave = 0; wave < 20; ++wave) {
    for (int i = 1; i < 500; i += 2) {
      std::string key = "w" + std::to_string(wave) + "_" + std::to_string(i);
      ASSERT_NE(map.Find(H(key), key), nullptr) << key;
    }
  }
}

TEST(CellMapTest, TombstoneSlotIsReusedByLaterInsert) {
  CellMap map;
  map.Insert(H("x"), "x", MakeCell(1.0));
  map.Erase(H("x"), "x");
  auto [cell, inserted] = map.Insert(H("x"), "x", MakeCell(2.0));
  EXPECT_TRUE(inserted);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.Find(H("x"), "x")->row.value(0).double_value(), 2.0);
}

TEST(CellMapTest, ReservedTagHashesStillWork) {
  // Hashes 0 and 1 collide with the empty/tombstone tags and must be
  // remapped internally; both insert and find must agree on the remap.
  CellMap map;
  ASSERT_TRUE(map.Insert(0, "zero", MakeCell(0.0)).second);
  ASSERT_TRUE(map.Insert(1, "one", MakeCell(1.0)).second);
  ASSERT_TRUE(map.Insert(2, "two", MakeCell(2.0)).second);
  EXPECT_EQ(map.Find(0, "zero")->row.value(0).double_value(), 0.0);
  EXPECT_EQ(map.Find(1, "one")->row.value(0).double_value(), 1.0);
  EXPECT_EQ(map.Find(2, "two")->row.value(0).double_value(), 2.0);
  EXPECT_TRUE(map.Erase(1, "one"));
  EXPECT_EQ(map.Find(1, "one"), nullptr);
  EXPECT_EQ(map.Find(0, "zero")->row.value(0).double_value(), 0.0);
}

TEST(CellMapTest, SameHashDifferentKeysBothResident) {
  // Full-hash collisions must fall back to key comparison.
  CellMap map;
  ASSERT_TRUE(map.Insert(42, "alpha", MakeCell(1.0)).second);
  ASSERT_TRUE(map.Insert(42, "beta", MakeCell(2.0)).second);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.Find(42, "alpha")->row.value(0).double_value(), 1.0);
  EXPECT_EQ(map.Find(42, "beta")->row.value(0).double_value(), 2.0);
  EXPECT_EQ(map.Find(42, "gamma"), nullptr);
  EXPECT_TRUE(map.Erase(42, "alpha"));
  EXPECT_EQ(map.Find(42, "alpha"), nullptr);
  EXPECT_EQ(map.Find(42, "beta")->row.value(0).double_value(), 2.0);
}

TEST(CellMapTest, ForEachVisitsEveryLiveEntryOnce) {
  CellMap map;
  for (int i = 0; i < 100; ++i) {
    std::string key = "k" + std::to_string(i);
    map.Insert(H(key), key, MakeCell(i));
  }
  map.Erase(H("k7"), "k7");
  std::set<std::string> seen;
  map.ForEach([&](const std::string& key, const OnlineCell&) {
    EXPECT_TRUE(seen.insert(key).second) << "visited twice: " << key;
  });
  EXPECT_EQ(seen.size(), 99u);
  EXPECT_EQ(seen.count("k7"), 0u);
}

TEST(CellMapTest, EraseIfRemovesMatchesAndReportsCount) {
  CellMap map;
  for (int i = 0; i < 50; ++i) {
    std::string key = "k" + std::to_string(i);
    map.Insert(H(key), key, MakeCell(i, /*event_time=*/i));
  }
  size_t erased = map.EraseIf([](const std::string&, const OnlineCell& cell) {
    return cell.event_time % 2 == 0;
  });
  EXPECT_EQ(erased, 25u);
  EXPECT_EQ(map.size(), 25u);
  for (int i = 0; i < 50; ++i) {
    std::string key = "k" + std::to_string(i);
    EXPECT_EQ(map.Find(H(key), key) != nullptr, i % 2 == 1) << key;
  }
}

TEST(CellMapTest, PrefetchCandidatePipelineMatchesFind) {
  CellMap map;
  map.PrefetchBucket(123);  // Empty map: must not crash.
  EXPECT_EQ(map.PrefetchCandidate(123), CellMap::kNoCandidate);
  map.PrefetchRowAt(CellMap::kNoCandidate);
  EXPECT_EQ(map.FindFrom(CellMap::kNoCandidate, 123, "a"), nullptr);

  for (int i = 0; i < 1000; ++i) {
    std::string key = "k" + std::to_string(i);
    map.Insert(H(key), key, MakeCell(i));
  }
  // The staged pipeline (candidate -> row prefetch -> confirm) must agree
  // with plain Find for both present and absent keys.
  for (int i = 0; i < 2000; ++i) {
    std::string key = "k" + std::to_string(i);
    map.PrefetchBucket(H(key));
    int64_t cand = map.PrefetchCandidate(H(key));
    map.PrefetchRowAt(cand);
    const OnlineCell* staged = map.FindFrom(cand, H(key), key);
    EXPECT_EQ(staged, map.Find(H(key), key)) << key;
    if (i < 1000) {
      ASSERT_NE(staged, nullptr) << key;
      EXPECT_EQ(staged->row.value(0).double_value(), static_cast<double>(i));
    } else {
      EXPECT_EQ(staged, nullptr) << key;
    }
  }
}

TEST(CellMapTest, FindFromContinuesPastHashTagFalsePositive) {
  // Two keys with the same full hash: the candidate for one may land on
  // the other's slot; FindFrom must keep probing to the right entry.
  CellMap map;
  map.Insert(7, "first", MakeCell(1.0));
  map.Insert(7, "second", MakeCell(2.0));
  int64_t cand = map.PrefetchCandidate(7);
  ASSERT_NE(cand, CellMap::kNoCandidate);
  EXPECT_EQ(map.FindFrom(cand, 7, "first")->row.value(0).double_value(), 1.0);
  EXPECT_EQ(map.FindFrom(cand, 7, "second")->row.value(0).double_value(), 2.0);
  EXPECT_EQ(map.FindFrom(cand, 7, "third"), nullptr);
}

}  // namespace
}  // namespace mlfs
