#include "storage/online_store.h"

#include <gtest/gtest.h>

#include <thread>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"

namespace mlfs {
namespace {

SchemaPtr ViewSchema() {
  return Schema::Create({{"trips", FeatureType::kInt64, true},
                         {"rating", FeatureType::kDouble, true}})
      .value();
}

Row MakeRow(const SchemaPtr& schema, int64_t trips, double rating) {
  return Row::Create(schema, {Value::Int64(trips), Value::Double(rating)})
      .value();
}

class OnlineStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = ViewSchema();
    ASSERT_TRUE(store_.CreateView("user_stats", schema_).ok());
  }

  OnlineStore store_;
  SchemaPtr schema_;
};

TEST_F(OnlineStoreTest, ViewRegistry) {
  EXPECT_TRUE(store_.HasView("user_stats"));
  EXPECT_FALSE(store_.HasView("other"));
  EXPECT_TRUE(store_.CreateView("user_stats", schema_).IsAlreadyExists());
  EXPECT_FALSE(store_.CreateView("", schema_).ok());
  EXPECT_FALSE(store_.CreateView("x", nullptr).ok());
  EXPECT_TRUE(store_.ViewSchema("user_stats").ok());
  EXPECT_TRUE(store_.ViewSchema("other").status().IsNotFound());
}

TEST_F(OnlineStoreTest, PutGetRoundTrip) {
  Row row = MakeRow(schema_, 5, 4.9);
  ASSERT_TRUE(
      store_.Put("user_stats", Value::Int64(1), row, Hours(1), Hours(1)).ok());
  auto got = store_.Get("user_stats", Value::Int64(1), Hours(2));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, row);
  EXPECT_TRUE(
      store_.Get("user_stats", Value::Int64(2), Hours(2)).status().IsNotFound());
}

TEST_F(OnlineStoreTest, PutValidatesViewAndSchema) {
  Row row = MakeRow(schema_, 1, 1.0);
  EXPECT_TRUE(store_.Put("missing", Value::Int64(1), row, 0, 0)
                  .IsNotFound());
  auto other = Schema::Create({{"z", FeatureType::kInt64, true}}).value();
  Row bad = Row::Create(other, {Value::Int64(1)}).value();
  EXPECT_TRUE(store_.Put("user_stats", Value::Int64(1), bad, 0, 0)
                  .IsInvalidArgument());
}

TEST_F(OnlineStoreTest, EventTimeLastWriterWins) {
  ASSERT_TRUE(store_.Put("user_stats", Value::Int64(1),
                         MakeRow(schema_, 10, 1.0), Hours(10), Hours(10))
                  .ok());
  // Older event time: dropped.
  ASSERT_TRUE(store_.Put("user_stats", Value::Int64(1),
                         MakeRow(schema_, 5, 1.0), Hours(5), Hours(11))
                  .ok());
  EXPECT_EQ(store_.Get("user_stats", Value::Int64(1), Hours(12))
                ->value(0).int64_value(), 10);
  EXPECT_EQ(store_.stats().stale_writes, 1u);
  // Newer event time: replaces.
  ASSERT_TRUE(store_.Put("user_stats", Value::Int64(1),
                         MakeRow(schema_, 20, 1.0), Hours(20), Hours(21))
                  .ok());
  EXPECT_EQ(store_.Get("user_stats", Value::Int64(1), Hours(22))
                ->value(0).int64_value(), 20);
}

TEST_F(OnlineStoreTest, TtlExpiryAndEviction) {
  ASSERT_TRUE(store_.Put("user_stats", Value::Int64(1),
                         MakeRow(schema_, 1, 1.0), Hours(1), Hours(1),
                         Hours(2))
                  .ok());
  EXPECT_TRUE(store_.Get("user_stats", Value::Int64(1), Hours(2)).ok());
  // Expired at write_time + ttl = 3h.
  EXPECT_TRUE(store_.Get("user_stats", Value::Int64(1), Hours(3))
                  .status().IsNotFound());
  EXPECT_EQ(store_.stats().expired, 1u);
  EXPECT_EQ(store_.stats().num_cells, 1u);
  EXPECT_EQ(store_.EvictExpired(Hours(3)), 1u);
  EXPECT_EQ(store_.stats().num_cells, 0u);
}

TEST_F(OnlineStoreTest, NoTtlNeverExpires) {
  ASSERT_TRUE(store_.Put("user_stats", Value::Int64(1),
                         MakeRow(schema_, 1, 1.0), 0, 0)
                  .ok());
  EXPECT_TRUE(
      store_.Get("user_stats", Value::Int64(1), kMaxTimestamp - 1).ok());
}

TEST_F(OnlineStoreTest, MultiGetPreservesOrder) {
  for (int64_t u = 0; u < 5; ++u) {
    ASSERT_TRUE(store_.Put("user_stats", Value::Int64(u),
                           MakeRow(schema_, u * 100, 0.0), Hours(1), Hours(1))
                    .ok());
  }
  auto got = store_.MultiGet(
      "user_stats",
      {Value::Int64(3), Value::Int64(99), Value::Int64(0)}, Hours(2));
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0]->value(0).int64_value(), 300);
  EXPECT_TRUE(got[1].status().IsNotFound());
  EXPECT_EQ(got[2]->value(0).int64_value(), 0);
}

TEST_F(OnlineStoreTest, MultiGetDuplicateKeysEachAnswered) {
  ASSERT_TRUE(store_.Put("user_stats", Value::Int64(7),
                         MakeRow(schema_, 70, 0.0), Hours(1), Hours(1))
                  .ok());
  auto got = store_.MultiGet(
      "user_stats",
      {Value::Int64(7), Value::Int64(7), Value::Int64(8), Value::Int64(7)},
      Hours(2));
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0]->value(0).int64_value(), 70);
  EXPECT_EQ(got[1]->value(0).int64_value(), 70);
  EXPECT_TRUE(got[2].status().IsNotFound());
  EXPECT_EQ(got[3]->value(0).int64_value(), 70);
  auto s = store_.stats();
  EXPECT_EQ(s.gets, 4u);
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.misses, 1u);
}

TEST_F(OnlineStoreTest, MultiGetMixedHitMissExpiredCountsLikeGet) {
  // Live cell, expired cell (ttl 1h from write at 1h => dead at 2h), miss.
  ASSERT_TRUE(store_.Put("user_stats", Value::Int64(1),
                         MakeRow(schema_, 1, 0.0), Hours(1), Hours(1))
                  .ok());
  ASSERT_TRUE(store_.Put("user_stats", Value::Int64(2),
                         MakeRow(schema_, 2, 0.0), Hours(1), Hours(1),
                         Hours(1))
                  .ok());
  auto got = store_.MultiGet(
      "user_stats",
      {Value::Int64(1), Value::Int64(2), Value::Int64(3), Value::Double(0.5)},
      Hours(3));
  ASSERT_EQ(got.size(), 4u);
  EXPECT_TRUE(got[0].ok());
  EXPECT_TRUE(got[1].status().IsNotFound());  // Expired.
  EXPECT_TRUE(got[2].status().IsNotFound());  // Never written.
  EXPECT_TRUE(got[3].status().IsInvalidArgument());  // Bad key type.
  auto s = store_.stats();
  EXPECT_EQ(s.gets, 4u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.expired, 1u);
  EXPECT_EQ(s.hits + s.misses, s.gets);
}

TEST_F(OnlineStoreTest, MultiGetUnknownViewMissesEveryKey) {
  auto got = store_.MultiGet("no_such_view",
                             {Value::Int64(1), Value::Int64(2)}, Hours(1));
  ASSERT_EQ(got.size(), 2u);
  EXPECT_TRUE(got[0].status().IsNotFound());
  EXPECT_TRUE(got[1].status().IsNotFound());
  EXPECT_EQ(store_.stats().misses, 2u);
}

TEST_F(OnlineStoreTest, MultiGetEmptyBatch) {
  EXPECT_TRUE(store_.MultiGet("user_stats", {}, Hours(1)).empty());
  EXPECT_EQ(store_.stats().gets, 0u);
}

TEST_F(OnlineStoreTest, MultiGetSpansManyShards) {
  OnlineStoreOptions opt;
  opt.num_shards = 64;
  OnlineStore store(opt);
  ASSERT_TRUE(store.CreateView("v", schema_).ok());
  constexpr int64_t kN = 512;  // Batch much larger than the shard count.
  for (int64_t u = 0; u < kN; u += 2) {  // Odd keys stay missing.
    ASSERT_TRUE(store.Put("v", Value::Int64(u), MakeRow(schema_, u, 0.0),
                          Hours(1), Hours(1))
                    .ok());
  }
  std::vector<Value> keys;
  for (int64_t u = 0; u < kN; ++u) keys.push_back(Value::Int64(u));
  auto got = store.MultiGet("v", keys, Hours(2));
  ASSERT_EQ(got.size(), static_cast<size_t>(kN));
  for (int64_t u = 0; u < kN; ++u) {
    if (u % 2 == 0) {
      ASSERT_TRUE(got[u].ok()) << "key " << u << ": " << got[u].status();
      EXPECT_EQ(got[u]->value(0).int64_value(), u);
    } else {
      EXPECT_TRUE(got[u].status().IsNotFound()) << "key " << u;
    }
  }
  auto s = store.stats();
  EXPECT_EQ(s.gets, static_cast<uint64_t>(kN));
  EXPECT_EQ(s.hits, static_cast<uint64_t>(kN) / 2);
}

// Property test: on random workloads (random keys, TTLs, and string/int
// key mixes), MultiGet must be observationally identical to a loop of Get
// — same per-key results *and* the same counter deltas.
TEST_F(OnlineStoreTest, MultiGetMatchesGetLoopOnRandomWorkloads) {
  Rng rng(777);
  for (int round = 0; round < 20; ++round) {
    OnlineStoreOptions opt;
    opt.num_shards = 1 + rng.Uniform(32);
    OnlineStore store(opt);
    ASSERT_TRUE(store.CreateView("v", schema_).ok());
    const int64_t key_space = 1 + static_cast<int64_t>(rng.Uniform(40));
    const int num_puts = static_cast<int>(rng.Uniform(60));
    for (int p = 0; p < num_puts; ++p) {
      int64_t k = static_cast<int64_t>(rng.Uniform(key_space));
      Timestamp et = Hours(1 + rng.Uniform(10));
      Timestamp ttl = (rng.Uniform(3) == 0) ? Hours(1 + rng.Uniform(4)) : 0;
      ASSERT_TRUE(store.Put("v", Value::Int64(k), MakeRow(schema_, k, 0.0),
                            et, et, ttl)
                      .ok());
    }
    std::vector<Value> batch;
    const int batch_size = 1 + static_cast<int>(rng.Uniform(50));
    for (int i = 0; i < batch_size; ++i) {
      switch (rng.Uniform(8)) {
        case 0:
          batch.push_back(Value::String("str-" +
                                        std::to_string(rng.Uniform(4))));
          break;
        case 1:
          batch.push_back(Value::Double(1.5));  // Invalid key type.
          break;
        default:
          batch.push_back(
              Value::Int64(static_cast<int64_t>(rng.Uniform(key_space + 4))));
      }
    }
    Timestamp now = Hours(1 + rng.Uniform(12));

    OnlineStoreStats before = store.stats();
    auto multi = store.MultiGet("v", batch, now);
    OnlineStoreStats mid = store.stats();
    std::vector<StatusOr<Row>> loop;
    for (const Value& key : batch) loop.push_back(store.Get("v", key, now));
    OnlineStoreStats after = store.stats();

    ASSERT_EQ(multi.size(), loop.size());
    for (size_t i = 0; i < multi.size(); ++i) {
      EXPECT_EQ(multi[i].ok(), loop[i].ok())
          << "round " << round << " entry " << i << ": "
          << multi[i].status() << " vs " << loop[i].status();
      if (multi[i].ok()) {
        EXPECT_EQ(*multi[i], *loop[i]) << "round " << round << " entry " << i;
      } else {
        EXPECT_EQ(multi[i].status().code(), loop[i].status().code());
        EXPECT_EQ(multi[i].status().message(), loop[i].status().message());
      }
    }
    // Identical counter deltas for the batched and per-key paths.
    EXPECT_EQ(mid.gets - before.gets, after.gets - mid.gets);
    EXPECT_EQ(mid.hits - before.hits, after.hits - mid.hits);
    EXPECT_EQ(mid.misses - before.misses, after.misses - mid.misses);
    EXPECT_EQ(mid.expired - before.expired, after.expired - mid.expired);
    EXPECT_EQ(mid.hits + mid.misses, mid.gets);
  }
}

TEST_F(OnlineStoreTest, GetEventTimeForFreshness) {
  ASSERT_TRUE(store_.Put("user_stats", Value::Int64(1),
                         MakeRow(schema_, 1, 1.0), Hours(7), Hours(8))
                  .ok());
  EXPECT_EQ(store_.GetEventTime("user_stats", Value::Int64(1), Hours(9))
                .value(), Hours(7));
  EXPECT_TRUE(store_.GetEventTime("user_stats", Value::Int64(2), Hours(9))
                  .status().IsNotFound());
}

TEST_F(OnlineStoreTest, DropView) {
  ASSERT_TRUE(store_.CreateView("other", schema_).ok());
  for (int64_t u = 0; u < 10; ++u) {
    ASSERT_TRUE(store_.Put("user_stats", Value::Int64(u),
                           MakeRow(schema_, u, 0.0), 0, 0).ok());
    ASSERT_TRUE(store_.Put("other", Value::Int64(u),
                           MakeRow(schema_, u, 0.0), 0, 0).ok());
  }
  EXPECT_EQ(store_.DropView("user_stats"), 10u);
  EXPECT_EQ(store_.stats().num_cells, 10u);
  EXPECT_TRUE(store_.Get("other", Value::Int64(3), 1).ok());
}

TEST_F(OnlineStoreTest, StatsCounters) {
  ASSERT_TRUE(store_.Put("user_stats", Value::Int64(1),
                         MakeRow(schema_, 1, 1.0), 0, 0).ok());
  (void)store_.Get("user_stats", Value::Int64(1), 1);
  (void)store_.Get("user_stats", Value::Int64(2), 1);
  auto s = store_.stats();
  EXPECT_EQ(s.puts, 1u);
  EXPECT_EQ(s.gets, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_GT(s.approx_bytes, 0u);
}

TEST_F(OnlineStoreTest, StringEntityKeys) {
  ASSERT_TRUE(store_.CreateView("drivers", schema_).ok());
  ASSERT_TRUE(store_.Put("drivers", Value::String("d-77"),
                         MakeRow(schema_, 7, 4.2), 0, 0).ok());
  EXPECT_TRUE(store_.Get("drivers", Value::String("d-77"), 1).ok());
  EXPECT_FALSE(store_.Get("drivers", Value::Double(1.5), 1).ok());
}

TEST_F(OnlineStoreTest, ConcurrentPutsAndGets) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        int64_t key = (t * kOpsPerThread + i) % 100;
        ASSERT_TRUE(store_.Put("user_stats", Value::Int64(key),
                               MakeRow(schema_, i, 0.0), i, i).ok());
        (void)store_.Get("user_stats", Value::Int64(key), i);
      }
    });
  }
  for (auto& th : threads) th.join();
  auto s = store_.stats();
  EXPECT_EQ(s.puts, static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(s.gets, static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(s.num_cells, 100u);
}

// Regression: event-time last-writer-wins must hold across shards under
// concurrent out-of-order Puts — newest event time survives, older writes
// land in stale_writes, and no update is lost.
TEST_F(OnlineStoreTest, ConcurrentOutOfOrderPutsPreserveEventTimeLww) {
  constexpr int kThreads = 8;
  constexpr int64_t kKeys = 32;
  constexpr int64_t kVersionsPerKey = 64;  // Event times 1..64 per key.

  // Each (key, version) write carries trips == event_time hours, so the
  // surviving cell identifies exactly which write won.
  // Pre-shuffle all (key, version) pairs and deal them round-robin to
  // threads: every key's versions arrive out of order from many threads.
  std::vector<std::pair<int64_t, int64_t>> writes;
  for (int64_t k = 0; k < kKeys; ++k) {
    for (int64_t v = 1; v <= kVersionsPerKey; ++v) writes.push_back({k, v});
  }
  Rng rng(2024);
  rng.Shuffle(&writes);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t, &writes] {
      for (size_t i = t; i < writes.size(); i += kThreads) {
        auto [key, version] = writes[i];
        ASSERT_TRUE(store_.Put("user_stats", Value::Int64(key),
                               MakeRow(schema_, version, 0.0),
                               Hours(version), Hours(version))
                        .ok());
      }
    });
  }
  for (auto& th : threads) th.join();

  // Newest version survives for every key.
  for (int64_t k = 0; k < kKeys; ++k) {
    auto got = store_.Get("user_stats", Value::Int64(k), Hours(100));
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->value(0).int64_value(), kVersionsPerKey) << "key " << k;
    EXPECT_EQ(store_.GetEventTime("user_stats", Value::Int64(k), Hours(100))
                  .value(),
              Hours(kVersionsPerKey));
  }
  auto s = store_.stats();
  EXPECT_EQ(s.puts, static_cast<uint64_t>(kKeys) * kVersionsPerKey);
  EXPECT_EQ(s.num_cells, static_cast<size_t>(kKeys));
  // Any write observed out of order was dropped as stale, never applied.
  EXPECT_LE(s.stale_writes, s.puts - static_cast<uint64_t>(kKeys));
}

TEST_F(OnlineStoreTest, ConcurrentOlderWritesAgainstSeededNewestAllStale) {
  constexpr int kThreads = 8;
  constexpr int kWritesPerThread = 100;
  // Seed every key with the newest possible event time first...
  ASSERT_TRUE(store_.Put("user_stats", Value::Int64(0),
                         MakeRow(schema_, 999, 0.0), Hours(999), Hours(999))
                  .ok());
  // ...then hammer it with strictly older event times from all threads.
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t] {
      for (int i = 0; i < kWritesPerThread; ++i) {
        int64_t version = 1 + ((t * kWritesPerThread + i) % 900);
        ASSERT_TRUE(store_.Put("user_stats", Value::Int64(0),
                               MakeRow(schema_, version, 0.0),
                               Hours(version), Hours(version))
                        .ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(store_.Get("user_stats", Value::Int64(0), Hours(1000))
                ->value(0).int64_value(),
            999);
  auto s = store_.stats();
  EXPECT_EQ(s.stale_writes,
            static_cast<uint64_t>(kThreads) * kWritesPerThread);
}

// CellMap starts probing at a hash's low bits, so the shard must come from
// other bits: the hashes routed to any one shard still cover all 16 values
// of their low 4 bits (with hash % 16 each shard saw exactly one).
TEST(OnlineShardIndexTest, ShardBitsAreIndependentOfProbeBits) {
  constexpr size_t kShards = 16;
  std::vector<std::vector<bool>> seen(kShards, std::vector<bool>(16, false));
  for (int i = 0; i < 20000; ++i) {
    const std::string key = "u" + std::to_string(i);
    const uint64_t h = FastHash64(key.data(), key.size());
    const size_t shard = OnlineShardIndex(h, kShards);
    ASSERT_LT(shard, kShards);
    seen[shard][h & 15] = true;
  }
  for (size_t shard = 0; shard < kShards; ++shard) {
    for (size_t low = 0; low < 16; ++low) {
      EXPECT_TRUE(seen[shard][low]) << "shard " << shard << " low " << low;
    }
  }
}

}  // namespace
}  // namespace mlfs
