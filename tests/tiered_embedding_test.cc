#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/rng.h"
#include "core/feature_store.h"
#include "embedding/ann.h"
#include "embedding/compress.h"
#include "embedding/embedding_table.h"
#include "embedding/tier.h"

namespace mlfs {
namespace {

bool BitEqual(const float* a, const float* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

std::vector<float> GaussianData(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> data(n * dim);
  for (float& x : data) x = static_cast<float>(rng.Gaussian());
  return data;
}

std::vector<std::string> Keys(size_t n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) keys.push_back("k" + std::to_string(i));
  return keys;
}

class TieredEmbeddingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("mlfs_tier_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_);
    FailpointRegistry::Instance().DisarmAll();
  }
  void TearDown() override {
    FailpointRegistry::Instance().DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  EmbeddingTierOptions TierOptions(size_t budget_bytes, int bits = 8,
                                   size_t block_rows = 64) {
    EmbeddingTierOptions options;
    options.memory_budget_bytes = budget_bytes;
    options.bits = bits;
    options.block_rows = block_rows;
    options.dir = dir_;
    return options;
  }

  EmbeddingTablePtr ResidentTable(const std::string& name, size_t n,
                                  size_t dim, uint64_t seed = 1) {
    EmbeddingTableMetadata metadata;
    metadata.name = name;
    return EmbeddingTable::Create(metadata, Keys(n),
                                  GaussianData(n, dim, seed), dim)
        .value();
  }

  std::string dir_;
};

TEST_F(TieredEmbeddingTest, HotRowsExactColdRowsMatchPackedCodec) {
  const size_t n = 640, dim = 8, block_rows = 64;
  auto source = ResidentTable("emb", n, dim);
  // Budget for exactly 5 of the 10 blocks.
  const size_t budget = 5 * block_rows * dim * sizeof(float);
  auto tiered =
      EmbeddingTable::CreateTiered(*source, TierOptions(budget, 8, block_rows))
          .value();
  ASSERT_TRUE(tiered->tiered());
  EXPECT_FALSE(source->tiered());
  EXPECT_EQ(tiered->tier()->stats().hot_blocks, 5u);
  EXPECT_EQ(tiered->tier()->stats().total_blocks, 10u);
  EXPECT_GT(tiered->tier()->stats().packed_bytes, 0u);

  // What the cold tier must serve: exactly the packed codec round trip.
  PackedCodes packed =
      PackUniform(source->raw().data(), n, dim, 8).value();
  PackedDecodeTables tables = MakeDecodeTables(8, packed.lo, packed.hi);
  std::vector<float> dequantized(n * dim);
  DequantizeRange(ViewOf(packed, tables), 0, n, dequantized.data());

  std::vector<float> got(dim);
  for (size_t i = 0; i < n; ++i) {
    tiered->CopyRow(i, got.data());
    if (i < 5 * block_rows) {
      EXPECT_TRUE(BitEqual(got.data(), source->row(i), dim))
          << "hot row " << i << " must be byte-identical";
    } else {
      EXPECT_TRUE(BitEqual(got.data(), dequantized.data() + i * dim, dim))
          << "cold row " << i << " must serve the packed codec's floats";
    }
  }
}

TEST_F(TieredEmbeddingTest, AllHotTableKeepsExactGetContracts) {
  const size_t n = 200, dim = 6;
  auto source = ResidentTable("emb", n, dim);
  // block_rows divides n so the budget covers every block exactly — a
  // partial trailing block would stay cold.
  auto tiered = EmbeddingTable::CreateTiered(
                    *source, TierOptions(n * dim * sizeof(float), 8, 50))
                    .value();
  ASSERT_EQ(tiered->tier()->stats().hot_blocks,
            tiered->tier()->stats().total_blocks);
  for (size_t i = 0; i < n; ++i) {
    const float* got = tiered->Get(tiered->key(i)).value();
    EXPECT_TRUE(BitEqual(got, source->row(i), dim)) << i;
  }
  EXPECT_TRUE(tiered->Get("nope").status().IsNotFound());
  EXPECT_EQ(tiered->GetVector("k3").value(), source->GetVector("k3").value());

  auto rows = tiered->MultiGet({"k7", "missing", "k0", "k7"});
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[1], nullptr);
  EXPECT_TRUE(BitEqual(rows[0], source->row(7), dim));
  EXPECT_TRUE(BitEqual(rows[2], source->row(0), dim));
  EXPECT_EQ(rows[3], rows[0]);
  EXPECT_TRUE(tiered->MultiGet({}).empty());
}

/// What a cold row serves: the packed codec's floats for row `row`.
std::vector<float> CodecRow(const EmbeddingTable& source, int bits,
                            size_t row) {
  PackedCodes packed = PackUniform(source.raw().data(), source.size(),
                                   source.dim(), bits)
                           .value();
  PackedDecodeTables tables = MakeDecodeTables(bits, packed.lo, packed.hi);
  std::vector<float> out(source.dim());
  DequantizeRange(ViewOf(packed, tables), row, 1, out.data());
  return out;
}

TEST_F(TieredEmbeddingTest, PromotionAndDemotionCounters) {
  const size_t n = 256, dim = 4, block_rows = 64;  // 4 blocks.
  auto source = ResidentTable("emb", n, dim);
  auto tiered = EmbeddingTable::CreateTiered(
                    *source,
                    TierOptions(block_rows * dim * sizeof(float), 8,
                                block_rows))
                    .value();
  const EmbeddingTier* tier = tiered->tier();
  EXPECT_EQ(tier->stats().hot_blocks, 1u);
  EXPECT_EQ(tier->hot_blocks(), 1u);

  // Hot hit in the seeded block 0.
  ASSERT_TRUE(tiered->Get("k0").ok());
  EmbeddingTierStats stats = tier->stats();
  EXPECT_EQ(stats.hot_hits, 1u);
  EXPECT_EQ(stats.cold_misses, 0u);

  // Cold read in block 2: a miss that decodes the row alone and leaves
  // the hot set as seeded.
  const std::vector<float> codec130 = CodecRow(*source, 8, 130);
  const float* got = tiered->Get("k130").value();
  EXPECT_TRUE(BitEqual(got, codec130.data(), dim));
  stats = tier->stats();
  EXPECT_EQ(stats.cold_misses, 1u);
  EXPECT_EQ(stats.promotions, 0u);
  EXPECT_EQ(stats.demotions, 0u);
  EXPECT_EQ(stats.hot_blocks, 1u);

  // Same row again: still a miss, still the codec's floats.
  got = tiered->Get("k130").value();
  EXPECT_TRUE(BitEqual(got, codec130.data(), dim));
  stats = tier->stats();
  EXPECT_EQ(stats.hot_hits, 1u);
  EXPECT_EQ(stats.cold_misses, 2u);
  EXPECT_EQ(stats.promotions, 0u);

  // The seeded row is still exact.
  EXPECT_TRUE(BitEqual(tiered->Get("k0").value(), source->row(0), dim));

  // Only DemoteAll changes the hot set: it drops block 0, and its rows
  // serve the codec's floats from here on.
  tier->DemoteAll();
  stats = tier->stats();
  EXPECT_EQ(stats.demotions, 1u);
  EXPECT_EQ(stats.hot_blocks, 0u);
  EXPECT_EQ(stats.resident_bytes, 0u);
  EXPECT_EQ(stats.promotions, 0u);
  EXPECT_TRUE(BitEqual(tiered->Get("k0").value(),
                       CodecRow(*source, 8, 0).data(), dim));

  // Reads after the demotion bring nothing back, and demoting an empty
  // prefix counts nothing.
  ASSERT_TRUE(tiered->Get("k0").ok());
  tier->DemoteAll();
  stats = tier->stats();
  EXPECT_EQ(stats.hot_blocks, 0u);
  EXPECT_EQ(stats.promotions, 0u);
  EXPECT_EQ(stats.demotions, 1u);
}

TEST_F(TieredEmbeddingTest, BatchPromotionCountsBlocksNotRows) {
  const size_t n = 256, dim = 4, block_rows = 64;
  auto source = ResidentTable("emb", n, dim);
  auto tiered = EmbeddingTable::CreateTiered(
                    *source,
                    TierOptions(2 * block_rows * dim * sizeof(float), 8,
                                block_rows))
                    .value();
  // 10 rows from cold block 3 plus 3 rows from hot block 0, one batch:
  // per-row hit/miss counters, and no block moves.
  std::vector<std::string> batch;
  for (int i = 0; i < 10; ++i) batch.push_back("k" + std::to_string(192 + i));
  for (int i = 0; i < 3; ++i) batch.push_back("k" + std::to_string(i));
  for (int pass = 1; pass <= 2; ++pass) {
    auto rows = tiered->MultiGet(batch);
    for (const float* row : rows) ASSERT_NE(row, nullptr);
    EmbeddingTierStats stats = tiered->tier()->stats();
    EXPECT_EQ(stats.cold_misses, 10u * pass);
    EXPECT_EQ(stats.hot_hits, 3u * pass);
    EXPECT_EQ(stats.promotions, 0u);
    EXPECT_EQ(stats.demotions, 0u);
    EXPECT_EQ(stats.hot_blocks, 2u);
    // Cold rows serve the codec's floats, hot rows the exact source.
    for (size_t i = 0; i < 10; ++i) {
      EXPECT_TRUE(BitEqual(rows[i], CodecRow(*source, 8, 192 + i).data(),
                           dim))
          << i;
    }
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_TRUE(BitEqual(rows[10 + i], source->row(i), dim));
    }
  }
}

TEST_F(TieredEmbeddingTest, SeededRowsStayExactUnderColdReads) {
  const size_t n = 640, dim = 8, block_rows = 64;  // 10 blocks, 4 hot.
  auto source = ResidentTable("emb", n, dim);
  auto tiered = EmbeddingTable::CreateTiered(
                    *source,
                    TierOptions(4 * block_rows * dim * sizeof(float), 8,
                                block_rows))
                    .value();
  // Batches that together read every row of every block, cold ones
  // included, in both orders.
  std::vector<std::string> batch;
  for (size_t i = 0; i < n; ++i) {
    batch.push_back(tiered->key(i));
    if (batch.size() == 40) {
      ASSERT_EQ(tiered->MultiGet(batch).size(), batch.size());
      batch.clear();
    }
  }
  for (size_t i = n; i-- > 0;) batch.push_back(tiered->key(i));
  ASSERT_EQ(tiered->MultiGet(batch).size(), n);

  EmbeddingTierStats stats = tiered->tier()->stats();
  EXPECT_EQ(stats.hot_hits + stats.cold_misses, 2 * n);
  EXPECT_EQ(stats.promotions, 0u);
  EXPECT_EQ(stats.demotions, 0u);
  EXPECT_EQ(stats.hot_blocks, 4u);
  // Every seeded row is still byte-identical to the source, through both
  // read paths.
  std::vector<std::string> seeded;
  for (size_t i = 0; i < 4 * block_rows; ++i) {
    EXPECT_TRUE(BitEqual(tiered->Get(tiered->key(i)).value(),
                         source->row(i), dim))
        << i;
    seeded.push_back(tiered->key(i));
  }
  auto rows = tiered->MultiGet(seeded);
  for (size_t i = 0; i < seeded.size(); ++i) {
    EXPECT_TRUE(BitEqual(rows[i], source->row(i), dim)) << i;
  }
}

TEST_F(TieredEmbeddingTest, ScansRefreshButNeverPromote) {
  const size_t n = 256, dim = 4, block_rows = 64;
  auto source = ResidentTable("emb", n, dim);
  auto tiered = EmbeddingTable::CreateTiered(
                    *source,
                    TierOptions(block_rows * dim * sizeof(float), 8,
                                block_rows))
                    .value();
  std::vector<float> scanned(n * dim, 0.0f);
  ASSERT_TRUE(tiered->tier()
                  ->ScanBlocks([&](size_t row0, size_t nrows,
                                   const float* rows) {
                    std::memcpy(scanned.data() + row0 * dim, rows,
                                nrows * dim * sizeof(float));
                  })
                  .ok());
  EmbeddingTierStats stats = tiered->tier()->stats();
  EXPECT_EQ(stats.scans, 1u);
  EXPECT_EQ(stats.scan_cold_blocks, 3u);
  EXPECT_EQ(stats.hot_blocks, 1u);  // A scan must not grow the hot set.
  EXPECT_EQ(stats.promotions, 0u);
  // The scan saw exactly what CopyRow serves.
  std::vector<float> expect(dim);
  for (size_t i = 0; i < n; ++i) {
    tiered->CopyRow(i, expect.data());
    EXPECT_TRUE(BitEqual(scanned.data() + i * dim, expect.data(), dim)) << i;
  }
}

/// Every row of `source` as the packed codec serves it.
std::vector<float> CodecRows(const EmbeddingTable& source, int bits) {
  PackedCodes packed = PackUniform(source.raw().data(), source.size(),
                                   source.dim(), bits)
                           .value();
  PackedDecodeTables tables = MakeDecodeTables(bits, packed.lo, packed.hi);
  std::vector<float> out(source.size() * source.dim());
  DequantizeRange(ViewOf(packed, tables), 0, source.size(), out.data());
  return out;
}

TEST_F(TieredEmbeddingTest, RowPointersSurviveDemoteAllUntilNextRead) {
  const size_t n = 256, dim = 8, block_rows = 64;  // 4 blocks, 2 hot.
  auto source = ResidentTable("emb", n, dim);
  auto tiered = EmbeddingTable::CreateTiered(
                    *source,
                    TierOptions(2 * block_rows * dim * sizeof(float), 8,
                                block_rows))
                    .value();
  const EmbeddingTier* tier = tiered->tier();
  const std::vector<float> codec = CodecRows(*source, 8);

  // A hot row and a cold row, read on this thread.
  const std::vector<int64_t> ids = {5, 200};
  std::vector<const float*> rows;
  ASSERT_TRUE(tier->MultiGetRows(ids, &rows).ok());
  // Another thread drops the whole hot prefix.
  std::thread([tier] { tier->DemoteAll(); }).join();
  EXPECT_EQ(tier->stats().hot_blocks, 0u);
  EXPECT_EQ(tier->stats().demotions, 2u);
  // Same-size allocations that would likely reuse the prefix had the
  // demotion freed it (ASan reports the read below in that case).
  std::vector<std::vector<float>> fills;
  for (int i = 0; i < 4; ++i) fills.emplace_back(2 * block_rows * dim, -1.0f);
  // The pointers keep their exact bytes until this thread reads again.
  EXPECT_TRUE(BitEqual(rows[0], source->row(5), dim));
  EXPECT_TRUE(BitEqual(rows[1], codec.data() + 200 * dim, dim));

  // From the next read on, every row serves the codec's floats.
  EXPECT_TRUE(BitEqual(tiered->Get("k5").value(), codec.data() + 5 * dim,
                       dim));
  std::vector<float> got(dim);
  for (size_t i = 0; i < n; ++i) {
    tiered->CopyRow(i, got.data());
    EXPECT_TRUE(BitEqual(got.data(), codec.data() + i * dim, dim)) << i;
  }
  EXPECT_TRUE(tier->HotBlocksSnapshot().empty());
}

TEST_F(TieredEmbeddingTest, HotBlocksSnapshotSplitsPrefixInOrder) {
  // Blocks of 64, 64, 64 and 8 rows; the budget holds all four (the short
  // last block is charged as a whole one).
  const size_t n = 200, dim = 4, block_rows = 64;
  auto source = ResidentTable("emb", n, dim);
  const EmbeddingTierOptions options =
      TierOptions(4 * block_rows * dim * sizeof(float), 8, block_rows);
  auto tiered = EmbeddingTable::CreateTiered(*source, options).value();
  const auto hot = tiered->tier()->HotBlocksSnapshot();
  ASSERT_EQ(hot.size(), 4u);
  for (size_t b = 0; b < hot.size(); ++b) {
    const size_t rows = std::min(block_rows, n - b * block_rows);
    EXPECT_EQ(hot[b].first, b);
    ASSERT_EQ(hot[b].second.size(), rows * dim);
    EXPECT_TRUE(BitEqual(hot[b].second.data(), source->row(b * block_rows),
                         rows * dim))
        << b;
  }
  EXPECT_EQ(tiered->tier()->stats().resident_bytes, n * dim * sizeof(float));

  // The split restores to the same prefix, serving the same bytes.
  auto restored =
      EmbeddingTier::Restore(
          PackUniform(source->raw().data(), n, dim, 8).value(), hot, options)
          .value();
  EXPECT_EQ(restored->hot_blocks(), 4u);
  EXPECT_EQ(restored->HotBlocksSnapshot(), hot);
  std::vector<float> got(dim);
  for (size_t i = 0; i < n; ++i) {
    restored->CopyRow(i, got.data());
    EXPECT_TRUE(BitEqual(got.data(), source->row(i), dim)) << i;
  }
}

TEST_F(TieredEmbeddingTest, RestoreRejectsHotBlocksThatAreNotAPrefix) {
  const size_t n = 256, dim = 4, block_rows = 64;  // 4 blocks.
  auto source = ResidentTable("emb", n, dim);
  const PackedCodes packed =
      PackUniform(source->raw().data(), n, dim, 8).value();
  using HotBlocks = std::vector<std::pair<uint32_t, std::vector<float>>>;
  auto block = [&](uint32_t b) {
    const float* rows = source->row(b * block_rows);
    return std::make_pair(b,
                          std::vector<float>(rows, rows + block_rows * dim));
  };
  const size_t two_blocks = 2 * block_rows * dim * sizeof(float);
  auto restore = [&](HotBlocks hot, size_t budget) {
    return EmbeddingTier::Restore(packed, std::move(hot),
                                  TierOptions(budget, 8, block_rows))
        .status();
  };

  // Blocks 0..h-1 within the budget restore.
  EXPECT_TRUE(restore({block(0), block(1)}, two_blocks).ok());
  EXPECT_TRUE(restore({block(0)}, two_blocks).ok());
  EXPECT_TRUE(restore({}, 0).ok());
  // Any other shape is Corruption.
  for (const HotBlocks& hot :
       {HotBlocks{block(1)}, HotBlocks{block(0), block(2)},
        HotBlocks{block(1), block(0)}, HotBlocks{block(0), block(0)}}) {
    EXPECT_EQ(restore(hot, two_blocks).code(), StatusCode::kCorruption);
  }
  HotBlocks short_block = {block(0)};
  short_block[0].second.pop_back();
  EXPECT_EQ(restore(short_block, two_blocks).code(), StatusCode::kCorruption);
  // More blocks than the budget holds.
  EXPECT_EQ(restore({block(0), block(1), block(2)}, two_blocks).code(),
            StatusCode::kCorruption);
  EXPECT_EQ(restore({block(0)}, 0).code(), StatusCode::kCorruption);
}

TEST_F(TieredEmbeddingTest, CreateRejectsOverflowingDim) {
  // keys.size() * dim wraps size_t to exactly vectors.size(): the old
  // multiply-based check accepted this and served wild pointers.
  EmbeddingTableMetadata metadata;
  metadata.name = "overflow";
  const size_t huge = (size_t{1} << 63) + 1;
  auto table = EmbeddingTable::Create(metadata, {"a", "b"}, {1.0f, 2.0f},
                                      huge);
  EXPECT_FALSE(table.ok());
}

TEST_F(TieredEmbeddingTest, SpillFailpointDegradesToResident) {
  EmbeddingTierPolicy policy;
  policy.memory_budget_bytes = 1024;  // Forces tiering of any real table.
  policy.spill_dir = dir_;
  policy.block_rows = 64;
  EmbeddingStore store(nullptr, policy);
  auto table = ResidentTable("emb", 512, 8);
  {
    ScopedFailpoint fp("embedding.tier.spill", FailpointConfig{});
    ASSERT_TRUE(store.Register(table, Hours(1)).ok());
    EmbeddingStoreTierStats stats = store.TierStats();
    EXPECT_GE(stats.spill_errors, 1u);
    EXPECT_EQ(stats.tiered_tables, 0u);
    EXPECT_EQ(stats.resident_tables, 1u);
    // Degraded, not dropped: lookups serve the exact data.
    auto got = store.GetLatest("emb").value();
    EXPECT_FALSE(got->tiered());
    EXPECT_TRUE(BitEqual(got->Get("k0").value(), table->row(0), 8));
  }
  // The next registration retries the spill and succeeds.
  ASSERT_TRUE(store.Register(table, Hours(2)).ok());
  EmbeddingStoreTierStats stats = store.TierStats();
  EXPECT_GE(stats.tiered_tables, 1u);
}

TEST_F(TieredEmbeddingTest, LoadFailpointDegradesReads) {
  const size_t n = 256, dim = 4, block_rows = 64;
  auto source = ResidentTable("emb", n, dim);
  auto tiered = EmbeddingTable::CreateTiered(
                    *source,
                    TierOptions(block_rows * dim * sizeof(float), 8,
                                block_rows))
                    .value();
  {
    ScopedFailpoint fp("embedding.tier.load", FailpointConfig{});
    // Hot rows still serve.
    EXPECT_TRUE(tiered->Get("k0").ok());
    // Cold point reads surface the injected fault.
    EXPECT_EQ(tiered->Get("k200").status().code(), StatusCode::kInternal);
    // Batched reads degrade the cold rows to misses, hot rows survive.
    auto rows = tiered->MultiGet({"k0", "k200", "k1"});
    EXPECT_NE(rows[0], nullptr);
    EXPECT_EQ(rows[1], nullptr);
    EXPECT_NE(rows[2], nullptr);
    // Scans propagate the fault.
    EXPECT_FALSE(
        tiered->tier()
            ->ScanBlocks([](size_t, size_t, const float*) {})
            .ok());
    EXPECT_GE(tiered->tier()->stats().load_faults, 3u);
  }
  // Disarmed: the cold row loads fine.
  EXPECT_TRUE(tiered->Get("k200").ok());
}

TEST_F(TieredEmbeddingTest, SupersededVersionsGoFullyCold) {
  const size_t n = 256, dim = 8;
  EmbeddingTierPolicy policy;
  policy.memory_budget_bytes = n * dim * sizeof(float);  // Fits one table.
  policy.spill_dir = dir_;
  policy.block_rows = 64;
  EmbeddingStore store(nullptr, policy);
  ASSERT_TRUE(store.Register(ResidentTable("emb", n, dim, 1), Hours(1)).ok());
  // v1 fits the whole budget: stays resident.
  EXPECT_FALSE(store.GetVersion("emb", 1).value()->tiered());

  ASSERT_TRUE(store.Register(ResidentTable("emb", n, dim, 2), Hours(2)).ok());
  // v1 is superseded: fully cold (tiered, no hot arena); v2 takes the
  // budget and stays resident.
  auto v1 = store.GetVersion("emb", 1).value();
  ASSERT_TRUE(v1->tiered());
  EXPECT_EQ(v1->tier()->hot_blocks(), 0u);
  EXPECT_EQ(v1->tier()->stats().hot_blocks, 0u);
  EXPECT_FALSE(store.GetVersion("emb", 2).value()->tiered());

  // The cold version still serves (dequantized) and quality checks on it
  // still run.
  EXPECT_TRUE(v1->Get("k0").ok());
  EmbeddingStoreTierStats stats = store.TierStats();
  EXPECT_EQ(stats.tiered_tables, 1u);
  EXPECT_EQ(stats.resident_tables, 1u);
}

TEST_F(TieredEmbeddingTest, SupersededBitsDemoteHistoryToCoarserPacking) {
  const size_t n = 256, dim = 8;
  EmbeddingTierPolicy policy;
  policy.memory_budget_bytes = n * dim * sizeof(float);  // Fits one table.
  policy.spill_dir = dir_;
  policy.block_rows = 64;
  policy.bits = 8;
  policy.superseded_bits = 4;  // History packs twice as tight.
  EmbeddingStore store(nullptr, policy);
  ASSERT_TRUE(store.Register(ResidentTable("emb", n, dim, 1), Hours(1)).ok());
  ASSERT_TRUE(store.Register(ResidentTable("emb", n, dim, 2), Hours(2)).ok());

  // v1 was resident when superseded: demoted straight to 4-bit codes.
  auto v1 = store.GetVersion("emb", 1).value();
  ASSERT_TRUE(v1->tiered());
  EXPECT_EQ(v1->tier()->bits(), 4);
  EXPECT_EQ(v1->tier()->hot_blocks(), 0u);
  EXPECT_FALSE(store.GetVersion("emb", 2).value()->tiered());
  // Coarser codes still serve every row.
  for (size_t i = 0; i < n; i += 17) {
    EXPECT_TRUE(v1->Get("k" + std::to_string(i)).ok());
  }

  // v2 becomes history in turn; v1, already tiered, keeps its packing
  // (no second quantization pass).
  ASSERT_TRUE(store.Register(ResidentTable("emb", n, dim, 3), Hours(3)).ok());
  EXPECT_EQ(store.GetVersion("emb", 2).value()->tier()->bits(), 4);
  EXPECT_EQ(store.GetVersion("emb", 1).value()->tier()->bits(), 4);
}

TEST_F(TieredEmbeddingTest, TieredBruteMatchesResidentBruteBitwise) {
  const size_t n = 500, dim = 12, block_rows = 64;
  auto source = ResidentTable("emb", n, dim);
  const size_t budget = 3 * block_rows * dim * sizeof(float);  // 3/8 hot.
  auto tiered = EmbeddingTable::CreateTiered(
                    *source, TierOptions(budget, 8, block_rows))
                    .value();
  // The reference: a resident brute-force index over the *served* values.
  auto served = tiered->Materialize().value();
  auto queries = GaussianData(40, dim, 99);

  for (Metric metric : {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
    auto brute = MakeBruteForceIndex(metric);
    ASSERT_TRUE(brute->Build(served->raw().data(), n, dim).ok());
    auto scan = MakeTieredBruteForceIndex(tiered, metric);
    ASSERT_TRUE(scan->Build(nullptr, 0, 0).ok());

    auto want = brute->Search(queries.data(), 10).value();
    auto got = scan->Search(queries.data(), 10).value();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id) << static_cast<int>(metric);
      EXPECT_EQ(got[i].distance, want[i].distance) << static_cast<int>(metric);
    }

    auto want_batch = brute->BatchSearch(queries.data(), 40, 5).value();
    auto got_batch = scan->BatchSearch(queries.data(), 40, 5).value();
    ASSERT_EQ(got_batch.size(), want_batch.size());
    for (size_t q = 0; q < want_batch.size(); ++q) {
      ASSERT_EQ(got_batch[q].size(), want_batch[q].size());
      for (size_t i = 0; i < want_batch[q].size(); ++i) {
        EXPECT_EQ(got_batch[q][i].id, want_batch[q][i].id);
        EXPECT_EQ(got_batch[q][i].distance, want_batch[q][i].distance);
      }
    }
    // Searching must not have grown the hot set (scan resistance).
    EXPECT_EQ(tiered->tier()->stats().hot_blocks, 3u);
  }
}

/// Clustered data so nearest-neighbor sets are robust to the (documented)
/// quantization error on cold rows: intra-cluster distances ~1e-2,
/// inter-cluster ~10.
EmbeddingTablePtr ClusteredTable(const std::string& name, size_t clusters,
                                 size_t per_cluster, size_t dim,
                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<float> data;
  std::vector<std::string> keys;
  for (size_t c = 0; c < clusters; ++c) {
    std::vector<float> center(dim);
    for (auto& x : center) x = static_cast<float>(rng.Gaussian(0.0, 10.0));
    for (size_t p = 0; p < per_cluster; ++p) {
      keys.push_back("c" + std::to_string(c) + "_" + std::to_string(p));
      for (size_t j = 0; j < dim; ++j) {
        data.push_back(center[j] +
                       static_cast<float>(rng.Gaussian(0.0, 0.01)));
      }
    }
  }
  EmbeddingTableMetadata metadata;
  metadata.name = name;
  return EmbeddingTable::Create(metadata, keys, data, dim).value();
}

TEST_F(TieredEmbeddingTest, FeatureStoreDifferentialAllHotVsHalfCold) {
  const size_t clusters = 25, per_cluster = 8, dim = 8;
  const size_t n = clusters * per_cluster;
  auto table = ClusteredTable("emb", clusters, per_cluster, dim, 5);

  FeatureStoreOptions all_hot;
  all_hot.ann_index = "brute";
  FeatureStore resident_store(all_hot);
  ASSERT_TRUE(resident_store.RegisterEmbedding(table).ok());

  FeatureStoreOptions half_cold = all_hot;
  half_cold.embedding_tiering.memory_budget_bytes =
      n * dim * sizeof(float) / 2;
  half_cold.embedding_tiering.bits = 16;
  half_cold.embedding_tiering.block_rows = 16;
  half_cold.embedding_tiering.spill_dir = dir_;
  FeatureStore tiered_store(half_cold);
  ASSERT_TRUE(tiered_store.RegisterEmbedding(table).ok());
  ASSERT_TRUE(
      tiered_store.embeddings().GetLatest("emb").value()->tiered());

  // Point lookups agree modulo quantization error on cold rows.
  for (size_t i = 0; i < n; ++i) {
    const std::string& key = table->key(i);
    auto want = resident_store.GetEmbedding("emb", key).value();
    auto got = tiered_store.GetEmbedding("emb", key).value();
    ASSERT_EQ(got.size(), want.size());
    for (size_t j = 0; j < dim; ++j) {
      EXPECT_NEAR(got[j], want[j], 2e-3) << key << " j=" << j;
    }
  }

  // Batched neighbor queries agree modulo quantization error: exact 3-NN
  // sets inside a tight cluster are tie-sensitive, but with inter-cluster
  // distances ~1000x the intra-cluster spread both stores must place every
  // neighbor in the query's own cluster.
  std::vector<std::string> refs;
  for (size_t i = 0; i < n; i += 7) refs.push_back(table->key(i));
  auto want = resident_store.NearestEntitiesBatch("emb", refs, 3);
  auto got = tiered_store.NearestEntitiesBatch("emb", refs, 3);
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < refs.size(); ++i) {
    ASSERT_TRUE(want[i].ok());
    ASSERT_TRUE(got[i].ok()) << got[i].status();
    ASSERT_EQ(got[i]->size(), want[i]->size());
    const std::string cluster = refs[i].substr(0, refs[i].find('_') + 1);
    for (const auto& [key, dist] : *want[i]) {
      EXPECT_EQ(key.substr(0, cluster.size()), cluster) << refs[i];
    }
    for (const auto& [key, dist] : *got[i]) {
      EXPECT_EQ(key.substr(0, cluster.size()), cluster) << refs[i];
    }
  }

  // The tiered store really is out-of-core and counting.
  EmbeddingStoreTierStats stats = tiered_store.embeddings().TierStats();
  EXPECT_EQ(stats.tiered_tables, 1u);
  EXPECT_GE(stats.tier.scans, 1u);  // ANN searches streamed the tier.

  // Embedding hydration through the batched serving path survives
  // tiering: pointers are copied out of the tier before assembly.
  std::vector<Value> entities = {Value::String(table->key(0)),
                                 Value::String(table->key(n - 1)),
                                 Value::String("missing")};
  auto servings =
      tiered_store.server().GetFeaturesBatch(entities, {"emb"}, Hours(1));
  ASSERT_EQ(servings.size(), 3u);
  ASSERT_TRUE(servings[0].ok());
  ASSERT_TRUE(servings[1].ok());
  const std::vector<float>& v0 = servings[0]->values[0].embedding_value();
  auto expect0 = tiered_store.GetEmbedding("emb", table->key(0)).value();
  EXPECT_EQ(v0, expect0);

  // The store's tier counters see the cold path behind serving: the
  // batch above hydrated a cold row.
  const EmbeddingStoreTierStats served =
      tiered_store.embeddings().TierStats();
  EXPECT_EQ(served.tiered_tables, 1u);
  EXPECT_GT(served.tier.cold_misses, stats.tier.cold_misses);
}

TEST_F(TieredEmbeddingTest, CheckpointRestoreServesByteIdentical) {
  const size_t n = 300, dim = 8;
  auto table = ClusteredTable("emb", 30, 10, dim, 17);

  FeatureStoreOptions options;
  options.ann_index = "brute";
  options.embedding_tiering.memory_budget_bytes = n * dim * sizeof(float) / 2;
  options.embedding_tiering.bits = 8;
  options.embedding_tiering.block_rows = 32;
  options.embedding_tiering.spill_dir = dir_ + "/spill_a";
  FeatureStore store(options);
  ASSERT_TRUE(store.RegisterEmbedding(table).ok());

  // The budget makes blocks 0-3 the hot prefix; restore must reproduce
  // it (reads never change it).
  const EmbeddingTier* tier =
      store.embeddings().GetLatest("emb").value()->tier();
  ASSERT_TRUE(store.GetEmbedding("emb", table->key(200)).ok());
  auto hot_ids = [](const EmbeddingTier& t) {
    std::vector<uint32_t> ids;
    for (const auto& [block, rows] : t.HotBlocksSnapshot()) {
      ids.push_back(block);
    }
    return ids;
  };
  ASSERT_EQ(hot_ids(*tier), (std::vector<uint32_t>{0, 1, 2, 3}));

  std::vector<std::vector<float>> before;
  for (size_t i = 0; i < n; ++i) {
    before.push_back(store.GetEmbedding("emb", table->key(i)).value());
  }
  std::vector<std::string> refs;
  for (size_t i = 0; i < n; i += 11) refs.push_back(table->key(i));
  auto neighbors_before = store.NearestEntitiesBatch("emb", refs, 4);

  const std::string ckpt = dir_ + "/ckpt";
  ASSERT_TRUE(store.Checkpoint(ckpt).ok());

  FeatureStoreOptions restore_options = options;
  restore_options.embedding_tiering.spill_dir = dir_ + "/spill_b";
  FeatureStore restored(restore_options);
  ASSERT_TRUE(restored.RestoreCheckpoint(ckpt).ok());
  auto restored_table = restored.embeddings().GetLatest("emb").value();
  ASSERT_TRUE(restored_table->tiered());
  EXPECT_EQ(hot_ids(*restored_table->tier()),
            (std::vector<uint32_t>{0, 1, 2, 3}));

  for (size_t i = 0; i < n; ++i) {
    auto got = restored.GetEmbedding("emb", table->key(i)).value();
    ASSERT_EQ(got.size(), before[i].size());
    EXPECT_TRUE(BitEqual(got.data(), before[i].data(), dim))
        << "row " << i << " changed across checkpoint restore";
  }
  auto neighbors_after = restored.NearestEntitiesBatch("emb", refs, 4);
  ASSERT_EQ(neighbors_after.size(), neighbors_before.size());
  for (size_t i = 0; i < refs.size(); ++i) {
    ASSERT_TRUE(neighbors_before[i].ok());
    ASSERT_TRUE(neighbors_after[i].ok());
    ASSERT_EQ(neighbors_after[i]->size(), neighbors_before[i]->size());
    for (size_t j = 0; j < neighbors_before[i]->size(); ++j) {
      EXPECT_EQ((*neighbors_after[i])[j].first,
                (*neighbors_before[i])[j].first);
      EXPECT_EQ((*neighbors_after[i])[j].second,
                (*neighbors_before[i])[j].second);
    }
  }
}

TEST_F(TieredEmbeddingTest, RestoreFallsBackToResidentWhenSpillFails) {
  const size_t n = 256, dim = 8;
  auto table = ResidentTable("emb", n, dim);
  FeatureStoreOptions options;
  options.embedding_tiering.memory_budget_bytes = n * dim * sizeof(float) / 2;
  options.embedding_tiering.block_rows = 32;
  options.embedding_tiering.spill_dir = dir_ + "/spill";
  FeatureStore store(options);
  ASSERT_TRUE(store.RegisterEmbedding(table).ok());
  // Reads leave the hot set as seeded, so the reference mixes exact hot
  // rows with dequantized cold ones.
  std::vector<std::vector<float>> before;
  for (size_t i = 0; i < n; ++i) {
    before.push_back(store.GetEmbedding("emb", table->key(i)).value());
  }
  const std::string ckpt = dir_ + "/ckpt";
  ASSERT_TRUE(store.Checkpoint(ckpt).ok());

  FeatureStore restored(options);
  {
    // The tier file cannot be rebuilt: restore must degrade to an
    // equivalent resident table, not fail or corrupt.
    ScopedFailpoint fp("embedding.tier.spill", FailpointConfig{});
    ASSERT_TRUE(restored.RestoreCheckpoint(ckpt).ok());
  }
  auto got_table = restored.embeddings().GetLatest("emb").value();
  EXPECT_FALSE(got_table->tiered());
  EXPECT_GE(restored.embeddings().TierStats().restore_fallbacks, 1u);
  for (size_t i = 0; i < n; ++i) {
    auto got = restored.GetEmbedding("emb", table->key(i)).value();
    EXPECT_TRUE(BitEqual(got.data(), before[i].data(), dim)) << i;
  }
}

TEST_F(TieredEmbeddingTest, ServingCountsLoadFaultAsDegraded) {
  const size_t n = 256, dim = 8;
  auto table = ResidentTable("emb", n, dim);
  FeatureStoreOptions options;
  options.embedding_tiering.memory_budget_bytes = n * dim * sizeof(float) / 2;
  options.embedding_tiering.block_rows = 32;
  options.embedding_tiering.spill_dir = dir_ + "/spill_null";
  FeatureStore store(options);
  ASSERT_TRUE(store.RegisterEmbedding(table).ok());
  ASSERT_TRUE(store.embeddings().GetLatest("emb").value()->tiered());
  FeatureStoreOptions strict_options = options;
  strict_options.embedding_tiering.spill_dir = dir_ + "/spill_error";
  strict_options.serving.missing_policy = MissingFeaturePolicy::kError;
  FeatureStore strict(strict_options);
  ASSERT_TRUE(strict.RegisterEmbedding(table).ok());

  // Rows 0-127 are the seeded hot half; k200 is cold.
  const FeatureServer& server = store.server();
  ScopedFailpoint fp("embedding.tier.load", FailpointConfig{});
  const uint64_t degraded_before = server.stats().degraded_responses;

  auto one = server.GetFeatures(Value::String("k200"), {"emb"}, Hours(1));
  ASSERT_TRUE(one.ok()) << one.status();
  EXPECT_TRUE(one->values[0].is_null());
  EXPECT_EQ(one->missing, 1u);
  EXPECT_EQ(one->degraded, 1u);

  auto batch = server.GetFeaturesBatch(
      {Value::String("k200"), Value::String("k3"), Value::String("nope")},
      {"emb"}, Hours(1));
  ASSERT_EQ(batch.size(), 3u);
  for (const auto& fv : batch) ASSERT_TRUE(fv.ok()) << fv.status();
  EXPECT_EQ(batch[0]->missing, 1u);
  EXPECT_EQ(batch[0]->degraded, 1u);
  // Hot keys are unaffected, and a key the table lacks is a plain miss.
  EXPECT_EQ(batch[1]->missing, 0u);
  EXPECT_EQ(batch[1]->values[0].embedding_value(),
            std::vector<float>(table->row(3), table->row(3) + dim));
  EXPECT_EQ(batch[2]->missing, 1u);
  EXPECT_EQ(batch[2]->degraded, 0u);
  auto hot = server.GetFeatures(Value::String("k3"), {"emb"}, Hours(1));
  ASSERT_TRUE(hot.ok());
  EXPECT_EQ(hot->missing, 0u);
  EXPECT_EQ(server.stats().degraded_responses, degraded_before + 2);

  // Under kError the entity fails with the fault's message, not "no
  // embedding for entity".
  auto strict_one =
      strict.server().GetFeatures(Value::String("k200"), {"emb"}, Hours(1));
  ASSERT_FALSE(strict_one.ok());
  EXPECT_NE(strict_one.status().message().find("injected fault"),
            std::string::npos)
      << strict_one.status();
  auto strict_batch = strict.server().GetFeaturesBatch(
      {Value::String("k200"), Value::String("nope")}, {"emb"}, Hours(1));
  ASSERT_FALSE(strict_batch[0].ok());
  EXPECT_NE(strict_batch[0].status().message().find("injected fault"),
            std::string::npos);
  ASSERT_FALSE(strict_batch[1].ok());
  EXPECT_NE(strict_batch[1].status().message().find("no embedding"),
            std::string::npos);
}

TEST_F(TieredEmbeddingTest, NearestEntitiesBatchReturnsLoadFault) {
  const size_t n = 256, dim = 8;
  auto table = ResidentTable("emb", n, dim);
  FeatureStoreOptions options;
  options.ann_index = "brute";  // Out-of-core: every search scans the tier.
  options.embedding_tiering.memory_budget_bytes = n * dim * sizeof(float) / 2;
  options.embedding_tiering.block_rows = 32;
  options.embedding_tiering.spill_dir = dir_ + "/spill_ann";
  FeatureStore store(options);
  ASSERT_TRUE(store.RegisterEmbedding(table).ok());
  ASSERT_TRUE(store.embeddings().GetLatest("emb").value()->tiered());

  // Rows 0-127 are the seeded hot half; k200 is cold. The unfaulted call
  // also builds the index, so the armed call below loads only rows.
  const std::vector<std::string> refs = {"k200", "k3", "nope"};
  const auto want = store.NearestEntitiesBatch("emb", refs, 4);
  ASSERT_TRUE(want[0].ok()) << want[0].status();
  ASSERT_TRUE(want[1].ok()) << want[1].status();

  // One fire: the cold reference-row load fails, the index scan does not.
  FailpointConfig config;
  config.max_fires = 1;
  ScopedFailpoint fp("embedding.tier.load", config);
  const auto got = store.NearestEntitiesBatch("emb", refs, 4);
  ASSERT_EQ(got.size(), 3u);
  ASSERT_FALSE(got[0].ok());
  EXPECT_FALSE(got[0].status().IsNotFound()) << got[0].status();
  EXPECT_NE(got[0].status().message().find("injected fault"),
            std::string::npos)
      << got[0].status();
  ASSERT_TRUE(got[1].ok()) << got[1].status();
  EXPECT_EQ(*got[1], *want[1]);
  EXPECT_TRUE(got[2].status().IsNotFound()) << got[2].status();
}

TEST_F(TieredEmbeddingTest, DriftPatchAlignNedAcceptTieredTables) {
  // The whole-matrix consumers materialize tiered inputs instead of
  // tripping the resident-only row()/raw() accessors.
  const size_t n = 128, dim = 8;
  auto v1 = ResidentTable("emb", n, dim, 1);
  auto tiered = EmbeddingTable::CreateTiered(
                    *v1, TierOptions(n * dim * 2, 8, 32))  // Mostly cold.
                    .value();
  auto report = CheckEmbeddingDrift(*tiered, *tiered, 4, 64, {});
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->null_or_nan_cells, 0u);

  auto quantized = QuantizeUniform(*tiered, 8);
  ASSERT_TRUE(quantized.ok());
  EXPECT_FALSE((*quantized)->tiered());
  EXPECT_EQ((*quantized)->size(), n);
}

}  // namespace
}  // namespace mlfs
