// Embedding-tier concurrency soak (CTest label: stress; run under TSan).
//
// Hammers tiered tables from every access path at once: point-Get threads
// and MultiGet threads whose reads straddle hot and cold blocks, scan
// threads streaming the whole tier (brute-force ANN's access pattern), a
// copy thread taking CopyRow and HotBlocksSnapshot (the registration and
// checkpoint paths), a DemoteAll thread (the store demoting a superseded
// version), and a fault-injection thread arming/disarming the cold-load
// failpoint. Reads never change the hot prefix and DemoteAll drops it
// once, so each round builds a fresh tier and demotes it at a different
// point of the round's reads, while readers hold pointers into it.
// Asserts the invariants the single-threaded suite pins: every served row
// is bitwise one of the two legal values (exact or dequantized), every
// snapshot is the whole seeded prefix or nothing, pointers stay valid
// until the thread's next lookup, and the counters are coherent.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/rng.h"
#include "embedding/compress.h"
#include "embedding/embedding_table.h"
#include "embedding/tier.h"

namespace mlfs {
namespace {

constexpr size_t kRows = 64 * 24;  // 24 blocks of 64.
constexpr size_t kDim = 16;
constexpr size_t kBlockRows = 64;
constexpr size_t kSeedBlocks = 8;  // A third of the table starts hot.
constexpr int kBits = 8;
constexpr int kGetters = 3;
constexpr int kBatchers = 2;
constexpr int kScanners = 2;
constexpr int kRounds = 12;
constexpr int kOpsPerThread = 100;  // Per round.
constexpr uint64_t kRoundReads = (kGetters + kBatchers) * kOpsPerThread;

TEST(TieredEmbeddingStressTest, PromotionDemotionScansAndFaultsRace) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "mlfs_tier_stress")
          .string();
  std::filesystem::create_directories(dir);

  Rng rng(7);
  std::vector<float> data(kRows * kDim);
  for (float& x : data) x = static_cast<float>(rng.Gaussian());
  std::vector<std::string> keys;
  for (size_t i = 0; i < kRows; ++i) keys.push_back("k" + std::to_string(i));

  EmbeddingTableMetadata metadata;
  metadata.name = "stress";
  auto source =
      EmbeddingTable::Create(metadata, keys, data, kDim).value();

  EmbeddingTierOptions options;
  options.memory_budget_bytes = kSeedBlocks * kBlockRows * kDim * sizeof(float);
  options.bits = kBits;
  options.block_rows = kBlockRows;
  options.dir = dir;

  // The legal servings of a row: the exact source floats while it is in
  // the seeded prefix, or the packed codec's dequantization (cold or
  // demoted). Reads never add a block, so a row outside the prefix is
  // never exact.
  PackedCodes packed = PackUniform(data.data(), kRows, kDim, kBits).value();
  PackedDecodeTables tables = MakeDecodeTables(kBits, packed.lo, packed.hi);
  std::vector<float> dequantized(kRows * kDim);
  DequantizeRange(ViewOf(packed, tables), 0, kRows, dequantized.data());
  auto legal = [&](size_t row, const float* got) {
    return (row < kSeedBlocks * kBlockRows &&
            std::memcmp(got, data.data() + row * kDim,
                        kDim * sizeof(float)) == 0) ||
           std::memcmp(got, dequantized.data() + row * kDim,
                       kDim * sizeof(float)) == 0;
  };

  std::atomic<uint64_t> served{0};
  std::atomic<uint64_t> faulted{0};
  std::atomic<uint64_t> illegal{0};
  std::atomic<uint64_t> bad_snapshots{0};
  uint64_t load_faults = 0;

  for (int round = 0; round < kRounds; ++round) {
    auto table = EmbeddingTable::CreateTiered(*source, options).value();
    ASSERT_EQ(table->tier()->stats().hot_blocks, kSeedBlocks);
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> reads{0};  // Reads finished this round.

    std::vector<std::thread> threads;
    for (int t = 0; t < kGetters; ++t) {
      threads.emplace_back([&, t] {
        Rng local(100 + 10 * round + t);
        for (int op = 0; op < kOpsPerThread; ++op) {
          const size_t row = local.Uniform(kRows);
          auto got = table->Get("k" + std::to_string(row));
          reads.fetch_add(1, std::memory_order_relaxed);
          if (!got.ok()) {  // Injected cold-load fault.
            faulted.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          // The pointer must stay valid (and legal) until this thread's
          // next lookup, even while other threads demote the block.
          if (!legal(row, *got)) illegal.fetch_add(1);
          served.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (int t = 0; t < kBatchers; ++t) {
      threads.emplace_back([&, t] {
        Rng local(200 + 10 * round + t);
        for (int op = 0; op < kOpsPerThread; ++op) {
          std::vector<std::string> batch;
          std::vector<size_t> rows;
          for (int i = 0; i < 12; ++i) {
            rows.push_back(local.Uniform(kRows));
            batch.push_back("k" + std::to_string(rows.back()));
          }
          batch.push_back("missing");
          auto ptrs = table->MultiGet(batch);
          reads.fetch_add(1, std::memory_order_relaxed);
          ASSERT_EQ(ptrs.size(), batch.size());
          ASSERT_EQ(ptrs.back(), nullptr);
          for (size_t i = 0; i < rows.size(); ++i) {
            if (ptrs[i] == nullptr) {  // Fault-degraded cold slot.
              faulted.fetch_add(1, std::memory_order_relaxed);
              continue;
            }
            if (!legal(rows[i], ptrs[i])) illegal.fetch_add(1);
            served.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (int t = 0; t < kScanners; ++t) {
      threads.emplace_back([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          size_t seen = 0;
          Status status = table->tier()->ScanBlocks(
              [&](size_t row0, size_t nrows, const float* rows) {
                seen += nrows;
                for (size_t r = 0; r < nrows; ++r) {
                  if (!legal(row0 + r, rows + r * kDim)) illegal.fetch_add(1);
                }
              });
          if (status.ok()) {
            ASSERT_EQ(seen, kRows);
          }
        }
      });
    }
    // Copies and snapshots race the demotion: a copied row is legal, and
    // a snapshot holds either every seeded block, exact, or none.
    threads.emplace_back([&] {
      Rng local(400 + round);
      std::vector<float> out(kDim);
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t row = local.Uniform(kRows);
        table->CopyRow(row, out.data());
        if (!legal(row, out.data())) illegal.fetch_add(1);
        const auto hot = table->tier()->HotBlocksSnapshot();
        if (!hot.empty() && hot.size() != kSeedBlocks) {
          bad_snapshots.fetch_add(1);
        }
        for (size_t b = 0; b < hot.size(); ++b) {
          if (hot[b].first != b || hot[b].second.size() != kBlockRows * kDim ||
              std::memcmp(hot[b].second.data(),
                          data.data() + b * kBlockRows * kDim,
                          kBlockRows * kDim * sizeof(float)) != 0) {
            bad_snapshots.fetch_add(1);
          }
        }
      }
    });
    // The store demotes a superseded version on registration: here the
    // whole prefix drops once, at a point of the round's reads that moves
    // from round to round.
    threads.emplace_back([&] {
      const uint64_t due = (round % 4 + 1) * kRoundReads / 5;
      while (!stop.load(std::memory_order_relaxed) &&
             reads.load(std::memory_order_relaxed) < due) {
        std::this_thread::yield();
      }
      table->tier()->DemoteAll();
    });
    // Fault injection flaps underneath the readers.
    threads.emplace_back([&] {
      for (int i = 0; i < 10 && !stop.load(std::memory_order_relaxed); ++i) {
        FailpointConfig config;
        config.probability = 0.3;
        {
          ScopedFailpoint fp("embedding.tier.load", config);
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });

    for (int t = 0; t < kGetters + kBatchers; ++t) threads[t].join();
    stop.store(true);
    for (size_t t = kGetters + kBatchers; t < threads.size(); ++t) {
      threads[t].join();
    }
    FailpointRegistry::Instance().DisarmAll();

    // Counters are coherent after the dust settles: every seeded block was
    // demoted, and no read promoted one back.
    EmbeddingTierStats stats = table->tier()->stats();
    EXPECT_EQ(stats.total_blocks, kRows / kBlockRows);
    EXPECT_EQ(stats.hot_blocks, 0u);
    EXPECT_EQ(stats.resident_bytes, 0u);
    EXPECT_EQ(stats.promotions, 0u);
    EXPECT_EQ(stats.demotions, kSeedBlocks);
    EXPECT_EQ(stats.hot_hits + stats.cold_misses,
              (kGetters + kBatchers * 12) * uint64_t{kOpsPerThread});
    load_faults += stats.load_faults;
  }

  EXPECT_EQ(illegal.load(), 0u)
      << "a row was served that is neither exact nor dequantized";
  EXPECT_EQ(bad_snapshots.load(), 0u)
      << "a snapshot was neither the seeded prefix nor empty";
  EXPECT_GT(served.load(), 0u);
  if (faulted.load() > 0) {
    EXPECT_GT(load_faults, 0u);
  }

  // And a tier still serves correct data single-threaded.
  auto table = EmbeddingTable::CreateTiered(*source, options).value();
  std::vector<float> out(kDim);
  for (size_t row : {size_t{0}, kRows / 2, kRows - 1}) {
    table->CopyRow(row, out.data());
    EXPECT_TRUE(legal(row, out.data())) << row;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mlfs
