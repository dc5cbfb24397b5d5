// Shared block-I/O subsystem concurrency soak (CTest label: stress; run
// under TSan).
//
// Two theaters:
//  1. The io/ primitives raced directly: reader threads touching and
//     promoting BlockCache payloads (verifying content through pinned
//     pointers), prefetch threads driving a ReadaheadScheduler over the
//     same key space, a capacity flapper (demotion storms), a spill
//     thread churning BlockFile spill/map/advise/unmap cycles, and a
//     failpoint thread arming io.load/io.readahead underneath everyone.
//  2. A tiered embedding table with readahead *enabled*, hammered by the
//     same access mix as the tier soak — every row served must still be
//     bitwise one of the two legal values even while scheduler workers
//     dequantize scan blocks behind the scanning threads.
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
#include "io/block_cache.h"
#include "io/block_file.h"
#include "io/readahead.h"

namespace mlfs {
namespace {

constexpr uint32_t kMagic = 0x4f495453;  // "STIO"
constexpr uint32_t kVersion = 1;

// One block's payload: kPayloadWords words of a block-id pattern, so a
// reader can detect torn or misrouted payloads.
constexpr size_t kPayloadWords = 64;

BlockCache::Payload MakeBlockPayload(size_t block) {
  auto words = std::make_shared<std::vector<uint64_t>>(kPayloadWords);
  for (size_t i = 0; i < kPayloadWords; ++i) {
    (*words)[i] = block * 1000003ULL + i;
  }
  return std::static_pointer_cast<const void>(
      std::static_pointer_cast<const std::vector<uint64_t>>(words));
}

bool PayloadIntact(const BlockCache::Payload& p, size_t block) {
  const auto* words = static_cast<const std::vector<uint64_t>*>(p.get());
  if (words->size() != kPayloadWords) return false;
  for (size_t i = 0; i < kPayloadWords; ++i) {
    if ((*words)[i] != block * 1000003ULL + i) return false;
  }
  return true;
}

TEST(IoStressTest, CacheReadaheadEvictionAndSpillRace) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "mlfs_io_stress")
          .string();
  std::filesystem::create_directories(dir);

  constexpr size_t kBlocks = 32;
  constexpr int kReaders = 3;
  constexpr int kPrefetchers = 2;
  constexpr int kOpsPerThread = 600;

  BlockCache cache(kBlocks, /*capacity=*/8);
  ReadaheadOptions ra;
  ra.enabled = true;
  ra.threads = 2;
  ra.max_in_flight = 6;
  ReadaheadScheduler scheduler(ra);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> corrupt{0};
  std::atomic<uint64_t> served{0};

  std::vector<std::thread> threads;
  // Readers: the embedding-tier access pattern — touch, demand-load on
  // miss, pin, verify through the pinned pointer after further churn.
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      Rng local(10 + t);
      for (int op = 0; op < kOpsPerThread; ++op) {
        auto& pins = BlockCache::ThreadPins();
        pins.clear();
        const size_t block = local.Uniform(kBlocks);
        BlockCache::Payload p = cache.Touch(block, cache.BeginBatch());
        if (p == nullptr) {
          cache.CountAccess(0, 1);
          p = MakeBlockPayload(block);
          cache.Insert(block, p, kPayloadWords * 8, cache.BeginBatch());
        } else {
          cache.CountAccess(1, 0);
        }
        pins.push_back(p);
        const auto* raw = static_cast<const std::vector<uint64_t>*>(p.get());
        p.reset();  // Only the pin keeps it alive through churn.
        std::this_thread::yield();
        if (raw->at(0) != block * 1000003ULL) corrupt.fetch_add(1);
        served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Prefetchers: schedule materialization of random blocks, then consume
  // and verify — racing dedup, drops, and the failpoint flapper.
  for (int t = 0; t < kPrefetchers; ++t) {
    threads.emplace_back([&, t] {
      Rng local(20 + t);
      for (int op = 0; op < kOpsPerThread; ++op) {
        const size_t block = local.Uniform(kBlocks);
        scheduler.Prefetch(block, [block] { return MakeBlockPayload(block); });
        const size_t consume = local.Uniform(kBlocks);
        ReadaheadScheduler::Payload p = scheduler.Consume(consume);
        if (p != nullptr && !PayloadIntact(p, consume)) corrupt.fetch_add(1);
      }
    });
  }
  // Capacity flapper: budget rebalancing (demotion storms) under load.
  threads.emplace_back([&] {
    Rng local(31);
    while (!stop.load(std::memory_order_relaxed)) {
      cache.SetCapacity(local.Uniform(kBlocks));
      std::this_thread::yield();
    }
  });
  // Spill churn: seal + atomic-write + map + readahead-touch + unmap in a
  // loop, sharing the io.load failpoint with everyone else.
  threads.emplace_back([&] {
    Rng local(41);
    int seq = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string body(1024 + local.Uniform(4096), 'b');
      const std::string path =
          dir + "/churn_" + std::to_string(seq++) + ".blk";
      auto file = BlockFile::Spill(kMagic, kVersion,
                                   BlockFile::Seal(kMagic, kVersion, body),
                                   path, /*remove_file_on_destroy=*/true,
                                   "stress blob");
      if (file.ok()) {
        (*file)->AdviseWillNeed(0, (*file)->size());
        (*file)->TouchPages(0, (*file)->size());
        if ((*file)->body() != body) corrupt.fetch_add(1);
      }
      std::this_thread::yield();
    }
  });
  // Failpoint flapper: io.load (spill/map path) and io.readahead
  // (prefetch path) degrade, never corrupt.
  threads.emplace_back([&] {
    for (int i = 0; i < 30 && !stop.load(std::memory_order_relaxed); ++i) {
      FailpointConfig config;
      config.probability = 0.3;
      {
        ScopedFailpoint load("io.load", config);
        ScopedFailpoint prefetch("io.readahead", config);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (int t = 0; t < kReaders + kPrefetchers; ++t) threads[t].join();
  stop.store(true);
  for (size_t t = kReaders + kPrefetchers; t < threads.size(); ++t) {
    threads[t].join();
  }
  scheduler.Drain();
  FailpointRegistry::Instance().DisarmAll();

  EXPECT_EQ(corrupt.load(), 0u);
  EXPECT_GT(served.load(), 0u);

  const BlockCacheStats cs = cache.stats();
  EXPECT_LE(cs.resident_blocks, kBlocks);
  EXPECT_EQ(cs.num_blocks, kBlocks);
  EXPECT_GE(cs.hits + cs.misses, served.load());
  EXPECT_GE(cs.evictions + cs.resident_blocks, cs.promotions)
      << "every promoted block is either still resident or was evicted";

  const ReadaheadStats rs = scheduler.stats();
  EXPECT_EQ(rs.in_flight, 0u);
  EXPECT_EQ(rs.issued, rs.completed);
  EXPECT_LE(rs.hits, rs.issued);
  std::filesystem::remove_all(dir);
}

TEST(IoStressTest, TierWithReadaheadServesOnlyLegalRows) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "mlfs_io_tier_stress")
          .string();
  std::filesystem::create_directories(dir);

  constexpr size_t kRows = 64 * 16;
  constexpr size_t kDim = 12;
  constexpr size_t kBlockRows = 64;
  constexpr int kBits = 8;
  constexpr int kBatchers = 3;
  constexpr int kScanners = 2;
  constexpr int kOpsPerThread = 250;

  Rng rng(9);
  std::vector<float> data(kRows * kDim);
  for (float& x : data) x = static_cast<float>(rng.Gaussian());
  std::vector<std::string> keys;
  for (size_t i = 0; i < kRows; ++i) keys.push_back("k" + std::to_string(i));

  EmbeddingTableMetadata metadata;
  metadata.name = "ra_stress";
  auto source = EmbeddingTable::Create(metadata, keys, data, kDim).value();

  EmbeddingTierOptions options;
  options.memory_budget_bytes = 3 * kBlockRows * kDim * sizeof(float);
  options.bits = kBits;
  options.block_rows = kBlockRows;
  options.dir = dir;
  options.readahead.enabled = true;
  options.readahead.threads = 2;
  auto table = EmbeddingTable::CreateTiered(*source, options).value();

  PackedCodes packed = PackUniform(data.data(), kRows, kDim, kBits).value();
  PackedDecodeTables tables = MakeDecodeTables(kBits, packed.lo, packed.hi);
  std::vector<float> dequantized(kRows * kDim);
  DequantizeRange(ViewOf(packed, tables), 0, kRows, dequantized.data());
  auto legal = [&](size_t row, const float* got) {
    return std::memcmp(got, data.data() + row * kDim,
                       kDim * sizeof(float)) == 0 ||
           std::memcmp(got, dequantized.data() + row * kDim,
                       kDim * sizeof(float)) == 0;
  };

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> illegal{0};
  std::atomic<uint64_t> served{0};

  std::vector<std::thread> threads;
  // Batchers issue wide batches whose cold rows decode inline while the
  // scanners' prefetches run and the flapper demotes hot blocks.
  for (int t = 0; t < kBatchers; ++t) {
    threads.emplace_back([&, t] {
      Rng local(50 + t);
      for (int op = 0; op < kOpsPerThread; ++op) {
        std::vector<std::string> batch;
        std::vector<size_t> rows;
        for (int i = 0; i < 24; ++i) {
          rows.push_back(local.Uniform(kRows));
          batch.push_back("k" + std::to_string(rows.back()));
        }
        auto ptrs = table->MultiGet(batch);
        ASSERT_EQ(ptrs.size(), batch.size());
        for (size_t i = 0; i < rows.size(); ++i) {
          if (ptrs[i] == nullptr) continue;  // Fault-degraded cold slot.
          if (!legal(rows[i], ptrs[i])) illegal.fetch_add(1);
          served.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Scanners drive the next-block prefetch pipeline.
  for (int t = 0; t < kScanners; ++t) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        size_t seen = 0;
        Status status = table->tier()->ScanBlocks(
            [&](size_t row0, size_t nrows, const float* block_rows_ptr) {
              seen += nrows;
              for (size_t r = 0; r < nrows; ++r) {
                if (!legal(row0 + r, block_rows_ptr + r * kDim)) {
                  illegal.fetch_add(1);
                }
              }
            });
        if (status.ok()) {
          ASSERT_EQ(seen, kRows);
        }
      }
    });
  }
  // Budget flapper: eviction races in-flight prefetch materialization.
  threads.emplace_back([&] {
    Rng local(61);
    while (!stop.load(std::memory_order_relaxed)) {
      table->tier()->SetHotLimit(local.Uniform(5));
      std::this_thread::yield();
    }
  });
  // io.readahead flaps: prefetch degrades to demand loading mid-batch.
  threads.emplace_back([&] {
    for (int i = 0; i < 30 && !stop.load(std::memory_order_relaxed); ++i) {
      FailpointConfig config;
      config.probability = 0.4;
      {
        ScopedFailpoint fp("io.readahead", config);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (int t = 0; t < kBatchers; ++t) threads[t].join();
  stop.store(true);
  for (size_t t = kBatchers; t < threads.size(); ++t) threads[t].join();
  FailpointRegistry::Instance().DisarmAll();

  EXPECT_EQ(illegal.load(), 0u)
      << "a row was served that is neither exact nor dequantized";
  EXPECT_GT(served.load(), 0u);

  const EmbeddingTierStats stats = table->tier()->stats();
  EXPECT_EQ(stats.readahead.in_flight, 0u);
  EXPECT_EQ(stats.readahead.issued, stats.readahead.completed);
  EXPECT_GE(stats.hot_hits + stats.cold_misses, served.load());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mlfs
