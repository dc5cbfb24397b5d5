// Shared block-I/O subsystem concurrency soak (CTest label: stress; run
// under TSan).
//
// The io/ primitives raced directly: prefetch threads driving a
// ReadaheadScheduler over one key space (dedup, drops, ready-queue aging),
// a spill thread churning BlockFile spill/map/advise/unmap cycles, and a
// failpoint thread arming io.load/io.readahead underneath everyone.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/rng.h"
#include "io/block_file.h"
#include "io/readahead.h"

namespace mlfs {
namespace {

constexpr uint32_t kMagic = 0x4f495453;  // "STIO"
constexpr uint32_t kVersion = 1;

// One block's payload: kPayloadWords words of a block-id pattern, so a
// consumer can detect torn or misrouted payloads.
constexpr size_t kPayloadWords = 64;

ReadaheadScheduler::Payload MakeBlockPayload(size_t block) {
  auto words = std::make_shared<std::vector<uint64_t>>(kPayloadWords);
  for (size_t i = 0; i < kPayloadWords; ++i) {
    (*words)[i] = block * 1000003ULL + i;
  }
  return std::static_pointer_cast<const void>(
      std::static_pointer_cast<const std::vector<uint64_t>>(words));
}

bool PayloadIntact(const ReadaheadScheduler::Payload& p, size_t block) {
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
  constexpr int kPrefetchers = 2;
  constexpr int kOpsPerThread = 600;

  ReadaheadOptions ra;
  ra.enabled = true;
  ra.threads = 2;
  ra.max_in_flight = 6;
  ReadaheadScheduler scheduler(ra);

  std::atomic<bool> stop{false};
  std::atomic<bool> flaps_done{false};
  std::atomic<uint64_t> corrupt{0};

  std::vector<std::thread> threads;
  // Prefetchers: schedule materialization of random blocks, then consume
  // and verify — racing dedup, drops, and the failpoint flapper, until it
  // has run all its cycles.
  for (int t = 0; t < kPrefetchers; ++t) {
    threads.emplace_back([&, t] {
      Rng local(20 + t);
      for (int op = 0; op < kOpsPerThread || !flaps_done.load(); ++op) {
        const size_t block = local.Uniform(kBlocks);
        scheduler.Prefetch(block, [block] { return MakeBlockPayload(block); });
        const size_t consume = local.Uniform(kBlocks);
        ReadaheadScheduler::Payload p = scheduler.Consume(consume);
        if (p != nullptr && !PayloadIntact(p, consume)) corrupt.fetch_add(1);
      }
    });
  }
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
    for (int i = 0; i < 30; ++i) {
      FailpointConfig config;
      config.probability = 0.3;
      {
        ScopedFailpoint load("io.load", config);
        ScopedFailpoint prefetch("io.readahead", config);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    flaps_done.store(true);
  });

  for (int t = 0; t < kPrefetchers; ++t) threads[t].join();
  stop.store(true);
  for (size_t t = kPrefetchers; t < threads.size(); ++t) threads[t].join();
  scheduler.Drain();
  FailpointRegistry::Instance().DisarmAll();

  EXPECT_EQ(corrupt.load(), 0u);
  const ReadaheadStats rs = scheduler.stats();
  EXPECT_EQ(rs.in_flight, 0u);
  EXPECT_EQ(rs.issued, rs.completed);
  EXPECT_LE(rs.hits, rs.issued);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mlfs
