#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/hash.h"
#include "io/block_file.h"
#include "io/readahead.h"

namespace mlfs {
namespace {

constexpr uint32_t kMagic = 0x54534554;  // "TEST"
constexpr uint32_t kVersion = 3;

class IoBlockTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("mlfs_io_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_);
    FailpointRegistry::Instance().DisarmAll();
  }
  void TearDown() override {
    FailpointRegistry::Instance().DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  std::string dir_;
};

// --- Checksum64 (the envelope trailer) -----------------------------------

// Lengths 0-100 cross the 32-byte lane block, the whole-word tail and the
// zero-padded partial word: at each, every single-byte change (all 255
// XOR deltas at every position) must change the checksum.
TEST(ChecksumTest, AnySingleByteChangeChangesChecksum) {
  std::string bytes(100, '\0');
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>(i * 37 + 11);
  }
  for (size_t len = 0; len <= bytes.size(); ++len) {
    std::string data = bytes.substr(0, len);
    const uint64_t base = Checksum64(data.data(), len);
    for (size_t pos = 0; pos < len; ++pos) {
      const char orig = data[pos];
      for (unsigned delta = 1; delta < 256; ++delta) {
        data[pos] = static_cast<char>(orig ^ static_cast<char>(delta));
        ASSERT_NE(Checksum64(data.data(), len), base)
            << "len " << len << " pos " << pos << " delta " << delta;
      }
      data[pos] = orig;
    }
  }
}

// The length is mixed in: zero runs of different lengths, which pad to
// the same words, still differ.
TEST(ChecksumTest, LengthIsMixedIn) {
  const std::string zeros(100, '\0');
  std::vector<uint64_t> sums;
  for (size_t len = 0; len <= zeros.size(); ++len) {
    sums.push_back(Checksum64(zeros.data(), len));
  }
  std::sort(sums.begin(), sums.end());
  EXPECT_EQ(std::adjacent_find(sums.begin(), sums.end()), sums.end());
}

// --- BlockFile -----------------------------------------------------------

TEST_F(IoBlockTest, SealRoundTripsThroughFromBytes) {
  const std::string body = "the quick brown fox";
  std::string blob = BlockFile::Seal(kMagic, kVersion, body);
  EXPECT_EQ(blob.size(),
            BlockFile::kPreludeBytes + body.size() + BlockFile::kTrailerBytes);
  auto file = BlockFile::FromBytes(kMagic, kVersion, blob, "test blob");
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ((*file)->body(), body);
  EXPECT_EQ((*file)->data(), std::string_view(blob));
  EXPECT_FALSE((*file)->mapped());
}

TEST_F(IoBlockTest, EveryTruncationIsCorruptionNeverUB) {
  std::string blob = BlockFile::Seal(kMagic, kVersion, "truncation sweep body");
  for (size_t len = 0; len < blob.size(); ++len) {
    auto file =
        BlockFile::FromBytes(kMagic, kVersion, blob.substr(0, len), "trunc");
    ASSERT_FALSE(file.ok()) << "prefix of " << len << " bytes must not parse";
    EXPECT_EQ(file.status().code(), StatusCode::kCorruption);
  }
}

TEST_F(IoBlockTest, EverySingleBitFlipIsDetected) {
  std::string blob = BlockFile::Seal(kMagic, kVersion, "bit flip sweep body");
  for (size_t byte = 0; byte < blob.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = blob;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      auto file = BlockFile::FromBytes(kMagic, kVersion, corrupt, "flip");
      ASSERT_FALSE(file.ok())
          << "flip of bit " << bit << " in byte " << byte << " undetected";
      EXPECT_EQ(file.status().code(), StatusCode::kCorruption);
    }
  }
}

TEST_F(IoBlockTest, WrongMagicAndVersionAreRejected) {
  std::string blob = BlockFile::Seal(kMagic, kVersion, "body");
  EXPECT_FALSE(BlockFile::FromBytes(kMagic + 1, kVersion, blob, "m").ok());
  EXPECT_FALSE(BlockFile::FromBytes(kMagic, kVersion + 1, blob, "v").ok());
}

TEST_F(IoBlockTest, SpillWritesValidatesAndRemovesOnDestroy) {
  const std::string body(4096, 'x');
  const std::string path = dir_ + "/spill.blk";
  {
    auto file = BlockFile::Spill(kMagic, kVersion,
                                 BlockFile::Seal(kMagic, kVersion, body), path,
                                 /*remove_file_on_destroy=*/true, "scratch");
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    EXPECT_TRUE((*file)->mapped());
    EXPECT_EQ((*file)->path(), path);
    EXPECT_EQ((*file)->body(), body);
    EXPECT_TRUE(std::filesystem::exists(path));
    // Readahead plumbing on a mapped file must be safe over any range.
    (*file)->AdviseWillNeed(0, (*file)->size());
    (*file)->TouchPages(0, (*file)->size());
    (*file)->AdviseWillNeed((*file)->size() + 10, 5);  // Out of range: no-op.
  }
  EXPECT_FALSE(std::filesystem::exists(path)) << "scratch file must be removed";
}

TEST_F(IoBlockTest, SpillKeepsCheckpointFilesOnDestroy) {
  const std::string path = dir_ + "/keep.blk";
  {
    auto file = BlockFile::Spill(kMagic, kVersion,
                                 BlockFile::Seal(kMagic, kVersion, "keep me"),
                                 path, /*remove_file_on_destroy=*/false, "ck");
    ASSERT_TRUE(file.ok());
  }
  EXPECT_TRUE(std::filesystem::exists(path));
  auto reopened = BlockFile::Map(kMagic, kVersion, path,
                                 /*remove_file_on_destroy=*/false, "ck");
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->body(), "keep me");
}

TEST_F(IoBlockTest, MapOfCorruptFileFailsAndSpillCleansUp) {
  const std::string path = dir_ + "/bad.blk";
  std::string blob = BlockFile::Seal(kMagic, kVersion, "soon corrupt");
  blob[BlockFile::kPreludeBytes] ^= 0x40;  // Flip a body bit pre-spill.
  auto file = BlockFile::Spill(kMagic, kVersion, blob, path, true, "bad");
  ASSERT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), StatusCode::kCorruption);
  EXPECT_FALSE(std::filesystem::exists(path))
      << "failed spill must not leave a file behind";
  EXPECT_EQ(BlockFile::Map(kMagic, kVersion, dir_ + "/absent.blk", false, "x")
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(IoBlockTest, IoLoadFailpointDegradesMapCleanly) {
  const std::string path = dir_ + "/fp.blk";
  ASSERT_TRUE(BlockFile::Spill(kMagic, kVersion,
                               BlockFile::Seal(kMagic, kVersion, "fp body"),
                               path, /*remove_file_on_destroy=*/false, "fp")
                  .ok());
  {
    ScopedFailpoint fp("io.load",
                       {.status = Status::Internal("injected io fault")});
    auto file = BlockFile::Map(kMagic, kVersion, path, false, "fp");
    ASSERT_FALSE(file.ok());
    EXPECT_EQ(file.status().code(), StatusCode::kInternal);
  }
  // Disarmed: the same open succeeds — the fault injected no lasting state.
  EXPECT_TRUE(BlockFile::Map(kMagic, kVersion, path, false, "fp").ok());
}

// --- ReadaheadScheduler --------------------------------------------------

ReadaheadOptions EnabledReadahead(size_t max_in_flight = 8) {
  ReadaheadOptions options;
  options.enabled = true;
  options.max_in_flight = max_in_flight;
  return options;
}

TEST_F(IoBlockTest, PrefetchConsumeIsAHit) {
  ReadaheadScheduler scheduler(EnabledReadahead());
  scheduler.Prefetch(42, [] {
    return std::static_pointer_cast<const void>(
        std::make_shared<const int>(1042));
  });
  ReadaheadScheduler::Payload p = scheduler.Consume(42);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(*static_cast<const int*>(p.get()), 1042);
  const ReadaheadStats stats = scheduler.stats();
  EXPECT_EQ(stats.issued, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 0u);
  // A second consume of the same key is a miss: the payload was claimed.
  EXPECT_EQ(scheduler.Consume(42), nullptr);
  EXPECT_EQ(scheduler.stats().misses, 1u);
}

TEST_F(IoBlockTest, ConsumeWithoutPrefetchIsAMiss) {
  ReadaheadScheduler scheduler(EnabledReadahead());
  EXPECT_EQ(scheduler.Consume(7), nullptr);
  EXPECT_EQ(scheduler.stats().misses, 1u);
  EXPECT_EQ(scheduler.stats().hits, 0u);
}

TEST_F(IoBlockTest, DisabledSchedulerNoOpsWithoutCounting) {
  ReadaheadScheduler scheduler(ReadaheadOptions{});
  EXPECT_FALSE(scheduler.enabled());
  scheduler.Prefetch(1, []() -> ReadaheadScheduler::Payload {
    ADD_FAILURE() << "disabled scheduler must not run jobs";
    return nullptr;
  });
  EXPECT_EQ(scheduler.Consume(1), nullptr);
  const ReadaheadStats stats = scheduler.stats();
  EXPECT_EQ(stats.issued, 0u);
  EXPECT_EQ(stats.hits + stats.misses, 0u);
  scheduler.Drain();
}

TEST_F(IoBlockTest, DuplicatePrefetchesDedupe) {
  ReadaheadScheduler scheduler(EnabledReadahead());
  auto job = [] {
    return std::static_pointer_cast<const void>(std::make_shared<const int>(5));
  };
  scheduler.Prefetch(9, job);
  scheduler.Drain();
  scheduler.Prefetch(9, job);  // Already materialized: deduped.
  EXPECT_EQ(scheduler.stats().issued, 1u);
  EXPECT_EQ(scheduler.stats().deduped, 1u);
  EXPECT_NE(scheduler.Consume(9), nullptr);
}

TEST_F(IoBlockTest, UnconsumedPrefetchesAgeOutAsWasted) {
  ReadaheadScheduler scheduler(EnabledReadahead(/*max_in_flight=*/256));
  // Overflow the bounded ready FIFO so the oldest results age out.
  for (uint64_t key = 0; key < 80; ++key) {
    scheduler.Prefetch(key, [key] {
      return std::static_pointer_cast<const void>(
          std::make_shared<const uint64_t>(key));
    });
    scheduler.Drain();  // Serialize so drops are deterministic-ish.
  }
  const ReadaheadStats stats = scheduler.stats();
  EXPECT_EQ(stats.issued, 80u);
  EXPECT_GT(stats.wasted, 0u);
  // The newest result is still parked; the oldest aged out.
  EXPECT_NE(scheduler.Consume(79), nullptr);
  EXPECT_EQ(scheduler.Consume(0), nullptr);
}

TEST_F(IoBlockTest, ReadaheadFailpointSkipsPrefetchAndCountsFault) {
  ReadaheadScheduler scheduler(EnabledReadahead());
  {
    ScopedFailpoint fp("io.readahead",
                       {.status = Status::Internal("injected readahead")});
    scheduler.Prefetch(3, []() -> ReadaheadScheduler::Payload {
      ADD_FAILURE() << "faulted prefetch must not run";
      return nullptr;
    });
  }
  EXPECT_EQ(scheduler.stats().faults, 1u);
  EXPECT_EQ(scheduler.stats().issued, 0u);
  // The demand path is untouched: consume misses and the caller loads.
  EXPECT_EQ(scheduler.Consume(3), nullptr);
  EXPECT_EQ(scheduler.stats().misses, 1u);
}

TEST_F(IoBlockTest, InFlightLimitDropsExcessPrefetches) {
  ReadaheadScheduler scheduler(EnabledReadahead(/*max_in_flight=*/1));
  std::atomic<bool> release{false};
  scheduler.Prefetch(1, [&release]() -> ReadaheadScheduler::Payload {
    while (!release.load()) {
    }
    return std::static_pointer_cast<const void>(std::make_shared<const int>(1));
  });
  scheduler.Prefetch(2, []() -> ReadaheadScheduler::Payload {
    ADD_FAILURE() << "over-limit prefetch must be dropped, not queued";
    return nullptr;
  });
  EXPECT_EQ(scheduler.stats().dropped, 1u);
  release.store(true);
  EXPECT_NE(scheduler.Consume(1), nullptr);
  EXPECT_EQ(scheduler.Consume(2), nullptr);  // Dropped: a miss.
}

}  // namespace
}  // namespace mlfs
