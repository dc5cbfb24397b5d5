#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/hash.h"
#include "io/block_file.h"

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

}  // namespace
}  // namespace mlfs
