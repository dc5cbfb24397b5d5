// Shared block-I/O subsystem concurrency soak (CTest label: stress; run
// under TSan).
//
// The BlockFile spill path raced against fault injection: a spill thread
// churning seal/atomic-write/map/unmap cycles while a failpoint thread
// arms io.load (the map inside every spill) underneath it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>

#include "common/failpoint.h"
#include "common/rng.h"
#include "io/block_file.h"

namespace mlfs {
namespace {

constexpr uint32_t kMagic = 0x4f495453;  // "STIO"
constexpr uint32_t kVersion = 1;

TEST(IoStressTest, SpillChurnRacesIoLoadFaults) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "mlfs_io_stress")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  std::atomic<bool> flaps_done{false};
  uint64_t spilled = 0;
  uint64_t corrupt = 0;
  // Spill churn: seal + atomic-write + map + read + unmap in a loop until
  // the flapper has run all its cycles. A faulted spill must surface as a
  // status and leave no file behind; a successful one must map its bytes.
  std::thread churn([&] {
    Rng local(41);
    int seq = 0;
    while (!flaps_done.load()) {
      const std::string body(1024 + local.Uniform(4096), 'b');
      const std::string path =
          dir + "/churn_" + std::to_string(seq++) + ".blk";
      auto file = BlockFile::Spill(kMagic, kVersion,
                                   BlockFile::Seal(kMagic, kVersion, body),
                                   path, /*remove_file_on_destroy=*/true,
                                   "stress blob");
      if (file.ok()) {
        ++spilled;
        if ((*file)->body() != body) ++corrupt;
      }
      std::this_thread::yield();
    }
  });
  // Failpoint flapper: io.load degrades spills, never corrupts them.
  std::thread flapper([&] {
    for (int i = 0; i < 30; ++i) {
      FailpointConfig config;
      config.probability = 0.3;
      {
        ScopedFailpoint load("io.load", config);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    flaps_done.store(true);
  });
  flapper.join();
  churn.join();
  FailpointRegistry::Instance().DisarmAll();

  EXPECT_EQ(corrupt, 0u);
  EXPECT_GT(spilled, 0u);
  // Every mapping was dropped and every failed spill cleaned up after
  // itself: no orphan file is left.
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mlfs
