// Columnar-tier concurrency soak (CTest label: stress; run under TSan).
//
// Races the storage tier's every moving part at once: writer threads
// appending batches, reader threads issuing AsOfBatch (full-width and
// projected, with miss bitmaps), scans and latest-per-entity queries,
// explicit maintenance calls, AND a maintenance thread calling
// RunMaintenance every millisecond to seal/compact/spill underneath them.
// Asserts the invariants the differential suite pins single-threaded: no
// row lost or duplicated, tier transitions invisible to readers, stats
// coherent.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "storage/offline_store.h"

namespace mlfs {
namespace {

constexpr int kWriters = 3;
constexpr int kReaders = 3;
constexpr int kBatchesPerWriter = 120;
constexpr int kRowsPerBatch = 16;
constexpr int64_t kKeys = 24;

SchemaPtr StressSchema() {
  return Schema::Create({{"key", FeatureType::kInt64, false},
                         {"event_time", FeatureType::kTimestamp, false},
                         {"payload", FeatureType::kString, true},
                         {"metric", FeatureType::kDouble, true}})
      .value();
}

/// Calls RunMaintenance about once a millisecond on a thread of its own
/// until destroyed, so seal/compact/spill race everything else the test
/// runs. A failed pass is counted in storage_stats().maintenance_errors.
class MaintenanceThread {
 public:
  explicit MaintenanceThread(OfflineTable* table)
      : thread_([this, table] {
          while (!stop_.load(std::memory_order_acquire)) {
            (void)table->RunMaintenance();
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }) {}
  ~MaintenanceThread() {
    stop_.store(true, std::memory_order_release);
    thread_.join();
  }
  MaintenanceThread(const MaintenanceThread&) = delete;
  MaintenanceThread& operator=(const MaintenanceThread&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

TEST(ColumnarStressTest, MaintenanceRacesReadersAndWriters) {
  const std::string spill_dir =
      (std::filesystem::path(::testing::TempDir()) / "mlfs_columnar_stress")
          .string();
  const SchemaPtr schema = StressSchema();
  OfflineTableOptions options;
  options.name = "stress";
  options.schema = schema;
  options.entity_column = "key";
  options.time_column = "event_time";
  options.seal_rows = 32;
  options.compact_min_segments = 2;
  options.memory_budget_bytes = 16 * 1024;
  options.spill_dir = spill_dir;
  auto table = OfflineTable::Create(options).value();
  auto maintenance = std::make_unique<MaintenanceThread>(table.get());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> rows_written{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Rng rng(0x11 * (w + 1));
      for (int b = 0; b < kBatchesPerWriter; ++b) {
        std::vector<Row> rows;
        for (int i = 0; i < kRowsPerBatch; ++i) {
          rows.push_back(
              Row::Create(
                  schema,
                  {Value::Int64(static_cast<int64_t>(rng.Uniform(kKeys))),
                   Value::Time(Hours(rng.Uniform(24 * 14))),
                   Value::String("payload_" + std::to_string(b) + "_" +
                                 std::to_string(i)),
                   Value::Double(rng.Gaussian())})
                  .value());
        }
        ASSERT_TRUE(table->AppendBatch(rows).ok());
        rows_written.fetch_add(rows.size(), std::memory_order_relaxed);
        if (rng.Bernoulli(0.1)) {
          // Explicit maintenance racing the maintenance thread.
          ASSERT_TRUE(table->RunMaintenance().ok());
        }
      }
    });
  }

  std::vector<std::thread> readers;
  std::vector<int> proj_columns = {1, 3};  // event_time + metric.
  const SchemaPtr proj_schema =
      Schema::Create({schema->field(1), schema->field(3)}).value();
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(0x37 * (r + 1));
      std::vector<std::string> keys;
      while (!stop.load(std::memory_order_acquire)) {
        // Sorted request batch over random keys/timestamps.
        keys.clear();
        for (int64_t k = 0; k < kKeys; k += 1 + rng.Uniform(4)) {
          keys.push_back(std::to_string(k));
        }
        std::sort(keys.begin(), keys.end());
        std::vector<AsOfRequest> requests;
        requests.reserve(keys.size());
        for (const std::string& key : keys) {
          requests.push_back({key, Hours(rng.Uniform(24 * 14))});
        }
        std::vector<Row> results(requests.size());
        std::vector<uint64_t> miss_bitmap;
        AsOfReadOptions read_options;
        read_options.miss_bitmap = &miss_bitmap;
        if (rng.Bernoulli(0.5)) {
          read_options.columns = proj_columns;
          read_options.projected_schema = proj_schema;
        }
        ASSERT_TRUE(table
                        ->AsOfBatch(std::span<const AsOfRequest>(requests),
                                    std::span<Row>(results), read_options)
                        .ok());
        // Hits and bitmap must agree even mid-seal/compact/spill.
        for (size_t i = 0; i < requests.size(); ++i) {
          if (!MissBitmapTest(miss_bitmap, i)) {
            ASSERT_NE(results[i].schema(), nullptr);
          }
        }
        const size_t scanned = table->Scan({Hours(10), Hours(100)})->size();
        (void)scanned;
        (void)table->LatestPerEntityAsOf(Hours(rng.Uniform(24 * 14)));
        (void)table->storage_stats();
      }
    });
  }

  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  maintenance.reset();

  // Nothing lost or duplicated across every seal/compact/spill that ran.
  EXPECT_EQ(table->num_rows(),
            rows_written.load(std::memory_order_relaxed));
  EXPECT_EQ(table->Scan({})->size(), table->num_rows());
  const OfflineStorageStats stats = table->storage_stats();
  EXPECT_EQ(stats.head_rows + stats.sealed_rows, table->num_rows());
  EXPECT_EQ(stats.maintenance_errors, 0u);

  table.reset();
  std::error_code ec;
  std::filesystem::remove_all(spill_dir, ec);
}

// Snapshot taken while writers/maintenance race must itself be internally
// consistent (restorable, checksums valid) — it sees one locked view.
TEST(ColumnarStressTest, SnapshotUnderConcurrentMaintenanceIsConsistent) {
  const SchemaPtr schema = StressSchema();
  OfflineTableOptions options;
  options.name = "snap_race";
  options.schema = schema;
  options.entity_column = "key";
  options.time_column = "event_time";
  options.seal_rows = 16;
  options.compact_min_segments = 2;
  auto table = OfflineTable::Create(options).value();
  auto maintenance = std::make_unique<MaintenanceThread>(table.get());

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Rng rng(0x99);
    while (!stop.load(std::memory_order_acquire)) {
      std::vector<Row> rows;
      for (int i = 0; i < 8; ++i) {
        rows.push_back(
            Row::Create(schema,
                        {Value::Int64(static_cast<int64_t>(rng.Uniform(8))),
                         Value::Time(Hours(rng.Uniform(24 * 7))),
                         Value::Null(), Value::Double(1.0)})
                .value());
      }
      ASSERT_TRUE(table->AppendBatch(rows).ok());
    }
  });

  for (int i = 0; i < 50; ++i) {
    auto restored = OfflineTable::FromSnapshot(table->Snapshot());
    ASSERT_TRUE(restored.ok()) << restored.status();
    EXPECT_EQ((*restored)->num_rows(), (*restored)->Scan({})->size());
  }
  stop.store(true, std::memory_order_release);
  writer.join();
  maintenance.reset();
}

}  // namespace
}  // namespace mlfs
