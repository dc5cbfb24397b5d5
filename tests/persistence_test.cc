#include "storage/persistence.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>

#include "common/rng.h"
#include "core/feature_store.h"

namespace mlfs {
namespace {

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("mlfs_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(PersistenceTest, FileRoundTrip) {
  std::string path = dir_ + "/sub/file.bin";
  std::string data("\x00\x01binary\xff", 9);
  ASSERT_TRUE(WriteFileAtomic(path, data).ok());
  EXPECT_EQ(ReadBytes(path), data);
  // Overwrite is atomic and replaces content; a durable write too.
  ASSERT_TRUE(WriteFileAtomic(path, "short").ok());
  EXPECT_EQ(ReadBytes(path), "short");
  ASSERT_TRUE(WriteFileAtomic(path, "durable", /*durable=*/true).ok());
  EXPECT_EQ(ReadBytes(path), "durable");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

OfflineTableOptions TableOptions(const std::string& name) {
  OfflineTableOptions options;
  options.name = name;
  options.schema =
      Schema::Create({{"entity", FeatureType::kInt64, false},
                      {"event_time", FeatureType::kTimestamp, false},
                      {"v", FeatureType::kDouble, true},
                      {"emb", FeatureType::kEmbedding, true}})
          .value();
  options.entity_column = "entity";
  options.time_column = "event_time";
  return options;
}

void FillTable(OfflineStore* store, const std::string& name, uint64_t seed) {
  auto options = TableOptions(name);
  ASSERT_TRUE(store->CreateTable(options).ok());
  auto table = store->GetTable(name).value();
  Rng rng(seed);
  for (int i = 0; i < 200; ++i) {
    std::vector<float> emb(4);
    for (auto& x : emb) x = static_cast<float>(rng.Gaussian());
    ASSERT_TRUE(
        table
            ->Append(Row::Create(options.schema,
                                 {Value::Int64(rng.UniformInt(0, 20)),
                                  Value::Time(rng.Uniform(Days(3))),
                                  rng.Bernoulli(0.1)
                                      ? Value::Null()
                                      : Value::Double(rng.Gaussian()),
                                  Value::Embedding(emb)})
                         .value())
            .ok());
  }
}

TEST_F(PersistenceTest, OfflineStoreCheckpointRestore) {
  FeatureStore original;
  FillTable(&original.offline(), "alpha", 1);
  FillTable(&original.offline(), "beta", 2);
  ASSERT_TRUE(original.Checkpoint(dir_).ok());

  FeatureStore restored;
  const Status status = restored.RestoreCheckpoint(dir_);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(restored.offline().TableNames(),
            (std::vector<std::string>{"alpha", "beta"}));
  auto original_table = original.offline().GetTable("alpha").value();
  auto restored_table = restored.offline().GetTable("alpha").value();
  EXPECT_EQ(restored_table->num_rows(), original_table->num_rows());
  EXPECT_EQ(restored_table->max_event_time(),
            original_table->max_event_time());
  EXPECT_EQ(restored_table->options().entity_column, "entity");
  // As-of parity on probes.
  for (int64_t entity = 0; entity < 20; ++entity) {
    auto a = original_table->AsOf(Value::Int64(entity), Days(2));
    auto b = restored_table->AsOf(Value::Int64(entity), Days(2));
    ASSERT_EQ(a.ok(), b.ok());
    if (a.ok()) {
      EXPECT_EQ(*a, *b);
    }
  }
  // The restored store is no longer fresh, so a second restore is refused.
  EXPECT_TRUE(restored.RestoreCheckpoint(dir_).IsFailedPrecondition());
  EXPECT_EQ(restored.offline().TableNames().size(), 2u);
}

TEST_F(PersistenceTest, OfflineTableFromSnapshotStandalone) {
  OfflineStore store;
  FillTable(&store, "gamma", 3);
  auto table = store.GetTable("gamma").value();
  auto rebuilt = OfflineTable::FromSnapshot(table->Snapshot());
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  EXPECT_EQ((*rebuilt)->name(), "gamma");
  EXPECT_EQ((*rebuilt)->num_rows(), table->num_rows());
  EXPECT_FALSE(OfflineTable::FromSnapshot("junk").ok());
}

TEST_F(PersistenceTest, OnlineStoreSnapshotRestore) {
  OnlineStoreOptions options;
  options.num_shards = 8;
  OnlineStore original(options);
  auto schema = Schema::Create({{"v", FeatureType::kDouble, true}}).value();
  ASSERT_TRUE(original.CreateView("f1", schema).ok());
  ASSERT_TRUE(original.CreateView("f2", schema).ok());
  Rng rng(4);
  for (int64_t e = 0; e < 100; ++e) {
    Row row =
        Row::Create(schema, {Value::Double(rng.Gaussian())}).value();
    ASSERT_TRUE(original.Put("f1", Value::Int64(e), row, Hours(e % 5),
                             Hours(e % 5), Hours(100))
                    .ok());
    if (e % 2 == 0) {
      ASSERT_TRUE(
          original.Put("f2", Value::String("k" + std::to_string(e)), row,
                       Hours(1), Hours(1))
              .ok());
    }
  }
  const std::string snapshot = original.Snapshot();

  // Restore into a store with a different shard count.
  OnlineStoreOptions other;
  other.num_shards = 3;
  OnlineStore restored(other);
  ASSERT_TRUE(restored.Restore(snapshot).ok());
  EXPECT_EQ(restored.stats().num_cells, original.stats().num_cells);
  EXPECT_TRUE(restored.HasView("f1"));
  EXPECT_TRUE(restored.HasView("f2"));
  for (int64_t e = 0; e < 100; ++e) {
    auto a = original.Get("f1", Value::Int64(e), Hours(50));
    auto b = restored.Get("f1", Value::Int64(e), Hours(50));
    ASSERT_EQ(a.ok(), b.ok()) << e;
    if (a.ok()) {
      EXPECT_EQ(*a, *b);
    }
  }
  // TTLs survive: everything expires after 105h.
  EXPECT_EQ(restored.EvictExpired(Hours(200)), 100u);

  // Restoring into a store that already has views is refused.
  EXPECT_TRUE(restored.Restore(snapshot).IsFailedPrecondition());
  EXPECT_EQ(restored.num_views(), 2u);
}

TEST_F(PersistenceTest, CorruptSnapshotsRejected) {
  OnlineStore store;
  EXPECT_EQ(store.Restore("garbage").code(), StatusCode::kCorruption);
  EXPECT_EQ(store.num_views(), 0u);
  // A directory without a checkpoint file, and no directory at all.
  FeatureStore feature_store;
  ASSERT_TRUE(WriteFileAtomic(dir_ + "/other.bin", "x").ok());
  EXPECT_TRUE(feature_store.RestoreCheckpoint(dir_).IsNotFound());
  EXPECT_TRUE(feature_store.RestoreCheckpoint(dir_ + "/missing").IsNotFound());
}

}  // namespace
}  // namespace mlfs
