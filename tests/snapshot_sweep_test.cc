// Snapshot decoder sweeps: the six component snapshots (online store,
// offline table, feature registry, lineage graph, embedding store, model
// registry) and the FeatureStore checkpoint file are BlockFile envelopes.
// Every truncation and every single-byte change must be Corruption and
// leave the restored-into component empty; a body mutated and re-sealed
// with a valid checksum must still come back as a Status, never a crash;
// and a crafted element count must be Corruption, not an allocation.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/serde.h"
#include "core/feature_store.h"
#include "io/block_file.h"
#include "storage/persistence.h"

namespace mlfs {
namespace {

namespace fs = std::filesystem;

// Restores one snapshot into a fresh instance of its component. Sets
// *empty to whether that instance, and the lineage graph it records into,
// still hold nothing afterwards.
using RestoreFn =
    std::function<Status(std::string_view snapshot, bool* empty)>;

struct Component {
  std::string name;
  std::string snapshot;
  RestoreFn restore;
};

// The body between a sealed blob's prelude and trailer.
std::string Body(std::string_view sealed) {
  return std::string(sealed.substr(
      BlockFile::kPreludeBytes,
      sealed.size() - BlockFile::kPreludeBytes - BlockFile::kTrailerBytes));
}

// Wraps `body` in the envelope `like` carries (same magic and version),
// with a correct checksum.
std::string Reseal(std::string_view like, std::string_view body) {
  uint32_t magic = 0;
  uint32_t version = 0;
  std::memcpy(&magic, like.data(), sizeof(magic));
  std::memcpy(&version, like.data() + sizeof(magic), sizeof(version));
  return BlockFile::Seal(magic, version, body);
}

SchemaPtr SourceSchema() {
  return Schema::Create({{"key", FeatureType::kString, false},
                         {"event_time", FeatureType::kTimestamp, false},
                         {"v", FeatureType::kDouble, true},
                         {"e", FeatureType::kEmbedding, true}})
      .value();
}

OfflineTableOptions SourceTable() {
  OfflineTableOptions options;
  options.name = "src";
  options.schema = SourceSchema();
  options.entity_column = "key";
  options.time_column = "event_time";
  options.seal_rows = 8;
  return options;
}

std::vector<Row> SourceRows(size_t n) {
  const SchemaPtr schema = SourceSchema();
  std::vector<Row> rows;
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(
        Row::Create(schema,
                    {Value::String("k" + std::to_string(i % 5)),
                     Value::Time(Hours(static_cast<Timestamp>(i % 7))),
                     i % 4 == 0 ? Value::Null()
                                : Value::Double(static_cast<double>(i) / 3),
                     i % 3 == 0 ? Value::Null()
                                : Value::Embedding({1.0f * i, -2.0f})})
            .value());
  }
  return rows;
}

EmbeddingTablePtr Table(const std::string& name, size_t n, size_t dim) {
  EmbeddingTableMetadata metadata;
  metadata.name = name;
  std::vector<std::string> keys;
  std::vector<float> vectors;
  for (size_t i = 0; i < n; ++i) {
    keys.push_back(name + std::to_string(i));
    for (size_t d = 0; d < dim; ++d) {
      vectors.push_back(static_cast<float>(i) - static_cast<float>(d) / 4);
    }
  }
  return EmbeddingTable::Create(metadata, keys, vectors, dim).value();
}

bool Fresh(FeatureStore& store) {
  return store.offline().TableNames().empty() &&
         store.online().num_views() == 0 &&
         store.registry().num_features() == 0 &&
         store.embeddings().num_tables() == 0 &&
         store.models().num_models() == 0 &&
         store.lineage().num_artifacts() == 0 && store.clock().now() == 0;
}

class SnapshotSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailpointRegistry::Instance().DisarmAll();
    dir_ = (fs::temp_directory_path() /
            ("mlfs_sweep_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override {
    FailpointRegistry::Instance().DisarmAll();
    fs::remove_all(dir_);
  }

  // One small, populated sample of each component.
  std::vector<Component> Components() const {
    std::vector<Component> out;
    {
      OnlineStore store;
      const SchemaPtr schema = SourceSchema();
      EXPECT_TRUE(store.CreateView("a", schema).ok());
      EXPECT_TRUE(store.CreateView("b", schema).ok());
      const std::vector<Row> rows = SourceRows(6);
      for (size_t i = 0; i < rows.size(); ++i) {
        const Timestamp t = Hours(static_cast<Timestamp>(i));
        EXPECT_TRUE(store
                        .Put(i % 2 ? "a" : "b", Value::Int64(i), rows[i], t,
                             t, i % 3 ? Hours(5) : 0)
                        .ok());
      }
      out.push_back({"online store", store.Snapshot(),
                     [](std::string_view snapshot, bool* empty) {
                       OnlineStore fresh;
                       const Status s = fresh.Restore(snapshot);
                       *empty = fresh.num_views() == 0 &&
                                fresh.stats().num_cells == 0;
                       return s;
                     }});
    }
    {
      auto table = OfflineTable::Create(SourceTable()).value();
      EXPECT_TRUE(table->AppendBatch(SourceRows(12)).ok());
      EXPECT_GT(table->storage_stats().sealed_segments, 0u);
      EXPECT_GT(table->storage_stats().head_rows, 0u);
      out.push_back({"offline table", table->Snapshot(),
                     [](std::string_view snapshot, bool* empty) {
                       auto restored = OfflineTable::FromSnapshot(snapshot);
                       *empty = !restored.ok();
                       return restored.status();
                     }});
    }
    {
      OfflineStore offline;
      EXPECT_TRUE(offline.CreateTable(SourceTable()).ok());
      LineageGraph graph;
      FeatureRegistry registry(&offline, &graph);
      FeatureDefinition def;
      def.name = "f";
      def.entity = "user";
      def.source_table = "src";
      def.expression = "v * 2";
      def.owner = "team";
      EXPECT_TRUE(registry.Publish(def, Hours(1)).ok());
      def.expression = "coalesce(v, 0.0) + 1";
      EXPECT_TRUE(registry.Publish(def, Hours(2)).ok());
      EXPECT_TRUE(registry.Deprecate("f").ok());
      out.push_back({"feature registry", registry.Snapshot(),
                     [](std::string_view snapshot, bool* empty) {
                       OfflineStore offline;
                       LineageGraph graph;
                       FeatureRegistry fresh(&offline, &graph);
                       const Status s = fresh.Restore(snapshot);
                       *empty = fresh.num_features() == 0 &&
                                graph.num_artifacts() == 0;
                       return s;
                     }});
    }
    {
      LineageGraph graph;
      EXPECT_TRUE(graph.AddEdge(FeatureArtifact("f", 1),
                                EdgeKind::kDerivedFrom,
                                ColumnArtifact("t", "c"))
                      .ok());
      EXPECT_TRUE(graph.AddEdge(ModelArtifact("m", 1), EdgeKind::kPins,
                                FeatureArtifact("f", 1))
                      .ok());
      EXPECT_TRUE(graph.RecordMaterialization(ViewArtifact("f"),
                                              FeatureArtifact("f", 1))
                      .ok());
      EXPECT_TRUE(graph
                      .MarkStale(FeatureArtifact("f", 1),
                                 StalenessReason::kDrift, Hours(3), "psi")
                      .ok());
      out.push_back({"lineage graph", graph.Snapshot(),
                     [](std::string_view snapshot, bool* empty) {
                       LineageGraph fresh;
                       const Status s = fresh.Restore(snapshot);
                       *empty = fresh.num_artifacts() == 0 &&
                                fresh.num_events() == 0;
                       return s;
                     }});
    }
    {
      // "a" stays resident; its superseded v1 and the larger "b" are
      // tiered, "b" with one exact hot block.
      EmbeddingTierPolicy policy;
      policy.memory_budget_bytes = 300;
      policy.block_rows = 16;
      policy.spill_dir = dir_ + "/tier";
      LineageGraph graph;
      EmbeddingStore store(&graph, policy);
      EXPECT_TRUE(store.Register(Table("a", 2, 2), Hours(1)).ok());
      EXPECT_TRUE(store.Register(Table("a", 2, 2), Hours(2)).ok());
      EXPECT_TRUE(store.Register(Table("b", 40, 4), Hours(3)).ok());
      EXPECT_EQ(store.TierStats().tiered_tables, 2u);
      out.push_back({"embedding store", store.Snapshot(),
                     [policy](std::string_view snapshot, bool* empty) {
                       LineageGraph graph;
                       EmbeddingStore fresh(&graph, policy);
                       const Status s = fresh.Restore(snapshot);
                       *empty = fresh.num_tables() == 0 &&
                                graph.num_artifacts() == 0;
                       return s;
                     }});
    }
    {
      LineageGraph graph;
      ModelRegistry models(&graph);
      ModelRecord record;
      record.name = "m";
      record.task = "ranking";
      record.feature_refs = {"f@v1"};
      record.embedding_refs = {"a@v2"};
      record.hyperparameters = {{"lr", "0.1"}};
      record.metrics = {{"auc", 0.9}};
      record.weights = {1.0, -2.0, 3.5};
      EXPECT_TRUE(models.Register(record, Hours(1)).ok());
      EXPECT_TRUE(models.Register(record, Hours(2)).ok());
      out.push_back({"model registry", models.Snapshot(),
                     [](std::string_view snapshot, bool* empty) {
                       LineageGraph graph;
                       ModelRegistry fresh(&graph);
                       const Status s = fresh.Restore(snapshot);
                       *empty = fresh.num_models() == 0 &&
                                graph.num_artifacts() == 0;
                       return s;
                     }});
    }
    return out;
  }

  std::string dir_;
};

TEST_F(SnapshotSweepTest, TruncationsAndByteFlipsLeaveComponentEmpty) {
  for (const Component& c : Components()) {
    SCOPED_TRACE(c.name);
    const std::string& snapshot = c.snapshot;
    bool empty = true;
    ASSERT_TRUE(c.restore(snapshot, &empty).ok());
    ASSERT_FALSE(empty);  // The sample has something to lose.
    for (size_t len = 0; len < snapshot.size(); ++len) {
      const Status s =
          c.restore(std::string_view(snapshot).substr(0, len), &empty);
      ASSERT_EQ(s.code(), StatusCode::kCorruption) << "length " << len;
      ASSERT_TRUE(empty) << "length " << len;
    }
    std::string flipped = snapshot;
    for (size_t pos = 0; pos < snapshot.size(); ++pos) {
      // A different nonzero mask per byte, so no bit position is skipped.
      flipped[pos] = static_cast<char>(flipped[pos] ^ (1 + pos % 255));
      const Status s = c.restore(flipped, &empty);
      flipped[pos] = snapshot[pos];
      ASSERT_EQ(s.code(), StatusCode::kCorruption) << "byte " << pos;
      ASSERT_TRUE(empty) << "byte " << pos;
    }
  }
}

// Every body byte flipped with each mask and re-sealed: the checksum is
// valid, so only the decoder stands between the bytes and the store.
size_t ResealedSweep(const Component& c) {
  const std::string body = Body(c.snapshot);
  size_t rejected = 0;
  for (size_t pos = 0; pos < body.size(); ++pos) {
    for (const unsigned char mask : {0x01, 0x80, 0xff}) {
      std::string mutated = body;
      mutated[pos] = static_cast<char>(mutated[pos] ^ mask);
      bool empty = false;
      if (!c.restore(Reseal(c.snapshot, mutated), &empty).ok()) ++rejected;
    }
  }
  return rejected;
}

TEST_F(SnapshotSweepTest, ResealedBodyMutationsReturnStatus) {
  const std::vector<Component> components = Components();
  for (const Component& c : components) {
    SCOPED_TRACE(c.name);
    EXPECT_GT(ResealedSweep(c), 0u);
  }
  // A tiered embedding whose spill fails on restore falls back to a
  // resident table with its hot blocks overlaid: sweep that path too.
  auto embeddings = std::find_if(
      components.begin(), components.end(),
      [](const Component& c) { return c.name == "embedding store"; });
  ASSERT_NE(embeddings, components.end());
  ScopedFailpoint spill_fails("embedding.tier.spill", FailpointConfig{});
  EXPECT_GT(ResealedSweep(*embeddings), 0u);
}

TEST_F(SnapshotSweepTest,
       CheckpointFileTruncationsAndByteFlipsLeaveStoreFresh) {
  FeatureStore original;
  OfflineTableOptions options = SourceTable();
  ASSERT_TRUE(original.CreateSourceTable(options).ok());
  ASSERT_TRUE(original.Ingest("src", SourceRows(10)).ok());
  FeatureDefinition def;
  def.name = "f";
  def.entity = "user";
  def.source_table = "src";
  def.expression = "v * 2";
  def.cadence = Hours(1);
  ASSERT_TRUE(original.PublishFeature(def).ok());
  ASSERT_TRUE(original.RunMaterialization().ok());
  ASSERT_TRUE(original.RegisterEmbedding(Table("a", 3, 2)).ok());
  ModelRecord model;
  model.name = "m";
  model.feature_refs = {"f@v1"};
  model.weights = {0.5};
  ASSERT_TRUE(original.RegisterModel(model).ok());
  ASSERT_TRUE(original.Checkpoint(dir_ + "/good").ok());
  std::ifstream in(dir_ + "/good/checkpoint.mlfs", std::ios::binary);
  const std::string file(std::istreambuf_iterator<char>(in), {});

  const std::string bad = dir_ + "/bad";
  auto restore = [&bad](std::string_view bytes, bool* fresh) {
    EXPECT_TRUE(WriteFileAtomic(bad + "/checkpoint.mlfs", bytes).ok());
    FeatureStore store;
    const Status s = store.RestoreCheckpoint(bad);
    *fresh = Fresh(store);
    return s;
  };
  bool fresh = false;
  ASSERT_TRUE(restore(file, &fresh).ok());
  ASSERT_FALSE(fresh);
  for (size_t len = 0; len < file.size(); ++len) {
    const Status s = restore(std::string_view(file).substr(0, len), &fresh);
    ASSERT_EQ(s.code(), StatusCode::kCorruption) << "length " << len;
    ASSERT_TRUE(fresh) << "length " << len;
  }
  std::string flipped = file;
  for (size_t pos = 0; pos < file.size(); ++pos) {
    flipped[pos] = static_cast<char>(flipped[pos] ^ (1 + pos % 255));
    const Status s = restore(flipped, &fresh);
    flipped[pos] = file[pos];
    ASSERT_EQ(s.code(), StatusCode::kCorruption) << "byte " << pos;
    ASSERT_TRUE(fresh) << "byte " << pos;
  }
}

// --- Crafted counts: a correct seal around a count the body cannot hold --

TEST(CraftedCountTest, OnlineRowCountIsCorruption) {
  const SchemaPtr schema =
      Schema::Create({{"v", FeatureType::kDouble, true}}).value();
  Encoder enc;
  enc.PutVarint64(1);  // Views.
  enc.PutString("v");
  enc.PutSchema(*schema);
  enc.PutVarint64(1);  // Shards.
  enc.PutVarint64(1);  // Cells in the shard.
  enc.PutString(std::string("v\x1f") + "1");
  for (int i = 0; i < 2; ++i) enc.PutFixed64(0);  // Event time, expiry.
  enc.PutVarint64(uint64_t{1} << 60);             // Row value count.
  OnlineStore store;
  const Status s =
      store.Restore(Reseal(OnlineStore().Snapshot(), enc.buffer()));
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s;
}

TEST(CraftedCountTest, ModelWeightCountIsCorruption) {
  Encoder enc;
  enc.PutVarint64(1);  // Records.
  enc.PutString("m");
  enc.PutVarint64(1);  // Version.
  enc.PutString("task");
  // Feature refs, embedding refs, hyperparameters, metrics.
  for (int i = 0; i < 4; ++i) enc.PutVarint64(0);
  enc.PutFixed64(0);                   // Trained at.
  enc.PutFixed64(0);                   // Weights checksum.
  enc.PutVarint64(uint64_t{1} << 61);  // Weight count.
  ModelRegistry models;
  const Status s =
      models.Restore(Reseal(ModelRegistry().Snapshot(), enc.buffer()));
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s;
  EXPECT_EQ(models.num_models(), 0u);
}

TEST(CraftedCountTest, EmbeddingShapeIsCorruption) {
  Encoder enc;
  enc.PutVarint64(1);  // Tables.
  enc.PutString("e");  // Metadata: name, version, created at, training
  enc.PutVarint64(1);  // source, parent, patched, notes.
  enc.PutFixed64(0);
  enc.PutString("");
  enc.PutString("");
  enc.PutU8(0);
  enc.PutString("");
  enc.PutVarint64(uint64_t{1} << 32);  // Rows.
  enc.PutVarint64(uint64_t{1} << 24);  // Dimensions.
  EmbeddingStore store;
  const Status s =
      store.Restore(Reseal(EmbeddingStore().Snapshot(), enc.buffer()));
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s;
  EXPECT_EQ(store.num_tables(), 0u);
}

}  // namespace
}  // namespace mlfs
