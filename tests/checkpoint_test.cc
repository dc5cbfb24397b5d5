#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "common/failpoint.h"
#include "common/rng.h"
#include "core/feature_store.h"

namespace mlfs {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("mlfs_ckpt_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(CheckpointTest, RegistrySnapshotRoundTrip) {
  OfflineStore offline;
  OfflineTableOptions options;
  options.name = "src";
  options.schema = Schema::Create({{"e", FeatureType::kInt64, false},
                                   {"t", FeatureType::kTimestamp, false},
                                   {"v", FeatureType::kDouble, true}})
                       .value();
  options.entity_column = "e";
  options.time_column = "t";
  ASSERT_TRUE(offline.CreateTable(options).ok());

  FeatureRegistry original(&offline);
  FeatureDefinition def;
  def.name = "f";
  def.entity = "user";
  def.source_table = "src";
  def.expression = "v * 2";
  def.cadence = Hours(3);
  def.owner = "team-x";
  ASSERT_TRUE(original.Publish(def, Hours(1)).ok());
  def.expression = "v * 3";
  ASSERT_TRUE(original.Publish(def, Hours(2)).ok());
  ASSERT_TRUE(original.Deprecate("f").ok());

  FeatureRegistry restored(&offline);
  ASSERT_TRUE(restored.Restore(original.Snapshot()).ok());
  auto latest = restored.Get("f").value();
  EXPECT_EQ(latest.version, 2);
  EXPECT_EQ(latest.def.expression, "v * 3");
  EXPECT_EQ(latest.def.owner, "team-x");
  EXPECT_TRUE(latest.deprecated);
  EXPECT_EQ(latest.output_type, FeatureType::kDouble);
  EXPECT_EQ(latest.input_columns, (std::vector<std::string>{"v"}));
  EXPECT_EQ(restored.GetVersion("f", 1).value().def.expression, "v * 2");
  EXPECT_EQ(restored.GetVersion("f", 1).value().registered_at, Hours(1));
  // Restore into a non-empty registry fails.
  EXPECT_FALSE(restored.Restore(original.Snapshot()).ok());
  FeatureRegistry junk(&offline);
  EXPECT_FALSE(junk.Restore("garbage").ok());
}

TEST_F(CheckpointTest, ModelRegistrySnapshotRoundTrip) {
  ModelRegistry original;
  ModelRecord record;
  record.name = "m";
  record.task = "ranking";
  record.feature_refs = {"f@v1", "g@v2"};
  record.embedding_refs = {"emb@v3"};
  record.hyperparameters = {{"lr", "0.1"}, {"epochs", "20"}};
  record.metrics = {{"auc", 0.91}};
  record.weights = {1.0, -2.5, 3.25};
  ASSERT_TRUE(original.Register(record, Hours(5)).ok());
  ASSERT_TRUE(original.Register(record, Hours(6)).ok());

  ModelRegistry restored;
  ASSERT_TRUE(restored.Restore(original.Snapshot()).ok());
  auto latest = restored.Get("m").value();
  EXPECT_EQ(latest.version, 2);
  EXPECT_EQ(latest.embedding_refs, record.embedding_refs);
  EXPECT_EQ(latest.hyperparameters.at("lr"), "0.1");
  EXPECT_DOUBLE_EQ(latest.metrics.at("auc"), 0.91);
  EXPECT_EQ(latest.weights, record.weights);
  EXPECT_EQ(latest.weights_checksum,
            original.Get("m").value().weights_checksum);
  EXPECT_EQ(restored.GetVersion("m", 1).value().trained_at, Hours(5));
}

TEST_F(CheckpointTest, EmbeddingStoreSnapshotRoundTrip) {
  EmbeddingStore original;
  EmbeddingTableMetadata metadata;
  metadata.name = "emb";
  metadata.training_source = "corpus-v1";
  auto v1 = EmbeddingTable::Create(metadata, {"a", "b"},
                                   {1, 2, 3, 4}, 2).value();
  ASSERT_TRUE(original.Register(v1, Hours(1)).ok());
  metadata.parent = "emb@v1";
  auto v2 = EmbeddingTable::Create(metadata, {"a", "b", "c"},
                                   {5, 6, 7, 8, 9, 10}, 2).value();
  ASSERT_TRUE(original.Register(v2, Hours(2)).ok());

  EmbeddingStore restored;
  ASSERT_TRUE(restored.Restore(original.Snapshot()).ok());
  EXPECT_EQ(restored.num_tables(), 1u);
  auto latest = restored.GetLatest("emb").value();
  EXPECT_EQ(latest->metadata().version, 2);
  EXPECT_EQ(latest->metadata().parent, "emb@v1");
  EXPECT_EQ(latest->GetVector("c").value(), (std::vector<float>{9, 10}));
  auto old = restored.GetVersion("emb", 1).value();
  EXPECT_EQ(old->metadata().training_source, "corpus-v1");
  EXPECT_EQ(old->GetVector("a").value(), (std::vector<float>{1, 2}));
  EXPECT_EQ(restored.Lineage("emb@v2").value(),
            (std::vector<std::string>{"emb@v2", "emb@v1"}));
  EXPECT_FALSE(restored.Restore(original.Snapshot()).ok());
}

TEST_F(CheckpointTest, FullFeatureStoreCheckpointRestore) {
  FeatureStore original;
  auto schema = Schema::Create({{"user_id", FeatureType::kInt64, false},
                                {"event_time", FeatureType::kTimestamp,
                                 false},
                                {"trips", FeatureType::kInt64, true}})
                    .value();
  OfflineTableOptions options;
  options.name = "activity";
  options.schema = schema;
  options.entity_column = "user_id";
  options.time_column = "event_time";
  ASSERT_TRUE(original.CreateSourceTable(options).ok());
  std::vector<Row> rows;
  for (int64_t user = 0; user < 30; ++user) {
    rows.push_back(Row::Create(schema, {Value::Int64(user),
                                        Value::Time(Hours(user + 1)),
                                        Value::Int64(user * 10)})
                       .value());
  }
  ASSERT_TRUE(original.Ingest("activity", rows).ok());
  FeatureDefinition def;
  def.name = "trips_x2";
  def.entity = "user";
  def.source_table = "activity";
  def.expression = "trips * 2";
  def.cadence = Hours(1);
  ASSERT_TRUE(original.PublishFeature(def).ok());
  ASSERT_TRUE(original.RunMaterialization().ok());

  EmbeddingTableMetadata metadata;
  metadata.name = "user_emb";
  auto table = EmbeddingTable::Create(metadata, {"0", "1"},
                                      {1, 0, 0, 1}, 2).value();
  ASSERT_TRUE(original.RegisterEmbedding(table).ok());
  ModelRecord model;
  model.name = "ranker";
  model.embedding_refs = {"user_emb@v1"};
  ASSERT_TRUE(original.RegisterModel(model).ok());

  ASSERT_TRUE(original.Checkpoint(dir_).ok());
  // The whole checkpoint is one file.
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    files.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(files, (std::vector<std::string>{"checkpoint.mlfs"}));

  FeatureStore restored;
  auto status = restored.RestoreCheckpoint(dir_);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(restored.clock().now(), original.clock().now());
  // Serving works immediately (online cells restored).
  auto fv = restored.ServeFeatures(Value::Int64(5), {"trips_x2"});
  ASSERT_TRUE(fv.ok()) << fv.status();
  EXPECT_EQ(fv->values[0], Value::Int64(100));
  // Registry, embeddings, models all back.
  EXPECT_EQ(restored.registry().num_features(), 1u);
  EXPECT_EQ(restored.embeddings().num_tables(), 1u);
  EXPECT_EQ(restored.models().num_models(), 1u);
  // Training sets still build from restored offline logs.
  auto spine_schema =
      Schema::Create({{"user_id", FeatureType::kInt64, false},
                      {"ts", FeatureType::kTimestamp, false}})
          .value();
  std::vector<Row> spine = {
      Row::Create(spine_schema,
                  {Value::Int64(5), Value::Time(Hours(40))}).value()};
  auto ts = restored.BuildTrainingSet(spine, "user_id", "ts", {"trips_x2"});
  ASSERT_TRUE(ts.ok()) << ts.status();
  EXPECT_EQ(ts->rows[0].ValueByName("trips_x2").value(), Value::Int64(100));
  // Version-skew machinery still works on the restored state.
  ASSERT_TRUE(restored.RegisterEmbedding(table).ok());
  EXPECT_EQ(restored.CheckEmbeddingVersionSkew().value().skews.size(), 1u);
}

// --- The checkpoint contract ------------------------------------------------

SchemaPtr ActivitySchema() {
  return Schema::Create({{"user_id", FeatureType::kInt64, false},
                         {"event_time", FeatureType::kTimestamp, false},
                         {"trips", FeatureType::kInt64, true}})
      .value();
}

OfflineTableOptions ActivityTable(const std::string& name) {
  OfflineTableOptions options;
  options.name = name;
  options.schema = ActivitySchema();
  options.entity_column = "user_id";
  options.time_column = "event_time";
  return options;
}

// One event per user at `at` + user hours.
std::vector<Row> ActivityRows(int64_t users, Timestamp at) {
  const SchemaPtr schema = ActivitySchema();
  std::vector<Row> rows;
  for (int64_t user = 0; user < users; ++user) {
    rows.push_back(Row::Create(schema, {Value::Int64(user),
                                        Value::Time(at + Hours(user + 1)),
                                        Value::Int64(user * 10 + at)})
                       .value());
  }
  return rows;
}

void Publish(FeatureStore* store, const std::string& name,
             const std::string& expression) {
  FeatureDefinition def;
  def.name = name;
  def.entity = "user";
  def.source_table = "activity";
  def.expression = expression;
  def.cadence = Hours(1);
  ASSERT_TRUE(store->PublishFeature(def).ok());
  ASSERT_TRUE(store->RunMaterialization().ok());
}

// Everything a restore must bring back, as one comparable string: the
// clock, every table and its rows, online views and cells, latest features,
// embeddings, models and the lineage graph's size.
std::string Fingerprint(FeatureStore& store) {
  std::ostringstream out;
  out << "clock=" << store.clock().now();
  for (const std::string& name : store.offline().TableNames()) {
    out << " table:" << name << "="
        << store.offline().GetTable(name).value()->num_rows();
  }
  out << " views=" << store.online().num_views()
      << " cells=" << store.online().stats().num_cells;
  for (const RegisteredFeature& reg : store.registry().ListLatest()) {
    out << " feature:" << reg.def.name << "@v" << reg.version << "="
        << reg.def.expression;
  }
  for (const std::string& name : store.embeddings().Names()) {
    out << " embedding:" << name;
  }
  out << " embedding_versions=" << store.embeddings().num_tables();
  for (const ModelRecord& model : store.models().ListLatest()) {
    out << " model:" << model.VersionedName();
  }
  out << " artifacts=" << store.lineage().num_artifacts()
      << " edges=" << store.lineage().num_edges()
      << " events=" << store.lineage().num_events();
  return out.str();
}

TEST_F(CheckpointTest, LeftoverTablesDoNotComeBack) {
  FeatureStore wide;
  ASSERT_TRUE(wide.CreateSourceTable(ActivityTable("activity")).ok());
  ASSERT_TRUE(wide.CreateSourceTable(ActivityTable("extra")).ok());
  ASSERT_TRUE(wide.Ingest("activity", ActivityRows(5, 0)).ok());
  ASSERT_TRUE(wide.Ingest("extra", ActivityRows(5, 0)).ok());
  ASSERT_TRUE(wide.Checkpoint(dir_).ok());

  FeatureStore narrow;
  ASSERT_TRUE(narrow.CreateSourceTable(ActivityTable("activity")).ok());
  ASSERT_TRUE(narrow.Ingest("activity", ActivityRows(5, 0)).ok());
  ASSERT_TRUE(narrow.Checkpoint(dir_).ok());

  FeatureStore restored;
  const Status status = restored.RestoreCheckpoint(dir_);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(restored.offline().TableNames(),
            (std::vector<std::string>{"activity"}));
  EXPECT_EQ(Fingerprint(restored), Fingerprint(narrow));
}

// A write fault at any point of a second checkpoint leaves exactly one
// generation behind: the first if the fault fired, the second otherwise.
TEST_F(CheckpointTest, FailedCheckpointLeavesOneWholeGeneration) {
  FeatureStore store;
  ASSERT_TRUE(store.CreateSourceTable(ActivityTable("activity")).ok());
  ASSERT_TRUE(store.Ingest("activity", ActivityRows(20, 0)).ok());
  Publish(&store, "f1", "trips * 2");
  if (HasFatalFailure()) return;
  const std::string first = Fingerprint(store);
  const std::string base = dir_ + "/first";
  ASSERT_TRUE(store.Checkpoint(base).ok());

  ASSERT_TRUE(store.Ingest("activity", ActivityRows(20, Hours(30))).ok());
  Publish(&store, "f2", "trips * 3");
  if (HasFatalFailure()) return;
  EmbeddingTableMetadata metadata;
  metadata.name = "user_emb";
  ASSERT_TRUE(store
                  .RegisterEmbedding(EmbeddingTable::Create(
                                         metadata, {"0", "1"}, {1, 0, 0, 1}, 2)
                                         .value())
                  .ok());
  ModelRecord model;
  model.name = "ranker";
  model.feature_refs = {"f2@v1"};
  ASSERT_TRUE(store.RegisterModel(model).ok());
  const std::string second = Fingerprint(store);
  ASSERT_NE(first, second);

  // Eleven kill points: more than the nine files a store like this took
  // when every component was its own file, the last of which fires nothing.
  for (uint64_t skip = 0; skip <= 10; ++skip) {
    SCOPED_TRACE("skip_first=" + std::to_string(skip));
    const std::string dir = dir_ + "/kill_" + std::to_string(skip);
    std::filesystem::copy(base, dir, std::filesystem::copy_options::recursive);
    FailpointConfig config;
    config.skip_first = skip;
    Status written;
    uint64_t fires = 0;
    {
      ScopedFailpoint fp("persistence.write", config);
      written = store.Checkpoint(dir);
      fires = fp.stats().fires;
    }
    EXPECT_EQ(written.ok(), fires == 0) << written;
    FeatureStore restored;
    const Status status = restored.RestoreCheckpoint(dir);
    ASSERT_TRUE(status.ok()) << status;
    EXPECT_EQ(Fingerprint(restored), fires == 0 ? second : first);
  }
}

TEST_F(CheckpointTest, RestoreRefusesStoreHoldingAnEmbedding) {
  FeatureStore original;
  ASSERT_TRUE(original.CreateSourceTable(ActivityTable("activity")).ok());
  ASSERT_TRUE(original.Ingest("activity", ActivityRows(5, 0)).ok());
  ASSERT_TRUE(original.Checkpoint(dir_).ok());

  FeatureStore busy;
  EmbeddingTableMetadata metadata;
  metadata.name = "emb";
  ASSERT_TRUE(
      busy.RegisterEmbedding(
              EmbeddingTable::Create(metadata, {"a"}, {1, 2}, 2).value())
          .ok());
  const std::string before = Fingerprint(busy);
  EXPECT_TRUE(busy.RestoreCheckpoint(dir_).IsFailedPrecondition());
  EXPECT_TRUE(busy.offline().TableNames().empty());
  EXPECT_EQ(Fingerprint(busy), before);
}

// The storage options a source table was created with come back with it.
TEST_F(CheckpointTest, TableStorageOptionsSurviveCheckpoint) {
  OfflineTableOptions options = ActivityTable("activity");
  options.seal_rows = 64;
  options.memory_budget_bytes = 1 << 20;
  options.spill_dir = dir_ + "/spill";
  options.compact_min_segments = 2;
  FeatureStore original;
  ASSERT_TRUE(original.CreateSourceTable(options).ok());
  ASSERT_TRUE(original.Ingest("activity", ActivityRows(100, 0)).ok());
  ASSERT_TRUE(original.Checkpoint(dir_ + "/ckpt").ok());

  FeatureStore restored;
  ASSERT_TRUE(restored.RestoreCheckpoint(dir_ + "/ckpt").ok());
  const OfflineTableOptions& got =
      restored.offline().GetTable("activity").value()->options();
  EXPECT_EQ(got.seal_rows, 64u);
  EXPECT_EQ(got.memory_budget_bytes, size_t{1} << 20);
  EXPECT_EQ(got.spill_dir, dir_ + "/spill");
  EXPECT_EQ(got.compact_min_segments, 2u);
}

}  // namespace
}  // namespace mlfs
