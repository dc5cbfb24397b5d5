#include "core/feature_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "common/rng.h"
#include "datagen/tabular.h"

namespace mlfs {
namespace {

class FeatureStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = Schema::Create({{"user_id", FeatureType::kInt64, false},
                              {"event_time", FeatureType::kTimestamp, false},
                              {"trips_7d", FeatureType::kInt64, true},
                              {"trips_30d", FeatureType::kInt64, true}})
                  .value();
    OfflineTableOptions opt;
    opt.name = "activity";
    opt.schema = schema_;
    opt.entity_column = "user_id";
    opt.time_column = "event_time";
    ASSERT_TRUE(store_.CreateSourceTable(opt).ok());
  }

  Row SourceRow(int64_t user, Timestamp ts, int64_t t7, int64_t t30) {
    return Row::Create(schema_, {Value::Int64(user), Value::Time(ts),
                                 Value::Int64(t7), Value::Int64(t30)})
        .value();
  }

  FeatureDefinition RateDef() {
    FeatureDefinition def;
    def.name = "trip_rate";
    def.entity = "user";
    def.source_table = "activity";
    def.expression = "trips_7d / (trips_30d + 1)";
    def.cadence = Hours(6);
    return def;
  }

  FeatureStore store_;
  SchemaPtr schema_;
};

TEST_F(FeatureStoreTest, EndToEndTabularFlow) {
  ASSERT_TRUE(store_.Ingest("activity", {SourceRow(1, Hours(1), 7, 30),
                                         SourceRow(2, Hours(2), 2, 10)})
                  .ok());
  EXPECT_EQ(store_.clock().now(), Hours(2));  // Clock follows ingestion.

  ASSERT_TRUE(store_.PublishFeature(RateDef()).ok());
  EXPECT_EQ(store_.RunMaterialization().value(), 1);

  auto fv = store_.ServeFeatures(Value::Int64(1), {"trip_rate"});
  ASSERT_TRUE(fv.ok()) << fv.status();
  EXPECT_DOUBLE_EQ(fv->values[0].double_value(), 7.0 / 31.0);
  EXPECT_EQ(fv->missing, 0u);
  EXPECT_EQ(store_.server().requests(), 1u);
}

TEST_F(FeatureStoreTest, IngestValidatesTable) {
  EXPECT_TRUE(store_.Ingest("missing", {}).IsNotFound());
}

TEST_F(FeatureStoreTest, BuildTrainingSetJoinsFeatureLogs) {
  // Two ingestion eras with a materialization after each, so the feature
  // log holds both the early and the late snapshot.
  ASSERT_TRUE(store_.Ingest("activity", {SourceRow(1, Hours(1), 7, 30),
                                         SourceRow(2, Hours(2), 2, 10)})
                  .ok());
  ASSERT_TRUE(store_.PublishFeature(RateDef()).ok());
  ASSERT_TRUE(store_.RunMaterialization().ok());
  ASSERT_TRUE(store_.Ingest("activity", {SourceRow(1, Hours(20), 9, 40)})
                  .ok());
  ASSERT_TRUE(store_.RunMaterialization().ok());

  auto spine_schema =
      Schema::Create({{"user_id", FeatureType::kInt64, false},
                      {"ts", FeatureType::kTimestamp, false},
                      {"label", FeatureType::kBool, false}})
          .value();
  auto spine_row = [&](int64_t user, Timestamp ts, bool label) {
    return Row::Create(spine_schema, {Value::Int64(user), Value::Time(ts),
                                      Value::Bool(label)})
        .value();
  };
  std::vector<Row> spine = {spine_row(1, Hours(5), true),
                            spine_row(1, Hours(21), false),
                            spine_row(2, Hours(1), true)};
  auto ts = store_.BuildTrainingSet(spine, "user_id", "ts", {"trip_rate"});
  ASSERT_TRUE(ts.ok()) << ts.status();
  ASSERT_EQ(ts->rows.size(), 3u);
  // Spine at 5h sees the 1h snapshot.
  EXPECT_DOUBLE_EQ(
      ts->rows[0].ValueByName("trip_rate").value().double_value(),
      7.0 / 31.0);
  // Spine at 21h sees the 20h snapshot.
  EXPECT_DOUBLE_EQ(
      ts->rows[1].ValueByName("trip_rate").value().double_value(),
      9.0 / 41.0);
  // User 2 at 1h: feature not yet materialized at that time -> NULL.
  EXPECT_TRUE(ts->rows[2].ValueByName("trip_rate").value().is_null());

  EXPECT_TRUE(store_.BuildTrainingSet(spine, "user_id", "ts", {"nope"})
                  .status().IsNotFound());
}

TEST_F(FeatureStoreTest, FreshnessAndDriftMonitoring) {
  // Two eras of data: mean trips_7d jumps between them.
  Rng rng(1);
  std::vector<Row> early, late;
  for (int i = 0; i < 300; ++i) {
    int64_t user = static_cast<int64_t>(rng.Uniform(50));
    early.push_back(SourceRow(user, Hours(1) + i,
                              static_cast<int64_t>(rng.Gaussian(20, 3)),
                              100));
    late.push_back(SourceRow(user, Days(10) + i,
                             static_cast<int64_t>(rng.Gaussian(60, 3)),
                             100));
  }
  ASSERT_TRUE(store_.Ingest("activity", early).ok());
  ASSERT_TRUE(store_.PublishFeature(RateDef()).ok());
  ASSERT_TRUE(store_.RunMaterialization().ok());
  ASSERT_TRUE(store_.Ingest("activity", late).ok());
  ASSERT_TRUE(store_.RunMaterialization().ok());

  auto report = store_.CheckFeatureDrift("trip_rate", 0, Days(1), Days(9),
                                         Days(11));
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->drifted);
  EXPECT_EQ(store_.alerts().WithPrefix("drift:trip_rate").size(), 1u);

  auto freshness =
      store_.CheckFreshness("trip_rate", {Value::Int64(0), Value::Int64(1)});
  EXPECT_LE(freshness.missing, 2u);

  EXPECT_FALSE(store_.CheckFeatureDrift("trip_rate", Days(20), Days(21),
                                        Days(22), Days(23)).ok());
}

TEST_F(FeatureStoreTest, EmbeddingLifecycle) {
  EmbeddingTableMetadata metadata;
  metadata.name = "user_emb";
  std::vector<std::string> keys;
  std::vector<float> vectors;
  Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    keys.push_back("u" + std::to_string(i));
    for (int j = 0; j < 8; ++j) {
      vectors.push_back(static_cast<float>(rng.Gaussian()));
    }
  }
  auto table = EmbeddingTable::Create(metadata, keys, vectors, 8).value();
  EXPECT_EQ(store_.RegisterEmbedding(table).value(), 1);

  // Embeddings are served through the same call as tabular features,
  // hydrated straight from the registered table.
  auto fv = store_.ServeFeatures(Value::String("u3"), {"user_emb"});
  ASSERT_TRUE(fv.ok()) << fv.status();
  EXPECT_EQ(fv->values[0].type(), FeatureType::kEmbedding);
  EXPECT_EQ(fv->values[0].embedding_value(),
            store_.GetEmbedding("user_emb", "u3").value());

  // Nearest-neighbor query.
  auto neighbors = store_.NearestEntities("user_emb", "u3", 5);
  ASSERT_TRUE(neighbors.ok()) << neighbors.status();
  ASSERT_EQ(neighbors->size(), 5u);
  for (const auto& [key, dist] : *neighbors) {
    EXPECT_NE(key, "u3");  // Self excluded.
  }
  // Distances ascending.
  for (size_t i = 1; i < neighbors->size(); ++i) {
    EXPECT_LE((*neighbors)[i - 1].second, (*neighbors)[i].second);
  }
  EXPECT_TRUE(store_.NearestEntities("user_emb", "nope", 3).status()
                  .IsNotFound());
  EXPECT_TRUE(store_.GetEmbedding("missing", "u1").status().IsNotFound());
}

TEST_F(FeatureStoreTest, NearestEntitiesTracksLatestVersion) {
  // The ANN cache is per version: registering a new table must change the
  // answers, not serve the stale index.
  Rng rng(5);
  std::vector<std::string> keys;
  std::vector<float> v1, v2;
  for (int i = 0; i < 30; ++i) {
    keys.push_back("k" + std::to_string(i));
    for (int j = 0; j < 4; ++j) {
      v1.push_back(static_cast<float>(rng.Gaussian()));
    }
  }
  // v2: key 0 moved exactly onto key 1's vector.
  v2 = v1;
  for (int j = 0; j < 4; ++j) v2[j] = v1[4 + j];
  EmbeddingTableMetadata metadata;
  metadata.name = "emb";
  ASSERT_TRUE(store_.RegisterEmbedding(
      EmbeddingTable::Create(metadata, keys, v1, 4).value()).ok());
  auto before = store_.NearestEntities("emb", "k0", 1).value();
  ASSERT_TRUE(store_.RegisterEmbedding(
      EmbeddingTable::Create(metadata, keys, v2, 4).value()).ok());
  auto after = store_.NearestEntities("emb", "k0", 1).value();
  // After the move, k1 is k0's exact twin (distance ~0).
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].first, "k1");
  EXPECT_NEAR(after[0].second, 0.0, 1e-6);
  // And the result is allowed to differ from v1's (fresh index used).
  (void)before;
}

TEST_F(FeatureStoreTest, NearestEntitiesBatchMatchesLoop) {
  Rng rng(7);
  std::vector<std::string> keys;
  std::vector<float> vectors;
  for (int i = 0; i < 80; ++i) {
    keys.push_back("e" + std::to_string(i));
    for (int j = 0; j < 6; ++j) {
      vectors.push_back(static_cast<float>(rng.Gaussian()));
    }
  }
  EmbeddingTableMetadata metadata;
  metadata.name = "emb";
  ASSERT_TRUE(store_.RegisterEmbedding(
      EmbeddingTable::Create(metadata, keys, vectors, 6).value()).ok());

  std::vector<std::string> refs = {"e5", "nope", "e0", "e79", "e5"};
  auto batch = store_.NearestEntitiesBatch("emb", refs, 4);
  ASSERT_EQ(batch.size(), refs.size());
  // Unknown reference key fails only its own slot.
  EXPECT_TRUE(batch[1].status().IsNotFound());
  for (size_t i : {0u, 2u, 3u, 4u}) {
    ASSERT_TRUE(batch[i].ok()) << i << ": " << batch[i].status();
    auto loop = store_.NearestEntities("emb", refs[i], 4).value();
    ASSERT_EQ(batch[i]->size(), loop.size()) << refs[i];
    for (size_t r = 0; r < loop.size(); ++r) {
      EXPECT_EQ((*batch[i])[r].first, loop[r].first) << refs[i];
      EXPECT_FLOAT_EQ((*batch[i])[r].second, loop[r].second) << refs[i];
    }
  }
  // Missing embedding fails every slot; empty batch is empty.
  auto missing = store_.NearestEntitiesBatch("ghost", {"a", "b"}, 2);
  ASSERT_EQ(missing.size(), 2u);
  EXPECT_TRUE(missing[0].status().IsNotFound());
  EXPECT_TRUE(missing[1].status().IsNotFound());
  EXPECT_TRUE(store_.NearestEntitiesBatch("emb", {}, 2).empty());
}

TEST_F(FeatureStoreTest, NearestEntitiesRejectsZeroKAndClampsHugeK) {
  // 10 rows of 4-d; k3 sits exactly on k1, so a neighbor at distance 0
  // exists for a k = 0 query to leak.
  Rng rng(9);
  std::vector<std::string> keys;
  std::vector<float> vectors;
  for (int i = 0; i < 10; ++i) {
    keys.push_back("k" + std::to_string(i));
    for (int j = 0; j < 4; ++j) {
      vectors.push_back(static_cast<float>(rng.Gaussian()));
    }
  }
  std::copy_n(vectors.begin() + 4, 4, vectors.begin() + 12);
  EmbeddingTableMetadata metadata;
  metadata.name = "emb";
  ASSERT_TRUE(store_.RegisterEmbedding(
      EmbeddingTable::Create(metadata, keys, vectors, 4).value()).ok());

  auto zero = store_.NearestEntities("emb", "k3", 0);
  EXPECT_TRUE(zero.status().IsInvalidArgument()) << zero.status();
  EXPECT_NE(zero.status().message().find("k >= 1"), std::string::npos);
  for (const auto& slot : store_.NearestEntitiesBatch("emb", {"k3", "k1"}, 0)) {
    EXPECT_TRUE(slot.status().IsInvalidArgument()) << slot.status();
  }

  // k past the table (SIZE_MAX included) returns every other row.
  for (size_t k : {size_t{10}, size_t{1000}, SIZE_MAX}) {
    auto all = store_.NearestEntities("emb", "k3", k);
    ASSERT_TRUE(all.ok()) << "k=" << k << ": " << all.status();
    ASSERT_EQ(all->size(), 9u) << k;
    EXPECT_EQ((*all)[0].first, "k1");
    EXPECT_EQ((*all)[0].second, 0.0f);
    for (const auto& [key, distance] : *all) EXPECT_NE(key, "k3");
    auto batch = store_.NearestEntitiesBatch("emb", {"k3", "k0"}, k);
    ASSERT_TRUE(batch[0].ok() && batch[1].ok()) << k;
    EXPECT_EQ(*batch[0], *all);
    EXPECT_EQ(batch[1]->size(), 9u);
  }
}

TEST_F(FeatureStoreTest, AnnCacheStaysBoundedAcrossReregistrations) {
  EmbeddingTableMetadata metadata;
  metadata.name = "emb";
  auto table = EmbeddingTable::Create(metadata, {"a", "b", "c"},
                                      {1, 0, 0, 1, 2, 0}, 2)
                   .value();
  // Register N versions, querying each so every version's index would be
  // cached without eviction.
  const int n = 8;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(store_.RegisterEmbedding(table).ok());
    ASSERT_TRUE(store_.NearestEntities("emb", "a", 1).ok());
    EXPECT_LE(store_.ann_cache_size(), 1u) << "after version " << (i + 1);
  }

  // A model pinning an older version keeps that version cached alongside
  // the latest, but nothing else accumulates.
  ModelRecord model;
  model.name = "ranker";
  model.embedding_refs = {"emb@v" + std::to_string(n)};
  ASSERT_TRUE(store_.RegisterModel(model).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(store_.RegisterEmbedding(table).ok());
    ASSERT_TRUE(store_.NearestEntities("emb", "a", 1).ok());
  }
  EXPECT_LE(store_.ann_cache_size(), 2u);  // Latest + pinned v8 only.
  // An unrelated embedding gets its own cache slot.
  EmbeddingTableMetadata other;
  other.name = "other";
  ASSERT_TRUE(store_.RegisterEmbedding(
      EmbeddingTable::Create(other, {"x", "y"}, {1, 0, 0, 1}, 2).value())
          .ok());
  ASSERT_TRUE(store_.NearestEntities("other", "x", 1).ok());
  EXPECT_LE(store_.ann_cache_size(), 3u);
}

TEST_F(FeatureStoreTest, VersionSkewDetectionAndAlerts) {
  EmbeddingTableMetadata metadata;
  metadata.name = "user_emb";
  auto table = EmbeddingTable::Create(metadata, {"a", "b"},
                                      {1, 0, 0, 1}, 2)
                   .value();
  ASSERT_TRUE(store_.RegisterEmbedding(table).ok());

  ModelRecord model;
  model.name = "ranker";
  model.embedding_refs = {"user_emb@v1"};
  ASSERT_TRUE(store_.RegisterModel(model).ok());
  EXPECT_TRUE(store_.CheckEmbeddingVersionSkew().value().skews.empty());

  // New embedding version; model is now skewed.
  ASSERT_TRUE(store_.RegisterEmbedding(table).ok());
  auto report = store_.CheckEmbeddingVersionSkew().value();
  ASSERT_EQ(report.skews.size(), 1u);
  EXPECT_TRUE(report.dangling.empty());
  EXPECT_EQ(report.skews[0].lag(), 1);
  EXPECT_EQ(store_.alerts().CountAtLeast(AlertSeverity::kCritical), 1u);
}

TEST_F(FeatureStoreTest, EmbeddingUpdateDriftCheck) {
  Rng rng(3);
  std::vector<std::string> keys;
  std::vector<float> v1, v2;
  for (int i = 0; i < 100; ++i) {
    keys.push_back("e" + std::to_string(i));
    for (int j = 0; j < 8; ++j) {
      float x = static_cast<float>(rng.Gaussian());
      v1.push_back(x);
      v2.push_back(-x);  // Fully flipped space.
    }
  }
  EmbeddingTableMetadata metadata;
  metadata.name = "emb";
  ASSERT_TRUE(store_.RegisterEmbedding(
      EmbeddingTable::Create(metadata, keys, v1, 8).value()).ok());
  ASSERT_TRUE(store_.RegisterEmbedding(
      EmbeddingTable::Create(metadata, keys, v2, 8).value()).ok());

  auto report = store_.CheckEmbeddingUpdateDrift("emb", 1, 2);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->drifted);
  EXPECT_NEAR(report->mean_self_cosine, -1.0, 1e-6);
  EXPECT_EQ(store_.alerts().WithPrefix("embedding_drift:").size(), 1u);
  EXPECT_FALSE(store_.CheckEmbeddingUpdateDrift("emb", 1, 9).ok());
}

TEST_F(FeatureStoreTest, StreamPipelineIntegration) {
  StreamPipelineOptions opt;
  opt.name = "minute_trips";
  opt.event_schema = schema_;
  opt.entity_column = "user_id";
  opt.time_column = "event_time";
  opt.window = {Hours(1), Hours(1)};
  opt.aggs = {{"events", AggregateFn::kCount, ""}};
  auto pipeline = store_.CreateStreamPipeline(opt);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status();
  ASSERT_TRUE((*pipeline)->Ingest(SourceRow(1, Minutes(5), 1, 1)).ok());
  ASSERT_TRUE((*pipeline)->Ingest(SourceRow(1, Minutes(10), 1, 1)).ok());
  ASSERT_TRUE((*pipeline)->Flush(Hours(1)).ok());
  store_.clock().AdvanceTo(Hours(1));
  auto got = store_.online().Get("minute_trips", Value::Int64(1), Hours(1));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->ValueByName("events").value(), Value::Int64(2));
}

}  // namespace
}  // namespace mlfs
