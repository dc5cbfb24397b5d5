#include "serving/feature_server.h"

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "embedding/embedding_store.h"

namespace mlfs {
namespace {

class FeatureServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    view_schema_ = Schema::Create({{"entity", FeatureType::kInt64, false},
                                   {"event_time", FeatureType::kTimestamp,
                                    false},
                                   {"value", FeatureType::kDouble, true}})
                       .value();
    ASSERT_TRUE(store_.CreateView("f1", view_schema_).ok());
    ASSERT_TRUE(store_.CreateView("f2", view_schema_).ok());
    Put("f1", 1, Hours(1), 0.5);
    Put("f2", 1, Hours(2), 0.7);
    Put("f1", 2, Hours(3), 0.9);
  }

  void Put(const std::string& view, int64_t entity, Timestamp et, double v) {
    Row row = Row::Create(view_schema_,
                          {Value::Int64(entity), Value::Time(et),
                           Value::Double(v)})
                  .value();
    ASSERT_TRUE(store_.Put(view, Value::Int64(entity), row, et, et).ok());
  }

  OnlineStore store_;
  SchemaPtr view_schema_;
};

TEST_F(FeatureServerTest, AssemblesVectorInOrder) {
  FeatureServer server(&store_);
  auto fv = server.GetFeatures(Value::Int64(1), {"f2", "f1"}, Hours(4));
  ASSERT_TRUE(fv.ok()) << fv.status();
  EXPECT_EQ(fv->names, (std::vector<std::string>{"f2", "f1"}));
  EXPECT_EQ(fv->values[0], Value::Double(0.7));
  EXPECT_EQ(fv->values[1], Value::Double(0.5));
  EXPECT_EQ(fv->oldest_event_time, Hours(1));
  EXPECT_EQ(fv->missing, 0u);
  EXPECT_EQ(server.requests(), 1u);
}

TEST_F(FeatureServerTest, NullPolicyFillsMissing) {
  FeatureServer server(&store_);
  auto fv = server.GetFeatures(Value::Int64(2), {"f1", "f2"}, Hours(4));
  ASSERT_TRUE(fv.ok());
  EXPECT_EQ(fv->values[0], Value::Double(0.9));
  EXPECT_TRUE(fv->values[1].is_null());
  EXPECT_EQ(fv->missing, 1u);
}

TEST_F(FeatureServerTest, ErrorPolicyFailsRequest) {
  FeatureServerOptions options;
  options.missing_policy = MissingFeaturePolicy::kError;
  FeatureServer server(&store_, options);
  auto fv = server.GetFeatures(Value::Int64(2), {"f1", "f2"}, Hours(4));
  EXPECT_TRUE(fv.status().IsNotFound());
}

TEST_F(FeatureServerTest, FailedSingleKeyRequestCountsAndRecordsLatency) {
  FeatureServerOptions options;
  options.missing_policy = MissingFeaturePolicy::kError;
  FeatureServer server(&store_, options);
  // Entity 2 has no f2: the request fails, but it was still served.
  auto fv = server.GetFeatures(Value::Int64(2), {"f1", "f2"}, Hours(4));
  EXPECT_TRUE(fv.status().IsNotFound());
  EXPECT_EQ(server.requests(), 1u);
  EXPECT_EQ(server.latency_histogram().count(), 1u);
}

TEST_F(FeatureServerTest, RejectsNonFeatureViews) {
  auto raw_schema =
      Schema::Create({{"x", FeatureType::kInt64, true}}).value();
  ASSERT_TRUE(store_.CreateView("raw", raw_schema).ok());
  Row row = Row::Create(raw_schema, {Value::Int64(5)}).value();
  ASSERT_TRUE(store_.Put("raw", Value::Int64(1), row, 0, 0).ok());
  FeatureServer server(&store_);
  EXPECT_TRUE(server.GetFeatures(Value::Int64(1), {"raw"}, Hours(1))
                  .status().IsFailedPrecondition());
}

TEST_F(FeatureServerTest, ErrorPolicyFailsOnMissingView) {
  FeatureServerOptions options;
  options.missing_policy = MissingFeaturePolicy::kError;
  FeatureServer server(&store_, options);
  // "no_such_view" was never created: under kError the whole request fails.
  auto fv = server.GetFeatures(Value::Int64(1), {"f1", "no_such_view"},
                               Hours(4));
  EXPECT_TRUE(fv.status().IsNotFound());
  EXPECT_EQ(server.stats().degraded_features, 0u);
}

TEST_F(FeatureServerTest, TtlExpiredCellCountsExpiredAndFillsNull) {
  Row row = Row::Create(view_schema_,
                        {Value::Int64(9), Value::Time(Hours(1)),
                         Value::Double(0.1)})
                .value();
  // TTL of 1h starting at write time 1h: expired from 2h onward.
  ASSERT_TRUE(store_.Put("f1", Value::Int64(9), row, Hours(1), Hours(1),
                         Hours(1)).ok());
  FeatureServer server(&store_);
  auto fv = server.GetFeatures(Value::Int64(9), {"f1"}, Hours(3));
  ASSERT_TRUE(fv.ok()) << fv.status();
  EXPECT_TRUE(fv->values[0].is_null());
  EXPECT_EQ(fv->missing, 1u);
  EXPECT_EQ(fv->degraded, 0u);  // An expired cell is a miss, not a fault.
  EXPECT_EQ(store_.stats().expired, 1u);
  EXPECT_EQ(fv->oldest_event_time, kMaxTimestamp);
}

class FeatureServerFailpointTest : public FeatureServerTest {
 protected:
  void SetUp() override {
    FeatureServerTest::SetUp();
    FailpointRegistry::Instance().DisarmAll();
    FailpointRegistry::Instance().Reseed(7);
  }
  void TearDown() override { FailpointRegistry::Instance().DisarmAll(); }
};

// Acceptance scenario: with the online store failing every read, the server
// retries each feature max_attempts times, then degrades the response to
// NULLs under kNull — the request still succeeds and the counters show it.
TEST_F(FeatureServerFailpointTest, RetriesThenDegradesToNullVector) {
  FeatureServerOptions options;
  options.max_attempts = 3;
  FeatureServer server(&store_, options);
  FailpointConfig config;
  config.status = Status::Internal("injected store outage");
  ScopedFailpoint fp("online_store.get", config);  // p=1.0: every read fails.

  auto fv = server.GetFeatures(Value::Int64(1), {"f1", "f2"}, Hours(4));
  ASSERT_TRUE(fv.ok()) << fv.status();
  ASSERT_EQ(fv->values.size(), 2u);
  EXPECT_TRUE(fv->values[0].is_null());
  EXPECT_TRUE(fv->values[1].is_null());
  EXPECT_EQ(fv->missing, 2u);
  EXPECT_EQ(fv->degraded, 2u);

  auto stats = server.stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.retries, 4u);  // 2 features x (3 attempts - 1).
  EXPECT_EQ(stats.degraded_features, 2u);
  EXPECT_EQ(stats.degraded_responses, 1u);
  EXPECT_EQ(fp.stats().fires, 6u);  // 2 features x 3 attempts.
}

TEST_F(FeatureServerFailpointTest, RecoversWithinRetryBudget) {
  FeatureServerOptions options;
  options.max_attempts = 3;
  FeatureServer server(&store_, options);
  FailpointConfig config;
  config.status = Status::ResourceExhausted("transient overload");
  config.max_fires = 2;  // First two reads fail, then the store heals.
  ScopedFailpoint fp("online_store.get", config);

  auto fv = server.GetFeatures(Value::Int64(1), {"f1"}, Hours(4));
  ASSERT_TRUE(fv.ok()) << fv.status();
  EXPECT_EQ(fv->values[0], Value::Double(0.5));
  EXPECT_EQ(fv->missing, 0u);
  auto stats = server.stats();
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.degraded_features, 0u);
  EXPECT_EQ(stats.degraded_responses, 0u);
}

TEST_F(FeatureServerFailpointTest, ErrorPolicyPropagatesAfterExhaustion) {
  FeatureServerOptions options;
  options.missing_policy = MissingFeaturePolicy::kError;
  options.max_attempts = 2;
  FeatureServer server(&store_, options);
  FailpointConfig config;
  config.status = Status::Internal("injected store outage");
  ScopedFailpoint fp("online_store.get", config);

  auto fv = server.GetFeatures(Value::Int64(1), {"f1"}, Hours(4));
  EXPECT_TRUE(fv.status().IsNotFound());
  EXPECT_EQ(server.stats().retries, 1u);
}

TEST_F(FeatureServerFailpointTest, NonTransientErrorsAreNotRetried) {
  FeatureServerOptions options;
  options.max_attempts = 5;
  FeatureServer server(&store_, options);
  // A plain miss (NotFound) must not burn the retry budget.
  auto fv = server.GetFeatures(Value::Int64(999), {"f1"}, Hours(4));
  ASSERT_TRUE(fv.ok());
  EXPECT_TRUE(fv->values[0].is_null());
  EXPECT_EQ(fv->missing, 1u);
  EXPECT_EQ(fv->degraded, 0u);
  EXPECT_EQ(server.stats().retries, 0u);
}

// Batched path under a transient outage that heals after two reads: the
// per-(entity, feature)-cell retry budget recovers every value.
TEST_F(FeatureServerFailpointTest, BatchRetriesTransientCellsWithinBudget) {
  FeatureServerOptions options;
  options.max_attempts = 3;
  FeatureServer server(&store_, options);
  FailpointConfig config;
  config.status = Status::ResourceExhausted("transient overload");
  config.max_fires = 2;  // First two store reads fail, then it heals.
  ScopedFailpoint fp("online_store.get", config);

  auto batch = server.GetFeaturesBatch(
      {Value::Int64(1), Value::Int64(2)}, {"f1"}, Hours(4));
  ASSERT_EQ(batch.size(), 2u);
  ASSERT_TRUE(batch[0].ok()) << batch[0].status();
  ASSERT_TRUE(batch[1].ok()) << batch[1].status();
  EXPECT_EQ(batch[0]->values[0], Value::Double(0.5));
  EXPECT_EQ(batch[1]->values[0], Value::Double(0.9));
  EXPECT_EQ(batch[0]->missing + batch[1]->missing, 0u);
  auto stats = server.stats();
  EXPECT_EQ(stats.retries, 2u);  // One per faulted cell.
  EXPECT_EQ(stats.degraded_features, 0u);
}

// Batched path with the store hard-down: every cell exhausts its retries
// and degrades to NULL under kNull; per-entity degradation is counted.
TEST_F(FeatureServerFailpointTest, BatchDegradesToNullAfterExhaustion) {
  FeatureServerOptions options;
  options.max_attempts = 2;
  FeatureServer server(&store_, options);
  FailpointConfig config;
  config.status = Status::Internal("injected store outage");
  ScopedFailpoint fp("online_store.get", config);  // p=1.0.

  auto batch = server.GetFeaturesBatch(
      {Value::Int64(1), Value::Int64(2)}, {"f1", "f2"}, Hours(4));
  ASSERT_EQ(batch.size(), 2u);
  for (const auto& entry : batch) {
    ASSERT_TRUE(entry.ok()) << entry.status();
    EXPECT_TRUE(entry->values[0].is_null());
    EXPECT_TRUE(entry->values[1].is_null());
    EXPECT_EQ(entry->missing, 2u);
    EXPECT_EQ(entry->degraded, 2u);
  }
  auto stats = server.stats();
  EXPECT_EQ(stats.retries, 4u);  // 2 entities x 2 features x 1 retry.
  EXPECT_EQ(stats.degraded_features, 4u);
  EXPECT_EQ(stats.degraded_responses, 2u);
  // 4 cell evaluations inside the two MultiGets + 4 individual retry Gets.
  EXPECT_EQ(fp.stats().fires, 8u);
}

TEST_F(FeatureServerTest, BatchPreservesOrderAndRecordsLatency) {
  FeatureServer server(&store_);
  auto batch = server.GetFeaturesBatch(
      {Value::Int64(1), Value::Int64(2)}, {"f1"}, Hours(4));
  ASSERT_EQ(batch.size(), 2u);
  ASSERT_TRUE(batch[0].ok());
  ASSERT_TRUE(batch[1].ok());
  EXPECT_EQ(batch[0]->values[0], Value::Double(0.5));
  EXPECT_EQ(batch[1]->values[0], Value::Double(0.9));
  // Each entity counts as one request and one latency sample.
  EXPECT_EQ(server.requests(), 2u);
  EXPECT_EQ(server.latency_histogram().count(), 2u);
  EXPECT_GT(server.latency_histogram().mean(), 0.0);
}

TEST_F(FeatureServerTest, BatchMatchesPerEntityGetFeatures) {
  FeatureServer server(&store_);
  std::vector<Value> keys = {Value::Int64(2), Value::Int64(1),
                             Value::Int64(777), Value::Int64(1)};
  std::vector<std::string> features = {"f2", "f1"};
  auto batch = server.GetFeaturesBatch(keys, features, Hours(4));
  ASSERT_EQ(batch.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    auto single = server.GetFeatures(keys[i], features, Hours(4));
    ASSERT_TRUE(single.ok());
    ASSERT_TRUE(batch[i].ok()) << batch[i].status();
    EXPECT_EQ(batch[i]->names, single->names);
    EXPECT_EQ(batch[i]->values, single->values);
    EXPECT_EQ(batch[i]->oldest_event_time, single->oldest_event_time);
    EXPECT_EQ(batch[i]->missing, single->missing);
  }
}

TEST_F(FeatureServerTest, BatchErrorPolicyFailsOnlyTheMissingEntity) {
  FeatureServerOptions options;
  options.missing_policy = MissingFeaturePolicy::kError;
  FeatureServer server(&store_, options);
  // Entity 1 has f1 and f2; entity 2 has only f1: under kError, only
  // entity 2's entry fails — its batch-mates are unaffected.
  auto batch = server.GetFeaturesBatch(
      {Value::Int64(1), Value::Int64(2)}, {"f1", "f2"}, Hours(4));
  ASSERT_EQ(batch.size(), 2u);
  ASSERT_TRUE(batch[0].ok()) << batch[0].status();
  EXPECT_EQ(batch[0]->values[0], Value::Double(0.5));
  EXPECT_EQ(batch[0]->values[1], Value::Double(0.7));
  EXPECT_TRUE(batch[1].status().IsNotFound());
}

TEST_F(FeatureServerTest, BatchRejectsNonFeatureViewsPerEntity) {
  auto raw_schema =
      Schema::Create({{"x", FeatureType::kInt64, true}}).value();
  ASSERT_TRUE(store_.CreateView("raw", raw_schema).ok());
  Row row = Row::Create(raw_schema, {Value::Int64(5)}).value();
  ASSERT_TRUE(store_.Put("raw", Value::Int64(1), row, 0, 0).ok());
  FeatureServer server(&store_);
  auto batch = server.GetFeaturesBatch(
      {Value::Int64(1), Value::Int64(1)}, {"raw"}, Hours(1));
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_TRUE(batch[0].status().IsFailedPrecondition());
  EXPECT_TRUE(batch[1].status().IsFailedPrecondition());
}

TEST_F(FeatureServerTest, EmptyBatchIsEmpty) {
  FeatureServer server(&store_);
  EXPECT_TRUE(server.GetFeaturesBatch({}, {"f1"}, Hours(4)).empty());
  EXPECT_EQ(server.requests(), 0u);
}

/// Embedding-feature hydration: a requested feature that is not an online
/// view but resolves in the EmbeddingStore is served straight from the
/// embedding table.
class FeatureServerEmbeddingTest : public FeatureServerTest {
 protected:
  void SetUp() override {
    FeatureServerTest::SetUp();
    EmbeddingTableMetadata metadata;
    metadata.name = "user_emb";
    auto table = EmbeddingTable::Create(metadata, {"u1", "u2"},
                                        {1, 2, 3, 4, 5, 6}, 3)
                     .value();
    ASSERT_TRUE(embeddings_.Register(table, Hours(5)).ok());
  }

  EmbeddingStore embeddings_;
};

TEST_F(FeatureServerEmbeddingTest, HydratesUnmaterializedEmbedding) {
  FeatureServer server(&store_, {}, &embeddings_);
  auto fv = server.GetFeatures(Value::String("u2"), {"user_emb"}, Hours(6));
  ASSERT_TRUE(fv.ok()) << fv.status();
  EXPECT_EQ(fv->values[0].type(), FeatureType::kEmbedding);
  EXPECT_EQ(fv->values[0].embedding_value(), (std::vector<float>{4, 5, 6}));
  EXPECT_EQ(fv->missing, 0u);
  // Embedding freshness is its registration time.
  EXPECT_EQ(fv->oldest_event_time, Hours(5));
  // Versioned references hydrate too.
  auto pinned =
      server.GetFeatures(Value::String("u1"), {"user_emb@v1"}, Hours(6));
  ASSERT_TRUE(pinned.ok()) << pinned.status();
  EXPECT_EQ(pinned->values[0].embedding_value(),
            (std::vector<float>{1, 2, 3}));
}

TEST_F(FeatureServerEmbeddingTest, MissingEntityFollowsPolicy) {
  FeatureServer null_server(&store_, {}, &embeddings_);
  auto fv = null_server.GetFeatures(Value::String("ghost"), {"user_emb"},
                                    Hours(6));
  ASSERT_TRUE(fv.ok());
  EXPECT_TRUE(fv->values[0].is_null());
  EXPECT_EQ(fv->missing, 1u);
  EXPECT_EQ(fv->degraded, 0u);  // A missing embedding key is not a fault.
  // Non-string entity keys cannot match an embedding key: also a miss.
  auto non_string =
      null_server.GetFeatures(Value::Int64(1), {"user_emb"}, Hours(6));
  ASSERT_TRUE(non_string.ok());
  EXPECT_TRUE(non_string->values[0].is_null());

  FeatureServerOptions options;
  options.missing_policy = MissingFeaturePolicy::kError;
  FeatureServer error_server(&store_, options, &embeddings_);
  EXPECT_TRUE(error_server.GetFeatures(Value::String("ghost"), {"user_emb"},
                                       Hours(6))
                  .status().IsNotFound());
}

TEST_F(FeatureServerEmbeddingTest, OnlineViewTakesPrecedence) {
  // Materialize a view with the same name as the embedding: the online
  // value must win, keeping pre-hydration behavior.
  ASSERT_TRUE(store_.CreateView("user_emb", view_schema_).ok());
  Put("user_emb", 7, Hours(1), 0.25);
  FeatureServer server(&store_, {}, &embeddings_);
  auto fv = server.GetFeatures(Value::Int64(7), {"user_emb"}, Hours(4));
  ASSERT_TRUE(fv.ok()) << fv.status();
  EXPECT_EQ(fv->values[0], Value::Double(0.25));
}

TEST_F(FeatureServerEmbeddingTest, BatchMatchesPerEntityHydration) {
  FeatureServer server(&store_, {}, &embeddings_);
  std::vector<Value> entities = {Value::String("u1"), Value::String("ghost"),
                                 Value::String("u2"), Value::Int64(1)};
  auto batch = server.GetFeaturesBatch(entities, {"user_emb"}, Hours(6));
  ASSERT_EQ(batch.size(), entities.size());
  for (size_t i = 0; i < entities.size(); ++i) {
    auto single = server.GetFeatures(entities[i], {"user_emb"}, Hours(6));
    ASSERT_TRUE(batch[i].ok());
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(batch[i]->values, single->values) << i;
    EXPECT_EQ(batch[i]->missing, single->missing) << i;
    EXPECT_EQ(batch[i]->oldest_event_time, single->oldest_event_time) << i;
  }
  // Mixed embedding + tabular columns in one batch request.
  auto mixed = server.GetFeaturesBatch({Value::Int64(1)}, {"f1", "user_emb"},
                                       Hours(6));
  ASSERT_TRUE(mixed[0].ok()) << mixed[0].status();
  EXPECT_EQ(mixed[0]->values[0], Value::Double(0.5));
  EXPECT_TRUE(mixed[0]->values[1].is_null());  // Int64 key, string-keyed emb.
}

TEST_F(FeatureServerEmbeddingTest, BatchErrorPolicyFailsOnlyMissingEntity) {
  FeatureServerOptions options;
  options.missing_policy = MissingFeaturePolicy::kError;
  FeatureServer server(&store_, options, &embeddings_);
  auto batch = server.GetFeaturesBatch(
      {Value::String("u1"), Value::String("ghost")}, {"user_emb"}, Hours(6));
  ASSERT_TRUE(batch[0].ok()) << batch[0].status();
  EXPECT_TRUE(batch[1].status().IsNotFound());
}

}  // namespace
}  // namespace mlfs
