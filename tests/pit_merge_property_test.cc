// Property suite for the batched sort-merge point-in-time join engine:
// on randomized fixtures, PointInTimeJoin / NaiveLatestJoin (serial and
// thread-pool sharded) must produce TrainingSets *byte-identical* to the
// retained row-at-a-time reference implementations — same schema, same
// rows (including the equal-timestamp append-order tie-break), same
// missing_cells. Fixtures cover late/out-of-order arrivals, duplicate
// timestamps, max_age cutoffs, absent entities, multi-source
// prefix/output_columns, and both INT64 and STRING entity keys.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/serde.h"
#include "serving/point_in_time.h"
#include "storage/offline_store.h"

namespace mlfs {
namespace {

// Serializes a TrainingSet to bytes so "identical" means identical.
std::string TrainingSetBytes(const TrainingSet& ts) {
  Encoder enc;
  enc.PutSchema(*ts.schema);
  enc.PutVarint64(ts.missing_cells);
  enc.PutVarint64(ts.rows.size());
  for (const Row& row : ts.rows) enc.PutRow(row);
  return enc.Release();
}

struct RandomFixture {
  // unique_ptr: OfflineStore holds a mutex and is neither copyable nor
  // movable, but the fixture is returned by value.
  std::unique_ptr<OfflineStore> store = std::make_unique<OfflineStore>();
  OfflineTable* source_a = nullptr;
  OfflineTable* source_b = nullptr;
  SchemaPtr spine_schema;
  std::vector<Row> spine;
  std::vector<JoinSource> sources;
};

Value MakeKey(bool string_keys, int64_t id) {
  if (!string_keys) return Value::Int64(id);
  // Long shared prefix (>8 bytes) forces the sort's integer-prefix
  // shortcut to fall back to full key comparison.
  return Value::String("entity_with_long_common_prefix_" + std::to_string(id));
}

// Builds a randomized two-source fixture. Event times are drawn from a
// coarse grid so duplicate timestamps (same entity, same ts) are common,
// and rows are appended in random arrival order so late/out-of-order data
// is the norm, spread over ~10 daily partitions.
RandomFixture BuildFixture(Rng& rng, bool string_keys) {
  RandomFixture f;
  const FeatureType key_type =
      string_keys ? FeatureType::kString : FeatureType::kInt64;
  auto schema_a = Schema::Create({{"key", key_type, false},
                                  {"event_time", FeatureType::kTimestamp,
                                   false},
                                  {"a_int", FeatureType::kInt64, true},
                                  {"a_str", FeatureType::kString, true}})
                      .value();
  auto schema_b = Schema::Create({{"key", key_type, false},
                                  {"event_time", FeatureType::kTimestamp,
                                   false},
                                  {"b_val", FeatureType::kDouble, true}})
                      .value();
  OfflineTableOptions opt_a;
  opt_a.name = "source_a";
  opt_a.schema = schema_a;
  opt_a.entity_column = "key";
  opt_a.time_column = "event_time";
  OfflineTableOptions opt_b = opt_a;
  opt_b.name = "source_b";
  opt_b.schema = schema_b;
  EXPECT_TRUE(f.store->CreateTable(opt_a).ok());
  EXPECT_TRUE(f.store->CreateTable(opt_b).ok());
  f.source_a = f.store->GetTable("source_a").value();
  f.source_b = f.store->GetTable("source_b").value();

  constexpr int64_t kEntities = 8;       // Spine draws from [0, 12): absent
  constexpr int64_t kSpineEntities = 12;  // entities are part of the deal.
  const auto coarse_ts = [&] {
    return Hours(6) * static_cast<Timestamp>(rng.Uniform(40));  // 10 days.
  };

  std::vector<Row> rows_a;
  for (int i = 0; i < 150; ++i) {
    rows_a.push_back(
        Row::Create(schema_a,
                    {MakeKey(string_keys,
                             static_cast<int64_t>(rng.Uniform(kEntities))),
                     Value::Time(coarse_ts()),
                     rng.Bernoulli(0.15)
                         ? Value::Null()
                         : Value::Int64(static_cast<int64_t>(i)),
                     rng.Bernoulli(0.15)
                         ? Value::Null()
                         : Value::String("v" + std::to_string(i))})
            .value());
  }
  std::vector<Row> rows_b;
  for (int i = 0; i < 100; ++i) {
    rows_b.push_back(
        Row::Create(schema_b,
                    {MakeKey(string_keys,
                             static_cast<int64_t>(rng.Uniform(kEntities))),
                     Value::Time(coarse_ts()),
                     rng.Bernoulli(0.1) ? Value::Null()
                                        : Value::Double(rng.Gaussian())})
            .value());
  }
  // Random arrival order: a shuffled mix of single appends and batches.
  rng.Shuffle(&rows_a);
  rng.Shuffle(&rows_b);
  for (size_t i = 0; i < rows_a.size();) {
    size_t batch = 1 + rng.Uniform(8);
    size_t end = std::min(rows_a.size(), i + batch);
    EXPECT_TRUE(f.source_a
                    ->AppendBatch(std::vector<Row>(rows_a.begin() + i,
                                                   rows_a.begin() + end))
                    .ok());
    i = end;
  }
  EXPECT_TRUE(f.source_b->AppendBatch(rows_b).ok());

  f.spine_schema = Schema::Create({{"key", key_type, false},
                                   {"ts", FeatureType::kTimestamp, false},
                                   {"label", FeatureType::kBool, false}})
                       .value();
  const size_t spine_rows = 40 + rng.Uniform(40);
  for (size_t i = 0; i < spine_rows; ++i) {
    f.spine.push_back(
        Row::Create(f.spine_schema,
                    {MakeKey(string_keys,
                             static_cast<int64_t>(rng.Uniform(kSpineEntities))),
                     Value::Time(Hours(static_cast<Timestamp>(
                         rng.Uniform(24 * 10)))),
                     Value::Bool(rng.Bernoulli(0.5))})
            .value());
  }

  JoinSource a;
  a.table = f.source_a;
  a.prefix = "a__";
  a.max_age = rng.Bernoulli(0.5) ? Hours(1 + rng.Uniform(72)) : 0;
  JoinSource b;
  b.table = f.source_b;
  b.columns = {"b_val"};
  b.output_columns = {"renamed_b"};
  b.max_age = rng.Bernoulli(0.5) ? Hours(1 + rng.Uniform(72)) : 0;
  f.sources = {a, b};
  return f;
}

class PitMergePropertyTest : public ::testing::TestWithParam<bool> {};

TEST_P(PitMergePropertyTest, MergeJoinMatchesReferenceByteForByte) {
  const bool string_keys = GetParam();
  for (uint64_t trial = 0; trial < 12; ++trial) {
    Rng rng(0x9177 + trial * 131 + (string_keys ? 7 : 0));
    RandomFixture f = BuildFixture(rng, string_keys);

    auto reference =
        PointInTimeJoinReference(f.spine, "key", "ts", f.sources);
    ASSERT_TRUE(reference.ok()) << reference.status();
    auto merged = PointInTimeJoin(f.spine, "key", "ts", f.sources);
    ASSERT_TRUE(merged.ok()) << merged.status();
    JoinOptions parallel;
    parallel.max_threads = 4;
    auto merged_mt =
        PointInTimeJoin(f.spine, "key", "ts", f.sources, parallel);
    ASSERT_TRUE(merged_mt.ok()) << merged_mt.status();

    const std::string want = TrainingSetBytes(*reference);
    EXPECT_EQ(TrainingSetBytes(*merged), want) << "trial " << trial;
    EXPECT_EQ(TrainingSetBytes(*merged_mt), want) << "trial " << trial;
    EXPECT_EQ(merged->missing_cells, reference->missing_cells);
    EXPECT_EQ(merged_mt->missing_cells, reference->missing_cells);

    auto naive_ref = NaiveLatestJoinReference(f.spine, "key", "ts", f.sources);
    ASSERT_TRUE(naive_ref.ok()) << naive_ref.status();
    auto naive = NaiveLatestJoin(f.spine, "key", "ts", f.sources, parallel);
    ASSERT_TRUE(naive.ok()) << naive.status();
    EXPECT_EQ(TrainingSetBytes(*naive), TrainingSetBytes(*naive_ref))
        << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(KeyTypes, PitMergePropertyTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "StringKeys" : "Int64Keys";
                         });

// A join on an odd number of workers (max_threads = 3) must also
// reproduce the reference exactly.
TEST(PitMergeTest, InternalPoolMatchesReference) {
  Rng rng(0xfeed);
  RandomFixture f = BuildFixture(rng, /*string_keys=*/false);
  auto reference = PointInTimeJoinReference(f.spine, "key", "ts", f.sources);
  ASSERT_TRUE(reference.ok());
  JoinOptions options;
  options.max_threads = 3;
  auto merged = PointInTimeJoin(f.spine, "key", "ts", f.sources, options);
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(TrainingSetBytes(*merged), TrainingSetBytes(*reference));
}

// A spine whose entity column is neither INT64 nor STRING must NULL-fill
// every joined cell, exactly like the reference (whose per-row AsOf fails
// with InvalidArgument and is treated as a miss).
TEST(PitMergeTest, UnjoinableEntityKeyTypeNullFills) {
  Rng rng(0xabc1);
  RandomFixture f = BuildFixture(rng, /*string_keys=*/false);
  auto bad_spine_schema =
      Schema::Create({{"key", FeatureType::kDouble, false},
                      {"ts", FeatureType::kTimestamp, false}})
          .value();
  std::vector<Row> bad_spine = {
      Row::Create(bad_spine_schema,
                  {Value::Double(1.5), Value::Time(Hours(10))})
          .value(),
      Row::Create(bad_spine_schema,
                  {Value::Double(2.5), Value::Time(Hours(20))})
          .value()};
  auto reference =
      PointInTimeJoinReference(bad_spine, "key", "ts", f.sources);
  ASSERT_TRUE(reference.ok());
  auto merged = PointInTimeJoin(bad_spine, "key", "ts", f.sources);
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(TrainingSetBytes(*merged), TrainingSetBytes(*reference));
  // Every joined cell (3 per row: a_int, a_str, renamed_b) is missing.
  EXPECT_EQ(merged->missing_cells, 2u * 3u);
}

}  // namespace
}  // namespace mlfs
