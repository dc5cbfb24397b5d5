// Differential property harness for the columnar offline storage engine.
//
// The oracle is the legacy row path itself: an OfflineTable with
// seal_rows = 0 never seals, so every row stays in the mutable head and
// every read runs the original all-in-RAM row engine. Each trial feeds an
// identical randomized op stream to the oracle and to a columnar table
// configured with aggressive sealing/compaction/spilling, interleaves the
// appends with maintenance ops on the columnar side only, and asserts that
// Scan (filtered and projected), AsOfBatch (full-width and projected, with
// miss bitmaps), LatestPerEntityAsOf, PointInTimeJoin, and snapshots are
// *byte-identical* across the two engines. Fixtures cover late/out-of-order
// arrivals, duplicate-timestamp tie-breaks, INT64 and STRING entity keys,
// NULLs in every column, and max_age cutoffs — extending the pit_merge
// property suite pattern down into the storage tier.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/serde.h"
#include "serving/point_in_time.h"
#include "storage/offline_store.h"

namespace mlfs {
namespace {

std::string RowsBytes(const std::vector<Row>& rows) {
  Encoder enc;
  enc.PutVarint64(rows.size());
  for (const Row& row : rows) enc.PutRow(row);
  return enc.Release();
}

std::string TrainingSetBytes(const TrainingSet& ts) {
  Encoder enc;
  enc.PutSchema(*ts.schema);
  enc.PutVarint64(ts.missing_cells);
  enc.PutVarint64(ts.rows.size());
  for (const Row& row : ts.rows) enc.PutRow(row);
  return enc.Release();
}

Value MakeKey(bool string_keys, int64_t id) {
  if (!string_keys) return Value::Int64(id);
  // Long shared prefix forces full key comparisons past the sort's
  // integer-prefix shortcut.
  return Value::String("entity_with_long_common_prefix_" + std::to_string(id));
}

SchemaPtr SourceSchema(bool string_keys) {
  return Schema::Create(
             {{"key",
               string_keys ? FeatureType::kString : FeatureType::kInt64,
               false},
              {"event_time", FeatureType::kTimestamp, false},
              {"f_int", FeatureType::kInt64, true},
              {"f_double", FeatureType::kDouble, true},
              {"f_str", FeatureType::kString, true},
              {"f_bool", FeatureType::kBool, true},
              {"f_emb", FeatureType::kEmbedding, true}})
      .value();
}

// One random row; timestamps come from a coarse grid so duplicate
// (entity, ts) pairs — and therefore append-order tie-breaks — are common.
Row RandomRow(Rng& rng, const SchemaPtr& schema, bool string_keys,
              int64_t entities, int serial) {
  const Timestamp ts = Hours(6) * static_cast<Timestamp>(rng.Uniform(40));
  std::vector<Value> values;
  values.push_back(
      MakeKey(string_keys, static_cast<int64_t>(rng.Uniform(entities))));
  values.push_back(Value::Time(ts));
  values.push_back(rng.Bernoulli(0.2) ? Value::Null()
                                      : Value::Int64(serial));
  values.push_back(rng.Bernoulli(0.2) ? Value::Null()
                                      : Value::Double(rng.Gaussian()));
  values.push_back(rng.Bernoulli(0.2)
                       ? Value::Null()
                       : Value::String("value_" + std::to_string(serial)));
  values.push_back(rng.Bernoulli(0.2) ? Value::Null()
                                      : Value::Bool(rng.Bernoulli(0.5)));
  if (rng.Bernoulli(0.25)) {
    values.push_back(Value::Null());
  } else {
    std::vector<float> vec(1 + rng.Uniform(4));
    for (float& f : vec) f = static_cast<float>(rng.Gaussian());
    values.push_back(Value::Embedding(std::move(vec)));
  }
  return Row::Create(schema, std::move(values)).value();
}

// An oracle/columnar table pair fed identical op streams.
struct TablePair {
  std::unique_ptr<OfflineTable> oracle;
  std::unique_ptr<OfflineTable> columnar;
};

TablePair MakePair(Rng& rng, const SchemaPtr& schema, const std::string& name,
                   const std::string& spill_dir) {
  OfflineTableOptions oracle_options;
  oracle_options.name = name;
  oracle_options.schema = schema;
  oracle_options.entity_column = "key";
  oracle_options.time_column = "event_time";
  oracle_options.seal_rows = 0;  // Never seals: the legacy row engine.

  OfflineTableOptions columnar_options = oracle_options;
  columnar_options.seal_rows = 1 + rng.Uniform(24);
  columnar_options.compact_min_segments = 2 + rng.Uniform(3);
  if (!spill_dir.empty() && rng.Bernoulli(0.5)) {
    columnar_options.memory_budget_bytes = 2048;
    columnar_options.spill_dir = spill_dir;
    // Discarded draws (a readahead setting once): same stream, same
    // fixtures.
    if (rng.Bernoulli(0.5)) (void)rng.Uniform(4);
  }
  // Discarded draw: keeps the RNG stream, and so every fixture, as before.
  (void)rng.Bernoulli(0.5);

  TablePair pair;
  pair.oracle = OfflineTable::Create(oracle_options).value();
  pair.columnar = OfflineTable::Create(columnar_options).value();
  return pair;
}

void AppendBoth(TablePair& pair, const std::vector<Row>& rows) {
  ASSERT_TRUE(pair.oracle->AppendBatch(rows).ok());
  ASSERT_TRUE(pair.columnar->AppendBatch(rows).ok());
}

// Random maintenance op on the columnar side only; every op must keep the
// engines observationally identical.
void RandomMaintenance(Rng& rng, OfflineTable* table) {
  switch (rng.Uniform(4)) {
    case 0:
      ASSERT_TRUE(table->SealHeads().ok());
      break;
    case 1:
      ASSERT_TRUE(table->CompactPartitions().ok());
      break;
    case 2:
      ASSERT_TRUE(table->EnforceMemoryBudget().ok());
      break;
    default:
      ASSERT_TRUE(table->RunMaintenance().ok());
      break;
  }
}

// The predicate the scan checks filter with; never NULL, so only the
// TriBool == 1 rule decides which rows survive.
CompiledExpr ScanPredicate(const TablePair& pair) {
  return CompiledExpr::Compile("is_null(f_int) or f_int % 2 == 0",
                               pair.oracle->options().schema)
      .value();
}

// Both engines' Scan(spec) must equal the oracle's unfiltered full-width
// scan of [spec.lo, spec.hi), filtered row-wise and projected here.
void CheckScan(const TablePair& pair, const ScanSpec& spec) {
  const std::vector<Row> all = pair.oracle->Scan({spec.lo, spec.hi}).value();
  ExprScratch scratch;
  std::vector<Row> want;
  for (const Row& row : all) {
    if (spec.predicate != nullptr) {
      auto v = spec.predicate->Eval(row, &scratch);
      ASSERT_TRUE(v.ok()) << v.status();
      if (v->is_null() || !v->bool_value()) continue;
    }
    if (spec.columns.empty()) {
      want.push_back(row);
      continue;
    }
    std::vector<Value> values;
    for (int c : spec.columns) values.push_back(row.value(c));
    want.push_back(Row::CreateUnsafe(spec.projected_schema, std::move(values)));
  }
  for (const OfflineTable* table : {pair.columnar.get(), pair.oracle.get()}) {
    auto got = table->Scan(spec);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(RowsBytes(*got), RowsBytes(want));
  }
}

// Full-width scans, unfiltered and filtered.
void CheckScans(const TablePair& pair, Rng& rng) {
  ASSERT_EQ(pair.columnar->num_rows(), pair.oracle->num_rows());
  ASSERT_EQ(pair.columnar->num_partitions(), pair.oracle->num_partitions());
  ASSERT_EQ(pair.columnar->max_event_time(), pair.oracle->max_event_time());
  EXPECT_EQ(RowsBytes(pair.columnar->Scan({}).value()),
            RowsBytes(pair.oracle->Scan({}).value()));
  const Timestamp lo = Hours(rng.Uniform(120));
  const Timestamp hi = lo + Hours(1 + rng.Uniform(120));
  const CompiledExpr pred = ScanPredicate(pair);
  CheckScan(pair, {lo, hi});
  CheckScan(pair, {.lo = lo, .hi = hi, .predicate = &pred});
  EXPECT_EQ(pair.columnar->EntityKeys(), pair.oracle->EntityKeys());
}

void CheckLatest(const TablePair& pair, Rng& rng) {
  const Timestamp cutoff = Hours(rng.Uniform(260));
  EXPECT_EQ(RowsBytes(pair.columnar->LatestPerEntityAsOf(cutoff)),
            RowsBytes(pair.oracle->LatestPerEntityAsOf(cutoff)));
}

std::vector<AsOfRequest> RandomSortedRequests(
    Rng& rng, bool string_keys, int64_t entities,
    std::vector<std::string>* key_storage) {
  const size_t n = 8 + rng.Uniform(24);
  std::vector<std::pair<std::string, Timestamp>> raw;
  raw.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Value key =
        MakeKey(string_keys, static_cast<int64_t>(rng.Uniform(entities + 3)));
    raw.emplace_back(key.type() == FeatureType::kString
                         ? key.string_value()
                         : std::to_string(key.int64_value()),
                     Hours(rng.Uniform(260)));
  }
  std::sort(raw.begin(), raw.end());
  key_storage->clear();
  key_storage->reserve(raw.size());
  std::vector<AsOfRequest> requests(raw.size());
  for (size_t i = 0; i < raw.size(); ++i) {
    key_storage->push_back(std::move(raw[i].first));
    requests[i] = {(*key_storage)[i], raw[i].second};
  }
  return requests;
}

// Full-width batch reads: the columnar engine must return byte-identical
// rows, and its miss *bitmap* must agree with the oracle's legacy
// "untouched result row" miss convention.
void CheckAsOfBatch(const TablePair& pair, Rng& rng, bool string_keys,
                    int64_t entities) {
  std::vector<std::string> key_storage;
  std::vector<AsOfRequest> requests =
      RandomSortedRequests(rng, string_keys, entities, &key_storage);
  const size_t n = requests.size();
  std::vector<Row> oracle_rows(n);
  ASSERT_TRUE(pair.oracle
                  ->AsOfBatch(std::span<const AsOfRequest>(requests),
                              std::span<Row>(oracle_rows))
                  .ok());
  std::vector<Row> columnar_rows(n);
  std::vector<uint64_t> miss_bitmap;
  AsOfReadOptions options;
  options.miss_bitmap = &miss_bitmap;
  ASSERT_TRUE(pair.columnar
                  ->AsOfBatch(std::span<const AsOfRequest>(requests),
                              std::span<Row>(columnar_rows), options)
                  .ok());
  for (size_t i = 0; i < n; ++i) {
    const bool oracle_miss = oracle_rows[i].schema() == nullptr;
    EXPECT_EQ(MissBitmapTest(miss_bitmap, i), oracle_miss) << "request " << i;
    if (!oracle_miss) {
      EXPECT_EQ(RowsBytes({columnar_rows[i]}), RowsBytes({oracle_rows[i]}))
          << "request " << i;
    }
  }
}

// Projected batch reads against manual projections of the oracle's
// full-width answers.
void CheckProjectedAsOfBatch(const TablePair& pair, Rng& rng,
                             bool string_keys, int64_t entities) {
  const SchemaPtr& schema = pair.oracle->options().schema;
  std::vector<int> columns;
  for (int c = 0; c < static_cast<int>(schema->num_fields()); ++c) {
    if (rng.Bernoulli(0.5)) columns.push_back(c);
  }
  if (columns.empty()) columns.push_back(static_cast<int>(rng.Uniform(7)));
  std::vector<FieldSpec> fields;
  for (int c : columns) fields.push_back(schema->field(c));
  const SchemaPtr projected_schema = Schema::Create(fields).value();

  std::vector<std::string> key_storage;
  std::vector<AsOfRequest> requests =
      RandomSortedRequests(rng, string_keys, entities, &key_storage);
  const size_t n = requests.size();
  std::vector<Row> oracle_rows(n);
  ASSERT_TRUE(pair.oracle
                  ->AsOfBatch(std::span<const AsOfRequest>(requests),
                              std::span<Row>(oracle_rows))
                  .ok());
  std::vector<Row> columnar_rows(n);
  std::vector<uint64_t> miss_bitmap;
  AsOfReadOptions options;
  options.columns = columns;
  options.projected_schema = projected_schema;
  options.miss_bitmap = &miss_bitmap;
  ASSERT_TRUE(pair.columnar
                  ->AsOfBatch(std::span<const AsOfRequest>(requests),
                              std::span<Row>(columnar_rows), options)
                  .ok());
  for (size_t i = 0; i < n; ++i) {
    const bool oracle_miss = oracle_rows[i].schema() == nullptr;
    ASSERT_EQ(MissBitmapTest(miss_bitmap, i), oracle_miss) << "request " << i;
    if (oracle_miss) continue;
    std::vector<Value> want;
    for (int c : columns) want.push_back(oracle_rows[i].value(c));
    Row want_row = Row::CreateUnsafe(projected_schema, std::move(want));
    EXPECT_EQ(RowsBytes({columnar_rows[i]}), RowsBytes({want_row}))
        << "request " << i;
  }
}

// Projected scans, unfiltered and filtered.
void CheckProjectedScans(const TablePair& pair, Rng& rng) {
  const SchemaPtr& schema = pair.oracle->options().schema;
  const std::vector<int> columns = {1, 4};  // event_time + f_str.
  std::vector<FieldSpec> fields;
  for (int c : columns) fields.push_back(schema->field(c));
  const SchemaPtr projected_schema = Schema::Create(fields).value();
  const Timestamp lo = Hours(rng.Uniform(120));
  const Timestamp hi = lo + Hours(1 + rng.Uniform(140));
  const CompiledExpr pred = ScanPredicate(pair);
  CheckScan(pair, {lo, hi, columns, projected_schema});
  CheckScan(pair, {lo, hi, columns, projected_schema, &pred});
}

class ColumnarPropertyTest : public ::testing::TestWithParam<bool> {};

// The core differential loop: randomized append/maintenance scripts with
// queries interleaved. 2 key types × 56 trials = 112 randomized fixtures.
TEST_P(ColumnarPropertyTest, ColumnarEngineMatchesRowOracle) {
  const bool string_keys = GetParam();
  const std::string spill_dir =
      (std::filesystem::path(::testing::TempDir()) /
       (std::string("mlfs_columnar_prop_") +
        (string_keys ? "str" : "int")))
          .string();
  for (uint64_t trial = 0; trial < 56; ++trial) {
    Rng rng(0xc01 + trial * 977 + (string_keys ? 13 : 0));
    const SchemaPtr schema = SourceSchema(string_keys);
    TablePair pair = MakePair(rng, schema, "events", spill_dir);
    const int64_t entities = 6;

    std::vector<Row> rows;
    const size_t total = 60 + rng.Uniform(120);
    for (size_t i = 0; i < total; ++i) {
      rows.push_back(RandomRow(rng, schema, string_keys, entities,
                               static_cast<int>(i)));
    }
    rng.Shuffle(&rows);  // Late/out-of-order arrival is the norm.

    size_t cursor = 0;
    while (cursor < rows.size()) {
      const size_t batch = 1 + rng.Uniform(24);
      const size_t end = std::min(rows.size(), cursor + batch);
      AppendBoth(pair,
                 std::vector<Row>(rows.begin() + cursor, rows.begin() + end));
      cursor = end;
      if (rng.Bernoulli(0.6)) RandomMaintenance(rng, pair.columnar.get());
      if (rng.Bernoulli(0.3)) {
        CheckAsOfBatch(pair, rng, string_keys, entities);
      }
    }
    RandomMaintenance(rng, pair.columnar.get());
    // Guarantee the final checks run against sealed segments even when the
    // random maintenance schedule never picked an unconditional seal.
    ASSERT_TRUE(pair.columnar->SealHeads().ok());

    CheckScans(pair, rng);
    CheckLatest(pair, rng);
    CheckAsOfBatch(pair, rng, string_keys, entities);
    CheckProjectedAsOfBatch(pair, rng, string_keys, entities);
    CheckProjectedScans(pair, rng);

    // The columnar table must actually be exercising the columnar tier —
    // otherwise the trial silently degenerates into row-vs-row.
    const OfflineStorageStats stats = pair.columnar->storage_stats();
    EXPECT_GT(stats.sealed_rows, 0u) << "trial " << trial;
  }
  std::error_code ec;
  std::filesystem::remove_all(spill_dir, ec);
}

// Point-in-time joins over columnar sources must be byte-identical to the
// same joins over the row oracle AND to the row-at-a-time reference join,
// including projection (output_columns) and max_age cutoffs. Also pins the
// SpineIndex reuse path: one prebuilt spine index must serve repeated
// joins with identical results.
TEST_P(ColumnarPropertyTest, PointInTimeJoinMatchesOracleSources) {
  const bool string_keys = GetParam();
  const std::string spill_dir =
      (std::filesystem::path(::testing::TempDir()) /
       (std::string("mlfs_columnar_join_") +
        (string_keys ? "str" : "int")))
          .string();
  for (uint64_t trial = 0; trial < 24; ++trial) {
    Rng rng(0xdead + trial * 131 + (string_keys ? 7 : 0));
    const SchemaPtr schema = SourceSchema(string_keys);
    TablePair source_a = MakePair(rng, schema, "source_a", spill_dir);
    TablePair source_b = MakePair(rng, schema, "source_b", spill_dir);
    const int64_t entities = 6;

    for (TablePair* pair : {&source_a, &source_b}) {
      std::vector<Row> rows;
      const size_t total = 50 + rng.Uniform(100);
      for (size_t i = 0; i < total; ++i) {
        rows.push_back(RandomRow(rng, schema, string_keys, entities,
                                 static_cast<int>(i)));
      }
      rng.Shuffle(&rows);
      size_t cursor = 0;
      while (cursor < rows.size()) {
        const size_t end = std::min(rows.size(), cursor + 1 + rng.Uniform(16));
        AppendBoth(*pair, std::vector<Row>(rows.begin() + cursor,
                                           rows.begin() + end));
        cursor = end;
        if (rng.Bernoulli(0.5)) RandomMaintenance(rng, pair->columnar.get());
      }
    }

    const SchemaPtr spine_schema =
        Schema::Create({{"key",
                         string_keys ? FeatureType::kString
                                     : FeatureType::kInt64,
                         false},
                        {"ts", FeatureType::kTimestamp, false},
                        {"label", FeatureType::kBool, false}})
            .value();
    std::vector<Row> spine;
    const size_t spine_rows = 30 + rng.Uniform(40);
    for (size_t i = 0; i < spine_rows; ++i) {
      spine.push_back(
          Row::Create(
              spine_schema,
              {MakeKey(string_keys,
                       static_cast<int64_t>(rng.Uniform(entities + 3))),
               Value::Time(Hours(rng.Uniform(260))),
               Value::Bool(rng.Bernoulli(0.5))})
              .value());
    }

    const auto make_sources = [&](const TablePair& a, const TablePair& b,
                                  bool columnar) {
      JoinSource sa;
      sa.table = columnar ? a.columnar.get() : a.oracle.get();
      sa.columns = {"f_int", "f_str", "f_emb"};
      sa.prefix = "a__";
      sa.max_age = rng.Bernoulli(0.5) ? Hours(1 + rng.Uniform(72)) : 0;
      JoinSource sb;
      sb.table = columnar ? b.columnar.get() : b.oracle.get();
      sb.columns = {"f_double", "f_bool"};
      sb.output_columns = {"renamed_d", "renamed_b"};
      sb.max_age = sa.max_age;
      return std::vector<JoinSource>{sa, sb};
    };
    // Draw the source config once, then retarget the copy so the oracle
    // and columnar joins see identical max_age/projection settings.
    std::vector<JoinSource> oracle_sources =
        make_sources(source_a, source_b, false);
    std::vector<JoinSource> columnar_sources = oracle_sources;
    columnar_sources[0].table = source_a.columnar.get();
    columnar_sources[1].table = source_b.columnar.get();

    auto reference =
        PointInTimeJoinReference(spine, "key", "ts", oracle_sources);
    ASSERT_TRUE(reference.ok()) << reference.status();
    auto over_oracle = PointInTimeJoin(spine, "key", "ts", oracle_sources);
    ASSERT_TRUE(over_oracle.ok()) << over_oracle.status();
    auto over_columnar =
        PointInTimeJoin(spine, "key", "ts", columnar_sources);
    ASSERT_TRUE(over_columnar.ok()) << over_columnar.status();

    const std::string want = TrainingSetBytes(*reference);
    EXPECT_EQ(TrainingSetBytes(*over_oracle), want) << "trial " << trial;
    EXPECT_EQ(TrainingSetBytes(*over_columnar), want) << "trial " << trial;

    // SpineIndex reuse: the same prebuilt index must serve repeated joins
    // (and the naive-latest variant) with unchanged results.
    auto index = SpineIndex::Build(spine, "key", "ts");
    ASSERT_TRUE(index.ok()) << index.status();
    for (int repeat = 0; repeat < 2; ++repeat) {
      auto joined = PointInTimeJoin(*index, columnar_sources);
      ASSERT_TRUE(joined.ok()) << joined.status();
      EXPECT_EQ(TrainingSetBytes(*joined), want)
          << "trial " << trial << " repeat " << repeat;
    }
    auto naive_ref =
        NaiveLatestJoinReference(spine, "key", "ts", oracle_sources);
    ASSERT_TRUE(naive_ref.ok());
    auto naive = NaiveLatestJoin(*index, columnar_sources);
    ASSERT_TRUE(naive.ok()) << naive.status();
    EXPECT_EQ(TrainingSetBytes(*naive), TrainingSetBytes(*naive_ref))
        << "trial " << trial;
  }
  std::error_code ec;
  std::filesystem::remove_all(spill_dir, ec);
}

INSTANTIATE_TEST_SUITE_P(KeyTypes, ColumnarPropertyTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "StringKeys" : "Int64Keys";
                         });

// A backfill more than 2x the configured memory budget must complete with
// the overflow served from the spill tier, and stay byte-identical to the
// oracle end to end.
TEST(ColumnarSpillTest, BackfillLargerThanMemoryBudgetSpills) {
  Rng rng(0x5b11);
  const SchemaPtr schema = SourceSchema(/*string_keys=*/true);
  const std::string spill_dir =
      (std::filesystem::path(::testing::TempDir()) / "mlfs_spill_backfill")
          .string();

  OfflineTableOptions oracle_options;
  oracle_options.name = "backfill";
  oracle_options.schema = schema;
  oracle_options.entity_column = "key";
  oracle_options.time_column = "event_time";
  oracle_options.seal_rows = 0;
  OfflineTableOptions columnar_options = oracle_options;
  columnar_options.seal_rows = 256;
  columnar_options.memory_budget_bytes = 64 * 1024;
  columnar_options.spill_dir = spill_dir;

  TablePair pair;
  pair.oracle = OfflineTable::Create(oracle_options).value();
  pair.columnar = OfflineTable::Create(columnar_options).value();

  size_t appended = 0;
  for (int batch = 0; batch < 40; ++batch) {
    std::vector<Row> rows;
    for (int i = 0; i < 256; ++i) {
      rows.push_back(RandomRow(rng, schema, true, 32,
                               static_cast<int>(appended + i)));
    }
    appended += rows.size();
    AppendBoth(pair, rows);
    ASSERT_TRUE(pair.columnar->RunMaintenance().ok());
  }

  const OfflineStorageStats stats = pair.columnar->storage_stats();
  EXPECT_GT(stats.spilled_segments, 0u);
  EXPECT_LE(stats.resident_segment_bytes,
            columnar_options.memory_budget_bytes);
  // The backfill really was bigger than RAM allows: the spilled tier holds
  // at least 2x the budget.
  EXPECT_GE(stats.spilled_bytes, 2 * columnar_options.memory_budget_bytes);

  // And the tiered table still reads byte-identically to the oracle.
  EXPECT_EQ(RowsBytes(pair.columnar->Scan({}).value()),
            RowsBytes(pair.oracle->Scan({}).value()));
  CheckAsOfBatch(pair, rng, /*string_keys=*/true, 32);
  CheckLatest(pair, rng);

  // Spill files are scratch: dropping the table removes them.
  pair.columnar.reset();
  size_t leftover = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(spill_dir, ec)) {
    (void)entry;
    ++leftover;
  }
  EXPECT_EQ(leftover, 0u);
  std::filesystem::remove_all(spill_dir, ec);
}

// Snapshot/restore differential: a columnar snapshot (which embeds sealed
// segments) must restore into a table that reads identically, and the v2
// restore path must reproduce the oracle's tie-breaks.
TEST(ColumnarSnapshotTest, SnapshotRoundTripMatchesOracle) {
  Rng rng(0x54a9);
  const SchemaPtr schema = SourceSchema(/*string_keys=*/false);
  TablePair pair = MakePair(rng, schema, "snap", "");
  std::vector<Row> rows;
  for (int i = 0; i < 300; ++i) {
    rows.push_back(RandomRow(rng, schema, false, 6, i));
  }
  rng.Shuffle(&rows);
  AppendBoth(pair, rows);
  ASSERT_TRUE(pair.columnar->SealHeads().ok());
  std::vector<Row> tail;
  for (int i = 300; i < 340; ++i) {
    tail.push_back(RandomRow(rng, schema, false, 6, i));
  }
  AppendBoth(pair, tail);  // Leave a non-empty mutable head too.

  auto restored = OfflineTable::FromSnapshot(pair.columnar->Snapshot());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(RowsBytes((*restored)->Scan({}).value()),
            RowsBytes(pair.oracle->Scan({}).value()));
  EXPECT_EQ(RowsBytes((*restored)->LatestPerEntityAsOf(Hours(200))),
            RowsBytes(pair.oracle->LatestPerEntityAsOf(Hours(200))));
  const OfflineStorageStats stats = (*restored)->storage_stats();
  EXPECT_GT(stats.sealed_segments, 0u);  // Segments traveled as segments.
}

}  // namespace
}  // namespace mlfs
