#include "storage/offline_store.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/failpoint.h"
#include "common/rng.h"
#include "common/serde.h"
#include "storage/entity_key.h"

namespace mlfs {
namespace {

SchemaPtr TestSchema() {
  return Schema::Create({{"user_id", FeatureType::kInt64, false},
                         {"event_time", FeatureType::kTimestamp, false},
                         {"trips", FeatureType::kInt64, true},
                         {"rating", FeatureType::kDouble, true}})
      .value();
}

OfflineTableOptions TestOptions() {
  OfflineTableOptions opt;
  opt.name = "user_stats";
  opt.schema = TestSchema();
  opt.entity_column = "user_id";
  opt.time_column = "event_time";
  return opt;
}

Row MakeRow(const SchemaPtr& schema, int64_t user, Timestamp ts, int64_t trips,
            double rating) {
  return Row::Create(schema, {Value::Int64(user), Value::Time(ts),
                              Value::Int64(trips), Value::Double(rating)})
      .value();
}

TEST(OfflineTableTest, CreateValidatesColumns) {
  auto opt = TestOptions();
  EXPECT_TRUE(OfflineTable::Create(opt).ok());

  opt.entity_column = "missing";
  EXPECT_FALSE(OfflineTable::Create(opt).ok());

  opt = TestOptions();
  opt.entity_column = "rating";  // Wrong type.
  EXPECT_FALSE(OfflineTable::Create(opt).ok());

  opt = TestOptions();
  opt.time_column = "trips";  // Wrong type.
  EXPECT_FALSE(OfflineTable::Create(opt).ok());

  opt = TestOptions();
  opt.name = "";
  EXPECT_FALSE(OfflineTable::Create(opt).ok());

  opt = TestOptions();
  opt.partition_granularity = 0;
  EXPECT_FALSE(OfflineTable::Create(opt).ok());
}

TEST(OfflineTableTest, AppendAndScan) {
  auto table = OfflineTable::Create(TestOptions()).value();
  auto schema = TestSchema();
  ASSERT_TRUE(table->Append(MakeRow(schema, 1, Hours(1), 3, 4.5)).ok());
  ASSERT_TRUE(table->Append(MakeRow(schema, 2, Hours(2), 1, 3.0)).ok());
  ASSERT_TRUE(table->Append(MakeRow(schema, 1, Days(2), 5, 4.8)).ok());
  EXPECT_EQ(table->num_rows(), 3u);
  EXPECT_EQ(table->num_partitions(), 2u);  // Day 0 and day 2.
  EXPECT_EQ(table->max_event_time(), Days(2));

  EXPECT_EQ(table->Scan({})->size(), 3u);
  EXPECT_EQ(table->Scan({Hours(1), Hours(2)})->size(), 1u);   // [1h, 2h).
  EXPECT_EQ(table->Scan({Hours(1), Hours(2) + 1})->size(), 2u);
  EXPECT_EQ(table->Scan({Days(1), Days(3)})->size(), 1u);
  EXPECT_TRUE(table->Scan({Days(3), Days(4)})->empty());
  EXPECT_TRUE(table->Scan({Hours(2), Hours(1)})->empty());  // Empty range.
}

TEST(OfflineTableTest, ScanAppliesPredicate) {
  auto table = OfflineTable::Create(TestOptions()).value();
  auto schema = TestSchema();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(table->Append(MakeRow(schema, i, Hours(i), i, 0.0)).ok());
  }
  CompiledExpr pred = CompiledExpr::Compile("trips % 2 == 0", schema).value();
  auto rows = table->Scan({.predicate = &pred});
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 5u);
  for (const Row& row : *rows) EXPECT_EQ(row.value(2).int64_value() % 2, 0);
}

TEST(OfflineTableTest, ScanValidatesSpec) {
  auto table = OfflineTable::Create(TestOptions()).value();
  auto schema = TestSchema();
  ASSERT_TRUE(table->Append(MakeRow(schema, 1, Hours(1), 1, 0.5)).ok());
  // A well-formed projected, filtered scan, so each case below fails for
  // its one defect only.
  const std::vector<int> columns = {2, 3};
  const SchemaPtr projected =
      Schema::Create({schema->field(2), schema->field(3)}).value();
  CompiledExpr pred = CompiledExpr::Compile("trips > 0", schema).value();
  ASSERT_TRUE(table->Scan({.columns = columns,
                           .projected_schema = projected,
                           .predicate = &pred})
                  .ok());

  // A predicate compiled against another table's schema.
  const SchemaPtr other =
      Schema::Create({{"trips", FeatureType::kInt64, true}}).value();
  CompiledExpr foreign = CompiledExpr::Compile("trips > 0", other).value();
  EXPECT_TRUE(
      table->Scan({.predicate = &foreign}).status().IsInvalidArgument());
  // A predicate that is not BOOL.
  CompiledExpr numeric = CompiledExpr::Compile("trips + 1", schema).value();
  EXPECT_TRUE(
      table->Scan({.predicate = &numeric}).status().IsInvalidArgument());
  // projected_schema without columns, and columns without projected_schema.
  EXPECT_TRUE(table->Scan({.projected_schema = projected})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(table->Scan({.columns = columns}).status().IsInvalidArgument());
  // Width, type and nullability mismatches.
  const SchemaPtr narrow = Schema::Create({schema->field(2)}).value();
  EXPECT_TRUE(table->Scan({.columns = columns, .projected_schema = narrow})
                  .status()
                  .IsInvalidArgument());
  const SchemaPtr retyped =
      Schema::Create({{"trips", FeatureType::kDouble, true},
                      {"rating", FeatureType::kDouble, true}})
          .value();
  EXPECT_TRUE(table->Scan({.columns = columns, .projected_schema = retyped})
                  .status()
                  .IsInvalidArgument());
  const SchemaPtr not_null =
      Schema::Create({{"trips", FeatureType::kInt64, false},
                      {"rating", FeatureType::kDouble, true}})
          .value();
  EXPECT_TRUE(table->Scan({.columns = columns, .projected_schema = not_null})
                  .status()
                  .IsInvalidArgument());
  // An out-of-range column.
  const std::vector<int> out_of_range = {2, 4};
  EXPECT_TRUE(
      table->Scan({.columns = out_of_range, .projected_schema = projected})
          .status()
          .IsInvalidArgument());
  const std::vector<int> negative = {-1, 3};
  EXPECT_TRUE(table->Scan({.columns = negative, .projected_schema = projected})
                  .status()
                  .IsInvalidArgument());
}

TEST(OfflineTableTest, RejectsBadRows) {
  auto table = OfflineTable::Create(TestOptions()).value();
  auto other_schema =
      Schema::Create({{"x", FeatureType::kInt64, false}}).value();
  Row bad = Row::Create(other_schema, {Value::Int64(1)}).value();
  EXPECT_FALSE(table->Append(bad).ok());
}

TEST(OfflineTableTest, AsOfPicksLatestNotAfter) {
  auto table = OfflineTable::Create(TestOptions()).value();
  auto schema = TestSchema();
  // Insert out of order, across partitions.
  ASSERT_TRUE(table->Append(MakeRow(schema, 7, Days(3), 30, 3.0)).ok());
  ASSERT_TRUE(table->Append(MakeRow(schema, 7, Days(1), 10, 1.0)).ok());
  ASSERT_TRUE(table->Append(MakeRow(schema, 7, Days(2), 20, 2.0)).ok());

  EXPECT_TRUE(table->AsOf(Value::Int64(7), Days(1) - 1).status().IsNotFound());
  EXPECT_EQ(table->AsOf(Value::Int64(7), Days(1)).value()
                .value(2).int64_value(), 10);
  EXPECT_EQ(table->AsOf(Value::Int64(7), Days(2) + Hours(5)).value()
                .value(2).int64_value(), 20);
  EXPECT_EQ(table->AsOf(Value::Int64(7), kMaxTimestamp).value()
                .value(2).int64_value(), 30);
  EXPECT_TRUE(table->AsOf(Value::Int64(8), Days(9)).status().IsNotFound());
}

TEST(OfflineTableTest, AsOfTieBreaksByInsertionOrder) {
  auto table = OfflineTable::Create(TestOptions()).value();
  auto schema = TestSchema();
  ASSERT_TRUE(table->Append(MakeRow(schema, 1, Hours(5), 100, 0.0)).ok());
  ASSERT_TRUE(table->Append(MakeRow(schema, 1, Hours(5), 200, 0.0)).ok());
  // Same event time: the most recently appended row wins.
  EXPECT_EQ(table->AsOf(Value::Int64(1), Hours(5)).value()
                .value(2).int64_value(), 200);
}

TEST(OfflineTableTest, AsOfRandomizedAgainstOracle) {
  auto table = OfflineTable::Create(TestOptions()).value();
  auto schema = TestSchema();
  Rng rng(99);
  struct Ev { int64_t user; Timestamp ts; int64_t val; };
  std::vector<Ev> events;
  for (int i = 0; i < 500; ++i) {
    Ev e{static_cast<int64_t>(rng.Uniform(20)),
         static_cast<Timestamp>(rng.Uniform(Days(10))), i};
    events.push_back(e);
    ASSERT_TRUE(table->Append(MakeRow(schema, e.user, e.ts, e.val, 0.0)).ok());
  }
  for (int probe = 0; probe < 200; ++probe) {
    int64_t user = static_cast<int64_t>(rng.Uniform(20));
    Timestamp ts = static_cast<Timestamp>(rng.Uniform(Days(10)));
    // Oracle: latest event (by ts, then insertion order) with ts' <= ts.
    const Ev* best = nullptr;
    for (const auto& e : events) {
      if (e.user != user || e.ts > ts) continue;
      if (best == nullptr || e.ts > best->ts ||
          (e.ts == best->ts && e.val > best->val)) {
        best = &e;
      }
    }
    auto got = table->AsOf(Value::Int64(user), ts);
    if (best == nullptr) {
      EXPECT_TRUE(got.status().IsNotFound());
    } else {
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got->value(2).int64_value(), best->val);
    }
  }
}

// Shuffled AppendBatch calls put most postings below their entity's last
// one, so the key directory collects unsorted tails and merges them in
// before each batch returns. AsOf and AsOfBatch must match an oracle
// computed from the raw rows alone — the latest event time <= the probe,
// the later-appended row on equal timestamps — through heads sealed
// mid-batch, a batch cut short by a bad row, and a snapshot restore.
TEST(OfflineTableTest, ShuffledAppendBatchesMatchRawRowOracle) {
  OfflineTableOptions options = TestOptions();
  options.seal_rows = 37;  // Heads seal mid-batch.
  auto table = OfflineTable::Create(options).value();
  const SchemaPtr schema = TestSchema();
  const SchemaPtr other = Schema::Create({{"x", FeatureType::kInt64, false}})
                              .value();
  constexpr int64_t kUsers = 4;
  constexpr int64_t kHours = 72;  // Coarse times: many duplicates.
  struct Ev {
    int64_t user;
    Timestamp ts;
    int64_t seq;
  };
  std::vector<Ev> events;
  Rng rng(0x5047);
  for (int batch = 0; batch < 12; ++batch) {
    std::vector<Row> rows;
    const size_t batch_rows = 50 + rng.Uniform(250);
    const size_t bad_at = batch == 6 ? batch_rows / 2 : batch_rows;
    for (size_t i = 0; i < batch_rows; ++i) {
      if (i == bad_at) {
        rows.push_back(Row::Create(other, {Value::Int64(1)}).value());
      }
      const Ev e{static_cast<int64_t>(rng.Uniform(kUsers)),
                 Hours(static_cast<Timestamp>(rng.Uniform(kHours))),
                 static_cast<int64_t>(events.size())};
      // Rows after the bad one are never appended.
      if (i < bad_at) events.push_back(e);
      rows.push_back(MakeRow(schema, e.user, e.ts, e.seq, 0.0));
    }
    EXPECT_EQ(table->AppendBatch(rows).ok(), bad_at == batch_rows);
  }
  ASSERT_EQ(table->num_rows(), events.size());
  auto oracle = [&](int64_t user, Timestamp ts) -> const Ev* {
    const Ev* best = nullptr;
    for (const Ev& e : events) {
      if (e.user != user || e.ts > ts) continue;
      if (best == nullptr || e.ts >= best->ts) best = &e;  // Later seq wins.
    }
    return best;
  };
  auto restored = OfflineTable::FromSnapshot(table->Snapshot());
  ASSERT_TRUE(restored.ok()) << restored.status();
  for (const OfflineTable* t : {table.get(), restored->get()}) {
    std::vector<std::string> keys;
    std::vector<std::pair<int64_t, Timestamp>> probes;
    for (int64_t user = 0; user <= kUsers; ++user) {  // kUsers: no history.
      for (int64_t h = -1; h <= kHours; ++h) {
        probes.emplace_back(user, Hours(h));
        keys.push_back(EntityKeyToString(Value::Int64(user)).value());
      }
    }
    std::vector<AsOfRequest> requests;
    for (size_t i = 0; i < probes.size(); ++i) {
      requests.push_back({keys[i], probes[i].second});
    }
    std::vector<Row> results(requests.size());
    ASSERT_TRUE(t->AsOfBatch(requests, results).ok());
    for (size_t i = 0; i < probes.size(); ++i) {
      const auto [user, ts] = probes[i];
      const Ev* want = oracle(user, ts);
      auto got = t->AsOf(Value::Int64(user), ts);
      if (want == nullptr) {
        EXPECT_TRUE(got.status().IsNotFound());
        EXPECT_EQ(results[i].schema(), nullptr);
        continue;
      }
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(got->value(2).int64_value(), want->seq)
          << "user " << user << " at " << ts;
      ASSERT_NE(results[i].schema(), nullptr);
      EXPECT_EQ(results[i].value(2).int64_value(), want->seq)
          << "user " << user << " at " << ts;
    }
  }
}

TEST(OfflineTableTest, LatestPerEntityAsOf) {
  auto table = OfflineTable::Create(TestOptions()).value();
  auto schema = TestSchema();
  ASSERT_TRUE(table->Append(MakeRow(schema, 1, Hours(1), 11, 0.0)).ok());
  ASSERT_TRUE(table->Append(MakeRow(schema, 1, Hours(9), 19, 0.0)).ok());
  ASSERT_TRUE(table->Append(MakeRow(schema, 2, Hours(5), 25, 0.0)).ok());
  ASSERT_TRUE(table->Append(MakeRow(schema, 3, Days(2), 32, 0.0)).ok());

  const CompiledExpr trips = CompiledExpr::Compile("trips", schema).value();
  auto cells = table->EvalLatestPerEntityAsOf(Hours(10), trips).value();
  ASSERT_EQ(cells.size(), 2u);  // Entity 3 has no data yet.
  int64_t sum = 0;
  for (const auto& c : cells) sum += c.value.int64_value();
  EXPECT_EQ(sum, 19 + 25);
  // Canonical key order, each cell with its row's event time.
  EXPECT_EQ(cells[0].entity, Value::Int64(1));
  EXPECT_EQ(cells[0].event_time, Hours(9));
  EXPECT_EQ(cells[1].entity, Value::Int64(2));
  EXPECT_EQ(cells[1].event_time, Hours(5));

  EXPECT_EQ(table->EvalLatestPerEntityAsOf(kMaxTimestamp, trips)->size(), 3u);
  EXPECT_TRUE(table->EvalLatestPerEntityAsOf(0, trips)->empty());
}

TEST(OfflineTableTest, AsOfBatchMatchesAsOf) {
  auto table = OfflineTable::Create(TestOptions()).value();
  auto schema = TestSchema();
  Rng rng(7);
  // Out-of-order arrivals spread over many partitions, plus duplicate
  // timestamps so the append-order tie-break is exercised.
  for (int i = 0; i < 500; ++i) {
    int64_t user = static_cast<int64_t>(rng.Uniform(12));
    Timestamp ts = Hours(static_cast<int64_t>(rng.Uniform(24 * 40)));
    ASSERT_TRUE(table->Append(MakeRow(schema, user, ts, i, 0.0)).ok());
  }
  // Sorted (key, ts) request batch covering present and absent entities.
  struct Probe {
    std::string key;
    Timestamp ts;
  };
  std::vector<Probe> probes;
  for (int64_t user = 0; user < 15; ++user) {
    for (Timestamp ts : {Hours(0), Days(3), Days(17), Days(33), Days(50),
                         kMaxTimestamp}) {
      probes.push_back({std::to_string(user), ts});
    }
  }
  std::sort(probes.begin(), probes.end(), [](const Probe& a, const Probe& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.ts < b.ts;
  });
  std::vector<AsOfRequest> requests;
  requests.reserve(probes.size());
  for (const Probe& p : probes) requests.push_back({p.key, p.ts});
  std::vector<Row> results(requests.size());
  ASSERT_TRUE(table->AsOfBatch(requests, results).ok());
  for (size_t i = 0; i < probes.size(); ++i) {
    auto oracle = table->AsOf(Value::Int64(std::stoll(probes[i].key)),
                              probes[i].ts);
    if (oracle.ok()) {
      ASSERT_NE(results[i].schema(), nullptr) << "probe " << i;
      EXPECT_EQ(results[i], *oracle) << "probe " << i;
    } else {
      EXPECT_EQ(results[i].schema(), nullptr) << "probe " << i;
    }
  }
}

// AsOf is a one-request, full-width AsOfBatch: the same row bytes on a
// hit, NotFound naming the key and time on a miss, one evaluation of the
// offline_store.as_of failpoint per call on a valid key, none on a key
// that cannot be canonicalized. Head and sealed rows both answer.
TEST(OfflineTableTest, AsOfIsABatchOfOne) {
  OfflineTableOptions options = TestOptions();
  options.seal_rows = 16;
  auto table = OfflineTable::Create(options).value();
  auto schema = TestSchema();
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const int64_t user = static_cast<int64_t>(rng.Uniform(6));
    const Timestamp ts = Hours(static_cast<int64_t>(rng.Uniform(24 * 6)));
    ASSERT_TRUE(table->Append(MakeRow(schema, user, ts, i, 0.5 * i)).ok());
  }
  ASSERT_GT(table->storage_stats().sealed_rows, 0u);
  ASSERT_GT(table->storage_stats().head_rows, 0u);

  FailpointConfig count_only;
  count_only.status = Status::OK();  // Fires without failing: counts calls.
  ScopedFailpoint fp("offline_store.as_of", count_only);
  auto row_bytes = [](const Row& row) {
    Encoder enc;
    enc.PutRow(row);
    return enc.Release();
  };
  for (int64_t user = 0; user <= 7; ++user) {  // 6 and 7: no history.
    const std::string key = EntityKeyToString(Value::Int64(user)).value();
    for (Timestamp ts : {Hours(-1), Hours(0), Hours(30), Days(3) + 1,
                         Days(7), kMaxTimestamp}) {
      const AsOfRequest request{key, ts};
      Row batch_row;
      ASSERT_TRUE(table->AsOfBatch({&request, 1}, {&batch_row, 1}).ok());
      const uint64_t before = fp.stats().evaluations;
      auto got = table->AsOf(Value::Int64(user), ts);
      EXPECT_EQ(fp.stats().evaluations, before + 1)
          << "user " << user << " at " << ts;
      if (batch_row.schema() == nullptr) {
        ASSERT_TRUE(got.status().IsNotFound()) << got.status();
        EXPECT_EQ(got.status().message(),
                  "no row for entity '" + key + "' as of " +
                      FormatTimestamp(ts));
        continue;
      }
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(row_bytes(*got), row_bytes(batch_row))
          << "user " << user << " at " << ts;
    }
  }
  const uint64_t before = fp.stats().evaluations;
  auto bad_key = table->AsOf(Value::Double(1.0), kMaxTimestamp);
  EXPECT_TRUE(bad_key.status().IsInvalidArgument()) << bad_key.status();
  EXPECT_EQ(fp.stats().evaluations, before);
}

TEST(OfflineTableTest, AsOfBatchEqualTimestampTieBreak) {
  auto table = OfflineTable::Create(TestOptions()).value();
  auto schema = TestSchema();
  // Three rows for one entity at the identical event time: the most
  // recently appended must win, matching AsOf.
  ASSERT_TRUE(table->Append(MakeRow(schema, 1, Hours(5), 10, 0.0)).ok());
  ASSERT_TRUE(table->Append(MakeRow(schema, 1, Hours(5), 11, 0.0)).ok());
  ASSERT_TRUE(table->Append(MakeRow(schema, 1, Hours(5), 12, 0.0)).ok());
  std::vector<AsOfRequest> requests = {{"1", Hours(5)}, {"1", Hours(6)}};
  std::vector<Row> results(2);
  ASSERT_TRUE(table->AsOfBatch(requests, results).ok());
  ASSERT_NE(results[0].schema(), nullptr);
  EXPECT_EQ(results[0].value(2).int64_value(), 12);
  EXPECT_EQ(results[1].value(2).int64_value(), 12);
  EXPECT_EQ(table->AsOf(Value::Int64(1), Hours(5))->value(2).int64_value(),
            12);
}

TEST(OfflineTableTest, AsOfBatchValidatesInput) {
  auto table = OfflineTable::Create(TestOptions()).value();
  auto schema = TestSchema();
  ASSERT_TRUE(table->Append(MakeRow(schema, 1, Hours(1), 1, 0.0)).ok());

  // Empty batch is fine.
  EXPECT_TRUE(table->AsOfBatch({}, {}).ok());

  // Size mismatch.
  std::vector<AsOfRequest> requests = {{"1", Hours(2)}};
  std::vector<Row> too_small;
  EXPECT_TRUE(table->AsOfBatch(requests, too_small).IsInvalidArgument());

  // Unsorted keys.
  std::vector<AsOfRequest> bad_keys = {{"2", Hours(1)}, {"1", Hours(1)}};
  std::vector<Row> results(2);
  EXPECT_TRUE(table->AsOfBatch(bad_keys, results).IsInvalidArgument());

  // Unsorted timestamps within a key.
  std::vector<AsOfRequest> bad_ts = {{"1", Hours(3)}, {"1", Hours(1)}};
  EXPECT_TRUE(table->AsOfBatch(bad_ts, results).IsInvalidArgument());
}

TEST(OfflineTableTest, SnapshotRestoreRoundTrip) {
  auto table = OfflineTable::Create(TestOptions()).value();
  auto schema = TestSchema();
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(table
                    ->Append(MakeRow(schema, rng.Uniform(10),
                                     rng.Uniform(Days(5)), i, rng.Gaussian()))
                    .ok());
  }
  auto rebuilt = OfflineTable::FromSnapshot(table->Snapshot());
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  const std::unique_ptr<OfflineTable>& restored = *rebuilt;
  EXPECT_EQ(restored->name(), table->name());
  EXPECT_EQ(restored->num_rows(), 100u);
  EXPECT_EQ(restored->max_event_time(), table->max_event_time());
  // As-of results must match on all probes.
  for (int u = 0; u < 10; ++u) {
    auto a = table->AsOf(Value::Int64(u), Days(3));
    auto b = restored->AsOf(Value::Int64(u), Days(3));
    ASSERT_EQ(a.ok(), b.ok());
    if (a.ok()) {
      EXPECT_EQ(*a, *b);
    }
  }
}

TEST(OfflineTableTest, RestoreRejectsBadInput) {
  EXPECT_EQ(OfflineTable::FromSnapshot("garbage").status().code(),
            StatusCode::kCorruption);

  auto table = OfflineTable::Create(TestOptions()).value();
  ASSERT_TRUE(table->Append(MakeRow(TestSchema(), 1, 0, 1, 1.0)).ok());
  const std::string snap = table->Snapshot();
  ASSERT_TRUE(OfflineTable::FromSnapshot(snap).ok());
  // A cut-short snapshot and one with a changed byte are both refused.
  EXPECT_EQ(OfflineTable::FromSnapshot(snap.substr(0, snap.size() - 1))
                .status()
                .code(),
            StatusCode::kCorruption);
  std::string flipped = snap;
  flipped[flipped.size() / 2] ^= 0x01;
  EXPECT_EQ(OfflineTable::FromSnapshot(flipped).status().code(),
            StatusCode::kCorruption);
}

TEST(OfflineStoreTest, TableRegistry) {
  OfflineStore store;
  ASSERT_TRUE(store.CreateTable(TestOptions()).ok());
  EXPECT_TRUE(store.CreateTable(TestOptions()).IsAlreadyExists());
  EXPECT_TRUE(store.HasTable("user_stats"));
  EXPECT_FALSE(store.HasTable("nope"));
  EXPECT_TRUE(store.GetTable("user_stats").ok());
  EXPECT_TRUE(store.GetTable("nope").status().IsNotFound());
  EXPECT_EQ(store.TableNames(), (std::vector<std::string>{"user_stats"}));
}

TEST(EntityKeyTest, Canonicalization) {
  EXPECT_EQ(EntityKeyToString(Value::Int64(42)).value(), "42");
  EXPECT_EQ(EntityKeyToString(Value::String("user_a")).value(), "user_a");
  EXPECT_FALSE(EntityKeyToString(Value::Double(1.0)).ok());
  EXPECT_FALSE(EntityKeyToString(Value::Null()).ok());
}

}  // namespace
}  // namespace mlfs
