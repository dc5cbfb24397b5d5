// Sealed-segment format suite: every column encoding round-trips through
// Encode -> FromBytes and Encode -> file -> FromFile (mmap); truncations,
// bit flips, and bad checksums anywhere in a blob must surface as Status
// errors — never a crash, hang, or out-of-bounds read; and failpoint-
// injected I/O faults during seal/compact/spill must leave the table fully
// readable.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/rng.h"
#include "common/serde.h"
#include "storage/offline_store.h"
#include "storage/persistence.h"
#include "storage/segment.h"

namespace mlfs {
namespace {

std::string RowsBytes(const std::vector<Row>& rows) {
  Encoder enc;
  enc.PutVarint64(rows.size());
  for (const Row& row : rows) enc.PutRow(row);
  return enc.Release();
}

// A schema exercising every column encoding: dictionary (entity string +
// payload string), delta timestamps, raw64 int/double, bool bytes,
// float-list embeddings, and an all-NULL column.
SchemaPtr AllEncodingsSchema() {
  return Schema::Create({{"key", FeatureType::kString, false},
                         {"event_time", FeatureType::kTimestamp, false},
                         {"v_int", FeatureType::kInt64, true},
                         {"v_double", FeatureType::kDouble, true},
                         {"v_bool", FeatureType::kBool, true},
                         {"v_emb", FeatureType::kEmbedding, true},
                         {"v_null", FeatureType::kNull, true}})
      .value();
}

std::vector<Row> AllEncodingsRows(const SchemaPtr& schema, size_t n) {
  Rng rng(0x5e9);
  std::vector<Row> rows;
  for (size_t i = 0; i < n; ++i) {
    std::vector<float> vec(1 + i % 3);
    for (float& f : vec) f = static_cast<float>(rng.Gaussian());
    rows.push_back(
        Row::Create(
            schema,
            {Value::String("key_" + std::to_string(i % 7)),
             // Deliberately non-monotone: deltas go negative too.
             Value::Time(Hours(3) * static_cast<Timestamp>(rng.Uniform(8))),
             rng.Bernoulli(0.25) ? Value::Null()
                                 : Value::Int64(static_cast<int64_t>(i) -
                                                50),
             rng.Bernoulli(0.25) ? Value::Null()
                                 : Value::Double(rng.Gaussian()),
             rng.Bernoulli(0.25) ? Value::Null()
                                 : Value::Bool(rng.Bernoulli(0.5)),
             rng.Bernoulli(0.25) ? Value::Null()
                                 : Value::Embedding(std::move(vec)),
             Value::Null()})
            .value());
  }
  return rows;
}

std::vector<Row> MaterializeAll(const Segment& seg) {
  std::vector<int> all;
  for (size_t c = 0; c < seg.schema()->num_fields(); ++c) {
    all.push_back(static_cast<int>(c));
  }
  std::vector<Row> rows;
  for (size_t r = 0; r < seg.num_rows(); ++r) {
    std::vector<Value> values;
    seg.AppendProjected(r, all, &values);
    rows.push_back(Row::CreateUnsafe(seg.schema(), std::move(values)));
  }
  return rows;
}

TEST(SegmentFormatTest, AllEncodingsRoundTripBitExact) {
  const SchemaPtr schema = AllEncodingsSchema();
  const std::vector<Row> rows = AllEncodingsRows(schema, 64);
  auto encoded = Segment::Encode(schema, /*partition_id=*/0,
                                 /*entity_idx=*/0, /*time_idx=*/1, rows);
  ASSERT_TRUE(encoded.ok()) << encoded.status();
  auto seg = Segment::FromBytes(*encoded);
  ASSERT_TRUE(seg.ok()) << seg.status();
  EXPECT_EQ((*seg)->num_rows(), rows.size());
  EXPECT_FALSE((*seg)->spilled());
  // Bit-exact: NULL-ness, double bit patterns, embedding floats, the lot.
  EXPECT_EQ(RowsBytes(MaterializeAll(**seg)), RowsBytes(rows));
  // Per-row timestamp accessor agrees with the column.
  for (size_t r = 0; r < rows.size(); ++r) {
    EXPECT_EQ((*seg)->ts(r), rows[r].value(1).time_value());
  }
}

TEST(SegmentFormatTest, MemoryMappedFileRoundTripsAndCleansUp) {
  const SchemaPtr schema = AllEncodingsSchema();
  const std::vector<Row> rows = AllEncodingsRows(schema, 48);
  auto encoded = Segment::Encode(schema, 0, 0, 1, rows);
  ASSERT_TRUE(encoded.ok()) << encoded.status();
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "seg_roundtrip.seg")
          .string();
  ASSERT_TRUE(WriteFileAtomic(path, *encoded).ok());
  {
    auto seg = Segment::FromFile(path, /*remove_file_on_destroy=*/true);
    ASSERT_TRUE(seg.ok()) << seg.status();
    EXPECT_TRUE((*seg)->spilled());
    EXPECT_EQ(RowsBytes(MaterializeAll(**seg)), RowsBytes(rows));
    EXPECT_TRUE(std::filesystem::exists(path));
  }
  // Scratch semantics: the file is removed with the last reference.
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(SegmentFormatTest, EncodeRejectsInvalidInput) {
  const SchemaPtr schema = AllEncodingsSchema();
  const std::vector<Row> rows = AllEncodingsRows(schema, 4);
  EXPECT_FALSE(Segment::Encode(nullptr, 0, 0, 1, rows).ok());
  EXPECT_FALSE(Segment::Encode(schema, 0, 0, 1, {}).ok());
  EXPECT_FALSE(Segment::Encode(schema, 0, 9, 1, rows).ok());   // Bad entity.
  EXPECT_FALSE(Segment::Encode(schema, 0, 0, 9, rows).ok());   // Bad time.
  EXPECT_FALSE(Segment::Encode(schema, 0, 0, 0, rows).ok());   // Not a ts.
}

// Every truncation length must fail cleanly: the blob carries its body
// length and whole-body checksum up front, so no prefix can validate.
TEST(SegmentCorruptionTest, EveryTruncationFailsCleanly) {
  const SchemaPtr schema = AllEncodingsSchema();
  auto encoded =
      Segment::Encode(schema, 0, 0, 1, AllEncodingsRows(schema, 32));
  ASSERT_TRUE(encoded.ok());
  const std::string& blob = *encoded;
  // Dense sweep over the small prefixes (header machinery) plus a strided
  // sweep across the body.
  for (size_t len = 0; len < blob.size();
       len += (len < 64 ? 1 : 37)) {
    auto seg = Segment::FromBytes(blob.substr(0, len));
    EXPECT_FALSE(seg.ok()) << "truncation at " << len << " parsed";
  }
}

// Every single-bit flip must either fail validation or (never) crash. The
// whole-body hash makes "either" an "always fails" in practice; assert
// that directly.
TEST(SegmentCorruptionTest, BitFlipsAnywhereAreDetected) {
  const SchemaPtr schema = AllEncodingsSchema();
  auto encoded =
      Segment::Encode(schema, 0, 0, 1, AllEncodingsRows(schema, 16));
  ASSERT_TRUE(encoded.ok());
  const std::string& blob = *encoded;
  Rng rng(0xb17);
  // Exhaustive over bytes, random bit within the byte (8x cheaper than
  // exhaustive bits with the same byte coverage).
  for (size_t pos = 0; pos < blob.size(); ++pos) {
    std::string corrupt = blob;
    corrupt[pos] = static_cast<char>(
        static_cast<unsigned char>(corrupt[pos]) ^
        static_cast<unsigned char>(1u << rng.Uniform(8)));
    auto seg = Segment::FromBytes(std::move(corrupt));
    EXPECT_FALSE(seg.ok()) << "bit flip at byte " << pos << " parsed";
  }
}

TEST(SegmentCorruptionTest, CorruptFileFailsViaStatusNotUb) {
  const SchemaPtr schema = AllEncodingsSchema();
  auto encoded =
      Segment::Encode(schema, 0, 0, 1, AllEncodingsRows(schema, 32));
  ASSERT_TRUE(encoded.ok());
  std::string corrupt = *encoded;
  corrupt[corrupt.size() / 2] ^= 0x40;  // Flip a bit mid-body ("page").
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "seg_corrupt.seg")
          .string();
  ASSERT_TRUE(WriteFileAtomic(path, corrupt).ok());
  auto seg = Segment::FromFile(path, /*remove_file_on_destroy=*/false);
  EXPECT_FALSE(seg.ok());
  std::error_code ec;
  std::filesystem::remove(path, ec);
  // Missing file: clean error too.
  EXPECT_FALSE(
      Segment::FromFile("/nonexistent/dir/zzz.seg", false).ok());
}

// --- Fault injection on the maintenance paths ---------------------------

class SegmentFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailpointRegistry::Instance().DisarmAll();
    FailpointRegistry::Instance().Reseed(0x5e9f);
  }
  void TearDown() override { FailpointRegistry::Instance().DisarmAll(); }
};

std::unique_ptr<OfflineTable> SmallColumnarTable(const std::string& spill_dir,
                                                 size_t budget) {
  OfflineTableOptions options;
  options.name = "faulty";
  options.schema = AllEncodingsSchema();
  options.entity_column = "key";
  options.time_column = "event_time";
  options.seal_rows = 8;
  options.compact_min_segments = 2;
  options.memory_budget_bytes = budget;
  options.spill_dir = spill_dir;
  return OfflineTable::Create(options).value();
}

TEST_F(SegmentFaultTest, SealCompactSpillFaultsLeaveTableReadable) {
  const std::string spill_dir =
      (std::filesystem::path(::testing::TempDir()) / "mlfs_fault_spill")
          .string();
  auto table = SmallColumnarTable(spill_dir, 1024);
  const std::vector<Row> rows =
      AllEncodingsRows(AllEncodingsSchema(), 100);
  // Schemas from two Schema::Create calls compare equal; rebuild rows on
  // the table's schema to keep append cheap.
  std::vector<Row> on_schema;
  for (const Row& row : rows) {
    on_schema.push_back(
        Row::Create(table->options().schema, row.values()).value());
  }
  ASSERT_TRUE(table->AppendBatch(on_schema).ok());
  const std::string before = RowsBytes(table->Scan({}).value());
  const size_t rows_before = table->num_rows();

  for (const char* failpoint :
       {"offline_store.seal", "offline_store.compact",
        "offline_store.spill"}) {
    FailpointConfig config;
    config.status = Status::Internal("injected I/O fault");
    ScopedFailpoint fp(failpoint, config);
    EXPECT_FALSE(table->RunMaintenance().ok()) << failpoint;
    // The fault must not have lost, duplicated, or reordered anything.
    EXPECT_EQ(table->num_rows(), rows_before) << failpoint;
    EXPECT_EQ(RowsBytes(table->Scan({}).value()), before) << failpoint;
  }
  // Faults on the file-write path during spill: the resident segment must
  // simply stay resident.
  {
    FailpointConfig config;
    config.status = Status::Internal("injected write fault");
    ScopedFailpoint fp("persistence.write", config);
    EXPECT_FALSE(table->RunMaintenance().ok());
    EXPECT_EQ(RowsBytes(table->Scan({}).value()), before);
    EXPECT_EQ(table->storage_stats().spilled_segments, 0u);
  }
  // Faults while (re)opening the spilled file: same guarantee.
  {
    FailpointConfig config;
    config.status = Status::Internal("injected open fault");
    ScopedFailpoint fp("segment.open", config);
    EXPECT_FALSE(table->RunMaintenance().ok());
    EXPECT_EQ(RowsBytes(table->Scan({}).value()), before);
    EXPECT_EQ(table->storage_stats().spilled_segments, 0u);
  }
  // With the faults gone, maintenance completes and the data is unchanged.
  ASSERT_TRUE(table->RunMaintenance().ok());
  EXPECT_GT(table->storage_stats().spilled_segments, 0u);
  EXPECT_EQ(RowsBytes(table->Scan({}).value()), before);
  table.reset();
  std::error_code ec;
  std::filesystem::remove_all(spill_dir, ec);
}

// Every failed RunMaintenance pass is counted in maintenance_errors, and
// the table keeps serving identical data; a pass that succeeds leaves the
// count alone.
TEST_F(SegmentFaultTest, RunMaintenanceCountsFailedPasses) {
  const std::string spill_dir =
      (std::filesystem::path(::testing::TempDir()) / "mlfs_bg_fault")
          .string();
  auto table = SmallColumnarTable(spill_dir, 1024);
  std::vector<Row> rows;
  {
    const SchemaPtr& schema = table->options().schema;
    for (const Row& row : AllEncodingsRows(schema, 64)) {
      rows.push_back(Row::Create(schema, row.values()).value());
    }
  }
  ASSERT_TRUE(table->AppendBatch(rows).ok());
  const std::string before = RowsBytes(table->Scan({}).value());
  EXPECT_EQ(table->storage_stats().maintenance_errors, 0u);

  {
    FailpointConfig config;
    config.status = Status::Internal("injected fault");
    ScopedFailpoint fp("offline_store.seal", config);
    EXPECT_FALSE(table->RunMaintenance().ok());
    EXPECT_FALSE(table->RunMaintenance().ok());
    EXPECT_EQ(table->storage_stats().maintenance_errors, 2u);
    EXPECT_EQ(RowsBytes(table->Scan({}).value()), before);
  }
  ASSERT_TRUE(table->RunMaintenance().ok());
  EXPECT_EQ(table->storage_stats().maintenance_errors, 2u);
  EXPECT_GT(table->storage_stats().spilled_segments, 0u);
  EXPECT_EQ(RowsBytes(table->Scan({}).value()), before);
  table.reset();
  std::error_code ec;
  std::filesystem::remove_all(spill_dir, ec);
}

// A corrupted embedded segment inside a table snapshot is rejected as
// Corruption (the segment checksums travel with the snapshot).
TEST_F(SegmentFaultTest, CorruptSnapshotSegmentRejected) {
  auto table = SmallColumnarTable("", 0);
  std::vector<Row> rows;
  {
    const SchemaPtr& schema = table->options().schema;
    for (const Row& row : AllEncodingsRows(schema, 40)) {
      rows.push_back(Row::Create(schema, row.values()).value());
    }
  }
  ASSERT_TRUE(table->AppendBatch(rows).ok());
  ASSERT_TRUE(table->SealHeads().ok());
  std::string snapshot = table->Snapshot();
  ASSERT_GT(table->storage_stats().sealed_segments, 0u);
  // Flip one bit deep in the payload (inside the first embedded segment).
  snapshot[snapshot.size() / 2] ^= 0x10;
  auto restored = OfflineTable::FromSnapshot(snapshot);
  EXPECT_FALSE(restored.ok());
}

}  // namespace
}  // namespace mlfs
