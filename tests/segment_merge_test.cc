// Segment::Merge differential suite: merging sealed segments column by
// column must give exactly the bytes Segment::Encode writes for the
// segments' decoded rows. Randomized fixtures cover every encoding, NULLs
// (a NULL timestamp at a segment boundary, all-NULL columns and so empty
// dictionaries), strings repeated across segments, NaN payloads, empty and
// varying-length embeddings, bitmaps meeting at every bit offset, and
// spilled (memory-mapped) inputs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/serde.h"
#include "storage/segment.h"

namespace mlfs {
namespace {

constexpr int kEntityIdx = 0;
constexpr int kTimeIdx = 1;

SchemaPtr MergeSchema() {
  return Schema::Create({{"key", FeatureType::kString, false},
                         {"event_time", FeatureType::kTimestamp, false},
                         {"v_int", FeatureType::kInt64, true},
                         {"v_double", FeatureType::kDouble, true},
                         {"v_bool", FeatureType::kBool, true},
                         {"v_ts", FeatureType::kTimestamp, true},
                         {"v_str", FeatureType::kString, true},
                         {"v_emb", FeatureType::kEmbedding, true},
                         {"v_null", FeatureType::kNull, true}})
      .value();
}

std::string RowsBytes(const std::vector<Row>& rows) {
  Encoder enc;
  enc.PutVarint64(rows.size());
  for (const Row& row : rows) enc.PutRow(row);
  return enc.Release();
}

std::vector<Row> DecodeRows(const Segment& seg) {
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

double NanWithPayload(uint64_t payload) {
  const uint64_t bits = 0x7ff0000000000000ULL | (payload & 0xfffffffffffffULL);
  double d;
  std::memcpy(&d, &bits, 8);
  return std::isnan(d) ? d : std::nan("");
}

/// One randomized fixture: per column a NULL probability drawn from
/// {0, 0.3, 1} (1 makes the column all NULL, and a dictionary empty), and
/// strings drawn from a pool small enough to repeat across segments.
struct Fixture {
  explicit Fixture(uint64_t seed) : rng(seed) {
    for (double& p : null_prob) {
      const uint64_t pick = rng.Uniform(4);
      p = pick == 0 ? 1.0 : (pick == 1 ? 0.3 : 0.0);
    }
    string_pool = 1 + rng.Uniform(12);
  }

  Value MaybeNull(size_t col, Value v) {
    return rng.Bernoulli(null_prob[col]) ? Value::Null() : std::move(v);
  }

  Row MakeRow(const SchemaPtr& schema, bool null_ts) {
    double d = rng.Gaussian();
    switch (rng.Uniform(6)) {
      case 0:
        d = NanWithPayload(rng.Next());
        break;
      case 1:
        d = -0.0;
        break;
      default:
        break;
    }
    std::vector<float> emb(rng.Uniform(4));  // Empty embeddings included.
    for (float& f : emb) f = static_cast<float>(rng.Gaussian());
    return Row::CreateUnsafe(
        schema,
        {Value::String("k" + std::to_string(rng.Uniform(3 * string_pool))),
         Value::Time(Hours(static_cast<Timestamp>(rng.Uniform(48))) -
                     Hours(24)),
         MaybeNull(2, Value::Int64(static_cast<int64_t>(rng.Next()))),
         MaybeNull(3, Value::Double(d)),
         MaybeNull(4, Value::Bool(rng.Bernoulli(0.5))),
         null_ts ? Value::Null()
                 : MaybeNull(5, Value::Time(static_cast<Timestamp>(
                                    rng.UniformInt(-1000000, 1000000)))),
         MaybeNull(6, Value::String(std::string(rng.Uniform(3), 'x') +
                                    std::to_string(rng.Uniform(string_pool)))),
         MaybeNull(7, Value::Embedding(std::move(emb))), Value::Null()});
  }

  Rng rng;
  double null_prob[9] = {};
  uint64_t string_pool = 1;
};

TEST(SegmentMergeTest, MergeIsByteIdenticalToEncodeOfDecodedRows) {
  const SchemaPtr schema = MergeSchema();
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "segment_merge").string();
  std::filesystem::create_directories(dir);
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Fixture fx(seed);
    const int64_t pid = static_cast<int64_t>(fx.rng.Uniform(5)) - 2;
    const size_t num_segments = 1 + fx.rng.Uniform(6);
    const bool spill = seed % 3 == 0;
    std::vector<SegmentPtr> segments;
    std::vector<Row> original;
    std::vector<Row> decoded;
    for (size_t s = 0; s < num_segments; ++s) {
      // Sizes 1..40 put each segment's first row at every bit offset.
      const size_t rows = 1 + fx.rng.Uniform(40);
      std::vector<Row> seg_rows;
      for (size_t r = 0; r < rows; ++r) {
        // A NULL timestamp opening a segment repeats the previous
        // segment's last value in the merged delta stream.
        const bool null_ts = r == 0 && fx.rng.Bernoulli(0.5);
        seg_rows.push_back(fx.MakeRow(schema, null_ts));
      }
      auto blob = Segment::Encode(schema, pid, kEntityIdx, kTimeIdx, seg_rows);
      ASSERT_TRUE(blob.ok()) << blob.status();
      auto seg = Segment::FromBytes(*blob);
      ASSERT_TRUE(seg.ok()) << seg.status();
      if (spill) {
        seg = Segment::SpillToFile(
            **seg,
            dir + "/s" + std::to_string(seed) + "_" + std::to_string(s),
            /*remove_file_on_destroy=*/true);
        ASSERT_TRUE(seg.ok()) << seg.status();
        ASSERT_TRUE((*seg)->spilled());
      }
      for (Row& row : DecodeRows(**seg)) decoded.push_back(std::move(row));
      original.insert(original.end(), seg_rows.begin(), seg_rows.end());
      segments.push_back(*seg);
    }
    auto merged = Segment::Merge(segments);
    ASSERT_TRUE(merged.ok()) << "seed " << seed << ": " << merged.status();
    auto expected = Segment::Encode(schema, pid, kEntityIdx, kTimeIdx, decoded);
    ASSERT_TRUE(expected.ok()) << expected.status();
    ASSERT_EQ(*merged, *expected) << "seed " << seed;
    // And the merged segment serves the original rows, bit for bit.
    auto opened = Segment::FromBytes(*merged);
    ASSERT_TRUE(opened.ok()) << opened.status();
    EXPECT_EQ((*opened)->partition_id(), pid);
    EXPECT_EQ(RowsBytes(DecodeRows(**opened)), RowsBytes(original))
        << "seed " << seed;
  }
  std::filesystem::remove_all(dir);
}

TEST(SegmentMergeTest, MergeRejectsMismatchedSegments) {
  const SchemaPtr schema = MergeSchema();
  Fixture fx(7);
  std::vector<Row> rows = {fx.MakeRow(schema, false),
                           fx.MakeRow(schema, false)};
  auto open = [&](int64_t pid, const SchemaPtr& s, const std::vector<Row>& r) {
    return Segment::FromBytes(
               Segment::Encode(s, pid, kEntityIdx, kTimeIdx, r).value())
        .value();
  };
  const SegmentPtr a = open(0, schema, rows);
  EXPECT_TRUE(Segment::Merge({}).status().IsInvalidArgument());
  const SegmentPtr other_pid[] = {a, open(1, schema, rows)};
  EXPECT_TRUE(Segment::Merge(other_pid).status().IsInvalidArgument());
  const SchemaPtr narrow =
      Schema::Create({{"key", FeatureType::kString, false},
                      {"event_time", FeatureType::kTimestamp, false}})
          .value();
  const std::vector<Row> narrow_rows = {Row::CreateUnsafe(
      narrow, {Value::String("k"), Value::Time(Hours(1))})};
  const SegmentPtr other_schema[] = {a, open(0, narrow, narrow_rows)};
  EXPECT_TRUE(Segment::Merge(other_schema).status().IsInvalidArgument());
}

// A blob of the previous format (version 1, FNV-1a trailer) is refused on
// its version, before its checksum is looked at.
TEST(SegmentMergeTest, PreviousFormatVersionIsUnsupported) {
  const SchemaPtr schema = MergeSchema();
  Fixture fx(11);
  std::string blob =
      Segment::Encode(schema, 0, kEntityIdx, kTimeIdx,
                      std::vector<Row>{fx.MakeRow(schema, false)})
          .value();
  const uint32_t old_version = 1;
  std::memcpy(blob.data() + 4, &old_version, 4);
  auto seg = Segment::FromBytes(blob);
  ASSERT_FALSE(seg.ok());
  EXPECT_NE(seg.status().ToString().find("unsupported version 1"),
            std::string::npos)
      << seg.status();
}

}  // namespace
}  // namespace mlfs
