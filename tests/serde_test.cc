#include "common/serde.h"

#include <gtest/gtest.h>

#include <ostream>

#include "common/rng.h"

namespace mlfs {

// gtest's fallback printer dumps a Value's raw bytes, heap pointers and
// padding included, and those bytes become part of the discovered test
// names. Print the type and value instead so the names are stable.
void PrintTo(const Value& v, std::ostream* os) {
  *os << FeatureTypeToString(v.type()) << ':' << v.ToString();
}

namespace {

TEST(SerdeTest, VarintRoundTrip) {
  const uint64_t cases[] = {0,    1,    127,        128,
                            300,  1u << 20, 1ull << 40, UINT64_MAX};
  for (uint64_t v : cases) {
    Encoder enc;
    enc.PutVarint64(v);
    Decoder dec(enc.buffer());
    EXPECT_EQ(dec.GetVarint64().value(), v);
    EXPECT_TRUE(dec.AtEnd());
  }
}

TEST(SerdeTest, FixedRoundTrip) {
  Encoder enc;
  enc.PutFixed32(0xdeadbeef);
  enc.PutFixed64(0x0123456789abcdefULL);
  enc.PutDouble(-3.25);
  enc.PutFloat(1.5f);
  Decoder dec(enc.buffer());
  EXPECT_EQ(dec.GetFixed32().value(), 0xdeadbeefu);
  EXPECT_EQ(dec.GetFixed64().value(), 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(dec.GetDouble().value(), -3.25);
  EXPECT_FLOAT_EQ(dec.GetFloat().value(), 1.5f);
  EXPECT_TRUE(dec.AtEnd());
}

TEST(SerdeTest, StringRoundTrip) {
  Encoder enc;
  enc.PutString("");
  enc.PutString("hello");
  std::string binary("\x00\x01\xff", 3);
  enc.PutString(binary);
  Decoder dec(enc.buffer());
  EXPECT_EQ(dec.GetString().value(), "");
  EXPECT_EQ(dec.GetString().value(), "hello");
  EXPECT_EQ(dec.GetString().value(), binary);
}

class ValueRoundTripTest : public ::testing::TestWithParam<Value> {};

TEST_P(ValueRoundTripTest, RoundTrips) {
  Encoder enc;
  enc.PutValue(GetParam());
  Decoder dec(enc.buffer());
  auto got = dec.GetValue();
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, GetParam());
  EXPECT_TRUE(dec.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, ValueRoundTripTest,
    ::testing::Values(Value::Null(), Value::Bool(true), Value::Bool(false),
                      Value::Int64(0), Value::Int64(-123456789),
                      Value::Int64(INT64_MAX), Value::Double(0.0),
                      Value::Double(-1e300), Value::String(""),
                      Value::String("feature_store"), Value::Time(Days(400)),
                      Value::Embedding({}),
                      Value::Embedding({1.5f, -2.5f, 0.0f})));

TEST(SerdeTest, RowRoundTrip) {
  auto schema = Schema::Create({{"id", FeatureType::kInt64, false},
                                {"emb", FeatureType::kEmbedding, true},
                                {"note", FeatureType::kString, true}})
                    .value();
  auto row = Row::Create(schema, {Value::Int64(42),
                                  Value::Embedding({0.5f, 0.25f}),
                                  Value::Null()})
                 .value();
  Encoder enc;
  enc.PutRow(row);
  Decoder dec(enc.buffer());
  auto got = dec.GetRow(schema);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, row);
}

TEST(SerdeTest, TruncatedInputIsCorruption) {
  Encoder enc;
  enc.PutValue(Value::String("hello world"));
  std::string data = enc.buffer();
  for (size_t cut = 0; cut + 1 < data.size(); ++cut) {
    Decoder dec(std::string_view(data.data(), cut));
    auto got = dec.GetValue();
    EXPECT_FALSE(got.ok()) << "cut=" << cut;
    EXPECT_EQ(got.status().code(), StatusCode::kCorruption);
  }
}

TEST(SerdeTest, BadTagIsCorruption) {
  std::string data = "\x63";  // Tag 99.
  Decoder dec(data);
  auto got = dec.GetValue();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCorruption);
}

TEST(SerdeTest, FuzzRandomValuesRoundTrip) {
  Rng rng(77);
  for (int iter = 0; iter < 500; ++iter) {
    Value v;
    switch (rng.Uniform(6)) {
      case 0: v = Value::Null(); break;
      case 1: v = Value::Bool(rng.Bernoulli(0.5)); break;
      case 2: v = Value::Int64(static_cast<int64_t>(rng.Next())); break;
      case 3: v = Value::Double(rng.Gaussian(0, 1e6)); break;
      case 4: {
        std::string s;
        size_t len = rng.Uniform(50);
        for (size_t i = 0; i < len; ++i)
          s.push_back(static_cast<char>(rng.Uniform(256)));
        v = Value::String(std::move(s));
        break;
      }
      default: {
        std::vector<float> e(rng.Uniform(32));
        for (auto& f : e) f = static_cast<float>(rng.Gaussian());
        v = Value::Embedding(std::move(e));
        break;
      }
    }
    Encoder enc;
    enc.PutValue(v);
    Decoder dec(enc.buffer());
    auto got = dec.GetValue();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);
  }
}

}  // namespace
}  // namespace mlfs
