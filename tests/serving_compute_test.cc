// Differential suite for PR 10: serving-time computed features, the SIMD
// VM kernels, dictionary-aware string predicates, and time-range pruning.
//
// The pinning claims, each tested against an independent oracle:
//   1. A registered (unmaterialized) feature served through the online
//      path is byte-identical to what offline materialization
//      (OfflineTable::EvalLatestPerEntityAsOf) would have produced —
//      values, NULLs, and error statuses alike.
//   2. Every runtime-dispatched vmsimd kernel agrees bit-for-bit with its
//      scalar reference on odd widths, NaN/±inf payloads, and null-bitmap
//      edge words.
//   3. The dictionary fast path for string predicates selects exactly the
//      rows the per-row comparison selects, for all six operators and
//      either constant side, NULLs included.
//   4. AsOfBatch with time-range pruning on is byte-identical to pruning
//      off, and scans actually skip non-overlapping segments.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/feature_store.h"
#include "expr/bytecode.h"
#include "expr/evaluator.h"
#include "expr/parser.h"
#include "expr/simd_kernels.h"
#include "storage/entity_key.h"
#include "storage/offline_store.h"

namespace mlfs {
namespace {

// Bit-exact Value equality: doubles compare by representation so NaN == NaN
// and +0.0 != -0.0 — the "byte-identical" contract, stricter than
// Value::operator==.
bool BitEq(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.type() != b.type()) return false;
  if (a.type() == FeatureType::kDouble) {
    uint64_t ab, bb;
    const double ad = a.double_value(), bd = b.double_value();
    std::memcpy(&ab, &ad, sizeof ab);
    std::memcpy(&bb, &bd, sizeof bb);
    return ab == bb;
  }
  return a == b;
}

// ---------------------------------------------------------------------------
// 1. Served computed features vs. offline materialization.
// ---------------------------------------------------------------------------

class ServingComputeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = Schema::Create({{"user_id", FeatureType::kInt64, false},
                              {"event_time", FeatureType::kTimestamp, false},
                              {"trips_7d", FeatureType::kInt64, true},
                              {"trips_30d", FeatureType::kInt64, true},
                              {"spend", FeatureType::kDouble, true},
                              {"city", FeatureType::kString, true}})
                  .value();
    OfflineTableOptions opt;
    opt.name = "activity";
    opt.schema = schema_;
    opt.entity_column = "user_id";
    opt.time_column = "event_time";
    ASSERT_TRUE(store_.CreateSourceTable(opt).ok());
  }

  Row SourceRow(int64_t user, Timestamp ts, Value t7, Value t30, Value spend,
                Value city) {
    return Row::Create(schema_, {Value::Int64(user), Value::Time(ts),
                                 std::move(t7), std::move(t30),
                                 std::move(spend), std::move(city)})
        .value();
  }

  FeatureDefinition Def(const std::string& name, const std::string& expr) {
    FeatureDefinition def;
    def.name = name;
    def.entity = "user";
    def.source_table = "activity";
    def.expression = expr;
    def.cadence = Hours(6);
    return def;
  }

  // Random source row population: `n_entities` users, `n_rows` rows with
  // randomized values and NULLs scattered through every nullable column.
  void IngestRandom(Rng& rng, int n_entities, int n_rows) {
    static const char* kCities[] = {"sf", "nyc", "sea", "chi", "la"};
    std::vector<Row> rows;
    rows.reserve(static_cast<size_t>(n_rows));
    for (int i = 0; i < n_rows; ++i) {
      const int64_t user = static_cast<int64_t>(rng.Uniform(n_entities));
      const Timestamp ts = Hours(1) + static_cast<Timestamp>(rng.Uniform(
                                          static_cast<uint64_t>(Hours(400))));
      Value t7 = rng.Uniform(8) == 0
                     ? Value::Null()
                     : Value::Int64(rng.UniformInt(0, 40));
      Value t30 = rng.Uniform(8) == 0
                      ? Value::Null()
                      : Value::Int64(rng.UniformInt(0, 200));
      Value spend = rng.Uniform(8) == 0
                        ? Value::Null()
                        : Value::Double(rng.UniformDouble(-50.0, 500.0));
      Value city = rng.Uniform(6) == 0
                       ? Value::Null()
                       : Value::String(kCities[rng.Uniform(5)]);
      rows.push_back(SourceRow(user, ts, std::move(t7), std::move(t30),
                               std::move(spend), std::move(city)));
    }
    ASSERT_TRUE(store_.Ingest("activity", rows).ok());
  }

  // Offline oracle: latest-per-entity evaluation of `expression` at `ts`,
  // keyed by canonical entity string.
  std::map<std::string, Value> OfflineOracle(const std::string& expression,
                                             Timestamp ts) {
    OfflineTable* table = store_.offline().GetTable("activity").value();
    CompiledExpr expr = CompiledExpr::Compile(expression, schema_).value();
    auto cells = table->EvalLatestPerEntityAsOf(ts, expr);
    EXPECT_TRUE(cells.ok()) << cells.status();
    std::map<std::string, Value> out;
    for (const MaterializedCell& c : *cells) {
      out[EntityKeyToString(c.entity).value()] = c.value;
    }
    return out;
  }

  FeatureStore store_;
  SchemaPtr schema_;
};

TEST_F(ServingComputeTest, ComputedFeatureServesWithoutMaterialization) {
  ASSERT_TRUE(
      store_
          .Ingest("activity",
                  {SourceRow(1, Hours(1), Value::Int64(7), Value::Int64(30),
                             Value::Double(12.5), Value::String("sf"))})
          .ok());
  ASSERT_TRUE(
      store_.PublishFeature(Def("trip_rate", "trips_7d / (trips_30d + 1)"))
          .ok());
  // No RunMaterialization(): the server must compute at request time.
  auto fv = store_.ServeFeatures(Value::Int64(1), {"trip_rate"});
  ASSERT_TRUE(fv.ok()) << fv.status();
  EXPECT_DOUBLE_EQ(fv->values[0].double_value(), 7.0 / 31.0);
  EXPECT_EQ(fv->missing, 0u);
  EXPECT_EQ(fv->degraded, 0u);
  EXPECT_EQ(fv->oldest_event_time, Hours(1));  // Source row's event time.
  EXPECT_TRUE(fv->stale.empty());
}

TEST_F(ServingComputeTest, ServedMatchesOfflineMaterializationByteIdentical) {
  Rng rng(20260809);
  IngestRandom(rng, 40, 300);
  const Timestamp now = store_.clock().now();

  const std::vector<std::pair<std::string, std::string>> defs = {
      {"rate", "trips_7d / (trips_30d + 1)"},
      {"spend2", "spend * 2.0 + 1.0"},
      {"t7_or_zero", "coalesce(trips_7d, 0) + trips_30d"},
      {"sf_bonus", "if(city == 'sf', spend * 2.0, spend)"},
      {"div_null", "spend / (spend - spend)"},  // x/0 -> NULL everywhere.
      {"log_spend", "log(clamp(spend, 1.0, 1000.0))"},
  };
  for (const auto& [name, expression] : defs) {
    ASSERT_TRUE(store_.PublishFeature(Def(name, expression)).ok()) << name;
    const std::map<std::string, Value> oracle = OfflineOracle(expression, now);

    std::vector<Value> keys;
    for (int64_t u = 0; u < 40; ++u) keys.push_back(Value::Int64(u));
    auto batch = store_.server().GetFeaturesBatch(keys, {name}, now);
    ASSERT_EQ(batch.size(), keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_TRUE(batch[i].ok()) << name << " user " << i << ": "
                                 << batch[i].status();
      const std::string key = EntityKeyToString(keys[i]).value();
      const auto it = oracle.find(key);
      if (it == oracle.end()) {
        // Entity never ingested: a miss, NULL-filled under kNull policy.
        EXPECT_TRUE(batch[i]->values[0].is_null()) << name << " user " << i;
        EXPECT_EQ(batch[i]->missing, 1u) << name << " user " << i;
        continue;
      }
      EXPECT_EQ(batch[i]->missing, 0u) << name << " user " << i;
      EXPECT_TRUE(BitEq(batch[i]->values[0], it->second))
          << name << " user " << i << ": served "
          << batch[i]->values[0].ToString() << " offline "
          << it->second.ToString();

      // The single-entity path must agree with the batch path.
      auto single = store_.server().GetFeatures(keys[i], {name}, now);
      ASSERT_TRUE(single.ok()) << single.status();
      EXPECT_TRUE(BitEq(single->values[0], it->second)) << name;
    }
  }
}

TEST_F(ServingComputeTest, NullResultIsAValueNotAMiss) {
  ASSERT_TRUE(store_
                  .Ingest("activity", {SourceRow(1, Hours(1), Value::Int64(3),
                                                 Value::Null(), Value::Null(),
                                                 Value::Null())})
                  .ok());
  // trips_30d is NULL -> NULL propagates through arithmetic: the computed
  // value is a legitimate NULL, not a miss.
  ASSERT_TRUE(
      store_.PublishFeature(Def("rate", "trips_7d / (trips_30d + 1)")).ok());
  auto fv = store_.ServeFeatures(Value::Int64(1), {"rate"});
  ASSERT_TRUE(fv.ok()) << fv.status();
  EXPECT_TRUE(fv->values[0].is_null());
  EXPECT_EQ(fv->missing, 0u);
  EXPECT_EQ(fv->oldest_event_time, Hours(1));

  // An entity with no source history at all IS a miss.
  auto miss = store_.ServeFeatures(Value::Int64(99), {"rate"});
  ASSERT_TRUE(miss.ok()) << miss.status();
  EXPECT_TRUE(miss->values[0].is_null());
  EXPECT_EQ(miss->missing, 1u);
}

TEST_F(ServingComputeTest, EvalErrorMatchesOfflineStatusUnderBothPolicies) {
  ASSERT_TRUE(store_
                  .Ingest("activity",
                          {SourceRow(1, Hours(1), Value::Int64(1),
                                     Value::Int64(2), Value::Double(4.0),
                                     Value::Null()),
                           SourceRow(2, Hours(2), Value::Int64(1),
                                     Value::Int64(2), Value::Null(),
                                     Value::Null())})
                  .ok());
  // clamp with lo > hi errors on every non-NULL input row; NULL input
  // propagates to NULL before the bounds check.
  const std::string expression = "clamp(spend, 1.0, 0.0)";
  ASSERT_TRUE(store_.PublishFeature(Def("bad_clamp", expression)).ok());

  // Offline oracle errors the whole evaluation (first failing row).
  OfflineTable* table = store_.offline().GetTable("activity").value();
  CompiledExpr expr = CompiledExpr::Compile(expression, schema_).value();
  auto cells = table->EvalLatestPerEntityAsOf(store_.clock().now(), expr);
  ASSERT_FALSE(cells.ok());

  // kNull (the default store server): eval error degrades to NULL + missing.
  auto fv = store_.ServeFeatures(Value::Int64(1), {"bad_clamp"});
  ASSERT_TRUE(fv.ok()) << fv.status();
  EXPECT_TRUE(fv->values[0].is_null());
  EXPECT_EQ(fv->missing, 1u);
  // User 2's spend is NULL: clamp(NULL,..) is NULL, a value, not an error.
  auto fv2 = store_.ServeFeatures(Value::Int64(2), {"bad_clamp"});
  ASSERT_TRUE(fv2.ok()) << fv2.status();
  EXPECT_TRUE(fv2->values[0].is_null());
  EXPECT_EQ(fv2->missing, 0u);

  // kError: the per-entity status carries the same error class the offline
  // evaluation reported, and batch-mates fail independently.
  FeatureServerOptions opts;
  opts.missing_policy = MissingFeaturePolicy::kError;
  FeatureServer strict(&store_.online(), opts, nullptr, &store_.lineage(),
                       &store_.registry());
  auto batch = strict.GetFeaturesBatch(
      {Value::Int64(1), Value::Int64(2)}, {"bad_clamp"}, store_.clock().now());
  ASSERT_EQ(batch.size(), 2u);
  // The server's established kError contract wraps every per-feature
  // failure as "feature ... unavailable: <cause>"; the cause must be the
  // same eval error the offline materializer reported.
  ASSERT_FALSE(batch[0].ok());
  EXPECT_NE(batch[0].status().message().find("clamp: lo > hi"),
            std::string::npos)
      << batch[0].status();
  EXPECT_NE(std::string(cells.status().message()).find("clamp: lo > hi"),
            std::string::npos)
      << cells.status();
  ASSERT_TRUE(batch[1].ok()) << batch[1].status();  // NULL value, no error.
  EXPECT_TRUE(batch[1]->values[0].is_null());
}

TEST_F(ServingComputeTest, PerRowEvalErrorFailsOnlyItsEntity) {
  // Entity 1's bounds cross (lo 1.0 > hi trips_7d = 0): its row errors.
  // Entity 2 clamps 4.0 into [1, 10] exactly. Both rows evaluate in one
  // EvalBatch; each entity must get its own row's outcome.
  ASSERT_TRUE(store_
                  .Ingest("activity",
                          {SourceRow(1, Hours(1), Value::Int64(0),
                                     Value::Int64(0), Value::Double(4.0),
                                     Value::Null()),
                           SourceRow(2, Hours(2), Value::Int64(10),
                                     Value::Int64(10), Value::Double(4.0),
                                     Value::Null())})
                  .ok());
  ASSERT_TRUE(store_
                  .PublishFeature(
                      Def("clamped", "clamp(spend, 1.0, trips_7d)"))
                  .ok());
  const Timestamp now = store_.clock().now();
  const std::vector<Value> keys = {Value::Int64(1), Value::Int64(2)};

  // kNull (the store's server): the failing row is a NULL miss.
  auto lenient = store_.server().GetFeaturesBatch(keys, {"clamped"}, now);
  ASSERT_EQ(lenient.size(), 2u);
  ASSERT_TRUE(lenient[0].ok()) << lenient[0].status();
  EXPECT_TRUE(lenient[0]->values[0].is_null());
  EXPECT_EQ(lenient[0]->missing, 1u);
  ASSERT_TRUE(lenient[1].ok()) << lenient[1].status();
  EXPECT_TRUE(BitEq(lenient[1]->values[0], Value::Double(4.0)));
  EXPECT_EQ(lenient[1]->missing, 0u);

  // kError: only entity 1 fails, with its own row's error.
  FeatureServerOptions opts;
  opts.missing_policy = MissingFeaturePolicy::kError;
  FeatureServer strict(&store_.online(), opts, nullptr, &store_.lineage(),
                       &store_.registry());
  auto failing = strict.GetFeaturesBatch(keys, {"clamped"}, now);
  ASSERT_EQ(failing.size(), 2u);
  ASSERT_FALSE(failing[0].ok());
  EXPECT_NE(failing[0].status().message().find("clamp: lo > hi"),
            std::string::npos)
      << failing[0].status();
  ASSERT_TRUE(failing[1].ok()) << failing[1].status();
  EXPECT_TRUE(BitEq(failing[1]->values[0], Value::Double(4.0)));

  // A single-key request is the same batch of one.
  for (size_t i = 0; i < keys.size(); ++i) {
    auto single = store_.server().GetFeatures(keys[i], {"clamped"}, now);
    ASSERT_TRUE(single.ok()) << single.status();
    EXPECT_TRUE(BitEq(single->values[0], lenient[i]->values[0])) << i;
    EXPECT_EQ(single->missing, lenient[i]->missing) << i;
    EXPECT_EQ(single->oldest_event_time, lenient[i]->oldest_event_time) << i;
    auto strict_single = strict.GetFeatures(keys[i], {"clamped"}, now);
    ASSERT_EQ(strict_single.ok(), failing[i].ok()) << i;
    if (!strict_single.ok()) {
      EXPECT_EQ(strict_single.status().ToString(),
                failing[i].status().ToString());
    } else {
      EXPECT_TRUE(BitEq(strict_single->values[0], failing[i]->values[0]));
    }
  }
}

TEST_F(ServingComputeTest, LateArrivingDataFollowsEventTimeNotIngestOrder) {
  // Newest event time first, then a late-arriving older row: serving must
  // keep the newest-by-event-time value, exactly like the offline AsOf.
  ASSERT_TRUE(store_
                  .Ingest("activity", {SourceRow(1, Hours(10), Value::Int64(9),
                                                 Value::Int64(9), Value::Null(),
                                                 Value::Null())})
                  .ok());
  ASSERT_TRUE(store_
                  .Ingest("activity", {SourceRow(1, Hours(2), Value::Int64(1),
                                                 Value::Int64(1), Value::Null(),
                                                 Value::Null())})
                  .ok());
  ASSERT_TRUE(store_.PublishFeature(Def("t7", "trips_7d + 0")).ok());
  auto fv = store_.ServeFeatures(Value::Int64(1), {"t7"});
  ASSERT_TRUE(fv.ok()) << fv.status();
  EXPECT_EQ(fv->values[0].int64_value(), 9);
  EXPECT_EQ(fv->oldest_event_time, Hours(10));

  // Equal event times: the later ingest wins, matching the offline
  // latest-ordinal tie-break.
  ASSERT_TRUE(store_
                  .Ingest("activity", {SourceRow(1, Hours(10), Value::Int64(5),
                                                 Value::Int64(5), Value::Null(),
                                                 Value::Null())})
                  .ok());
  const std::map<std::string, Value> oracle =
      OfflineOracle("trips_7d + 0", store_.clock().now());
  fv = store_.ServeFeatures(Value::Int64(1), {"t7"});
  ASSERT_TRUE(fv.ok()) << fv.status();
  EXPECT_EQ(fv->values[0].int64_value(), 5);
  EXPECT_TRUE(BitEq(fv->values[0], oracle.at(EntityKeyToString(
                                                 Value::Int64(1))
                                                 .value())));
}

TEST_F(ServingComputeTest, NewVersionRecompilesAndDeprecationFlagsStale) {
  ASSERT_TRUE(store_
                  .Ingest("activity", {SourceRow(1, Hours(1), Value::Int64(4),
                                                 Value::Int64(4), Value::Null(),
                                                 Value::Null())})
                  .ok());
  ASSERT_TRUE(store_.PublishFeature(Def("f", "trips_7d + 1")).ok());
  auto fv = store_.ServeFeatures(Value::Int64(1), {"f"});
  ASSERT_TRUE(fv.ok());
  EXPECT_EQ(fv->values[0].int64_value(), 5);

  // v2 changes the expression: the compile cache is keyed by version, so
  // serving must pick up the new program immediately.
  ASSERT_TRUE(store_.PublishFeature(Def("f", "trips_7d * 10")).ok());
  fv = store_.ServeFeatures(Value::Int64(1), {"f"});
  ASSERT_TRUE(fv.ok());
  EXPECT_EQ(fv->values[0].int64_value(), 40);
  EXPECT_TRUE(fv->stale.empty());

  ASSERT_TRUE(store_.DeprecateFeature("f").ok());
  fv = store_.ServeFeatures(Value::Int64(1), {"f"});
  ASSERT_TRUE(fv.ok());
  ASSERT_EQ(fv->stale.size(), 1u);
  EXPECT_NE(fv->stale[0].find("f"), std::string::npos);
}

TEST_F(ServingComputeTest, RegistrySnapshotRoundTripsSourceColumns) {
  ASSERT_TRUE(store_.PublishFeature(Def("f", "trips_7d + 1")).ok());
  const std::string snap = store_.registry().Snapshot();

  FeatureRegistry restored(&store_.offline());
  ASSERT_TRUE(restored.Restore(snap).ok());
  auto reg = restored.Get("f");
  ASSERT_TRUE(reg.ok()) << reg.status();
  EXPECT_EQ(reg->source_entity_column, "user_id");
  EXPECT_EQ(reg->source_time_column, "event_time");
  EXPECT_EQ(reg->def.expression, "trips_7d + 1");
}

// ---------------------------------------------------------------------------
// 2. SIMD kernels vs. scalar references, bit-for-bit.
// ---------------------------------------------------------------------------

class SimdKernelTest : public ::testing::Test {
 protected:
  // Widths straddling every vector-width boundary plus null-bitmap word
  // edges (63/64/65, 127/128/129).
  const std::vector<size_t> widths_ = {1,  2,  3,   5,   7,   8,   9,  15,
                                       16, 17, 31,  33,  63,  64,  65, 127,
                                       128, 129, 255, 1000};

  std::vector<double> RandomF64(Rng& rng, size_t n) {
    static const double kSpecials[] = {
        0.0,
        -0.0,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max(),
        -1e308,
    };
    std::vector<double> v(n);
    for (size_t i = 0; i < n; ++i) {
      v[i] = rng.Uniform(5) == 0 ? kSpecials[rng.Uniform(8)]
                                 : rng.UniformDouble(-1e6, 1e6);
    }
    return v;
  }

  std::vector<int64_t> RandomI64(Rng& rng, size_t n) {
    static const int64_t kSpecials[] = {0, 1, -1,
                                        std::numeric_limits<int64_t>::max(),
                                        std::numeric_limits<int64_t>::min()};
    std::vector<int64_t> v(n);
    for (size_t i = 0; i < n; ++i) {
      v[i] = rng.Uniform(5) == 0
                 ? kSpecials[rng.Uniform(5)]
                 : rng.UniformInt(-1000000, 1000000);
    }
    return v;
  }

  std::vector<uint64_t> RandomMask(Rng& rng, size_t n) {
    std::vector<uint64_t> words((n + 63) / 64, 0);
    for (size_t i = 0; i < n; ++i) {
      if (rng.Uniform(3) == 0) words[i >> 6] |= uint64_t{1} << (i & 63);
    }
    return words;
  }

  static bool BitwiseEqual(const std::vector<double>& a,
                           const std::vector<double>& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
  }
};

TEST_F(SimdKernelTest, BinaryF64MatchesScalarBitwise) {
  Rng rng(0xf64);
  for (size_t n : widths_) {
    const std::vector<double> x = RandomF64(rng, n), y = RandomF64(rng, n);
    std::vector<double> got(n), want(n);
    struct Pair {
      vmsimd::BinF64Fn dispatched;
      vmsimd::BinF64Fn scalar;
      const char* name;
    };
    const Pair pairs[] = {{vmsimd::add_f64, &vmsimd::AddF64Scalar, "add"},
                          {vmsimd::sub_f64, &vmsimd::SubF64Scalar, "sub"},
                          {vmsimd::mul_f64, &vmsimd::MulF64Scalar, "mul"}};
    for (const Pair& p : pairs) {
      p.dispatched(x.data(), y.data(), got.data(), n);
      p.scalar(x.data(), y.data(), want.data(), n);
      EXPECT_TRUE(BitwiseEqual(got, want))
          << p.name << " n=" << n << " (" << vmsimd::LevelName() << ")";
    }
  }
}

TEST_F(SimdKernelTest, DivF64MatchesScalarIncludingNullBits) {
  Rng rng(0xd1f);
  for (size_t n : widths_) {
    std::vector<double> x = RandomF64(rng, n), y = RandomF64(rng, n);
    // Force plenty of exact zeros in the divisor: the div kernel turns
    // x/0 into a null bit, the exact edge being pinned.
    for (size_t i = 0; i < n; ++i) {
      if (rng.Uniform(4) == 0) y[i] = 0.0;
      if (rng.Uniform(16) == 0) y[i] = -0.0;
    }
    const std::vector<uint64_t> seed_mask = RandomMask(rng, n);
    std::vector<double> got(n), want(n);
    std::vector<uint64_t> got_nulls = seed_mask, want_nulls = seed_mask;
    vmsimd::div_f64(x.data(), y.data(), got.data(), got_nulls.data(), n);
    vmsimd::DivF64Scalar(x.data(), y.data(), want.data(), want_nulls.data(),
                         n);
    EXPECT_EQ(got_nulls, want_nulls) << "n=" << n;
    // Null lanes carry unspecified payloads; compare only non-null lanes.
    for (size_t i = 0; i < n; ++i) {
      if ((want_nulls[i >> 6] >> (i & 63)) & 1) continue;
      uint64_t gb, wb;
      std::memcpy(&gb, &got[i], 8);
      std::memcpy(&wb, &want[i], 8);
      EXPECT_EQ(gb, wb) << "n=" << n << " lane " << i;
    }
  }
}

TEST_F(SimdKernelTest, BinaryI64WrapsIdentically) {
  Rng rng(0x164);
  for (size_t n : widths_) {
    const std::vector<int64_t> x = RandomI64(rng, n), y = RandomI64(rng, n);
    std::vector<int64_t> got(n), want(n);
    vmsimd::add_i64(x.data(), y.data(), got.data(), n);
    vmsimd::AddI64Scalar(x.data(), y.data(), want.data(), n);
    EXPECT_EQ(got, want) << "add n=" << n;
    vmsimd::sub_i64(x.data(), y.data(), got.data(), n);
    vmsimd::SubI64Scalar(x.data(), y.data(), want.data(), n);
    EXPECT_EQ(got, want) << "sub n=" << n;
  }
}

TEST_F(SimdKernelTest, CompareKernelsMatchScalarOnNaN) {
  Rng rng(0xc3);
  const vmsimd::CmpPred preds[] = {vmsimd::CmpPred::kEq, vmsimd::CmpPred::kNe,
                                   vmsimd::CmpPred::kLt, vmsimd::CmpPred::kLe,
                                   vmsimd::CmpPred::kGt, vmsimd::CmpPred::kGe};
  for (size_t n : widths_) {
    const std::vector<double> x = RandomF64(rng, n), y = RandomF64(rng, n);
    const std::vector<int64_t> xi = RandomI64(rng, n), yi = RandomI64(rng, n);
    std::vector<uint8_t> got(n), want(n);
    for (vmsimd::CmpPred p : preds) {
      vmsimd::cmp_f64(p, x.data(), y.data(), got.data(), n);
      vmsimd::CmpF64Scalar(p, x.data(), y.data(), want.data(), n);
      EXPECT_EQ(got, want) << "f64 pred=" << static_cast<int>(p)
                           << " n=" << n;
      vmsimd::cmp_i64(p, xi.data(), yi.data(), got.data(), n);
      vmsimd::CmpI64Scalar(p, xi.data(), yi.data(), want.data(), n);
      EXPECT_EQ(got, want) << "i64 pred=" << static_cast<int>(p)
                           << " n=" << n;
    }
    // NaN-vs-NaN and NaN-vs-finite lanes compare "equal" (kEq true, kLt
    // and kGt false) by the three-way contract; spot-check directly.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double a[2] = {nan, nan}, b[2] = {nan, 1.0};
    uint8_t o[2];
    vmsimd::cmp_f64(vmsimd::CmpPred::kEq, a, b, o, 2);
    EXPECT_EQ(o[0], 1);
    EXPECT_EQ(o[1], 1);
    vmsimd::cmp_f64(vmsimd::CmpPred::kLt, a, b, o, 2);
    EXPECT_EQ(o[0], 0);
    EXPECT_EQ(o[1], 0);
  }
}

TEST_F(SimdKernelTest, OrWordsAndMaskedSumMatchScalar) {
  Rng rng(0x0b5);
  for (size_t n : widths_) {
    const std::vector<uint64_t> a = RandomMask(rng, n), b = RandomMask(rng, n);
    std::vector<uint64_t> got(a.size()), want(a.size());
    vmsimd::or_words(a.data(), b.data(), got.data(), a.size());
    vmsimd::OrWordsScalar(a.data(), b.data(), want.data(), a.size());
    EXPECT_EQ(got, want) << "n=" << n;

    // ±inf is fair game (inf + -inf yields the hardware default NaN in
    // every variant), but input NaNs are not: once two NaNs with distinct
    // payloads meet in an add, the surviving payload depends on operand
    // order, and the compiler may legally swap a commutative FP add. The
    // accumulation *shape* is pinned; NaN payload plumbing is not.
    std::vector<double> x = RandomF64(rng, n);
    for (double& v : x) {
      if (std::isnan(v)) v = 1.0;
    }
    const std::vector<uint64_t> mask = RandomMask(rng, n);
    const double gs = vmsimd::sum_f64_masked(x.data(), mask.data(), n);
    const double ws = vmsimd::SumF64MaskedScalar(x.data(), mask.data(), n);
    uint64_t gb, wb;
    std::memcpy(&gb, &gs, 8);
    std::memcpy(&wb, &ws, 8);
    EXPECT_EQ(gb, wb) << "sum n=" << n;

    size_t manual = 0;
    for (size_t i = 0; i < n; ++i) {
      manual += ((mask[i >> 6] >> (i & 63)) & 1) == 0;
    }
    EXPECT_EQ(vmsimd::CountNotNull(mask.data(), n), manual) << "n=" << n;
  }
}

// ---------------------------------------------------------------------------
// 3. Dictionary string predicates vs. per-row comparison.
// ---------------------------------------------------------------------------

class DictPredicateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = Schema::Create({{"id", FeatureType::kInt64, false},
                              {"ts", FeatureType::kTimestamp, false},
                              {"city", FeatureType::kString, true},
                              {"v", FeatureType::kDouble, true}})
                  .value();
    OfflineTableOptions opt;
    opt.name = "t";
    opt.schema = schema_;
    opt.entity_column = "id";
    opt.time_column = "ts";
    opt.seal_rows = 0;  // Seal explicitly so the head/segment split is ours.
    ASSERT_TRUE(store_.CreateTable(opt).ok());
    table_ = store_.GetTable("t").value();

    static const char* kCities[] = {"", "sf", "nyc", "sea", "chi",
                                    "la", "atx", "pdx"};
    Rng rng(0xd1c7);
    for (int i = 0; i < 600; ++i) {
      Value city = rng.Uniform(7) == 0 ? Value::Null()
                                       : Value::String(kCities[rng.Uniform(8)]);
      ASSERT_TRUE(
          table_
              ->Append(Row::Create(schema_, {Value::Int64(i % 37),
                                             Value::Time(Hours(1 + i % 50)),
                                             std::move(city),
                                             Value::Double(i * 0.5)})
                           .value())
              .ok());
    }
    // Seal most rows into dictionary-coded segments, keep a mutable head
    // so both the dict fast path and the per-row fallback run.
    ASSERT_TRUE(table_->SealHeads().ok());
    for (int i = 0; i < 40; ++i) {
      Value city = i % 5 == 0 ? Value::Null() : Value::String("sf");
      ASSERT_TRUE(
          table_
              ->Append(Row::Create(schema_, {Value::Int64(i),
                                             Value::Time(Hours(60)),
                                             std::move(city),
                                             Value::Double(i * 1.0)})
                           .value())
              .ok());
    }
  }

  OfflineStore store_;
  OfflineTable* table_ = nullptr;
  SchemaPtr schema_;
};

TEST_F(DictPredicateTest, PushdownMatchesPerRowForEveryOperator) {
  const std::vector<std::string> predicates = {
      "city == 'sf'",  "city != 'sf'", "city < 'nyc'",  "city <= 'nyc'",
      "city > 'sea'",  "city >= 'sea'", "'sf' == city", "'nyc' <= city",
      "city == 'zzz'", "city == ''",
  };
  for (const std::string& ps : predicates) {
    CompiledExpr pred = CompiledExpr::Compile(ps, schema_).value();
    auto pushed = table_->Scan({.lo = 0, .predicate = &pred});
    ASSERT_TRUE(pushed.ok()) << ps << ": " << pushed.status();

    // Oracle: the same compiled predicate evaluated row-at-a-time through
    // the scalar interpreter path (no dictionary, no batching) over an
    // unfiltered scan.
    ExprScratch scratch;
    const std::vector<Row> all = table_->Scan({.lo = 0}).value();
    std::vector<Row> want;
    for (const Row& row : all) {
      auto v = pred.Eval(row, &scratch);
      if (v.ok() && !v->is_null() && v->bool_value()) want.push_back(row);
    }
    ASSERT_EQ(pushed->size(), want.size()) << ps;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ((*pushed)[i], want[i]) << ps << " row " << i;
    }
  }
}

TEST_F(DictPredicateTest, DisableFlagFallsBackToPerRowWithIdenticalResults) {
  // Drive the VM directly over the sealed tier with the fast path disabled
  // via ExprScratch: results must be identical to the fast path, proving
  // the per-code table and the per-row comparison agree lane by lane.
  CompiledExpr pred = CompiledExpr::Compile("city >= 'nyc'", schema_).value();
  auto fast = table_->Scan({.lo = 0, .predicate = &pred});
  ASSERT_TRUE(fast.ok()) << fast.status();

  // Re-evaluate every returned row AND every dropped row as a batch of one
  // (CompiledExpr::Eval): a full-scan oracle over rows materialized
  // without the predicate.
  std::vector<Row> all = table_->Scan({.lo = 0}).value();
  ExprScratch scratch;
  scratch.set_disable_dict_fastpath(true);
  std::vector<Row> slow;
  for (const Row& row : all) {
    auto v = pred.Eval(row, &scratch);
    ASSERT_TRUE(v.ok()) << v.status();
    if (!v->is_null() && v->bool_value()) slow.push_back(row);
  }
  ASSERT_EQ(fast->size(), slow.size());
  for (size_t i = 0; i < slow.size(); ++i) EXPECT_EQ((*fast)[i], slow[i]);
}

TEST_F(DictPredicateTest, AllNullStringColumnScansClean) {
  OfflineTableOptions opt;
  opt.name = "nulls";
  opt.schema = schema_;
  opt.entity_column = "id";
  opt.time_column = "ts";
  opt.seal_rows = 0;
  ASSERT_TRUE(store_.CreateTable(opt).ok());
  OfflineTable* t = store_.GetTable("nulls").value();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(t->Append(Row::Create(schema_, {Value::Int64(i),
                                                Value::Time(Hours(1)),
                                                Value::Null(),
                                                Value::Double(1.0)})
                              .value())
                    .ok());
  }
  ASSERT_TRUE(t->SealHeads().ok());  // Empty dictionary, all codes NULL.
  CompiledExpr pred = CompiledExpr::Compile("city == 'sf'", schema_).value();
  auto rows = t->Scan({.lo = 0, .predicate = &pred});
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_TRUE(rows->empty());
  CompiledExpr ne = CompiledExpr::Compile("city != 'sf'", schema_).value();
  rows = t->Scan({.lo = 0, .predicate = &ne});
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_TRUE(rows->empty());  // NULL predicate results drop the row.
}

// ---------------------------------------------------------------------------
// 4. Time-range pruning.
// ---------------------------------------------------------------------------

class TimePruneTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = Schema::Create({{"id", FeatureType::kInt64, false},
                              {"ts", FeatureType::kTimestamp, false},
                              {"v", FeatureType::kDouble, true}})
                  .value();
  }

  OfflineTable* MakeTable(OfflineStore& store, const std::string& name,
                          OfflineTableOptions opt, Rng& rng, int rows) {
    opt.name = name;
    opt.schema = schema_;
    opt.entity_column = "id";
    opt.time_column = "ts";
    EXPECT_TRUE(store.CreateTable(opt).ok());
    OfflineTable* t = store.GetTable(name).value();
    for (int i = 0; i < rows; ++i) {
      const int64_t id = static_cast<int64_t>(rng.Uniform(20));
      // Spread across ~10 daily partitions so segment time ranges differ.
      const Timestamp ts = Hours(1) + static_cast<Timestamp>(rng.Uniform(
                                          static_cast<uint64_t>(Hours(240))));
      EXPECT_TRUE(t->Append(Row::Create(schema_, {Value::Int64(id),
                                                  Value::Time(ts),
                                                  Value::Double(i * 0.25)})
                                .value())
                      .ok());
    }
    EXPECT_TRUE(t->SealHeads().ok());
    return t;
  }

  // Sorted random request mix: present keys, absent keys, early/late ts.
  std::vector<std::pair<std::string, Timestamp>> MakeRequests(Rng& rng,
                                                              int n) {
    std::vector<std::pair<std::string, Timestamp>> reqs;
    for (int i = 0; i < n; ++i) {
      const int64_t id = static_cast<int64_t>(rng.Uniform(25));  // Some miss.
      const Timestamp ts =
          static_cast<Timestamp>(rng.Uniform(static_cast<uint64_t>(Hours(260))));
      reqs.emplace_back(EntityKeyToString(Value::Int64(id)).value(), ts);
    }
    std::sort(reqs.begin(), reqs.end());
    return reqs;
  }

  SchemaPtr schema_;
};

TEST_F(TimePruneTest, AsOfBatchMatchesPerRequestAsOfOnSealedPartitions) {
  OfflineStore store;
  Rng rng(0x70ff);
  OfflineTable* t = MakeTable(store, "t", {}, rng, 2000);
  const auto reqs = MakeRequests(rng, 300);
  std::vector<AsOfRequest> requests;
  for (const auto& [k, ts] : reqs) requests.push_back({k, ts});

  std::vector<Row> got(requests.size());
  std::vector<uint64_t> miss;
  AsOfReadOptions options;
  options.miss_bitmap = &miss;
  ASSERT_TRUE(t->AsOfBatch(requests, got, options).ok());
  size_t hits = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    auto want =
        t->AsOf(Value::Int64(std::stoll(reqs[i].first)), reqs[i].second);
    ASSERT_EQ(MissBitmapTest(miss, i), want.status().IsNotFound())
        << "request " << i;
    if (!want.ok()) continue;
    ++hits;
    EXPECT_EQ(got[i], *want) << "request " << i;
  }
  EXPECT_GT(hits, 0u);
  EXPECT_LT(hits, requests.size());
}

TEST_F(TimePruneTest, ScanSkipsNonOverlappingSegmentsAndCountsThem) {
  OfflineStore store;
  Rng rng(0x5ca9);
  OfflineTable* t = MakeTable(store, "t", {}, rng, 2000);
  ASSERT_GE(t->storage_stats().sealed_segments, 2u);

  // A window covering a couple of partitions: distant segments must be
  // skipped without decoding, and the results must equal a brute filter.
  const Timestamp lo = Hours(48), hi = Hours(96);
  const uint64_t before = t->storage_stats().scan_segments_skipped;
  std::vector<Row> got = t->Scan({lo, hi}).value();
  const uint64_t after = t->storage_stats().scan_segments_skipped;
  EXPECT_GT(after, before);

  std::vector<Row> all = t->Scan({.lo = 0}).value();
  const int ts_idx = schema_->FieldIndex("ts");
  std::vector<Row> want;
  for (const Row& row : all) {
    const Timestamp ts = row.value(static_cast<size_t>(ts_idx)).time_value();
    if (ts >= lo && ts < hi) want.push_back(row);
  }
  ASSERT_EQ(got.size(), want.size());
  // Scan emits partition order; the brute filter preserves it.
  for (size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]);

  // The pushdown scan prunes identically.
  CompiledExpr pred = CompiledExpr::Compile("v >= 0.0", schema_).value();
  const uint64_t before2 = t->storage_stats().scan_segments_skipped;
  auto pushed = t->Scan({.lo = lo, .hi = hi, .predicate = &pred});
  ASSERT_TRUE(pushed.ok());
  EXPECT_GT(t->storage_stats().scan_segments_skipped, before2);
  EXPECT_EQ(pushed->size(), want.size());
}

}  // namespace
}  // namespace mlfs
