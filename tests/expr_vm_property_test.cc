// Differential property suite for the vectorized bytecode VM: randomized
// expression trees (every operator and builtin, literal/column mixes,
// NULL-typed literals) evaluated over randomized rows (NULL injection,
// full-range int64s, NaN/inf/signed-zero doubles, zero-length and
// mismatched-dim embeddings) must behave *byte-identically* in the two
// engines — the tree-walking oracle (EvalExpr) and the compiled program's
// batch kernels, run over the whole fixture (CompiledExpr::EvalBatch) and
// as batches of one (CompiledExpr::Eval). Identical means: the same
// compile acceptance with the same status, and for every row either
// bit-equal values (NaN payloads included) and the same NULLs, or the
// same error status — in a batch, through its per-row error list.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "expr/ast.h"
#include "expr/evaluator.h"
#include "expr/parser.h"

namespace mlfs {
namespace {

SchemaPtr TestSchema() {
  return Schema::Create({{"i1", FeatureType::kInt64, true},
                         {"i2", FeatureType::kInt64, true},
                         {"d1", FeatureType::kDouble, true},
                         {"d2", FeatureType::kDouble, true},
                         {"s1", FeatureType::kString, true},
                         {"s2", FeatureType::kString, true},
                         {"b1", FeatureType::kBool, true},
                         {"b2", FeatureType::kBool, true},
                         {"t1", FeatureType::kTimestamp, true},
                         {"e1", FeatureType::kEmbedding, true},
                         {"e2", FeatureType::kEmbedding, true}})
      .value();
}

// Bit-exact fingerprint: two Values compare equal iff their fingerprints
// match, with doubles compared by bit pattern so NaN == NaN and 0.0 != -0.0.
std::string ValueBytes(const Value& v) {
  std::string out(1, static_cast<char>(v.type()));
  if (v.is_null()) return out;
  switch (v.type()) {
    case FeatureType::kNull:
      break;
    case FeatureType::kBool:
      out += v.bool_value() ? '1' : '0';
      break;
    case FeatureType::kInt64:
    case FeatureType::kTimestamp: {
      int64_t x =
          v.type() == FeatureType::kInt64 ? v.int64_value() : v.time_value();
      out.append(reinterpret_cast<const char*>(&x), sizeof(x));
      break;
    }
    case FeatureType::kDouble: {
      double d = v.double_value();
      out.append(reinterpret_cast<const char*>(&d), sizeof(d));
      break;
    }
    case FeatureType::kString:
      out += v.string_value();
      break;
    case FeatureType::kEmbedding: {
      const auto& e = v.embedding_value();
      out.append(reinterpret_cast<const char*>(e.data()),
                 e.size() * sizeof(float));
      break;
    }
  }
  return out;
}

Value RandomValue(Rng& rng, FeatureType type) {
  if (rng.Bernoulli(0.22)) return Value::Null();
  switch (type) {
    case FeatureType::kNull:
      return Value::Null();
    case FeatureType::kBool:
      return Value::Bool(rng.Bernoulli(0.5));
    case FeatureType::kInt64:
      // Mostly small (so %, at(), comparisons hit interesting cases), but
      // sometimes the full 64-bit range — arithmetic wraps identically in
      // both engines, so overflow must stay differential-clean.
      if (rng.Bernoulli(0.15)) return Value::Int64(int64_t(rng.Next()));
      return Value::Int64(rng.UniformInt(-6, 6));
    case FeatureType::kDouble:
      switch (rng.Uniform(8)) {
        case 0:
          return Value::Double(0.0);
        case 1:
          return Value::Double(-0.0);
        case 2:
          return Value::Double(std::numeric_limits<double>::quiet_NaN());
        case 3:
          return Value::Double(std::numeric_limits<double>::infinity());
        case 4:
          return Value::Double(-std::numeric_limits<double>::infinity());
        default:
          return Value::Double(rng.Gaussian(0.0, 4.0));
      }
    case FeatureType::kString: {
      static const char* kPool[] = {"",  "a",   "B",  "ab", "Hello",
                                    "z", "a b", "AB", "0",  "null"};
      return Value::String(kPool[rng.Uniform(10)]);
    }
    case FeatureType::kTimestamp:
      return Value::Time(Days(int64_t(rng.Uniform(5))) +
                         Hours(int64_t(rng.Uniform(30))) -
                         (rng.Bernoulli(0.2) ? Days(7) : 0));
    case FeatureType::kEmbedding: {
      // Dims 0/2/3: zero vectors make cosine() NULL, and mixing dims
      // across rows exercises the dot()/cosine() dim-mismatch error and
      // at() out-of-range at the batch level.
      size_t dim = size_t(rng.Uniform(3)) + (rng.Bernoulli(0.7) ? 2 : 0);
      if (dim > 3) dim = 0;
      std::vector<float> e(dim);
      for (auto& f : e) f = float(rng.UniformInt(-3, 3));
      return Value::Embedding(std::move(e));
    }
  }
  return Value::Null();
}

std::vector<Row> RandomRows(Rng& rng, const SchemaPtr& schema, size_t n) {
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    std::vector<Value> vals;
    vals.reserve(schema->num_fields());
    for (size_t c = 0; c < schema->num_fields(); ++c) {
      vals.push_back(RandomValue(rng, schema->field(c).type));
    }
    rows.push_back(Row::CreateUnsafe(schema, std::move(vals)));
  }
  return rows;
}

Value RandomLiteral(Rng& rng) {
  static const FeatureType kTypes[] = {
      FeatureType::kNull,   FeatureType::kBool,      FeatureType::kInt64,
      FeatureType::kDouble, FeatureType::kString,    FeatureType::kTimestamp,
      FeatureType::kEmbedding};
  return RandomValue(rng, kTypes[rng.Uniform(7)]);
}

struct FnArity {
  const char* name;
  size_t min_args;
  size_t max_args;
};

ExprPtr RandomExpr(Rng& rng, int depth) {
  static const char* kColumns[] = {"i1", "i2", "d1", "d2", "s1", "s2",
                                   "b1", "b2", "t1", "e1", "e2"};
  static const BinaryOp kBinOps[] = {
      BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul, BinaryOp::kDiv,
      BinaryOp::kMod, BinaryOp::kEq,  BinaryOp::kNe,  BinaryOp::kLt,
      BinaryOp::kLe,  BinaryOp::kGt,  BinaryOp::kGe,  BinaryOp::kAnd,
      BinaryOp::kOr};
  static const FnArity kFns[] = {
      {"abs", 1, 1},   {"log", 1, 1},      {"log2", 1, 1},  {"exp", 1, 1},
      {"sqrt", 1, 1},  {"floor", 1, 1},    {"ceil", 1, 1},  {"round", 1, 1},
      {"pow", 2, 2},   {"min", 2, 2},      {"max", 2, 2},   {"clamp", 3, 3},
      {"coalesce", 1, 4},                  {"is_null", 1, 1},
      {"if", 3, 3},    {"len", 1, 1},      {"concat", 2, 3},
      {"lower", 1, 1}, {"upper", 1, 1},    {"hour", 1, 1},  {"day", 1, 1},
      {"hash", 1, 1},  {"dim", 1, 1},      {"norm", 1, 1},  {"at", 2, 2},
      {"dot", 2, 2},   {"cosine", 2, 2}};
  if (depth <= 0 || rng.Bernoulli(0.25)) {
    if (rng.Bernoulli(0.45)) return Expr::Literal(RandomLiteral(rng));
    return Expr::Column(kColumns[rng.Uniform(11)]);
  }
  switch (rng.Uniform(4)) {
    case 0:
      return Expr::Unary(rng.Bernoulli(0.5) ? UnaryOp::kNeg : UnaryOp::kNot,
                         RandomExpr(rng, depth - 1));
    case 1:
    case 2:
      return Expr::Binary(kBinOps[rng.Uniform(13)], RandomExpr(rng, depth - 1),
                          RandomExpr(rng, depth - 1));
    default: {
      const FnArity& fn = kFns[rng.Uniform(27)];
      size_t n = fn.min_args + rng.Uniform(fn.max_args - fn.min_args + 1);
      std::vector<ExprPtr> args;
      args.reserve(n);
      for (size_t i = 0; i < n; ++i) args.push_back(RandomExpr(rng, depth - 1));
      return Expr::Call(fn.name, std::move(args));
    }
  }
}

// Runs one (expression, rows) fixture through both engines.
// Returns true if the expression compiled (i.e. the rows were consumed).
bool CheckTree(const Expr& expr, const SchemaPtr& schema,
               const std::vector<Row>& rows, const std::string& tag) {
  auto inferred = InferType(expr, *schema);
  auto compiled = CompiledExpr::Compile(expr, schema);
  EXPECT_EQ(inferred.ok(), compiled.ok()) << tag;
  if (!compiled.ok()) {
    EXPECT_EQ(inferred.status().ToString(), compiled.status().ToString())
        << tag;
    return false;
  }
  EXPECT_EQ(*inferred, compiled->output_type()) << tag;

  // Row-by-row: the compiled program on one row vs tree-walking oracle.
  std::vector<StatusOr<Value>> oracle;
  oracle.reserve(rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    oracle.push_back(EvalExpr(expr, rows[r]));
    StatusOr<Value> got = compiled->Eval(rows[r]);
    EXPECT_EQ(oracle[r].ok(), got.ok())
        << tag << " row " << r << ": oracle=" << oracle[r].status()
        << " row-vm=" << got.status();
    if (oracle[r].ok() != got.ok()) return true;
    if (oracle[r].ok()) {
      EXPECT_EQ(ValueBytes(*oracle[r]), ValueBytes(*got))
          << tag << " row " << r;
    } else {
      EXPECT_EQ(oracle[r].status().ToString(), got.status().ToString())
          << tag << " row " << r;
    }
  }

  // Batch: one EvalBatch over all rows must reproduce every row of the
  // oracle, including rows after the first failure: a failing row through
  // the per-row error list (its result cell NULL), any other row
  // bit-exactly. The call returns the first failing row's status.
  ExprScratch scratch;
  const ColumnVector* res = nullptr;
  RowBatchSource src(schema, rows);
  Status batch = compiled->EvalBatch(src, &scratch, &res);
  EXPECT_NE(res, nullptr) << tag << ": no result column";
  if (res == nullptr) return true;
  const std::vector<RowError>& errors = scratch.row_errors();
  size_t next_err = 0;
  size_t first_err = rows.size();
  for (size_t r = 0; r < rows.size(); ++r) {
    const bool listed = next_err < errors.size() && errors[next_err].row == r;
    EXPECT_EQ(oracle[r].ok(), !listed)
        << tag << " row " << r << " (batch): oracle=" << oracle[r].status();
    if (!oracle[r].ok()) {
      if (first_err == rows.size()) first_err = r;
      if (!listed) return true;
      EXPECT_EQ(oracle[r].status().ToString(),
                errors[next_err].status.ToString())
          << tag << " row " << r << " (batch)";
      EXPECT_TRUE(res->GetValue(r).is_null()) << tag << " row " << r;
      ++next_err;
      continue;
    }
    if (listed) return true;
    EXPECT_EQ(ValueBytes(*oracle[r]), ValueBytes(res->GetValue(r)))
        << tag << " row " << r << " (batch)";
  }
  EXPECT_EQ(next_err, errors.size()) << tag << ": error list not ascending";
  if (first_err < rows.size()) {
    EXPECT_EQ(oracle[first_err].status().ToString(), batch.ToString()) << tag;
  } else {
    EXPECT_TRUE(batch.ok()) << tag << ": " << batch;
  }

  // Single-row batches exercise the tail/short-batch kernel paths.
  for (size_t r = 0; r < std::min<size_t>(4, rows.size()); ++r) {
    RowBatchSource one(schema, std::span<const Row>(&rows[r], 1));
    Status s = compiled->EvalBatch(one, &scratch, &res);
    EXPECT_EQ(oracle[r].ok(), s.ok()) << tag << " row " << r << " (batch-1)";
    if (oracle[r].ok() != s.ok()) return true;
    if (oracle[r].ok()) {
      EXPECT_EQ(ValueBytes(*oracle[r]), ValueBytes(res->GetValue(0)))
          << tag << " row " << r << " (batch-1)";
    } else {
      EXPECT_EQ(oracle[r].status().ToString(), s.ToString())
          << tag << " row " << r << " (batch-1)";
    }
  }
  return true;
}

TEST(ExprVmPropertyTest, RandomTreesMatchOracle) {
  SchemaPtr schema = TestSchema();
  Rng rng(0xfeedbeefULL);
  int compiled_trees = 0;
  for (int trial = 0; trial < 400; ++trial) {
    ExprPtr expr = RandomExpr(rng, 1 + int(rng.Uniform(4)));
    std::vector<Row> rows = RandomRows(rng, schema, 48);
    if (CheckTree(*expr, schema, rows,
                  "trial " + std::to_string(trial) + ": " + expr->ToString())) {
      ++compiled_trees;
    }
    if (HasFailure()) {
      return;  // First failing fixture is the most useful one; stop there.
    }
  }
  // The generator should not degenerate into mostly-rejected trees.
  EXPECT_GE(compiled_trees, 100);
}

TEST(ExprVmPropertyTest, ParsedFixturesMatchOracle) {
  SchemaPtr schema = TestSchema();
  Rng rng(0x5eedULL);
  std::vector<Row> rows = RandomRows(rng, schema, 64);
  const char* kSources[] = {
      "i1 + i2 * d1 - i1 / (i2 + 1)",
      "i1 % i2",
      "coalesce(i1, d1, 7)",
      "if(b1, i1, d2) + coalesce(d1, i2)",
      "is_null(coalesce(i1, i2))",
      "concat(lower(s1), upper(s2)) == s1",
      "len(concat(s1, s2)) > i1",
      "clamp(d1, -1, 1) * sqrt(abs(i1))",
      "pow(d1, 2) + log(abs(d2) + 1)",
      "hour(t1) + day(t1) * 24",
      "t1 + i1 - t1",
      "dot(e1, e2) + cosine(e1, e2)",
      "at(e1, i1) * norm(e2)",
      "dim(e1) == dim(e2) and b1 or not b2",
      "hash(s1) % 16 == hash(s2) % 16",
      "min(i1, i2) + max(d1, d2)",
      "-i1 * -(i2 + 1)",
      "b1 and (d1 > d2 or s1 < s2)",
      "i1 == s1",
      "e1 == e2",
  };
  for (const char* src : kSources) {
    auto parsed = ParseExpr(src);
    ASSERT_TRUE(parsed.ok()) << src << ": " << parsed.status();
    CheckTree(**parsed, schema, rows, src);
  }
}

TEST(ExprVmPropertyTest, FailedRowReadsNullThroughMaskingOps) {
  // coalesce and is_null turn the NULL a failing instruction leaves into a
  // value; the row still failed, so its result cell must read NULL while
  // its batch-mate keeps the oracle's value.
  SchemaPtr schema = TestSchema();
  std::vector<Row> rows;
  for (const Value& d1 : {Value::Double(2.0), Value::Null()}) {
    std::vector<Value> vals(schema->num_fields(), Value::Null());
    vals[static_cast<size_t>(schema->FieldIndex("d1"))] = d1;
    rows.push_back(Row::CreateUnsafe(schema, std::move(vals)));
  }
  for (const char* src :
       {"coalesce(clamp(d1, 1, 0), 7.5)", "is_null(clamp(d1, 1, 0))"}) {
    ExprPtr expr = ParseExpr(src).value();
    CompiledExpr compiled = CompiledExpr::Compile(*expr, schema).value();
    ExprScratch scratch;
    const ColumnVector* res = nullptr;
    Status s = compiled.EvalBatch(RowBatchSource(schema, rows), &scratch, &res);
    StatusOr<Value> failing = EvalExpr(*expr, rows[0]);
    StatusOr<Value> passing = EvalExpr(*expr, rows[1]);
    ASSERT_FALSE(failing.ok()) << src;
    ASSERT_TRUE(passing.ok()) << src << ": " << passing.status();
    EXPECT_EQ(failing.status().ToString(), s.ToString()) << src;
    ASSERT_NE(res, nullptr) << src;
    ASSERT_EQ(scratch.row_errors().size(), 1u) << src;
    EXPECT_EQ(scratch.row_errors()[0].row, 0u) << src;
    EXPECT_TRUE(res->GetValue(0).is_null()) << src;
    EXPECT_EQ(ValueBytes(*passing), ValueBytes(res->GetValue(1))) << src;
  }
}

TEST(ExprVmPropertyTest, CompileRejectionMatchesInfer) {
  // Type-invalid trees must be rejected by Compile with the same status
  // the type checker reports, and never reach execution.
  SchemaPtr schema = TestSchema();
  const char* kBad[] = {
      "s1 + i1",          "not i1",        "e1 + e2",
      "len(i1)",          "hour(i1)",      "dot(e1, d1)",
      "clamp(s1, 0, 1)",  "if(i1, 1, 2)",  "coalesce(i1, s1)",
      "concat(s1, i1)",
  };
  for (const char* src : kBad) {
    auto parsed = ParseExpr(src);
    ASSERT_TRUE(parsed.ok()) << src;
    auto inferred = InferType(**parsed, *schema);
    auto compiled = CompiledExpr::Compile(**parsed, schema);
    EXPECT_FALSE(inferred.ok()) << src;
    EXPECT_FALSE(compiled.ok()) << src;
    EXPECT_EQ(inferred.status().ToString(), compiled.status().ToString())
        << src;
  }
}

}  // namespace
}  // namespace mlfs
