// E12 — Feature-definition evaluation (paper §2.2.1).
//
// Reproduces: cost of the transformation DSL in its two engines — the
// tree-walking interpreter and the vectorized bytecode VM — at batch sizes
// 1/64/1024 (a single compiled row is BM_BatchVM at batch 1), plus the two
// pipelines the VM feeds: batch materialization over sealed columnar
// segments and predicate pushdown into columnar scans (Scan with a
// compiled predicate vs materialize-then-filter).

#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "expr/evaluator.h"
#include "expr/parser.h"
#include "expr/simd_kernels.h"
#include "storage/offline_store.h"

namespace mlfs {
namespace {

constexpr size_t kEmbeddingDim = 32;

SchemaPtr ExprSchema() {
  static SchemaPtr schema =
      Schema::Create({{"a", FeatureType::kInt64, true},
                      {"b", FeatureType::kInt64, true},
                      {"c", FeatureType::kDouble, true},
                      {"s", FeatureType::kString, true},
                      {"e1", FeatureType::kEmbedding, true},
                      {"e2", FeatureType::kEmbedding, true}})
          .value();
  return schema;
}

const char* Expression(int complexity) {
  switch (complexity) {
    case 0:
      return "a + b";
    case 1:
      return "a / (b + 1) + log(c + 10.0)";
    case 2:
      return "if(coalesce(a, 0) > 3 and c < 10.0, "
             "clamp(a / (b + 1), 0, 1), sqrt(abs(c)))";
    default:
      return "cosine(e1, e2) * norm(e1) + dot(e1, e2)";
  }
}

// One shared batch of rows; every engine reads the same representation.
const std::vector<Row>& ExprRows() {
  static const std::vector<Row>* rows = [] {
    Rng rng(1);
    auto* out = new std::vector<Row>();
    out->reserve(1024);
    for (size_t i = 0; i < 1024; ++i) {
      std::vector<float> v1(kEmbeddingDim), v2(kEmbeddingDim);
      for (size_t j = 0; j < kEmbeddingDim; ++j) {
        v1[j] = static_cast<float>(rng.Gaussian());
        v2[j] = static_cast<float>(rng.Gaussian());
      }
      out->push_back(Row::CreateUnsafe(
          ExprSchema(),
          {rng.Bernoulli(0.05) ? Value::Null()
                               : Value::Int64(rng.UniformInt(0, 12)),
           Value::Int64(rng.UniformInt(0, 8)), Value::Double(rng.Gaussian()),
           Value::String("row_" + std::to_string(i)),
           Value::Embedding(std::move(v1)), Value::Embedding(std::move(v2))}));
    }
    return out;
  }();
  return *rows;
}

void BM_TreeWalk(benchmark::State& state) {
  auto expr = ParseExpr(Expression(static_cast<int>(state.range(0)))).value();
  const std::vector<Row>& rows = ExprRows();
  const size_t batch = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    for (size_t r = 0; r < batch; ++r) {
      auto v = EvalExpr(*expr, rows[r]);
      benchmark::DoNotOptimize(v);
    }
  }
  state.SetItemsProcessed(state.iterations() * batch);
  state.SetLabel(Expression(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_TreeWalk)
    ->ArgNames({"expr", "batch"})
    ->ArgsProduct({{0, 1, 2, 3}, {1, 64, 1024}});

void BM_BatchVM(benchmark::State& state) {
  auto compiled =
      CompiledExpr::Compile(Expression(static_cast<int>(state.range(0))),
                            ExprSchema())
          .value();
  const std::vector<Row>& rows = ExprRows();
  const size_t batch = static_cast<size_t>(state.range(1));
  RowBatchSource src(ExprSchema(), std::span<const Row>(rows.data(), batch));
  ExprScratch scratch;
  const ColumnVector* res = nullptr;
  for (auto _ : state) {
    Status s = compiled.EvalBatch(src, &scratch, &res);
    benchmark::DoNotOptimize(s);
    benchmark::DoNotOptimize(res);
  }
  state.SetItemsProcessed(state.iterations() * batch);
  state.SetLabel(Expression(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_BatchVM)
    ->ArgNames({"expr", "batch"})
    ->ArgsProduct({{0, 1, 2, 3}, {1, 64, 1024}});

void BM_ParseAndCompile(benchmark::State& state) {
  for (auto _ : state) {
    auto compiled = CompiledExpr::Compile(Expression(2), ExprSchema());
    benchmark::DoNotOptimize(compiled);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ParseAndCompile);

// ---------------------------------------------------------------------------
// End-to-end: materialization and scan pushdown over a sealed table.
// ---------------------------------------------------------------------------

constexpr size_t kStoreRows = 60000;
constexpr size_t kStoreEntities = 4000;
constexpr Timestamp kStoreSpan = 4 * kMicrosPerDay;

// clamp()/sqrt() mix, DOUBLE-typed — a typical derived scalar feature.
constexpr const char* kFeatureExpr =
    "clamp(metric / (score + 2), -1, 1) + sqrt(abs(metric))";
// Moderate selectivity; rejected rows should never materialize the
// embedding column on the pushdown path.
constexpr const char* kPredicateExpr = "metric > 0.5 and flag";

struct StoreFixture {
  OfflineStore store;
  OfflineTable* table = nullptr;

  StoreFixture() {
    auto schema =
        Schema::Create({{"entity", FeatureType::kInt64, false},
                        {"event_time", FeatureType::kTimestamp, false},
                        {"metric", FeatureType::kDouble, true},
                        {"score", FeatureType::kDouble, true},
                        {"flag", FeatureType::kBool, true},
                        {"embedding", FeatureType::kEmbedding, true}})
            .value();
    Rng rng(7);
    std::vector<Row> rows;
    rows.reserve(kStoreRows);
    for (size_t i = 0; i < kStoreRows; ++i) {
      std::vector<float> vec(kEmbeddingDim);
      for (float& f : vec) f = static_cast<float>(rng.Gaussian());
      rows.push_back(Row::CreateUnsafe(
          schema,
          {Value::Int64(static_cast<int64_t>(rng.Uniform(kStoreEntities))),
           Value::Time(static_cast<Timestamp>(rng.Uniform(kStoreSpan))),
           Value::Double(rng.Gaussian()), Value::Double(rng.Gaussian(3, 1)),
           Value::Bool(rng.Bernoulli(0.5)),
           Value::Embedding(std::move(vec))}));
    }
    OfflineTableOptions options;
    options.name = "events";
    options.schema = schema;
    options.entity_column = "entity";
    options.time_column = "event_time";
    options.seal_rows = 8192;
    MLFS_CHECK_OK(store.CreateTable(options));
    table = store.GetTable(options.name).value();
    MLFS_CHECK_OK(table->AppendBatch(rows));
    MLFS_CHECK_OK(table->SealHeads());
    MLFS_CHECK_OK(table->CompactPartitions());
  }
};

StoreFixture& Fixture() {
  static StoreFixture* fixture = new StoreFixture();
  return *fixture;
}

// Materialize-then-filter baseline: keeps the already materialized rows
// on which `pred`, run row-wise, is true.
std::vector<Row> FilterRows(std::vector<Row> rows, const CompiledExpr& pred,
                            ExprScratch* scratch) {
  std::vector<Row> out;
  for (Row& row : rows) {
    auto v = pred.Eval(row, scratch);
    if (v.ok() && !v->is_null() && v->bool_value()) {
      out.push_back(std::move(row));
    }
  }
  return out;
}

// Batch path: sealed segments evaluate column-at-a-time; no full-width
// row materialization.
void BM_MaterializeBatch(benchmark::State& state) {
  StoreFixture& f = Fixture();
  auto compiled =
      CompiledExpr::Compile(kFeatureExpr, f.table->options().schema).value();
  for (auto _ : state) {
    auto cells = f.table->EvalLatestPerEntityAsOf(kMaxTimestamp, compiled);
    MLFS_CHECK_OK(cells.status());
    benchmark::DoNotOptimize(cells->size());
    state.counters["entities"] = static_cast<double>(cells->size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kStoreEntities));
}
BENCHMARK(BM_MaterializeBatch);

// Reference path: every row (embedding included) materializes, then the
// predicate runs row-wise.
void BM_FilterMaterialized(benchmark::State& state) {
  StoreFixture& f = Fixture();
  auto pred =
      CompiledExpr::Compile(kPredicateExpr, f.table->options().schema).value();
  ExprScratch scratch;
  for (auto _ : state) {
    std::vector<Row> out = FilterRows(f.table->Scan({}).value(), pred,
                                      &scratch);
    benchmark::DoNotOptimize(out.size());
    state.counters["rows_out"] = static_cast<double>(out.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kStoreRows));
}
BENCHMARK(BM_FilterMaterialized);

// Pushdown path: the predicate evaluates over segment column buffers and
// only survivors materialize.
void BM_FilterPushdown(benchmark::State& state) {
  StoreFixture& f = Fixture();
  auto pred =
      CompiledExpr::Compile(kPredicateExpr, f.table->options().schema).value();
  for (auto _ : state) {
    auto out = f.table->Scan({.predicate = &pred});
    MLFS_CHECK_OK(out.status());
    benchmark::DoNotOptimize(out->size());
    state.counters["rows_out"] = static_cast<double>(out->size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kStoreRows));
}
BENCHMARK(BM_FilterPushdown);

// --- Dictionary-aware string predicates --------------------------------
//
// A sealed table with a 100-value string column (zero-padded names, so
// lexicographic range predicates select clean percentages). The dict-coded
// pushdown evaluates each predicate once per dictionary code per segment;
// the per-row baseline compares strings row by row through the same
// compiled predicate. Selectivity axis: 1% ("== 'c42'"), 10% ("< 'c10'"),
// 50% ("< 'c50'").
constexpr size_t kDictRows = 200000;

struct DictFixture {
  OfflineStore store;
  OfflineTable* table = nullptr;
  SchemaPtr schema;

  DictFixture() {
    schema = Schema::Create({{"entity", FeatureType::kInt64, false},
                             {"event_time", FeatureType::kTimestamp, false},
                             {"city", FeatureType::kString, true},
                             {"metric", FeatureType::kDouble, true}})
                 .value();
    OfflineTableOptions options;
    options.name = "dict_events";
    options.schema = schema;
    options.entity_column = "entity";
    options.time_column = "event_time";
    options.seal_rows = 8192;
    MLFS_CHECK_OK(store.CreateTable(options));
    table = store.GetTable(options.name).value();
    Rng rng(13);
    std::vector<Row> rows;
    rows.reserve(kDictRows);
    char name[4];
    for (size_t i = 0; i < kDictRows; ++i) {
      std::snprintf(name, sizeof(name), "c%02d",
                    static_cast<int>(rng.Uniform(100)));
      rows.push_back(Row::CreateUnsafe(
          schema,
          {Value::Int64(static_cast<int64_t>(rng.Uniform(4000))),
           Value::Time(static_cast<Timestamp>(rng.Uniform(kStoreSpan))),
           rng.Bernoulli(0.03) ? Value::Null() : Value::String(name),
           Value::Double(rng.Gaussian())}));
    }
    MLFS_CHECK_OK(table->AppendBatch(rows));
    MLFS_CHECK_OK(table->SealHeads());
  }
};

DictFixture& GetDictFixture() {
  static DictFixture* fixture = new DictFixture();
  return *fixture;
}

const char* DictPredicate(int selectivity_pct) {
  switch (selectivity_pct) {
    case 1:
      return "city == 'c42'";
    case 10:
      return "city < 'c10'";
    default:
      return "city < 'c50'";
  }
}

void BM_DictPredicateScan(benchmark::State& state) {
  DictFixture& f = GetDictFixture();
  auto pred =
      CompiledExpr::Compile(DictPredicate(static_cast<int>(state.range(0))),
                            f.schema)
          .value();
  for (auto _ : state) {
    auto out = f.table->Scan({.predicate = &pred});
    MLFS_CHECK_OK(out.status());
    benchmark::DoNotOptimize(out->size());
    state.counters["rows_out"] = static_cast<double>(out->size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kDictRows));
}
BENCHMARK(BM_DictPredicateScan)
    ->ArgName("sel_pct")->Arg(1)->Arg(10)->Arg(50);

// Per-row baseline: the same predicate, same rows, compared string by
// string through the row-at-a-time evaluator.
void BM_PerRowStringScan(benchmark::State& state) {
  DictFixture& f = GetDictFixture();
  auto pred =
      CompiledExpr::Compile(DictPredicate(static_cast<int>(state.range(0))),
                            f.schema)
          .value();
  ExprScratch scratch;
  for (auto _ : state) {
    std::vector<Row> out = FilterRows(f.table->Scan({}).value(), pred,
                                      &scratch);
    benchmark::DoNotOptimize(out.size());
    state.counters["rows_out"] = static_cast<double>(out.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kDictRows));
}
BENCHMARK(BM_PerRowStringScan)
    ->ArgName("sel_pct")->Arg(1)->Arg(10)->Arg(50);

// --- SIMD kernels vs. scalar references --------------------------------
//
// The runtime-dispatched VM kernels against the scalar ground truth they
// must agree with bit-for-bit; arg 1 = dispatched, 0 = scalar.
constexpr size_t kKernelLanes = 8192;

struct KernelData {
  std::vector<double> x, y, out;
  std::vector<uint64_t> nulls;
  KernelData() : x(kKernelLanes), y(kKernelLanes), out(kKernelLanes),
                 nulls((kKernelLanes + 63) / 64, 0) {
    Rng rng(17);
    for (size_t i = 0; i < kKernelLanes; ++i) {
      x[i] = rng.Gaussian();
      y[i] = rng.Gaussian();
      if (rng.Bernoulli(0.05)) nulls[i >> 6] |= uint64_t{1} << (i & 63);
    }
  }
};

KernelData& Kernels() {
  static KernelData* data = new KernelData();
  return *data;
}

void BM_KernelMulF64(benchmark::State& state) {
  KernelData& d = Kernels();
  vmsimd::BinF64Fn fn = state.range(0) ? vmsimd::mul_f64
                                       : &vmsimd::MulF64Scalar;
  for (auto _ : state) {
    fn(d.x.data(), d.y.data(), d.out.data(), kKernelLanes);
    benchmark::DoNotOptimize(d.out.data());
  }
  state.SetItemsProcessed(state.iterations() * kKernelLanes);
  state.SetLabel(std::string(vmsimd::LevelName()));
}
BENCHMARK(BM_KernelMulF64)->ArgName("simd")->Arg(0)->Arg(1);

void BM_KernelDivF64(benchmark::State& state) {
  KernelData& d = Kernels();
  vmsimd::DivF64Fn fn = state.range(0) ? vmsimd::div_f64
                                       : &vmsimd::DivF64Scalar;
  std::vector<uint64_t> nulls(d.nulls.size());
  for (auto _ : state) {
    std::copy(d.nulls.begin(), d.nulls.end(), nulls.begin());
    fn(d.x.data(), d.y.data(), d.out.data(), nulls.data(), kKernelLanes);
    benchmark::DoNotOptimize(d.out.data());
  }
  state.SetItemsProcessed(state.iterations() * kKernelLanes);
}
BENCHMARK(BM_KernelDivF64)->ArgName("simd")->Arg(0)->Arg(1);

void BM_KernelCmpF64(benchmark::State& state) {
  KernelData& d = Kernels();
  vmsimd::CmpF64Fn fn = state.range(0) ? vmsimd::cmp_f64
                                       : &vmsimd::CmpF64Scalar;
  std::vector<uint8_t> out(kKernelLanes);
  for (auto _ : state) {
    fn(vmsimd::CmpPred::kLt, d.x.data(), d.y.data(), out.data(),
       kKernelLanes);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kKernelLanes);
}
BENCHMARK(BM_KernelCmpF64)->ArgName("simd")->Arg(0)->Arg(1);

}  // namespace
}  // namespace mlfs

BENCHMARK_MAIN();
