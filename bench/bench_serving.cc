// E1 — Dual-datastore serving (paper §2.2.2).
//
// Claim: online feature serving needs an in-memory latest-value store; the
// offline (historical, partitioned) store is orders of magnitude slower to
// answer "features for entity X now".
//
// Reproduces: throughput + latency percentiles of (a) online-store gets,
// (b) offline as-of reads, (c) the assembled FeatureServer path, under a
// Zipf key distribution — plus the batched/multi-threaded variants that
// certify the shard-grouped MultiGet hot path (shared shard locks taken
// once per batch, no per-key composed-key allocation, striped server
// metrics). Regenerate the committed results with:
//   cmake -B build-rel -S . -DCMAKE_BUILD_TYPE=Release
//   cmake --build build-rel -j --target bench_serving
//   ./build-rel/bench/bench_serving --benchmark_out=bench/BENCH_serving.json
//       --benchmark_out_format=json   (one command line)

#include <benchmark/benchmark.h>

#include <algorithm>

#include "common/rng.h"
#include "core/feature_store.h"
#include "datagen/tabular.h"
#include "expr/evaluator.h"
#include "expr/parser.h"
#include "registry/feature_def.h"
#include "serving/feature_server.h"
#include "storage/online_store.h"

namespace mlfs {
namespace {

constexpr size_t kEntities = 100000;
constexpr int kSnapshotsPerEntity = 4;

struct ServingFixture {
  FeatureStore store;
  std::vector<Value> keys;
  ZipfDistribution zipf{kEntities, 1.1};

  ServingFixture() {
    auto schema =
        Schema::Create({{"entity", FeatureType::kInt64, false},
                        {"event_time", FeatureType::kTimestamp, false},
                        {"a", FeatureType::kDouble, true},
                        {"b", FeatureType::kDouble, true}})
            .value();
    OfflineTableOptions options;
    options.name = "src";
    options.schema = schema;
    options.entity_column = "entity";
    options.time_column = "event_time";
    MLFS_CHECK_OK(store.CreateSourceTable(options));
    Rng rng(1);
    std::vector<Row> rows;
    rows.reserve(kEntities * kSnapshotsPerEntity);
    for (size_t e = 0; e < kEntities; ++e) {
      for (int s = 0; s < kSnapshotsPerEntity; ++s) {
        rows.push_back(Row::CreateUnsafe(
            schema, {Value::Int64(static_cast<int64_t>(e)),
                     Value::Time(Hours(1 + 6 * s)),
                     Value::Double(rng.Gaussian()),
                     Value::Double(rng.Gaussian())}));
      }
    }
    MLFS_CHECK_OK(store.Ingest("src", rows));
    FeatureDefinition def;
    def.name = "f_ab";
    def.entity = "e";
    def.source_table = "src";
    def.expression = "a + b";
    def.cadence = Hours(1);
    MLFS_CHECK_OK(store.PublishFeature(def).status());
    MLFS_CHECK_OK(store.RunMaterialization().status());
    // Same expression published again, never materialized: served through
    // the serving-time compute path (mirror MultiGet + vectorized
    // EvalBatch) instead of a materialized view.
    FeatureDefinition computed = def;
    computed.name = "c_ab";
    MLFS_CHECK_OK(store.PublishFeature(computed).status());
    keys.reserve(kEntities);
    for (size_t e = 0; e < kEntities; ++e) {
      keys.push_back(Value::Int64(static_cast<int64_t>(e)));
    }
  }
};

ServingFixture& Fixture() {
  static auto* fixture = new ServingFixture();
  return *fixture;
}



// Pre-sampled Zipf key batches so key sampling stays out of the timed
// loop. The pool is sized so the timed loop does not recycle a small key
// subset (which would let the cache warm to a working set production
// traffic never has): enough batches to cover ~2M draws before repeating.
std::vector<std::vector<Value>> SampleBatches(const std::vector<Value>& keys,
                                              const ZipfDistribution& zipf,
                                              size_t batch_size,
                                              uint64_t seed) {
  constexpr size_t kTargetDraws = 2000000;
  constexpr size_t kMinBatches = 64, kMaxBatches = 8192;
  const size_t pooled = std::min(
      kMaxBatches, std::max(kMinBatches, kTargetDraws / batch_size));
  Rng rng(seed);
  std::vector<std::vector<Value>> batches(pooled);
  for (auto& batch : batches) {
    batch.reserve(batch_size);
    for (size_t i = 0; i < batch_size; ++i) {
      batch.push_back(keys[zipf.Sample(&rng)]);
    }
  }
  return batches;
}

// Embedding-scale online store for the MultiGet pair: 8M entities in one
// view, written directly (materialization machinery is not what these
// benchmarks measure). At this size the cell table far exceeds the
// last-level cache — the regime embedding-ecosystem serving lives in
// (paper §3) and the one batched lookups target: a per-key loop pays each
// key's dependent cache-miss chain serially, while the shard-grouped path
// overlaps them with staged prefetching.
constexpr size_t kMultiGetEntities = 8000000;

struct OnlineMultiGetFixture {
  OnlineStore store;
  std::vector<Value> keys;
  ZipfDistribution zipf{kMultiGetEntities, 1.1};

  OnlineMultiGetFixture() {
    auto schema =
        Schema::Create({{"entity", FeatureType::kInt64, false},
                        {"event_time", FeatureType::kTimestamp, false},
                        {"value", FeatureType::kDouble, true}})
            .value();
    MLFS_CHECK_OK(store.CreateView("f_ab", schema));
    Rng rng(7);
    keys.reserve(kMultiGetEntities);
    for (size_t e = 0; e < kMultiGetEntities; ++e) {
      Value key = Value::Int64(static_cast<int64_t>(e));
      Row row = Row::CreateUnsafe(
          schema, {key, Value::Time(Hours(1)), Value::Double(rng.Gaussian())});
      MLFS_CHECK_OK(
          store.Put("f_ab", key, std::move(row), Hours(1), Hours(1)));
      keys.push_back(std::move(key));
    }
  }
};

OnlineMultiGetFixture& MultiGetFixture() {
  static auto* fixture = new OnlineMultiGetFixture();
  return *fixture;
}

// The per-key baseline the shard-grouped MultiGet is measured against: one
// Get (one shard lock, one composed key) per entity.
void BM_OnlineMultiGetLoop(benchmark::State& state) {
  auto& fixture = MultiGetFixture();
  const size_t batch_size = static_cast<size_t>(state.range(0));
  auto batches = SampleBatches(fixture.keys, fixture.zipf, batch_size,
                               20 + state.thread_index());
  const Timestamp now = Hours(2);
  size_t next = 0;
  for (auto _ : state) {
    std::vector<StatusOr<Row>> rows;
    rows.reserve(batch_size);
    for (const Value& key : batches[next]) {
      rows.push_back(fixture.store.Get("f_ab", key, now));
    }
    benchmark::DoNotOptimize(rows);
    next = (next + 1) % batches.size();
  }
  state.SetItemsProcessed(state.iterations() * batch_size);
}
// MinTime widens each measurement window so a transient scheduler or
// kernel-compaction burst is averaged out instead of owning a whole
// repetition; the MultiGet/Loop pair is the headline before/after
// comparison, so its windows get the extra care. Every Threads(...)
// family uses real time, so items_per_second is the wall-clock rate of
// all client threads together rather than items over one thread's CPU
// time.
BENCHMARK(BM_OnlineMultiGetLoop)
    ->ArgName("batch")->Arg(1)->Arg(16)->Arg(256)
    ->Threads(1)->Threads(4)->Threads(8)->MinTime(1.5)->UseRealTime();

// Shard-grouped batched lookup: hash all keys up front, lock each shard
// once, serve the shard's keys in one shared critical section with staged
// prefetching.
void BM_OnlineMultiGet(benchmark::State& state) {
  auto& fixture = MultiGetFixture();
  const size_t batch_size = static_cast<size_t>(state.range(0));
  auto batches = SampleBatches(fixture.keys, fixture.zipf, batch_size,
                               20 + state.thread_index());
  const Timestamp now = Hours(2);
  size_t next = 0;
  for (auto _ : state) {
    auto rows = fixture.store.MultiGet("f_ab", batches[next], now);
    benchmark::DoNotOptimize(rows);
    next = (next + 1) % batches.size();
  }
  state.SetItemsProcessed(state.iterations() * batch_size);
}
BENCHMARK(BM_OnlineMultiGet)
    ->ArgName("batch")->Arg(1)->Arg(16)->Arg(256)
    ->Threads(1)->Threads(4)->Threads(8)->MinTime(1.5)->UseRealTime();

// Uniform-key variants of the same pair: the cold-access regime. Zipf(1.1)
// concentrates most draws on a cache-resident hot head, so the blended
// Zipf numbers mix a CPU-bound warm path with the memory-bound tail.
// Embedding-ecosystem traffic is much flatter — ANN candidate lists and
// batch scoring touch entities near-uniformly — and uniform draws over an
// 8M-entity store make every lookup pay the cache-miss chain the staged
// prefetch pipeline exists to overlap.
std::vector<std::vector<Value>> SampleUniformBatches(
    const std::vector<Value>& keys, size_t batch_size, uint64_t seed) {
  constexpr size_t kTargetDraws = 2000000;
  constexpr size_t kMinBatches = 64, kMaxBatches = 8192;
  const size_t pooled = std::min(
      kMaxBatches, std::max(kMinBatches, kTargetDraws / batch_size));
  Rng rng(seed);
  std::vector<std::vector<Value>> batches(pooled);
  for (auto& batch : batches) {
    batch.reserve(batch_size);
    for (size_t i = 0; i < batch_size; ++i) {
      batch.push_back(keys[rng.Uniform(keys.size())]);
    }
  }
  return batches;
}

void BM_OnlineMultiGetLoopUniform(benchmark::State& state) {
  auto& fixture = MultiGetFixture();
  const size_t batch_size = static_cast<size_t>(state.range(0));
  auto batches = SampleUniformBatches(fixture.keys, batch_size,
                                      40 + state.thread_index());
  const Timestamp now = Hours(2);
  size_t next = 0;
  for (auto _ : state) {
    std::vector<StatusOr<Row>> rows;
    rows.reserve(batch_size);
    for (const Value& key : batches[next]) {
      rows.push_back(fixture.store.Get("f_ab", key, now));
    }
    benchmark::DoNotOptimize(rows);
    next = (next + 1) % batches.size();
  }
  state.SetItemsProcessed(state.iterations() * batch_size);
}
BENCHMARK(BM_OnlineMultiGetLoopUniform)
    ->ArgName("batch")->Arg(256)->MinTime(1.5);

void BM_OnlineMultiGetUniform(benchmark::State& state) {
  auto& fixture = MultiGetFixture();
  const size_t batch_size = static_cast<size_t>(state.range(0));
  auto batches = SampleUniformBatches(fixture.keys, batch_size,
                                      40 + state.thread_index());
  const Timestamp now = Hours(2);
  size_t next = 0;
  for (auto _ : state) {
    auto rows = fixture.store.MultiGet("f_ab", batches[next], now);
    benchmark::DoNotOptimize(rows);
    next = (next + 1) % batches.size();
  }
  state.SetItemsProcessed(state.iterations() * batch_size);
}
BENCHMARK(BM_OnlineMultiGetUniform)
    ->ArgName("batch")->Arg(256)->MinTime(1.5);

// The scalar E1 benchmarks run AFTER the MultiGet pair on purpose: the 8M
// fixture's row payloads are then laid out in a pristine heap, and the
// batched path is measured before other fixtures fragment it. These
// single-lookup latency benchmarks are far less sensitive to ordering.
void BM_OnlineGet(benchmark::State& state) {
  auto& fixture = Fixture();
  Rng rng(2);
  Timestamp now = fixture.store.clock().now();
  for (auto _ : state) {
    const Value& key = fixture.keys[fixture.zipf.Sample(&rng)];
    auto row = fixture.store.online().Get("f_ab", key, now);
    benchmark::DoNotOptimize(row);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OnlineGet);

void BM_OfflineAsOf(benchmark::State& state) {
  auto& fixture = Fixture();
  Rng rng(3);
  auto table = fixture.store.offline().GetTable("src").value();
  Timestamp now = fixture.store.clock().now();
  for (auto _ : state) {
    const Value& key = fixture.keys[fixture.zipf.Sample(&rng)];
    auto row = table->AsOf(key, now);
    benchmark::DoNotOptimize(row);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OfflineAsOf);

void BM_OfflineLatestPerEntityScan(benchmark::State& state) {
  // The "no online store" strawman: answer a single lookup by scanning the
  // latest snapshot of everything (what a naive warehouse query does).
  auto& fixture = Fixture();
  auto table = fixture.store.offline().GetTable("src").value();
  Timestamp now = fixture.store.clock().now();
  for (auto _ : state) {
    auto rows = table->LatestPerEntityAsOf(now);
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OfflineLatestPerEntityScan)->Iterations(3);

void BM_FeatureServerGet(benchmark::State& state) {
  auto& fixture = Fixture();
  Rng rng(4);
  for (auto _ : state) {
    const Value& key = fixture.keys[fixture.zipf.Sample(&rng)];
    auto fv = fixture.store.ServeFeatures(key, {"f_ab"});
    benchmark::DoNotOptimize(fv);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FeatureServerGet);

// Assembled serving path, batched: one shard-grouped MultiGet per view.
void BM_FeatureServerBatch(benchmark::State& state) {
  auto& fixture = Fixture();
  const size_t batch_size = static_cast<size_t>(state.range(0));
  auto batches = SampleBatches(fixture.keys, fixture.zipf, batch_size,
                               30 + state.thread_index());
  Timestamp now = fixture.store.clock().now();
  size_t next = 0;
  for (auto _ : state) {
    auto result =
        fixture.store.server().GetFeaturesBatch(batches[next], {"f_ab"}, now);
    benchmark::DoNotOptimize(result);
    next = (next + 1) % batches.size();
  }
  state.SetItemsProcessed(state.iterations() * batch_size);
}
BENCHMARK(BM_FeatureServerBatch)
    ->ArgName("batch")->Arg(1)->Arg(16)->Arg(256)
    ->Threads(1)->Threads(4)->Threads(8)->UseRealTime();

// Wide-request fixture: 100k entities x 32 materialized feature views,
// written straight into an OnlineStore (materialization machinery is not
// what this benchmark measures).
constexpr size_t kWideViews = 32;

struct WideServingFixture {
  OnlineStore store{[] {
    OnlineStoreOptions options;
    options.num_shards = 16;
    return options;
  }()};
  FeatureServer server{&store};
  std::vector<Value> keys;
  std::vector<std::string> views;
  ZipfDistribution zipf{kEntities, 1.1};

  WideServingFixture() {
    auto schema =
        Schema::Create({{"entity", FeatureType::kInt64, false},
                        {"event_time", FeatureType::kTimestamp, false},
                        {"value", FeatureType::kDouble, true}})
            .value();
    Rng rng(11);
    for (size_t v = 0; v < kWideViews; ++v) {
      views.push_back("wide_f" + std::to_string(v));
      MLFS_CHECK_OK(store.CreateView(views.back(), schema));
    }
    for (size_t e = 0; e < kEntities; ++e) {
      Value key = Value::Int64(static_cast<int64_t>(e));
      for (const std::string& view : views) {
        Row row = Row::CreateUnsafe(
            schema, {key, Value::Time(Hours(1)), Value::Double(rng.Gaussian())});
        MLFS_CHECK_OK(store.Put(view, key, std::move(row), Hours(1), Hours(1)));
      }
      keys.push_back(std::move(key));
    }
  }
};

WideServingFixture& WideFixture() {
  static auto* fixture = new WideServingFixture();
  return *fixture;
}

// 32-feature assembly per entity: views x one MultiGet per batch, instead
// of entities x 32 point Gets.
void BM_FeatureServerBatchWide(benchmark::State& state) {
  auto& fixture = WideFixture();
  const size_t batch_size = static_cast<size_t>(state.range(0));
  auto batches = SampleBatches(fixture.keys, fixture.zipf, batch_size,
                               40 + state.thread_index());
  size_t next = 0;
  for (auto _ : state) {
    auto result =
        fixture.server.GetFeaturesBatch(batches[next], fixture.views, Hours(2));
    benchmark::DoNotOptimize(result);
    next = (next + 1) % batches.size();
  }
  state.SetItemsProcessed(state.iterations() * batch_size);
}
BENCHMARK(BM_FeatureServerBatchWide)
    ->ArgName("batch")->Arg(1)->Arg(16)->Arg(256)
    ->Threads(1)->Threads(4)->UseRealTime();

// The same wide request served entity-by-entity: one single-key
// GetFeatures (a batch of one) per entity.
void BM_FeatureServerWideLoop(benchmark::State& state) {
  auto& fixture = WideFixture();
  const size_t batch_size = static_cast<size_t>(state.range(0));
  auto batches = SampleBatches(fixture.keys, fixture.zipf, batch_size,
                               40 + state.thread_index());
  size_t next = 0;
  for (auto _ : state) {
    std::vector<StatusOr<FeatureVector>> result;
    result.reserve(batch_size);
    for (const Value& key : batches[next]) {
      result.push_back(
          fixture.server.GetFeatures(key, fixture.views, Hours(2)));
    }
    benchmark::DoNotOptimize(result);
    next = (next + 1) % batches.size();
  }
  state.SetItemsProcessed(state.iterations() * batch_size);
}
BENCHMARK(BM_FeatureServerWideLoop)->ArgName("batch")->Arg(16)->Arg(256);

// --- Serving-time computed features ------------------------------------
//
// "c_ab" is registered but never materialized: GetFeaturesBatch fetches
// the source-mirror rows with one shard-grouped MultiGet and evaluates the
// compiled expression vector-at-a-time. BM_FeatureServerBatch over the
// materialized "f_ab" view is the raw-serving baseline the acceptance
// criterion compares against (computed must stay within 1.3x at batch
// 256); BM_ComputedFeatureTreeWalkLoop is the per-row tree-walk oracle the
// batch VM replaces.
void BM_ComputedFeatureBatch(benchmark::State& state) {
  auto& fixture = Fixture();
  const size_t batch_size = static_cast<size_t>(state.range(0));
  auto batches = SampleBatches(fixture.keys, fixture.zipf, batch_size,
                               50 + state.thread_index());
  Timestamp now = fixture.store.clock().now();
  size_t next = 0;
  for (auto _ : state) {
    auto result =
        fixture.store.server().GetFeaturesBatch(batches[next], {"c_ab"}, now);
    benchmark::DoNotOptimize(result);
    next = (next + 1) % batches.size();
  }
  state.SetItemsProcessed(state.iterations() * batch_size);
}
BENCHMARK(BM_ComputedFeatureBatch)
    ->ArgName("batch")->Arg(1)->Arg(64)->Arg(256);

// Oracle: the same computed feature assembled per row — one online Get on
// the source mirror per key, then the tree-walking interpreter. What
// serving-time compute would cost without the VM or batched fetches.
void BM_ComputedFeatureTreeWalkLoop(benchmark::State& state) {
  auto& fixture = Fixture();
  const size_t batch_size = static_cast<size_t>(state.range(0));
  auto batches = SampleBatches(fixture.keys, fixture.zipf, batch_size,
                               50 + state.thread_index());
  const std::string mirror = SourceMirrorViewName("src");
  ExprPtr tree = ParseExpr("a + b").value();
  Timestamp now = fixture.store.clock().now();
  size_t next = 0;
  for (auto _ : state) {
    std::vector<StatusOr<Value>> out;
    out.reserve(batch_size);
    for (const Value& key : batches[next]) {
      StatusOr<Row> row = fixture.store.online().Get(mirror, key, now);
      if (!row.ok()) {
        out.push_back(row.status());
        continue;
      }
      out.push_back(EvalExpr(*tree, *row));
    }
    benchmark::DoNotOptimize(out);
    next = (next + 1) % batches.size();
  }
  state.SetItemsProcessed(state.iterations() * batch_size);
}
BENCHMARK(BM_ComputedFeatureTreeWalkLoop)
    ->ArgName("batch")->Arg(1)->Arg(64)->Arg(256);

}  // namespace
}  // namespace mlfs

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  // E1 summary table: latency percentiles of the assembled serving path.
  auto& fixture = mlfs::Fixture();
  auto histogram = fixture.store.server().latency_histogram();
  std::printf("\n[E1] online serving latency (us): %s\n",
              histogram.Summary().c_str());
  std::printf("[E1] online store: %s\n",
              [&] {
                auto stats = fixture.store.online().stats();
                char buf[160];
                std::snprintf(buf, sizeof(buf),
                              "cells=%zu bytes=%.1fMB hit_rate=%.3f",
                              stats.num_cells,
                              stats.approx_bytes / 1048576.0,
                              stats.gets ? double(stats.hits) / stats.gets
                                         : 0.0);
                return std::string(buf);
              }().c_str());
  benchmark::Shutdown();
  return 0;
}
