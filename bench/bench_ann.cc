// E9 — Embedding search at scale (paper §4: "performing these operations
// at industrial scale will be non-trivial").
//
// Three experiments:
//   1. Batched retrieval (BM_*): throughput of AnnIndex::BatchSearch at
//      batch sizes 1/16/256 over 64d and 300d vectors, brute-force vs
//      HNSW. The brute-force batched scan amortizes each row block across
//      a tile of queries, turning a memory-bound per-query scan into a
//      compute-bound pass; HNSW batches reuse the epoch-stamped visited
//      pool instead of allocating per query.
//   2. Graceful degradation under a memory budget (BM_Tiered*): the same
//      50k x 64d table spilled to the packed 8-bit tier at hot fractions
//      100/50/25/10% (fixture up to 10x the hot budget). BatchSearch
//      streams cold blocks through the scan scratch and MultiGet decodes
//      each cold row alone (never promoting its block), so throughput
//      must degrade sub-linearly — the dequantize-on-read cost per row or
//      block, not a cliff. The scan runs warm (tier file pages cached) and
//      cold (cold:1 drops the file's pages before each iteration, see
//      cold_cache.h), and reports wall time.
//   3. The classic recall@10 vs QPS tradeoff table for brute/IVF/HNSW
//      over 100k x 64d vectors (run with --tradeoff).
//
// Regenerate the committed results with:
//   cmake -B build-rel -S . -DCMAKE_BUILD_TYPE=Release
//   cmake --build build-rel -j --target bench_ann
//   ./build-rel/bench/bench_ann --benchmark_repetitions=3
//       --benchmark_report_aggregates_only=true
//       --benchmark_out=bench/BENCH_ann.json
//       --benchmark_out_format=json   (one command line)

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>

#include "cold_cache.h"
#include "common/rng.h"
#include "embedding/ann.h"
#include "embedding/distance.h"
#include "embedding/embedding_table.h"
#include "embedding/tier.h"

namespace mlfs {
namespace {

constexpr size_t kK = 10;
constexpr size_t kQueryPool = 256;  // Max batch size; pool of queries.

std::vector<float> ClusteredVectors(size_t n, size_t dim, Rng* rng) {
  // Mixture of 64 Gaussian clusters: realistic embedding geometry.
  std::vector<float> centers(64 * dim);
  for (auto& c : centers) c = static_cast<float>(rng->Gaussian(0, 2));
  std::vector<float> out(n * dim);
  for (size_t i = 0; i < n; ++i) {
    const float* center = centers.data() + (i % 64) * dim;
    for (size_t j = 0; j < dim; ++j) {
      out[i * dim + j] = center[j] + static_cast<float>(rng->Gaussian(0, 0.6));
    }
  }
  return out;
}

// --- Batched retrieval fixtures (one per dimension, built lazily). --------

struct BatchFixture {
  size_t n, dim;
  std::vector<float> data;
  std::vector<float> queries;  // kQueryPool contiguous queries.
  std::unique_ptr<AnnIndex> brute;
  std::unique_ptr<AnnIndex> hnsw;

  BatchFixture(size_t n, size_t dim) : n(n), dim(dim) {
    Rng rng(1 + dim);
    data = ClusteredVectors(n, dim, &rng);
    queries = ClusteredVectors(kQueryPool, dim, &rng);
    brute = MakeBruteForceIndex(Metric::kL2);
    MLFS_CHECK_OK(brute->Build(data.data(), n, dim));
    HnswOptions options;
    options.m = 16;
    options.ef_construction = 128;
    options.ef_search = 64;
    hnsw = MakeHnswIndex(options);
    MLFS_CHECK_OK(hnsw->Build(data.data(), n, dim));
  }
};

const BatchFixture& BatchFixtureFor(size_t dim) {
  // Sized so a full scan far exceeds L2: batch wins must come from block
  // reuse, not from the whole table fitting in cache.
  if (dim == 64) {
    static auto* fixture = new BatchFixture(50000, 64);
    return *fixture;
  }
  static auto* fixture = new BatchFixture(20000, 300);
  return *fixture;
}

void RunBatched(benchmark::State& state, const AnnIndex& index,
                const BatchFixture& fixture) {
  const size_t batch = static_cast<size_t>(state.range(1));
  size_t next = 0;  // kQueryPool % batch == 0 for all registered sizes.
  for (auto _ : state) {
    auto result =
        index.BatchSearch(fixture.queries.data() + next * fixture.dim,
                          batch, kK);
    benchmark::DoNotOptimize(result);
    next = (next + batch) % kQueryPool;
  }
  state.SetItemsProcessed(state.iterations() * batch);
  state.counters["simd"] =
      benchmark::Counter(simd::LevelName() == "scalar" ? 0 : 1);
}

void BM_BruteBatchSearch(benchmark::State& state) {
  const auto& fixture = BatchFixtureFor(static_cast<size_t>(state.range(0)));
  RunBatched(state, *fixture.brute, fixture);
}
BENCHMARK(BM_BruteBatchSearch)
    ->ArgNames({"dim", "batch"})
    ->Args({64, 1})->Args({64, 16})->Args({64, 256})
    ->Args({300, 1})->Args({300, 16})->Args({300, 256});

void BM_HnswBatchSearch(benchmark::State& state) {
  const auto& fixture = BatchFixtureFor(static_cast<size_t>(state.range(0)));
  RunBatched(state, *fixture.hnsw, fixture);
}
BENCHMARK(BM_HnswBatchSearch)
    ->ArgNames({"dim", "batch"})
    ->Args({64, 1})->Args({64, 16})->Args({64, 256})
    ->Args({300, 1})->Args({300, 16})->Args({300, 256});

// --- Tiered degradation fixtures (one per hot fraction) -------------------

struct TieredFixture {
  EmbeddingTablePtr table;
  std::unique_ptr<AnnIndex> index;  // Tiered brute-force scan.
  std::vector<std::vector<std::string>> key_batches;  // Random MultiGets.

  explicit TieredFixture(int hot_pct) {
    const auto& base = BatchFixtureFor(64);
    std::vector<std::string> keys;
    keys.reserve(base.n);
    for (size_t i = 0; i < base.n; ++i) keys.push_back(std::to_string(i));
    EmbeddingTableMetadata metadata;
    metadata.name = "bench_tier";
    auto resident =
        EmbeddingTable::Create(metadata, keys, base.data, base.dim).value();
    EmbeddingTierOptions options;
    options.memory_budget_bytes =
        base.n * base.dim * sizeof(float) * hot_pct / 100;
    options.bits = 8;
    options.block_rows = 256;
    options.dir = (std::filesystem::temp_directory_path() /
                   ("mlfs_bench_tier_" + std::to_string(::getpid())))
                      .string();
    std::filesystem::create_directories(options.dir);
    table = EmbeddingTable::CreateTiered(*resident, options).value();
    index = MakeTieredBruteForceIndex(table, Metric::kL2);
    MLFS_CHECK_OK(index->Build(nullptr, 0, 0));
    // 64 pre-drawn random batches of 256 keys: uniform across the whole
    // table, so a sub-100% hot fraction decodes cold rows.
    Rng rng(97);
    key_batches.resize(64);
    for (auto& batch : key_batches) {
      batch.reserve(256);
      for (int i = 0; i < 256; ++i) {
        batch.push_back(std::to_string(rng.Uniform(base.n)));
      }
    }
  }
};

const TieredFixture& TieredFixtureFor(int hot_pct) {
  static auto* fixtures = new std::map<int, TieredFixture*>();
  auto it = fixtures->find(hot_pct);
  if (it == fixtures->end()) {
    it = fixtures->emplace(hot_pct, new TieredFixture(hot_pct)).first;
  }
  return *it->second;
}

void ReportTierCounters(benchmark::State& state, const EmbeddingTier& tier) {
  EmbeddingTierStats stats = tier.stats();
  state.counters["hot_blocks"] = benchmark::Counter(
      static_cast<double>(stats.hot_blocks));
  const uint64_t reads = stats.hot_hits + stats.cold_misses;
  state.counters["hit_rate"] = benchmark::Counter(
      reads == 0 ? 1.0 : static_cast<double>(stats.hot_hits) / reads);
}

void BM_TieredBruteBatchSearch(benchmark::State& state) {
  const auto& fixture = TieredFixtureFor(static_cast<int>(state.range(0)));
  const auto& base = BatchFixtureFor(64);
  const size_t batch = static_cast<size_t>(state.range(1));
  const bool cold = state.range(2) != 0;
  size_t resident_pages = 0;
  size_t next = 0;
  for (auto _ : state) {
    if (cold) {
      state.PauseTiming();
      resident_pages = bench::DropMappedPages(fixture.table->tier()->path());
      state.ResumeTiming();
    }
    auto result = fixture.index->BatchSearch(
        base.queries.data() + next * base.dim, batch, kK);
    benchmark::DoNotOptimize(result);
    next = (next + batch) % kQueryPool;
  }
  state.SetItemsProcessed(state.iterations() * batch);
  ReportTierCounters(state, *fixture.table->tier());
  if (cold) {
    // Tier file pages still resident after the last drop (0 expected).
    state.counters["resident_pages"] =
        benchmark::Counter(static_cast<double>(resident_pages));
  }
}
// Real time: a cold scan waits on page-ins, which is not CPU time.
BENCHMARK(BM_TieredBruteBatchSearch)
    ->ArgNames({"hot_pct", "batch", "cold"})
    ->Args({100, 256, 0})->Args({50, 256, 0})->Args({25, 256, 0})
    ->Args({10, 256, 0})
    ->Args({50, 256, 1})->Args({25, 256, 1})->Args({10, 256, 1})
    ->UseRealTime();

void BM_TieredMultiGet(benchmark::State& state) {
  const auto& fixture = TieredFixtureFor(static_cast<int>(state.range(0)));
  size_t next = 0;
  for (auto _ : state) {
    auto rows = fixture.table->MultiGet(fixture.key_batches[next]);
    benchmark::DoNotOptimize(rows);
    next = (next + 1) % fixture.key_batches.size();
  }
  state.SetItemsProcessed(state.iterations() * 256);
  ReportTierCounters(state, *fixture.table->tier());
}
BENCHMARK(BM_TieredMultiGet)
    ->ArgNames({"hot_pct"})
    ->Arg(100)->Arg(50)->Arg(25)->Arg(10);

// --- Recall/QPS tradeoff table (--tradeoff) -------------------------------

constexpr size_t kN = 100000;
constexpr size_t kDim = 64;
constexpr int kQueries = 200;

struct AnnFixture {
  std::vector<float> data;
  std::vector<std::vector<float>> queries;
  std::vector<std::vector<Neighbor>> ground_truth;
  std::unique_ptr<AnnIndex> brute;

  AnnFixture() {
    Rng rng(1);
    data = ClusteredVectors(kN, kDim, &rng);
    brute = MakeBruteForceIndex();
    MLFS_CHECK_OK(brute->Build(data.data(), kN, kDim));
    Rng query_rng(2);
    auto pool = ClusteredVectors(kQueries, kDim, &query_rng);
    for (int q = 0; q < kQueries; ++q) {
      std::vector<float> query(pool.begin() + q * kDim,
                               pool.begin() + (q + 1) * kDim);
      ground_truth.push_back(brute->Search(query.data(), kK).value());
      queries.push_back(std::move(query));
    }
  }
};

AnnFixture& Fixture() {
  static auto* fixture = new AnnFixture();
  return *fixture;
}

void Evaluate(const char* name, AnnIndex* index, double build_seconds) {
  auto& fixture = Fixture();
  double recall = 0;
  auto start = std::chrono::steady_clock::now();
  for (int q = 0; q < kQueries; ++q) {
    auto result = index->Search(fixture.queries[q].data(), kK).value();
    recall += RecallAtK(result, fixture.ground_truth[q], kK);
  }
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::printf("%-34s %9.3f %12.0f %12.1f\n", name, recall / kQueries,
              kQueries / seconds, build_seconds);
}

void PrintTradeoffTable() {
  std::printf("\n[E9] ANN tradeoff over %zu x %zud vectors, recall@%zu "
              "(%d queries, simd=%s)\n", kN, kDim, kK, kQueries,
              std::string(simd::LevelName()).c_str());
  std::printf("%-34s %9s %12s %12s\n", "index", "recall", "QPS",
              "build (s)");
  auto& fixture = Fixture();
  Evaluate("brute_force (exact)", fixture.brute.get(), 0.0);

  for (size_t nprobe : {1, 4, 16}) {
    IvfOptions options;
    options.nlist = 256;
    options.nprobe = nprobe;
    auto index = MakeIvfIndex(options);
    auto start = std::chrono::steady_clock::now();
    MLFS_CHECK_OK(index->Build(fixture.data.data(), kN, kDim));
    double build = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    Evaluate(index->name().c_str(), index.get(), build);
  }
  for (size_t ef : {16, 64, 128}) {
    HnswOptions options;
    options.m = 16;
    options.ef_construction = 128;
    options.ef_search = ef;
    auto index = MakeHnswIndex(options);
    auto start = std::chrono::steady_clock::now();
    MLFS_CHECK_OK(index->Build(fixture.data.data(), kN, kDim));
    double build = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    Evaluate(index->name().c_str(), index.get(), build);
  }
  std::printf("(shape to expect: approximate indexes trade a few recall "
              "points for 10-100x QPS over exact scan)\n");
}

}  // namespace
}  // namespace mlfs

int main(int argc, char** argv) {
  bool tradeoff = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tradeoff") == 0) {
      tradeoff = true;
      // Hide the flag from the benchmark library's argument parsing.
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  if (tradeoff) {
    mlfs::PrintTradeoffTable();
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::AddCustomContext(
      "note",
      "recorded in Release on a shared 4-vCPU container (nproc = 4), warm "
      "cache (tier files freshly written, mapped and resident): absolute "
      "throughput is not comparable across machines; the shape to read is "
      "the relative degradation across hot_pct and the batch-size scaling");
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
