// E14 — Columnar offline storage: projected reads and the spill tier.
//
// Claim: column-major sealed segments make training reads cheaper two
// ways — projected scans/gathers touch only the requested columns, and
// memory-mapped spilled segments keep backfills larger than RAM serviceable
// at a modest (not catastrophic) penalty over resident segments.
//
// Reproduces: full-width vs projected Scan and AsOfBatch over a wide
// (8-column, embedding-bearing) fixture pinned to each storage tier:
//   tier 0  row      mutable head only (seal_rows = 0; the legacy engine)
//   tier 1  sealed   everything sealed + compacted, segments resident
//   tier 2  spilled  everything sealed, segments memory-mapped from disk
//
// BM_AsOfBatchColdRead reads tables spilled past a 10/25/50% memory
// budget, warm or with the spill files' pages dropped before each
// iteration (cold).
//
// The write path has its own two cases over an events-like schema (string
// entity key, timestamp, two doubles, an int, a small-category string):
//   BM_SealHead          Encode + open of one 8192-row head
//   BM_CompactPartition  Merge + open of 16 sealed 8192-row segments
//
// Medians are committed as bench/BENCH_offline_scan.json:
//   ./bench_offline_scan --benchmark_repetitions=5
//       --benchmark_report_aggregates_only=true --benchmark_format=json

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "cold_cache.h"
#include "common/logging.h"
#include "common/rng.h"
#include "storage/entity_key.h"
#include "storage/offline_store.h"

namespace mlfs {
namespace {

constexpr size_t kRows = 160000;
constexpr size_t kEntities = 4000;
constexpr Timestamp kSpan = Days(16);  // ~16 daily partitions.
constexpr size_t kEmbeddingDim = 16;
constexpr size_t kRequests = 8192;

enum Tier : int64_t { kRowTier = 0, kSealedTier = 1, kSpilledTier = 2 };

// Where the spilled tables write their segment files. main removes it once
// the benchmarks have run; the tables' mappings outlive the unlink.
std::filesystem::path SpillDir() {
  return std::filesystem::temp_directory_path() / "mlfs_bench_offline_scan";
}

SchemaPtr WideSchema() {
  return Schema::Create({{"entity", FeatureType::kInt64, false},
                         {"event_time", FeatureType::kTimestamp, false},
                         {"metric", FeatureType::kDouble, true},
                         {"score", FeatureType::kDouble, true},
                         {"label", FeatureType::kString, true},
                         {"origin", FeatureType::kString, true},
                         {"flag", FeatureType::kBool, true},
                         {"embedding", FeatureType::kEmbedding, true}})
      .value();
}

struct ScanFixture {
  SchemaPtr schema;
  SchemaPtr projected_schema;
  std::vector<int> projected_columns = {1, 2};  // event_time + metric.
  OfflineStore store;
  std::vector<OfflineTable*> tables;  // Indexed by Tier.
  std::vector<std::string> request_keys;
  std::vector<AsOfRequest> requests;
  std::vector<Row> rows;  // Kept for the lazily-built cold-read tables.
  std::string spill_dir;
  std::map<int64_t, OfflineTable*> cold_tables;  // By budget_pct.

  ScanFixture() {
    schema = WideSchema();
    projected_schema =
        Schema::Create({schema->field(1), schema->field(2)}).value();
    Rng rng(7);
    rows.reserve(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      std::vector<float> vec(kEmbeddingDim);
      for (float& f : vec) f = static_cast<float>(rng.Gaussian());
      rows.push_back(Row::CreateUnsafe(
          schema,
          {Value::Int64(static_cast<int64_t>(rng.Uniform(kEntities))),
           Value::Time(static_cast<Timestamp>(rng.Uniform(kSpan))),
           Value::Double(rng.Gaussian()), Value::Double(rng.Gaussian()),
           Value::String("label_" + std::to_string(rng.Uniform(64))),
           Value::String("origin_" + std::to_string(rng.Uniform(8))),
           Value::Bool(rng.Bernoulli(0.5)),
           Value::Embedding(std::move(vec))}));
    }

    spill_dir = SpillDir().string();
    for (int64_t tier : {kRowTier, kSealedTier, kSpilledTier}) {
      OfflineTableOptions options;
      options.name = "events_" + std::to_string(tier);
      options.schema = schema;
      options.entity_column = "entity";
      options.time_column = "event_time";
      options.seal_rows = (tier == kRowTier) ? 0 : 8192;
      if (tier == kSpilledTier) {
        // A budget far below the fixture size forces every sealed segment
        // out to the memory-mapped tier.
        options.memory_budget_bytes = 64 * 1024;
        options.spill_dir = spill_dir;
      }
      MLFS_CHECK_OK(store.CreateTable(options));
      OfflineTable* table = store.GetTable(options.name).value();
      MLFS_CHECK_OK(table->AppendBatch(rows));
      if (tier != kRowTier) {
        MLFS_CHECK_OK(table->SealHeads());
        MLFS_CHECK_OK(table->CompactPartitions());
        MLFS_CHECK_OK(table->EnforceMemoryBudget());
      }
      tables.push_back(table);
    }
    MLFS_CHECK(tables[kSpilledTier]->storage_stats().spilled_segments > 0);

    // One sorted request batch reused by every AsOfBatch case.
    std::vector<std::pair<std::string, Timestamp>> probes;
    probes.reserve(kRequests);
    for (size_t i = 0; i < kRequests; ++i) {
      probes.emplace_back(
          EntityKeyToString(
              Value::Int64(static_cast<int64_t>(rng.Uniform(kEntities))))
              .value(),
          static_cast<Timestamp>(rng.Uniform(kSpan)));
    }
    std::sort(probes.begin(), probes.end());
    request_keys.reserve(kRequests);
    requests.reserve(kRequests);
    for (auto& [key, ts] : probes) {
      request_keys.push_back(std::move(key));
      requests.push_back({request_keys.back(), ts});
    }
  }

  /// A table with `budget_pct`% of the sealed tier's resident bytes as
  /// its memory budget (the rest spills). Built lazily, one per budget.
  OfflineTable* ColdTable(int64_t budget_pct) {
    auto it = cold_tables.find(budget_pct);
    if (it != cold_tables.end()) return it->second;
    const size_t sealed_bytes =
        tables[kSealedTier]->storage_stats().resident_segment_bytes;
    OfflineTableOptions options;
    options.name = "events_cold_" + std::to_string(budget_pct);
    options.schema = schema;
    options.entity_column = "entity";
    options.time_column = "event_time";
    options.seal_rows = 8192;
    options.memory_budget_bytes =
        sealed_bytes * static_cast<size_t>(budget_pct) / 100;
    options.spill_dir = spill_dir;
    MLFS_CHECK_OK(store.CreateTable(options));
    OfflineTable* table = store.GetTable(options.name).value();
    MLFS_CHECK_OK(table->AppendBatch(rows));
    MLFS_CHECK_OK(table->SealHeads());
    MLFS_CHECK_OK(table->CompactPartitions());
    MLFS_CHECK_OK(table->EnforceMemoryBudget());
    MLFS_CHECK(table->storage_stats().spilled_segments > 0);
    cold_tables[budget_pct] = table;
    return table;
  }
};

ScanFixture& Fixture() {
  static auto* fixture = new ScanFixture();
  return *fixture;
}

void BM_ScanFullWidth(benchmark::State& state) {
  auto& fixture = Fixture();
  const OfflineTable* table = fixture.tables[state.range(0)];
  for (auto _ : state) {
    auto rows = table->Scan({});
    MLFS_CHECK_OK(rows.status());
    MLFS_CHECK(rows->size() == kRows);
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_ScanFullWidth)
    ->ArgNames({"tier"})
    ->Arg(kRowTier)
    ->Arg(kSealedTier)
    ->Arg(kSpilledTier)
    ->Unit(benchmark::kMillisecond);

void BM_ScanProjected(benchmark::State& state) {
  auto& fixture = Fixture();
  const OfflineTable* table = fixture.tables[state.range(0)];
  ScanSpec spec;
  spec.columns = fixture.projected_columns;
  spec.projected_schema = fixture.projected_schema;
  for (auto _ : state) {
    auto rows = table->Scan(spec);
    MLFS_CHECK_OK(rows.status());
    MLFS_CHECK(rows->size() == kRows);
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_ScanProjected)
    ->ArgNames({"tier"})
    ->Arg(kRowTier)
    ->Arg(kSealedTier)
    ->Arg(kSpilledTier)
    ->Unit(benchmark::kMillisecond);

void BM_AsOfBatchFullWidth(benchmark::State& state) {
  auto& fixture = Fixture();
  const OfflineTable* table = fixture.tables[state.range(0)];
  std::vector<uint64_t> miss_bitmap;
  AsOfReadOptions options;
  options.miss_bitmap = &miss_bitmap;
  for (auto _ : state) {
    std::vector<Row> results(fixture.requests.size());
    MLFS_CHECK_OK(table->AsOfBatch(fixture.requests, results, options));
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(state.iterations() * fixture.requests.size());
}
BENCHMARK(BM_AsOfBatchFullWidth)
    ->ArgNames({"tier"})
    ->Arg(kRowTier)
    ->Arg(kSealedTier)
    ->Arg(kSpilledTier)
    ->Unit(benchmark::kMillisecond);

void BM_AsOfBatchProjected(benchmark::State& state) {
  auto& fixture = Fixture();
  const OfflineTable* table = fixture.tables[state.range(0)];
  std::vector<uint64_t> miss_bitmap;
  AsOfReadOptions options;
  options.columns = fixture.projected_columns;
  options.projected_schema = fixture.projected_schema;
  options.miss_bitmap = &miss_bitmap;
  for (auto _ : state) {
    std::vector<Row> results(fixture.requests.size());
    MLFS_CHECK_OK(table->AsOfBatch(fixture.requests, results, options));
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(state.iterations() * fixture.requests.size());
}
BENCHMARK(BM_AsOfBatchProjected)
    ->ArgNames({"tier"})
    ->Arg(kRowTier)
    ->Arg(kSealedTier)
    ->Arg(kSpilledTier)
    ->Unit(benchmark::kMillisecond);

// The cold-read regime: most of the table lives in spilled segments and a
// key-sorted batch walks several of them. With cold:1 the spill files'
// pages are dropped before each iteration (cold_cache.h), so every
// spilled byte the batch reads comes from the file system again.
void BM_AsOfBatchColdRead(benchmark::State& state) {
  auto& fixture = Fixture();
  OfflineTable* table = fixture.ColdTable(state.range(0));
  const bool cold = state.range(1) != 0;
  const std::string spill_prefix =
      fixture.spill_dir + "/" + table->options().name + "_p";
  size_t resident_pages = 0;
  std::vector<uint64_t> miss_bitmap;
  AsOfReadOptions options;
  options.miss_bitmap = &miss_bitmap;
  for (auto _ : state) {
    if (cold) {
      state.PauseTiming();
      resident_pages = bench::DropMappedPages(spill_prefix);
      state.ResumeTiming();
    }
    std::vector<Row> results(fixture.requests.size());
    MLFS_CHECK_OK(table->AsOfBatch(fixture.requests, results, options));
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(state.iterations() * fixture.requests.size());
  if (cold) {
    // Spill pages still resident after the last drop (0 expected).
    state.counters["resident_pages"] = static_cast<double>(resident_pages);
  }
}
// Real time: a cold read waits on page-ins, which is not its CPU time.
BENCHMARK(BM_AsOfBatchColdRead)
    ->ArgNames({"budget_pct", "cold"})
    ->ArgsProduct({{10, 25, 50}, {0, 1}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- Write path: sealing and compaction ----------------------------------

constexpr size_t kHeadRows = 8192;
constexpr size_t kCompactSegments = 16;

SchemaPtr EventsSchema() {
  return Schema::Create({{"user", FeatureType::kString, false},
                         {"ts", FeatureType::kTimestamp, false},
                         {"a", FeatureType::kDouble, true},
                         {"b", FeatureType::kDouble, true},
                         {"n", FeatureType::kInt64, true},
                         {"cat", FeatureType::kString, true}})
      .value();
}

/// kCompactSegments heads of kHeadRows events over 50k entities within one
/// day (one partition), and the sealed segment of each.
struct WriteFixture {
  SchemaPtr schema = EventsSchema();
  std::vector<std::vector<Row>> heads;
  std::vector<SegmentPtr> segments;

  WriteFixture() {
    Rng rng(19);
    char key[32];
    for (size_t s = 0; s < kCompactSegments; ++s) {
      std::vector<Row>& head = heads.emplace_back();
      for (size_t i = 0; i < kHeadRows; ++i) {
        std::snprintf(key, sizeof(key), "u%07zu",
                      static_cast<size_t>(rng.Uniform(50000)));
        head.push_back(Row::CreateUnsafe(
            schema,
            {Value::String(key),
             Value::Time(static_cast<Timestamp>(rng.Uniform(Days(1)))),
             Value::Double(rng.Gaussian(50, 10)),
             Value::Double(rng.UniformDouble(0, 100)),
             Value::Int64(rng.UniformInt(0, 9)),
             Value::String("cat_" + std::to_string(rng.Uniform(8)))}));
      }
      segments.push_back(
          Segment::FromBytes(Segment::Encode(schema, 0, 0, 1, head).value())
              .value());
    }
  }
};

WriteFixture& Writes() {
  static auto* fixture = new WriteFixture();
  return *fixture;
}

void BM_SealHead(benchmark::State& state) {
  auto& fixture = Writes();
  for (auto _ : state) {
    auto seg = Segment::FromBytes(
        Segment::Encode(fixture.schema, 0, 0, 1, fixture.heads[0]).value());
    MLFS_CHECK_OK(seg.status());
    benchmark::DoNotOptimize(seg);
  }
  state.SetItemsProcessed(state.iterations() * kHeadRows);
}
BENCHMARK(BM_SealHead)->Unit(benchmark::kMillisecond);

void BM_CompactPartition(benchmark::State& state) {
  auto& fixture = Writes();
  for (auto _ : state) {
    auto seg =
        Segment::FromBytes(Segment::Merge(fixture.segments).value());
    MLFS_CHECK_OK(seg.status());
    benchmark::DoNotOptimize(seg);
  }
  state.SetItemsProcessed(state.iterations() * kHeadRows * kCompactSegments);
}
BENCHMARK(BM_CompactPartition)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mlfs

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  std::error_code ec;
  std::filesystem::remove_all(mlfs::SpillDir(), ec);
  benchmark::Shutdown();
  return 0;
}
