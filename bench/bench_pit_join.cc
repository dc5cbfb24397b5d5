// E2 — Point-in-time joins for correct training data (paper §2.2.2).
//
// Claim: feature stores provide time-based joins so training sets are
// leakage-free; without them (naive latest-value join) a large fraction of
// training cells silently contain future information.
//
// Reproduces: (a) training-set generation throughput of the batched
// sort-merge join engine vs the row-at-a-time reference across spine sizes
// (1k / 100k), source counts (1 / 4) and the thread knob (1 / 2 / 4), on a
// fixture of 4 sources x 260k rows (1.04M rows over ~32 daily partitions,
// 5k entities); (b) with --leakage, the leakage count of the naive join vs
// the PIT join across spine positions.
//
// Medians are committed as bench/BENCH_pit_join.json:
//   ./bench_pit_join --benchmark_repetitions=5
//       --benchmark_report_aggregates_only=true --benchmark_format=json

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>

#include "common/rng.h"
#include "pit_reference.h"
#include "serving/point_in_time.h"
#include "storage/offline_store.h"

namespace mlfs {
namespace {

constexpr size_t kEntities = 5000;
constexpr size_t kNumSources = 4;
constexpr size_t kRowsPerSource = 260000;  // 4 x 260k = 1.04M rows total.
constexpr size_t kSpineRows = 100000;
constexpr Timestamp kSpan = Days(32);  // >=30 daily partitions per source.

struct JoinFixture {
  OfflineStore store;
  std::vector<const OfflineTable*> tables;
  SchemaPtr feature_schema;
  SchemaPtr spine_schema;
  std::vector<Row> spine;

  JoinFixture() {
    feature_schema =
        Schema::Create({{"entity", FeatureType::kInt64, false},
                        {"event_time", FeatureType::kTimestamp, false},
                        {"x", FeatureType::kDouble, true}})
            .value();
    Rng rng(1);
    for (size_t s = 0; s < kNumSources; ++s) {
      OfflineTableOptions options;
      options.name = "features_" + std::to_string(s);
      options.schema = feature_schema;
      options.entity_column = "entity";
      options.time_column = "event_time";
      MLFS_CHECK_OK(store.CreateTable(options));
      OfflineTable* table = store.GetTable(options.name).value();
      std::vector<Row> rows;
      rows.reserve(kRowsPerSource);
      for (size_t i = 0; i < kRowsPerSource; ++i) {
        rows.push_back(Row::CreateUnsafe(
            feature_schema,
            {Value::Int64(static_cast<int64_t>(rng.Uniform(kEntities))),
             Value::Time(static_cast<Timestamp>(rng.Uniform(kSpan))),
             Value::Double(rng.Gaussian())}));
      }
      MLFS_CHECK_OK(table->AppendBatch(rows));
      tables.push_back(table);
    }
    spine_schema = Schema::Create({{"entity", FeatureType::kInt64, false},
                                   {"ts", FeatureType::kTimestamp, false}})
                       .value();
    spine.reserve(kSpineRows);
    for (size_t i = 0; i < kSpineRows; ++i) {
      spine.push_back(Row::CreateUnsafe(
          spine_schema,
          {Value::Int64(static_cast<int64_t>(rng.Uniform(kEntities))),
           Value::Time(static_cast<Timestamp>(rng.Uniform(kSpan)))}));
    }
  }

  std::vector<JoinSource> Sources(size_t n) const {
    std::vector<JoinSource> sources;
    for (size_t s = 0; s < n; ++s) {
      JoinSource source;
      source.table = tables[s];
      source.columns = {"x"};
      source.output_columns = {"x" + std::to_string(s)};
      sources.push_back(std::move(source));
    }
    return sources;
  }

  std::vector<Row> Spine(size_t n) const {
    return std::vector<Row>(spine.begin(), spine.begin() + n);
  }
};

JoinFixture& Fixture() {
  static auto* fixture = new JoinFixture();
  return *fixture;
}

// Row-at-a-time baseline (tests/pit_reference.h): one OfflineTable::AsOf,
// a batch of one, per spine row per source.
void BM_ReferenceJoin(benchmark::State& state) {
  auto& fixture = Fixture();
  const std::vector<Row> spine =
      fixture.Spine(static_cast<size_t>(state.range(0)));
  const std::vector<JoinSource> sources =
      fixture.Sources(static_cast<size_t>(state.range(1)));
  for (auto _ : state) {
    auto result = PointInTimeJoinReference(spine, "entity", "ts", sources);
    MLFS_CHECK_OK(result.status());
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * spine.size());
}
BENCHMARK(BM_ReferenceJoin)
    ->ArgNames({"spine", "sources"})
    ->ArgsProduct({{1000, 100000}, {1, 4}})
    ->Unit(benchmark::kMillisecond);

// Batched sort-merge engine; threads drives JoinOptions::max_threads.
void BM_MergeJoin(benchmark::State& state) {
  auto& fixture = Fixture();
  const std::vector<Row> spine =
      fixture.Spine(static_cast<size_t>(state.range(0)));
  const std::vector<JoinSource> sources =
      fixture.Sources(static_cast<size_t>(state.range(1)));
  JoinOptions options;
  options.max_threads = static_cast<uint32_t>(state.range(2));
  for (auto _ : state) {
    auto result = PointInTimeJoin(spine, "entity", "ts", sources, options);
    MLFS_CHECK_OK(result.status());
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * spine.size());
}
// Wall-clock rate: with threads > 1 the join also runs on threads it starts,
// so the calling thread's CPU time would understate the work.
BENCHMARK(BM_MergeJoin)
    ->ArgNames({"spine", "sources", "threads"})
    ->ArgsProduct({{1000, 100000}, {1, 4}, {1, 2, 4}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_NaiveLatestJoin(benchmark::State& state) {
  auto& fixture = Fixture();
  const std::vector<Row> spine =
      fixture.Spine(static_cast<size_t>(state.range(0)));
  const std::vector<JoinSource> sources = fixture.Sources(kNumSources);
  for (auto _ : state) {
    auto result = NaiveLatestJoin(spine, "entity", "ts", sources);
    MLFS_CHECK_OK(result.status());
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * spine.size());
}
BENCHMARK(BM_NaiveLatestJoin)
    ->ArgNames({"spine"})
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void PrintLeakageTable() {
  std::printf("\n[E2] training-data leakage: naive latest-join vs "
              "point-in-time join\n");
  std::printf("%-22s %12s %14s %14s\n", "spine position", "spine rows",
              "leaked cells", "leak rate");
  auto& fixture = Fixture();
  const std::vector<JoinSource> sources = fixture.Sources(1);
  // Partition the spine by how early in history the label falls: early
  // labels leak more because more of the feature history is "the future".
  for (auto [name, lo, hi] :
       {std::tuple<const char*, Timestamp, Timestamp>{"early (day 0-10)", 0,
                                                      Days(10)},
        {"mid (day 10-20)", Days(10), Days(20)},
        {"late (day 20-32)", Days(20), Days(32)}}) {
    std::vector<Row> part;
    for (const Row& row : fixture.spine) {
      Timestamp t = row.value(1).time_value();
      if (t >= lo && t < hi) part.push_back(row);
    }
    if (part.empty()) continue;
    auto correct = PointInTimeJoin(part, "entity", "ts", sources).value();
    auto naive = NaiveLatestJoin(part, "entity", "ts", sources).value();
    uint64_t leaked = CountDivergentCells(correct, naive).value();
    std::printf("%-22s %12zu %14llu %13.1f%%\n", name, part.size(),
                static_cast<unsigned long long>(leaked),
                100.0 * static_cast<double>(leaked) /
                    static_cast<double>(part.size()));
  }
  std::printf("(every leaked cell is a feature value from the future; the "
              "PIT join produces zero by construction)\n");
}

}  // namespace
}  // namespace mlfs

int main(int argc, char** argv) {
  // The leakage table is opt-in (--leakage): it joins the full 100k spine
  // three times outside the timed sections, which would double the runtime
  // of every benchmark invocation (including CTest smoke runs).
  bool leakage = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--leakage") == 0) {
      leakage = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  if (leakage) mlfs::PrintLeakageTable();
  benchmark::Shutdown();
  return 0;
}
