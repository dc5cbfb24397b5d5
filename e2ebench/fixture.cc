// Inputs, oracle and store set-up shared by every workload.

#include <pthread.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>

#include "bench.h"
#include "common/rng.h"

namespace mlfs::e2e {

const std::array<std::pair<const char*, const char*>, kNumViews> kViews = {{
    {"f_sum", "a + b"},
    {"f_prod", "a * b - n"},
    {"f_ratio", "a / (b + 1)"},
    {"f_len", "len(cat) + n"},
}};
const char* const kComputedExpression = "a * 2 + b * n";

namespace {

constexpr std::array<const char*, 8> kCategories = {
    "a", "bb", "ccc", "dddd", "eeeee", "ffffff", "ggggggg", "hhhhhhhh"};

// Column positions in Dataset::schema.
constexpr size_t kUser = 0, kTs = 1, kA = 2, kB = 3, kN = 4, kCat = 5;

uint32_t EntityOf(const Row& row) {
  return static_cast<uint32_t>(
      std::strtoul(row.value(kUser).string_value().c_str() + 1, nullptr, 10));
}

Row MakeEvent(const Dataset& d, uint32_t entity, Timestamp ts, Rng* rng) {
  return Row::CreateUnsafe(
      d.schema, {Value::String(d.keys[entity]), Value::Time(ts),
                 Value::Double(rng->Gaussian(50, 10)),
                 Value::Double(rng->UniformDouble(0, 100)),
                 Value::Int64(rng->UniformInt(0, 9)),
                 Value::String(kCategories[rng->Uniform(kCategories.size())])});
}

// Splits `entities` (one event each, in ingest order) into Ingest chunks.
std::vector<std::vector<Row>> MakeChunks(const Dataset& d,
                                         const std::vector<uint32_t>& entities,
                                         Timestamp lo, Timestamp hi,
                                         size_t chunk_rows, Rng* rng) {
  std::vector<std::vector<Row>> chunks;
  for (size_t i = 0; i < entities.size(); i += chunk_rows) {
    const size_t n = std::min(chunk_rows, entities.size() - i);
    std::vector<Row>& chunk = chunks.emplace_back();
    chunk.reserve(n);
    for (size_t k = 0; k < n; ++k) {
      const Timestamp ts = lo + static_cast<Timestamp>(rng->Uniform(
                                    static_cast<uint64_t>(hi - lo)));
      chunk.push_back(MakeEvent(d, entities[i + k], ts, rng));
    }
  }
  return chunks;
}

// Last-writer-wins by event time, later ingest breaking ties: the row the
// online mirror keeps and EvalLatestPerEntityAsOf selects.
void ApplyLatest(const std::vector<std::vector<Row>>& chunks,
                 std::vector<const Row*>* latest) {
  for (const auto& chunk : chunks) {
    for (const Row& row : chunk) {
      const Row*& cur = (*latest)[EntityOf(row)];
      if (cur == nullptr ||
          row.value(kTs).time_value() >= cur->value(kTs).time_value()) {
        cur = &row;
      }
    }
  }
}

}  // namespace

void Report::CheckFailed(const std::string& why) {
  if (correct) std::cerr << "e2e: output check failed: " << why << "\n";
  correct = false;
}

void Report::Op(const Status& status, const char* what) {
  ++attempted;
  if (status.ok()) return;
  if (failed++ < 5) {
    std::cerr << "e2e: " << what << " failed: " << status.ToString() << "\n";
  }
}

Sizes SizesFor(const std::string& workload, bool smoke) {
  Sizes s;
  if (smoke) {
    s.entities = 2000;
    s.history_per_entity = 2;
    s.chunk_rows = 500;
    s.dim = 8;
    s.spine_rows = 5000;
    s.ann_queries = 8;
    s.setup_reps = 2;
    if (workload == "backfill_train") {
      // Enough rows per day to seal segments, so some can spill.
      s.days = 2;
      s.rows_per_day = 20000;
      s.chunk_rows = 2000;
      s.source_budget_bytes = 64 << 10;
      s.tiered_embedding = true;
    }
    return s;
  }
  if (workload == "backfill_train") {
    s.entities = 50000;
    s.history_per_entity = 1;
    s.days = 4;
    s.rows_per_day = 150000;
    s.chunk_rows = 10000;
    s.dim = 64;
    s.spine_rows = 1000000;
    s.ann_queries = 64;
    s.source_budget_bytes = 4 << 20;
    s.tiered_embedding = true;
    return s;
  }
  s.entities = 100000;
  s.history_per_entity = 2;
  s.chunk_rows = 20000;
  s.dim = 32;
  s.spine_rows = 500000;
  // A wide batch keeps the resident brute-force scan compute-bound: each
  // block of vectors is reused across 512 queries while it sits in cache.
  s.ann_queries = 512;
  return s;
}

Value Expected(size_t f, const Row& row) {
  const double a = row.value(kA).double_value();
  const double b = row.value(kB).double_value();
  const int64_t n = row.value(kN).int64_value();
  switch (f) {
    case 0:
      return Value::Double(a + b);
    case 1:
      return Value::Double(a * b - static_cast<double>(n));
    case 2:
      return Value::Double(a / (b + 1.0));
    case 3:
      return Value::Int64(
          static_cast<int64_t>(row.value(kCat).string_value().size()) + n);
    default:
      return Value::Double(a * 2.0 + b * static_cast<double>(n));
  }
}

size_t Dataset::history_rows() const {
  size_t n = 0;
  for (const auto& chunk : history_chunks) n += chunk.size();
  return n;
}

size_t Dataset::day_rows() const {
  size_t n = 0;
  for (const auto& day : day_chunks) {
    for (const auto& chunk : day) n += chunk.size();
  }
  return n;
}

Dataset Generate(const Sizes& sizes, uint64_t seed) {
  Dataset d;
  d.schema = Schema::Create({{"user", FeatureType::kString, false},
                             {"ts", FeatureType::kTimestamp, false},
                             {"a", FeatureType::kDouble, true},
                             {"b", FeatureType::kDouble, true},
                             {"n", FeatureType::kInt64, true},
                             {"cat", FeatureType::kString, true}})
                 .value();
  Rng rng(seed);
  const size_t n = sizes.entities;
  d.keys.reserve(n);
  char buf[32];
  for (size_t e = 0; e < n; ++e) {
    std::snprintf(buf, sizeof(buf), "u%07zu", e);
    d.keys.emplace_back(buf);
  }

  // Set-up history on day 0: every entity gets history_per_entity events,
  // so every key has a materialized value and any miss is a failure.
  std::vector<uint32_t> entities(n * sizes.history_per_entity);
  for (size_t i = 0; i < entities.size(); ++i) entities[i] = i % n;
  rng.Shuffle(&entities);
  d.history_chunks =
      MakeChunks(d, entities, 0, Days(1), sizes.chunk_rows, &rng);

  // New events of day 1..days, uniform over entities.
  for (size_t day = 1; day <= sizes.days; ++day) {
    entities.resize(sizes.rows_per_day);
    for (uint32_t& e : entities) e = static_cast<uint32_t>(rng.Uniform(n));
    d.day_chunks.push_back(MakeChunks(d, entities, Days(day), Days(day + 1),
                                      sizes.chunk_rows, &rng));
  }

  d.history_latest.assign(n, nullptr);
  ApplyLatest(d.history_chunks, &d.history_latest);
  d.final_latest = d.history_latest;
  for (const auto& day : d.day_chunks) ApplyLatest(day, &d.final_latest);

  d.dim = sizes.dim;
  d.vectors.resize(n * d.dim);
  for (float& x : d.vectors) x = static_cast<float>(rng.Gaussian());
  d.vec_lo.assign(d.dim, INFINITY);
  d.vec_hi.assign(d.dim, -INFINITY);
  for (size_t i = 0; i < d.vectors.size(); ++i) {
    d.vec_lo[i % d.dim] = std::min(d.vec_lo[i % d.dim], d.vectors[i]);
    d.vec_hi[i % d.dim] = std::max(d.vec_hi[i % d.dim], d.vectors[i]);
  }

  // Training spine: label times over the whole history plus half a day
  // past the last event, so some rows precede every feature value (missing
  // cells) and some follow the final materialization round.
  SchemaPtr spine_schema = Schema::Create({{"user", FeatureType::kString, false},
                                           {"ts", FeatureType::kTimestamp, false}})
                               .value();
  const Timestamp spine_end = Days(static_cast<int64_t>(sizes.days) + 1) +
                              Hours(12);
  d.spine.reserve(sizes.spine_rows);
  d.spine_entity.reserve(sizes.spine_rows);
  for (size_t i = 0; i < sizes.spine_rows; ++i) {
    const uint32_t e = static_cast<uint32_t>(rng.Uniform(n));
    const Timestamp ts =
        static_cast<Timestamp>(rng.Uniform(static_cast<uint64_t>(spine_end)));
    d.spine.push_back(Row::CreateUnsafe(
        spine_schema, {Value::String(d.keys[e]), Value::Time(ts)}));
    d.spine_entity.push_back(e);
    // The first materialized value of e carries its latest set-up event
    // time; a label before it has no history in any feature log.
    if (ts < d.history_latest[e]->value(kTs).time_value()) {
      d.expected_missing_cells += kNumViews;
    }
  }

  for (size_t i : rng.SampleWithoutReplacement(n, sizes.ann_queries)) {
    d.ann_refs.push_back(d.keys[i]);
  }
  d.by_rank.resize(n);
  for (size_t i = 0; i < n; ++i) d.by_rank[i] = static_cast<uint32_t>(i);
  rng.Shuffle(&d.by_rank);
  return d;
}

std::vector<std::vector<Value>> SampleBatches(const Dataset& data,
                                             size_t batch_keys, size_t count,
                                             uint64_t seed) {
  const ZipfDistribution zipf(data.keys.size(), 1.0);
  Rng rng(seed);
  std::vector<std::vector<Value>> batches(count);
  for (auto& batch : batches) {
    batch.reserve(batch_keys);
    for (size_t i = 0; i < batch_keys; ++i) {
      batch.push_back(Value::String(data.keys[data.by_rank[zipf.Sample(&rng)]]));
    }
  }
  return batches;
}

std::vector<std::string> ServedFeatures(bool computed) {
  std::vector<std::string> features;
  for (const auto& [name, expression] : kViews) features.emplace_back(name);
  if (computed) features.emplace_back(kComputed);
  features.emplace_back(kEmbedding);
  return features;
}

StatusOr<int> TimedRound(FeatureStore& store, Tracer::Buffer* trace,
                         const char* name, bool replay_round, int64_t* ns,
                         std::vector<Timestamp>* round_times) {
  uint64_t id = 0, request = 0;
  if (trace != nullptr && replay_round) {
    id = trace->NewId();
    request = trace->NextRequest();
    ReplayRound(store, *round_times, id, request, trace);
  }
  round_times->push_back(store.clock().now());
  const int64_t t0 = NowNs();
  StatusOr<int> refreshed = store.RunMaterialization();
  const int64_t t1 = NowNs();
  *ns += t1 - t0;
  Record(trace, name, t0, t1, 0, request, 0, id);
  if (refreshed.ok() && *refreshed != static_cast<int>(kNumViews)) {
    return Status::Internal("a round refreshed " + std::to_string(*refreshed) +
                            " views");
  }
  return refreshed;
}

namespace {

StatusOr<std::unique_ptr<FeatureStore>> SetUpStore(
    const Dataset& data, const Sizes& sizes, const std::string& dir,
    bool computed, bool replay_round, Tracer::Buffer* trace,
    SetupTimes* times) {
  FeatureStoreOptions options;
  options.ann_index = "brute";
  if (sizes.tiered_embedding) {
    options.embedding_tiering.memory_budget_bytes =
        data.vectors.size() * sizeof(float) / 4;
    options.embedding_tiering.spill_dir = dir + "/tier";
  }
  auto store = std::make_unique<FeatureStore>(options);
  *times = {};
  const int64_t start = NowNs();

  OfflineTableOptions table;
  table.name = kSourceTable;
  table.schema = data.schema;
  table.entity_column = "user";
  table.time_column = "ts";
  if (sizes.source_budget_bytes > 0) {
    table.memory_budget_bytes = sizes.source_budget_bytes;
    table.spill_dir = dir + "/offline";
  }
  MLFS_RETURN_IF_ERROR(store->CreateSourceTable(table));
  for (const auto& chunk : data.history_chunks) {
    const int64_t t0 = NowNs();
    MLFS_RETURN_IF_ERROR(store->Ingest(kSourceTable, chunk));
    const int64_t t1 = NowNs();
    times->ingest_s += (t1 - t0) * 1e-9;
    Record(trace, "setup.Ingest", t0, t1, 0, 0, chunk.size());
  }

  for (const auto& [name, expression] : kViews) {
    FeatureDefinition def;
    def.name = name;
    def.entity = "user";
    def.source_table = kSourceTable;
    def.expression = expression;
    // Shorter than a day, so every day of new events makes each view due.
    def.cadence = Hours(12);
    MLFS_RETURN_IF_ERROR(store->PublishFeature(def).status());
  }
  // The replay (traced runs) sits outside the set-up clock.
  const int64_t replay_start = NowNs();
  int64_t round_ns = 0;
  std::vector<Timestamp> round_times;
  MLFS_RETURN_IF_ERROR(TimedRound(*store, trace, "setup.RunMaterialization",
                                  replay_round, &round_ns, &round_times)
                           .status());
  times->materialize_s = round_ns * 1e-9;
  const int64_t replay_ns = NowNs() - replay_start - round_ns;

  EmbeddingTableMetadata meta;
  meta.name = kEmbedding;
  meta.training_source = "generated";
  MLFS_ASSIGN_OR_RETURN(
      EmbeddingTablePtr emb,
      EmbeddingTable::Create(meta, data.keys, data.vectors, data.dim));
  MLFS_RETURN_IF_ERROR(store->RegisterEmbedding(emb).status());
  if (computed) {
    FeatureDefinition def;
    def.name = kComputed;
    def.entity = "user";
    def.source_table = kSourceTable;
    def.expression = kComputedExpression;
    MLFS_RETURN_IF_ERROR(store->PublishFeature(def).status());
  }
  times->total_s = (NowNs() - start - replay_ns) * 1e-9;
  return store;
}

}  // namespace

StatusOr<std::unique_ptr<FeatureStore>> SetUpMedian(
    const Dataset& data, const Sizes& sizes, const std::string& workdir,
    bool computed, bool replay_round, Tracer::Buffer* trace,
    SetupTimes* median) {
  std::vector<double> total, ingest, materialize;
  std::unique_ptr<FeatureStore> store;
  for (int rep = 0; rep < sizes.setup_reps; ++rep) {
    store.reset();  // One store alive at a time: peak RSS stays one store.
    SetupTimes t;
    const PinnedTo pin(rep);
    MLFS_ASSIGN_OR_RETURN(
        store,
        SetUpStore(data, sizes, workdir + "/setup" + std::to_string(rep),
                   computed, replay_round && rep + 1 == sizes.setup_reps, trace,
                   &t));
    total.push_back(t.total_s);
    ingest.push_back(t.ingest_s);
    materialize.push_back(t.materialize_s);
  }
  *median = {Median(total), Median(ingest), Median(materialize)};
  return store;
}

void CheckServed(FeatureStore& store, const Dataset& data,
                 const std::vector<std::string>& features,
                 const std::vector<Value>& keys, bool history_only,
                 Timestamp now, Report* report) {
  std::map<std::string, size_t> feature_index;
  for (size_t f = 0; f < kNumViews; ++f) feature_index[kViews[f].first] = f;
  feature_index[kComputed] = kNumViews;
  StatusOr<EmbeddingTablePtr> emb = store.embeddings().GetLatest(kEmbedding);
  if (!emb.ok()) return report->CheckFailed("embedding not registered");
  const bool tiered = (*emb)->tiered();

  const auto results = store.server().GetFeaturesBatch(keys, features, now);
  for (size_t i = 0; i < keys.size(); ++i) {
    const std::string& key = keys[i].string_value();
    if (!results[i].ok()) {
      return report->CheckFailed("check read of " + key + ": " +
                                 results[i].status().ToString());
    }
    const FeatureVector& fv = *results[i];
    const uint32_t e =
        static_cast<uint32_t>(std::strtoul(key.c_str() + 1, nullptr, 10));
    const Row& row =
        history_only ? *data.history_latest[e] : *data.final_latest[e];
    for (size_t j = 0; j < features.size(); ++j) {
      const Value& got = fv.values[j];
      if (features[j] != kEmbedding) {
        const Value want = Expected(feature_index.at(features[j]), row);
        if (!(got == want)) {
          return report->CheckFailed(features[j] + "(" + key + ") = " +
                                     got.ToString() + ", expected " +
                                     want.ToString());
        }
        continue;
      }
      if (got.type() != FeatureType::kEmbedding ||
          got.embedding_value().size() != data.dim) {
        return report->CheckFailed("embedding of " + key + " missing");
      }
      for (size_t k = 0; k < data.dim; ++k) {
        const float want = data.vectors[e * data.dim + k];
        // A tiered table serves exact floats for hot blocks and 8-bit
        // dequantized values for cold ones: at most one step off.
        const float tol =
            tiered ? (data.vec_hi[k] - data.vec_lo[k]) / 255.0f * 1.01f : 0;
        if (std::fabs(got.embedding_value()[k] - want) > tol) {
          return report->CheckFailed("embedding of " + key + " differs");
        }
      }
    }
  }
}

PinnedTo::PinnedTo(size_t index) {
  if (pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_) != 0) {
    return;
  }
  const size_t cpus = static_cast<size_t>(CPU_COUNT(&saved_));
  size_t seen = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &saved_) || seen++ != index % cpus) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
    return;
  }
}

PinnedTo::~PinnedTo() {
  if (pinned_) pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v->size())));
  const size_t idx = std::min(v->size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v->begin(), v->begin() + idx, v->end());
  return (*v)[idx];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

}  // namespace mlfs::e2e
