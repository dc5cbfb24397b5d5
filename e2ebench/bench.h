#ifndef MLFS_E2EBENCH_BENCH_H_
#define MLFS_E2EBENCH_BENCH_H_

#include <sched.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/row.h"
#include "common/status.h"
#include "core/feature_store.h"
#include "trace.h"

namespace mlfs::e2e {

// --- Command line and output ------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Tiny sizes for the benchmark's own smoke test.
  bool smoke = false;
  /// Scratch directory for spill and tier files (inside the checkout).
  std::string workdir;
  /// File the traced run writes its spans to.
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports: the output-check verdict, operations attempted
/// and failed, and the metrics (end-to-end untraced, per-layer traced).
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Marks the run incorrect and says why on stderr.
  void CheckFailed(const std::string& why);
  /// Counts one operation; a non-OK status also counts as failed.
  void Op(const Status& status, const char* what);
};

/// Thread budget: at most nproc - 1 threads are ever busy at once.
struct Threads {
  int nproc = 1;
  int readers = 1;  // online: closed-loop readers
  int join = 1;     // JoinOptions::max_threads
};

// --- Workload sizes and generated inputs ------------------------------------

struct Sizes {
  size_t entities = 0;
  size_t history_per_entity = 0;  // Set-up events per entity (all on day 0).
  size_t days = 0;                // Days of new events after set-up.
  size_t rows_per_day = 0;
  size_t chunk_rows = 0;          // Rows per Ingest call.
  size_t dim = 0;                 // Embedding dimension.
  size_t spine_rows = 0;          // Training spine.
  size_t ann_queries = 0;         // Reference keys per NearestEntitiesBatch.
  size_t batch_keys = 32;         // Keys per GetFeaturesBatch.
  size_t source_budget_bytes = 0; // Source table memory budget (0 = none).
  bool tiered_embedding = false;  // Hot budget = 1/4 of the float bytes.
  int setup_reps = 4;  // One per CPU of a 4-vCPU host (see PinnedTo).
};

Sizes SizesFor(const std::string& workload, bool smoke);

inline constexpr char kSourceTable[] = "events";
inline constexpr char kEmbedding[] = "user_emb";
inline constexpr char kComputed[] = "c_score";
inline constexpr size_t kNumViews = 4;
/// Materialized features: name and DSL expression over the source table.
extern const std::array<std::pair<const char*, const char*>, kNumViews> kViews;
extern const char* const kComputedExpression;
/// Nearest neighbours asked per ANN reference key.
inline constexpr size_t kAnnK = 10;

/// The value feature `f` (0..kNumViews-1 a view, kNumViews the computed
/// feature) takes on generated event `row`, computed in plain C++ — the
/// oracle the served and joined values are checked against.
Value Expected(size_t f, const Row& row);

/// Everything the program receives, generated from the seed before any
/// timing starts, plus the oracle's view of it.
struct Dataset {
  SchemaPtr schema;
  std::vector<std::string> keys;  // Entity i's key ("u0000042").
  std::vector<std::vector<Row>> history_chunks;
  std::vector<std::vector<std::vector<Row>>> day_chunks;  // [day][chunk]
  size_t dim = 0;
  std::vector<float> vectors;  // keys.size() x dim, row-major.
  std::vector<float> vec_lo, vec_hi;  // Per-dimension range (tier checks).
  std::vector<Row> spine;
  std::vector<uint32_t> spine_entity;
  std::vector<std::string> ann_refs;
  /// Zipf(1) popularity: entity of popularity rank r.
  std::vector<uint32_t> by_rank;

  // Oracle.
  std::vector<const Row*> history_latest;  // Latest set-up row per entity.
  std::vector<const Row*> final_latest;    // Latest row after every day.
  uint64_t expected_missing_cells = 0;     // Of a join over every view.

  size_t history_rows() const;
  size_t day_rows() const;
};

Dataset Generate(const Sizes& sizes, uint64_t seed);

/// Pre-sampled request batches: `count` batches of `batch_keys` Zipf keys.
std::vector<std::vector<Value>> SampleBatches(const Dataset& data,
                                             size_t batch_keys, size_t count,
                                             uint64_t seed);

// --- Store set-up -------------------------------------------------------------

struct SetupTimes {
  double total_s = 0;
  double ingest_s = 0;
  double materialize_s = 0;
};

/// Builds a store through the facade `sizes.setup_reps` times — source
/// table, history ingest, view publication, the first materialization
/// round, embedding registration and, when `computed`, the serving-time
/// computed feature (published after the round so no view shadows it) —
/// timing only those calls. Keeps the last store and reports median
/// timings. Only the last repetition replays its round (see TimedRound).
StatusOr<std::unique_ptr<FeatureStore>> SetUpMedian(
    const Dataset& data, const Sizes& sizes, const std::string& workdir,
    bool computed, bool replay_round, Tracer::Buffer* trace,
    SetupTimes* median);

/// One RunMaterialization, timed into `*ns` and recorded as span `name`.
/// `round_times` holds the logical times of the store's earlier rounds;
/// this round's is appended. In a traced run with `replay_round`, the
/// calls the round makes are first replayed on scratch copies of the same
/// state and recorded as the round's children (see ReplayRound).
StatusOr<int> TimedRound(FeatureStore& store, Tracer::Buffer* trace,
                         const char* name, bool replay_round, int64_t* ns,
                         std::vector<Timestamp>* round_times);

/// Replays what the next RunMaterialization will do per view —
/// Compile, EvalLatestPerEntityAsOf on the live source table (read-only),
/// the online Puts on a copy of the online store, the feature-log
/// AppendBatch and the log's RunMaintenance on a scratch log rebuilt
/// through the same per-round appends as the live one (at
/// `earlier_rounds`) — as children of span `parent`.
void ReplayRound(FeatureStore& store,
                 const std::vector<Timestamp>& earlier_rounds, uint64_t parent,
                 uint64_t request, Tracer::Buffer* buf);

/// Feature names one serving request asks for.
std::vector<std::string> ServedFeatures(bool computed);

/// Checks served vectors for `keys` against the oracle (latest generated
/// row, or set-up row when `history_only`), and the embedding against the
/// generated vectors (exact, or within one quantization step if tiered).
void CheckServed(FeatureStore& store, const Dataset& data,
                 const std::vector<std::string>& features,
                 const std::vector<Value>& keys, bool history_only,
                 Timestamp now, Report* report);

// --- Shared measurement helpers ---------------------------------------------

/// Runs the calling thread on the `index`-th of the CPUs it may use
/// (modulo their count) until destroyed, then restores its CPU mask.
/// Single-client phases rotate over the CPUs with it: on a shared host the
/// vCPUs run at different speeds at any moment, so a phase pinned nowhere
/// measures whichever one the scheduler picked. Threads started while it
/// lives inherit the pin.
class PinnedTo {
 public:
  explicit PinnedTo(size_t index);
  ~PinnedTo();
  PinnedTo(const PinnedTo&) = delete;
  PinnedTo& operator=(const PinnedTo&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

double Median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 100].
double Percentile(std::vector<double>* v, double p);
double PeakRssMb();

// --- Workloads and the traced breakdown ---------------------------------------

/// Store-wide counters snapshotted at phase boundaries.
struct Counters {
  OnlineStoreStats online;
  FeatureServerStats server;
  EmbeddingStoreTierStats tier;
  size_t sealed_segments = 0;
  size_t spilled_segments = 0;
  size_t spilled_bytes = 0;
  uint64_t maintenance_errors = 0;
  uint64_t readahead_issued = 0;
  uint64_t readahead_wasted = 0;
  uint64_t entities_updated = 0;
};

/// What a workload hands the traced breakdown: the store in its final
/// state, the inputs, and the counters around its measured phases.
struct RunState {
  FeatureStore* store = nullptr;
  std::string scratch_dir;  // For spill files of rebuilt scratch tables.
  const Dataset* data = nullptr;
  std::vector<std::string> features;  // One serving request's features.
  std::vector<std::vector<Value>> sample_batches;
  Counters before;
  Counters after;
};

/// Replays sampled inputs against each layer's entry point (mutating calls
/// on scratch copies) and derives the per-layer metrics from the spans.
void Breakdown(const RunState& state, Tracer* tracer, Report* report);

void RunOnline(const Args& args, const Threads& threads, Report* report);
void RunBackfillTrain(const Args& args, const Threads& threads,
                      Report* report);

}  // namespace mlfs::e2e

#endif  // MLFS_E2EBENCH_BENCH_H_
