#ifndef MLFS_SERVING_POINT_IN_TIME_H_
#define MLFS_SERVING_POINT_IN_TIME_H_

#include <string>
#include <vector>

#include "common/row.h"
#include "common/status.h"
#include "storage/offline_store.h"

namespace mlfs {

/// One feature source to join onto the spine.
struct JoinSource {
  /// Historical table to read from (not owned; must outlive the join).
  const OfflineTable* table = nullptr;
  /// Columns to project; empty means "all except the entity/time columns".
  std::vector<std::string> columns;
  /// Prefix applied to projected column names (avoids collisions), e.g.
  /// "user_stats__".
  std::string prefix;
  /// Maximum allowed feature age: a value only joins when its event time is
  /// within [spine_ts - max_age, spine_ts]. 0 disables the check.
  Timestamp max_age = 0;
  /// Optional explicit output names, parallel to `columns` (overrides
  /// prefix+column). Used to surface a feature log's "value" column under
  /// the feature's own name.
  std::vector<std::string> output_columns;
};

/// A joined training set: schema plus rows.
struct TrainingSet {
  SchemaPtr schema;
  std::vector<Row> rows;
  /// Joined cells that came back NULL because the source had no history at
  /// (or within max_age of) the spine timestamp.
  uint64_t missing_cells = 0;
};

/// Execution knobs for the batched join engine. With max_threads > 1 the
/// join starts a pool of that many workers for the call and splits the
/// work across sources and, within a source, across entity-range shards of
/// the sorted request array; 1 keeps everything on the calling thread.
struct JoinOptions {
  uint32_t max_threads = 1;
};

/// A spine prepared for joining: entity keys canonicalized once, the
/// (key, ts) sort permutation computed once. Training pipelines typically
/// join the *same* label spine against several feature sets (model
/// variants, ablations); building the index once and passing it to
/// repeated PointInTimeJoin/NaiveLatestJoin/BuildTrainingSet calls skips
/// the canonicalize+sort step on every call after the first. The spine
/// rows are held by copy (cheap copy-on-write reference bumps), so the
/// index stays valid independent of the caller's vector.
class SpineIndex {
 public:
  /// Marker in pos_of_row() for spine rows that issue no batch request
  /// (their entity key is not INT64/STRING; they miss every source).
  static constexpr uint32_t kNoRequest = UINT32_MAX;

  /// Validates the spine (non-empty, uniform schema, entity/time columns
  /// present, time column TIMESTAMP) and builds the index.
  static StatusOr<SpineIndex> Build(std::vector<Row> spine,
                                    const std::string& entity_column,
                                    const std::string& time_column);

  const std::vector<Row>& rows() const { return rows_; }
  const SchemaPtr& schema() const { return schema_; }
  int entity_idx() const { return entity_idx_; }
  int time_idx() const { return time_idx_; }
  /// Canonical entity key per spine row (empty for unjoinable keys).
  const std::vector<std::string>& keys() const { return keys_; }
  /// Spine timestamp per spine row.
  const std::vector<Timestamp>& times() const { return times_; }
  /// Spine row indices in (canonical key, ts) order — the order batch
  /// requests are issued in. Unjoinable rows are absent.
  const std::vector<uint32_t>& sorted_rows() const { return sorted_; }
  /// Inverse permutation: spine row -> its slot in sorted_rows(), or
  /// kNoRequest.
  const std::vector<uint32_t>& pos_of_row() const { return pos_of_row_; }

 private:
  SpineIndex() = default;

  std::vector<Row> rows_;
  SchemaPtr schema_;
  int entity_idx_ = -1;
  int time_idx_ = -1;
  std::vector<std::string> keys_;
  std::vector<Timestamp> times_;
  std::vector<uint32_t> sorted_;
  std::vector<uint32_t> pos_of_row_;
};

/// Point-in-time (as-of) join: for each spine row (entity, t, labels...),
/// attaches each source's latest values with event time <= t. This is the
/// feature-store primitive that makes training sets *leakage-free* — a
/// model never sees feature values from after the moment of prediction
/// (paper §2.2.2: "FSs support this workflow by partitioning features on
/// date and providing APIs to allow for time based joins").
///
/// `spine` rows must share a schema containing `spine_entity_column`
/// (INT64/STRING) and `spine_time_column` (TIMESTAMP). Output columns are
/// the spine columns followed by each source's projected columns (all
/// nullable, NULL when no history qualifies).
///
/// Executes as a batched sort-merge as-of join: spine entity keys are
/// canonicalized once, an index permutation of the spine is sorted by
/// (key, ts), and each source is answered with OfflineTable::AsOfBatch
/// calls — one shared-lock acquisition per shard instead of one per spine
/// row per source. `options` fans work out across sources and entity-range
/// shards. Output is identical to the retained row-at-a-time reference
/// (PointInTimeJoinReference), which a property test enforces.
StatusOr<TrainingSet> PointInTimeJoin(const std::vector<Row>& spine,
                                      const std::string& spine_entity_column,
                                      const std::string& spine_time_column,
                                      const std::vector<JoinSource>& sources,
                                      const JoinOptions& options = {});

/// As above, but reusing a prebuilt SpineIndex (see SpineIndex for when
/// that pays off). Output is identical to the by-rows overload on the same
/// spine.
StatusOr<TrainingSet> PointInTimeJoin(const SpineIndex& spine,
                                      const std::vector<JoinSource>& sources,
                                      const JoinOptions& options = {});

/// Deliberately *incorrect* baseline: joins each source's globally latest
/// value per entity, ignoring the spine timestamp. This is what ad-hoc
/// training pipelines without a feature store typically do; benchmarks use
/// it to count leaked cells (feature values from the future).
StatusOr<TrainingSet> NaiveLatestJoin(const std::vector<Row>& spine,
                                      const std::string& spine_entity_column,
                                      const std::string& spine_time_column,
                                      const std::vector<JoinSource>& sources,
                                      const JoinOptions& options = {});

StatusOr<TrainingSet> NaiveLatestJoin(const SpineIndex& spine,
                                      const std::vector<JoinSource>& sources,
                                      const JoinOptions& options = {});

/// Row-at-a-time reference implementations: one locked OfflineTable::AsOf
/// per spine row per source. Retained as the correctness oracle for the
/// merge-join property suite and as the baseline in bench_pit_join; not a
/// serving path.
StatusOr<TrainingSet> PointInTimeJoinReference(
    const std::vector<Row>& spine, const std::string& spine_entity_column,
    const std::string& spine_time_column,
    const std::vector<JoinSource>& sources);

StatusOr<TrainingSet> NaiveLatestJoinReference(
    const std::vector<Row>& spine, const std::string& spine_entity_column,
    const std::string& spine_time_column,
    const std::vector<JoinSource>& sources);

/// Counts cells in `candidate` whose value differs from the leakage-free
/// reference join (same shape required): a measure of silent training bias.
StatusOr<uint64_t> CountDivergentCells(const TrainingSet& reference,
                                       const TrainingSet& candidate);

}  // namespace mlfs

#endif  // MLFS_SERVING_POINT_IN_TIME_H_
