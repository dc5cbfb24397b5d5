#ifndef MLFS_STREAMING_WINDOW_H_
#define MLFS_STREAMING_WINDOW_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/row.h"
#include "common/status.h"
#include "common/timestamp.h"
#include "expr/evaluator.h"
#include "streaming/aggregator.h"

namespace mlfs {

/// Event-time window layout. `slide == width` is a tumbling window; a
/// smaller slide produces overlapping (hopping) windows. Window starts lie
/// on the slide grid; an event at time t belongs to every window
/// [start, start + width) containing t.
struct WindowSpec {
  Timestamp width = kMicrosPerHour;
  Timestamp slide = kMicrosPerHour;

  bool IsTumbling() const { return slide == width; }
};

/// One aggregation over a window: `fn` applied to `input` (an expression
/// over the event schema; empty means "count events").
struct WindowAggSpec {
  std::string output_feature;
  AggregateFn fn = AggregateFn::kCount;
  std::string input;
};

/// One finalized (entity, window) aggregate emitted by the operator.
struct WindowResult {
  std::string entity_key;
  Timestamp window_start = 0;
  Timestamp window_end = 0;
  /// One value per WindowAggSpec, in spec order.
  std::vector<Value> values;
};

/// Per-entity, event-time windowed aggregation operator over a stream of
/// rows — the streaming-feature engine of the feature store (§2.2.1).
///
/// Watermark semantics: the watermark is max(event time seen) minus
/// `allowed_lateness`. A window finalizes (and its results become available
/// from PollResults()) when the watermark passes its end. Events older than
/// the watermark are dropped and counted in dropped_late().
///
/// Not thread-safe; a pipeline drives each operator from one thread.
class WindowedAggregator {
 public:
  /// Validates the specs against the event schema: `entity_column` must be
  /// INT64/STRING, `time_column` TIMESTAMP, and every non-empty input
  /// expression must compile to a numeric type (any type for count /
  /// count_distinct).
  static StatusOr<std::unique_ptr<WindowedAggregator>> Create(
      SchemaPtr event_schema, std::string entity_column,
      std::string time_column, WindowSpec window,
      std::vector<WindowAggSpec> aggs, Timestamp allowed_lateness = 0);

  /// Folds one event into all windows containing it; advances the
  /// watermark, which may finalize older windows. Each aggregation input
  /// evaluates once per event (a batch of one), before any window state
  /// changes: an event that fails leaves the aggregator untouched.
  Status ProcessEvent(const Row& event);

  /// Finalized results since the last poll, ordered by (window_end, entity).
  std::vector<WindowResult> PollResults();

  /// Forces the watermark to `t` (e.g. end of stream), finalizing every
  /// window ending at or before it.
  void AdvanceWatermarkTo(Timestamp t);

  Timestamp watermark() const { return watermark_; }
  uint64_t dropped_late() const { return dropped_late_; }
  const std::vector<WindowAggSpec>& aggs() const { return aggs_; }
  const WindowSpec& window() const { return window_; }
  /// Number of (entity, window) states currently buffered.
  size_t open_states() const;

 private:
  struct EntityState {
    std::vector<std::unique_ptr<AggregatorState>> aggs;
  };
  // window_start -> entity -> state.
  using WindowMap =
      std::map<Timestamp, std::unordered_map<std::string, EntityState>>;

  WindowedAggregator(SchemaPtr schema, int entity_idx, int time_idx,
                     WindowSpec window, std::vector<WindowAggSpec> aggs,
                     std::vector<std::unique_ptr<CompiledExpr>> inputs,
                     Timestamp allowed_lateness);

  void MaybeFinalize();
  Timestamp FirstWindowStartFor(Timestamp t) const;

  SchemaPtr schema_;
  int entity_idx_;
  int time_idx_;
  WindowSpec window_;
  std::vector<WindowAggSpec> aggs_;
  // Parallel to aggs_; null entry means "count the event itself".
  std::vector<std::unique_ptr<CompiledExpr>> inputs_;
  // Parallel to inputs_: per-input VM scratch, so each input keeps its
  // register buffers from one event to the next.
  std::vector<ExprScratch> scratch_;
  // Parallel to aggs_: the current event's aggregation inputs.
  std::vector<Value> event_inputs_;
  Timestamp allowed_lateness_;

  WindowMap open_;
  std::vector<WindowResult> ready_;
  Timestamp watermark_ = kMinTimestamp;
  Timestamp max_event_time_ = kMinTimestamp;
  uint64_t dropped_late_ = 0;
};

}  // namespace mlfs

#endif  // MLFS_STREAMING_WINDOW_H_
