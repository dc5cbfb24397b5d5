#ifndef MLFS_STREAMING_STREAM_PIPELINE_H_
#define MLFS_STREAMING_STREAM_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/row.h"
#include "common/status.h"
#include "storage/offline_store.h"
#include "storage/online_store.h"
#include "streaming/window.h"

namespace mlfs {

/// Configuration of one streaming feature view.
struct StreamPipelineOptions {
  /// Feature-view name; also the name of the offline log table and the
  /// online view created by the pipeline.
  std::string name;
  SchemaPtr event_schema;
  std::string entity_column;
  std::string time_column;
  WindowSpec window;
  std::vector<WindowAggSpec> aggs;
  Timestamp allowed_lateness = 0;
  /// TTL of materialized rows in the online store (0: never expire).
  Timestamp online_ttl = 0;
};

/// Ties a windowed aggregator to the dual datastore: finalized window
/// aggregates are upserted into the online store *and* logged to the
/// offline store (paper §2.2.1: "the aggregated features are persisted to
/// the online store and logged to the offline store").
///
/// The output schema is {entity, "event_time", <one column per agg>};
/// each finalized window emits one row stamped with the window end.
class StreamPipeline {
 public:
  /// Builds the aggregator, registers the online view and offline table.
  /// Fails if either already exists.
  static StatusOr<std::unique_ptr<StreamPipeline>> Create(
      StreamPipelineOptions options, OnlineStore* online,
      OfflineStore* offline);

  /// Processes one raw event and materializes any windows it finalized.
  /// Events are ingested one at a time; an event the aggregator rejects
  /// (e.g. an aggregation input fails on it) changes no window state.
  Status Ingest(const Row& event);

  /// Forces all windows ending at or before `watermark` to finalize and
  /// materialize (use at end of stream or on a timer tick).
  Status Flush(Timestamp watermark);

  const SchemaPtr& output_schema() const { return output_schema_; }
  const std::string& name() const { return options_.name; }
  uint64_t events_ingested() const { return events_ingested_; }
  uint64_t rows_emitted() const { return rows_emitted_; }
  uint64_t dropped_late() const { return aggregator_->dropped_late(); }

 private:
  StreamPipeline(StreamPipelineOptions options,
                 std::unique_ptr<WindowedAggregator> aggregator,
                 SchemaPtr output_schema, OnlineStore* online,
                 OfflineStore* offline);

  Status MaterializeReady();

  StreamPipelineOptions options_;
  std::unique_ptr<WindowedAggregator> aggregator_;
  SchemaPtr output_schema_;
  FeatureType entity_type_;
  OnlineStore* online_;    // Not owned.
  OfflineStore* offline_;  // Not owned.
  uint64_t events_ingested_ = 0;
  uint64_t rows_emitted_ = 0;
};

}  // namespace mlfs

#endif  // MLFS_STREAMING_STREAM_PIPELINE_H_
