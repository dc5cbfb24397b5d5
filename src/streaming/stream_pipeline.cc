#include "streaming/stream_pipeline.h"

#include "common/failpoint.h"

namespace mlfs {

StreamPipeline::StreamPipeline(StreamPipelineOptions options,
                               std::unique_ptr<WindowedAggregator> aggregator,
                               SchemaPtr output_schema, OnlineStore* online,
                               OfflineStore* offline)
    : options_(std::move(options)),
      aggregator_(std::move(aggregator)),
      output_schema_(std::move(output_schema)),
      online_(online),
      offline_(offline) {
  int eidx = options_.event_schema->FieldIndex(options_.entity_column);
  entity_type_ = options_.event_schema->field(eidx).type;
}

StatusOr<std::unique_ptr<StreamPipeline>> StreamPipeline::Create(
    StreamPipelineOptions options, OnlineStore* online,
    OfflineStore* offline) {
  if (online == nullptr || offline == nullptr) {
    return Status::InvalidArgument("stream pipeline needs both stores");
  }
  if (options.name.empty()) {
    return Status::InvalidArgument("stream pipeline needs a name");
  }
  MLFS_ASSIGN_OR_RETURN(
      auto aggregator,
      WindowedAggregator::Create(options.event_schema, options.entity_column,
                                 options.time_column, options.window,
                                 options.aggs, options.allowed_lateness));

  // Output schema: entity key, window-end timestamp, one column per agg.
  int eidx = options.event_schema->FieldIndex(options.entity_column);
  std::vector<FieldSpec> fields;
  fields.push_back({options.entity_column,
                    options.event_schema->field(eidx).type, false});
  fields.push_back({"event_time", FeatureType::kTimestamp, false});
  for (const auto& spec : options.aggs) {
    fields.push_back({spec.output_feature, AggregateOutputType(spec.fn),
                      true});
  }
  MLFS_ASSIGN_OR_RETURN(SchemaPtr output_schema,
                        Schema::Create(std::move(fields)));

  MLFS_RETURN_IF_ERROR(online->CreateView(options.name, output_schema));

  OfflineTableOptions table_options;
  table_options.name = options.name;
  table_options.schema = output_schema;
  table_options.entity_column = options.entity_column;
  table_options.time_column = "event_time";
  MLFS_RETURN_IF_ERROR(offline->CreateTable(std::move(table_options)));

  return std::unique_ptr<StreamPipeline>(
      new StreamPipeline(std::move(options), std::move(aggregator),
                         std::move(output_schema), online, offline));
}

Status StreamPipeline::Ingest(const Row& event) {
  MLFS_RETURN_IF_ERROR(aggregator_->ProcessEvent(event));
  ++events_ingested_;
  return MaterializeReady();
}

Status StreamPipeline::Flush(Timestamp watermark) {
  aggregator_->AdvanceWatermarkTo(watermark);
  return MaterializeReady();
}

Status StreamPipeline::MaterializeReady() {
  MLFS_FAILPOINT("stream_pipeline.materialize");
  MLFS_ASSIGN_OR_RETURN(OfflineTable* table,
                        offline_->GetTable(options_.name));
  for (WindowResult& result : aggregator_->PollResults()) {
    Value entity = entity_type_ == FeatureType::kInt64
                       ? Value::Int64(std::stoll(result.entity_key))
                       : Value::String(result.entity_key);
    std::vector<Value> values;
    values.reserve(2 + result.values.size());
    values.push_back(entity);
    values.push_back(Value::Time(result.window_end));
    for (Value& v : result.values) values.push_back(std::move(v));
    MLFS_ASSIGN_OR_RETURN(Row row,
                          Row::Create(output_schema_, std::move(values)));
    MLFS_RETURN_IF_ERROR(online_->Put(options_.name, entity, row,
                                      result.window_end, result.window_end,
                                      options_.online_ttl));
    MLFS_RETURN_IF_ERROR(table->Append(row));
    ++rows_emitted_;
  }
  return Status::OK();
}

}  // namespace mlfs
