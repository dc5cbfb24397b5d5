#include "pit_reference.h"

#include <utility>

#include "storage/offline_store.h"

namespace mlfs {
namespace {

// One source, resolved against its table's schema.
struct ReferenceSource {
  const OfflineTable* table;
  std::vector<int> column_indices;  // Into the source schema.
  int time_idx;                     // Into the source schema.
  Timestamp max_age;
};

StatusOr<TrainingSet> ReferenceJoin(const std::vector<Row>& spine,
                                    const std::string& spine_entity_column,
                                    const std::string& spine_time_column,
                                    const std::vector<JoinSource>& sources,
                                    bool point_in_time) {
  if (spine.empty()) {
    return Status::InvalidArgument("spine is empty");
  }
  const SchemaPtr& spine_schema = spine.front().schema();
  if (spine_schema == nullptr) {
    return Status::InvalidArgument("spine rows have no schema");
  }
  const int spine_entity_idx = spine_schema->FieldIndex(spine_entity_column);
  const int spine_time_idx = spine_schema->FieldIndex(spine_time_column);
  if (spine_entity_idx < 0 || spine_time_idx < 0) {
    return Status::InvalidArgument("spine is missing entity/time column");
  }
  if (spine_schema->field(spine_time_idx).type != FeatureType::kTimestamp) {
    return Status::InvalidArgument("spine time column is not a TIMESTAMP");
  }

  // Output schema: the spine fields, then every source's columns.
  std::vector<FieldSpec> out_fields = spine_schema->fields();
  std::vector<ReferenceSource> resolved;
  for (const JoinSource& source : sources) {
    if (source.table == nullptr) {
      return Status::InvalidArgument("join source has no table");
    }
    const OfflineTableOptions& options = source.table->options();
    const SchemaPtr& schema = options.schema;
    std::vector<std::string> columns = source.columns;
    if (columns.empty()) {
      for (const FieldSpec& field : schema->fields()) {
        if (field.name != options.entity_column &&
            field.name != options.time_column) {
          columns.push_back(field.name);
        }
      }
    }
    if (!source.output_columns.empty() &&
        source.output_columns.size() != columns.size()) {
      return Status::InvalidArgument(
          "output_columns must match projected column count");
    }
    ReferenceSource rs{source.table, {},
                       schema->FieldIndex(options.time_column),
                       source.max_age};
    for (size_t ci = 0; ci < columns.size(); ++ci) {
      const int idx = schema->FieldIndex(columns[ci]);
      if (idx < 0) {
        return Status::InvalidArgument("source '" + options.name +
                                       "' has no column '" + columns[ci] +
                                       "'");
      }
      rs.column_indices.push_back(idx);
      out_fields.push_back({source.output_columns.empty()
                                ? source.prefix + columns[ci]
                                : source.output_columns[ci],
                            schema->field(idx).type, /*nullable=*/true});
    }
    resolved.push_back(std::move(rs));
  }
  MLFS_ASSIGN_OR_RETURN(SchemaPtr out_schema,
                        Schema::Create(std::move(out_fields)));

  TrainingSet out;
  out.schema = out_schema;
  out.rows.reserve(spine.size());
  for (const Row& spine_row : spine) {
    if (spine_row.schema() == nullptr ||
        !(*spine_row.schema() == *spine_schema)) {
      return Status::InvalidArgument("spine rows have mixed schemas");
    }
    const Value& entity = spine_row.value(spine_entity_idx);
    const Timestamp t = spine_row.value(spine_time_idx).time_value();
    std::vector<Value> values = spine_row.values();
    for (const ReferenceSource& rs : resolved) {
      // Any AsOf failure is a miss: NotFound, or InvalidArgument for an
      // entity key that is not INT64/STRING.
      StatusOr<Row> source_row =
          rs.table->AsOf(entity, point_in_time ? t : kMaxTimestamp);
      bool usable = source_row.ok();
      if (usable && point_in_time && rs.max_age > 0) {
        const Timestamp event_time =
            source_row->value(rs.time_idx).time_value();
        usable = event_time >= t - rs.max_age;
      }
      for (int idx : rs.column_indices) {
        if (usable) {
          values.push_back(source_row->value(idx));
        } else {
          values.push_back(Value::Null());
          ++out.missing_cells;
        }
      }
    }
    MLFS_ASSIGN_OR_RETURN(Row row, Row::Create(out_schema, std::move(values)));
    out.rows.push_back(std::move(row));
  }
  return out;
}

}  // namespace

StatusOr<TrainingSet> PointInTimeJoinReference(
    const std::vector<Row>& spine, const std::string& spine_entity_column,
    const std::string& spine_time_column,
    const std::vector<JoinSource>& sources) {
  return ReferenceJoin(spine, spine_entity_column, spine_time_column, sources,
                       /*point_in_time=*/true);
}

StatusOr<TrainingSet> NaiveLatestJoinReference(
    const std::vector<Row>& spine, const std::string& spine_entity_column,
    const std::string& spine_time_column,
    const std::vector<JoinSource>& sources) {
  return ReferenceJoin(spine, spine_entity_column, spine_time_column, sources,
                       /*point_in_time=*/false);
}

}  // namespace mlfs
