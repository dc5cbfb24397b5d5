#ifndef MLFS_REGISTRY_FEATURE_DEF_H_
#define MLFS_REGISTRY_FEATURE_DEF_H_

#include <string>
#include <vector>

#include "common/ref.h"
#include "common/timestamp.h"
#include "common/value.h"

namespace mlfs {

/// A user-authored feature definition (paper §2.2.1, "feature authoring and
/// publishing"): definitional metadata plus a transformation expression over
/// a source table.
struct FeatureDefinition {
  /// Globally unique feature name, e.g. "user_trip_rate_7d".
  std::string name;
  /// Entity type the feature describes, e.g. "user" or "driver".
  std::string entity;
  /// Offline table the definition reads from.
  std::string source_table;
  /// Transformation over the source table's columns, in the expression DSL
  /// (e.g. "trips_7d / (trips_30d + 1)").
  std::string expression;
  /// How often the orchestrator refreshes the materialized value.
  Timestamp cadence = kMicrosPerDay;
  /// TTL of the materialized value in the online store (0 = never expire).
  Timestamp online_ttl = 0;
  std::string description;
  std::string owner;
};

/// A published feature: the definition plus registry-assigned metadata.
struct RegisteredFeature {
  FeatureDefinition def;
  /// Monotonically increasing per name; re-publishing bumps it.
  int version = 1;
  Timestamp registered_at = 0;
  /// Statically inferred output type of the expression.
  FeatureType output_type = FeatureType::kNull;
  /// Source columns the expression references (lineage).
  std::vector<std::string> input_columns;
  /// The source table's entity/time columns, captured at publish time so
  /// serving-time evaluation can locate the inputs without the table.
  std::string source_entity_column;
  std::string source_time_column;
  bool deprecated = false;

  /// "name@vN".
  std::string VersionedName() const {
    return FormatVersionedRef(def.name, version);
  }
};

/// Online view mirroring the latest row of offline table `table`, written
/// by FeatureStore::Ingest and read by the serving-time computed-feature
/// path. The "~" prefix keeps it out of the user view namespace.
inline std::string SourceMirrorViewName(const std::string& table) {
  return "~src/" + table;
}

}  // namespace mlfs

#endif  // MLFS_REGISTRY_FEATURE_DEF_H_
