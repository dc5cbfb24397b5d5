#ifndef MLFS_TESTS_PIT_REFERENCE_H_
#define MLFS_TESTS_PIT_REFERENCE_H_

#include <string>
#include <vector>

#include "common/row.h"
#include "common/status.h"
#include "serving/point_in_time.h"

namespace mlfs {

/// Row-at-a-time reference joins: one OfflineTable::AsOf per spine row per
/// source. They are the oracle the merge join (PointInTimeJoin,
/// NaiveLatestJoin) must reproduce byte for byte, and the baseline
/// bench_pit_join times it against; the library itself has no row-at-a-time
/// join. Same inputs, output schema and NULL-fill rules as the merge join:
/// the spine columns, then each source's projected columns (named
/// `output_columns[i]` or `prefix + column`, all nullable), NULL where the
/// source has no history at (or within max_age of) the spine timestamp.
StatusOr<TrainingSet> PointInTimeJoinReference(
    const std::vector<Row>& spine, const std::string& spine_entity_column,
    const std::string& spine_time_column,
    const std::vector<JoinSource>& sources);

/// The naive latest-value join, row at a time: each source's globally
/// latest row per entity, ignoring the spine timestamp and max_age.
StatusOr<TrainingSet> NaiveLatestJoinReference(
    const std::vector<Row>& spine, const std::string& spine_entity_column,
    const std::string& spine_time_column,
    const std::vector<JoinSource>& sources);

}  // namespace mlfs

#endif  // MLFS_TESTS_PIT_REFERENCE_H_
