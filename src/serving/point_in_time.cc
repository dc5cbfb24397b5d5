#include "serving/point_in_time.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>

#include "common/threadpool.h"
#include "storage/entity_key.h"

namespace mlfs {
namespace {

struct ResolvedSource {
  const OfflineTable* table;
  std::vector<int> column_indices;  // Into the source schema.
  int time_idx;                     // Into the source schema.
  Timestamp max_age;
  // Projected read plan for the merge engine: the unique source columns
  // actually gathered (output columns plus, under max_age, the event-time
  // column), the schema those projected rows conform to, and the remaps
  // from output column / time column into the projected row.
  std::vector<int> proj;
  SchemaPtr proj_schema;
  std::vector<int> out_pos;  // Parallel to column_indices.
  int time_pos = -1;
};

// Validates sources and computes the output schema. `spine_schema` must
// already be validated (SpineIndex::Build does).
StatusOr<std::pair<SchemaPtr, std::vector<ResolvedSource>>> PrepareJoin(
    const SchemaPtr& spine_schema, const std::vector<JoinSource>& sources) {
  std::vector<FieldSpec> out_fields = spine_schema->fields();
  std::vector<ResolvedSource> resolved;
  resolved.reserve(sources.size());
  for (const JoinSource& source : sources) {
    if (source.table == nullptr) {
      return Status::InvalidArgument("join source has no table");
    }
    const OfflineTableOptions& options = source.table->options();
    const SchemaPtr& schema = options.schema;
    ResolvedSource rs;
    rs.table = source.table;
    rs.time_idx = schema->FieldIndex(options.time_column);
    rs.max_age = source.max_age;
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
    const auto proj_position = [&rs](int idx) {
      for (size_t p = 0; p < rs.proj.size(); ++p) {
        if (rs.proj[p] == idx) return static_cast<int>(p);
      }
      rs.proj.push_back(idx);
      return static_cast<int>(rs.proj.size() - 1);
    };
    for (size_t ci = 0; ci < columns.size(); ++ci) {
      const std::string& column = columns[ci];
      int idx = schema->FieldIndex(column);
      if (idx < 0) {
        return Status::InvalidArgument("source '" + options.name +
                                       "' has no column '" + column + "'");
      }
      rs.column_indices.push_back(idx);
      rs.out_pos.push_back(proj_position(idx));
      std::string out_name = source.output_columns.empty()
                                 ? source.prefix + column
                                 : source.output_columns[ci];
      // Joined columns are always nullable (history may be missing).
      out_fields.push_back({std::move(out_name), schema->field(idx).type,
                            true});
    }
    // The max_age check reads the matched row's event time, so it rides
    // along in the projection; an empty projection still gathers it so the
    // batch read has a concrete column list.
    if (rs.max_age > 0 || rs.proj.empty()) {
      rs.time_pos = proj_position(rs.time_idx);
    }
    std::vector<FieldSpec> proj_fields;
    proj_fields.reserve(rs.proj.size());
    for (int idx : rs.proj) proj_fields.push_back(schema->field(idx));
    MLFS_ASSIGN_OR_RETURN(rs.proj_schema,
                          Schema::Create(std::move(proj_fields)));
    resolved.push_back(std::move(rs));
  }
  MLFS_ASSIGN_OR_RETURN(SchemaPtr out_schema,
                        Schema::Create(std::move(out_fields)));
  return std::make_pair(std::move(out_schema), std::move(resolved));
}

// Row-at-a-time oracle: one locked AsOf per spine row per source. Kept as
// the reference the merge-join engine must reproduce byte-for-byte.
StatusOr<TrainingSet> ReferenceJoinImpl(const std::vector<Row>& spine,
                                        const std::string& spine_entity_column,
                                        const std::string& spine_time_column,
                                        const std::vector<JoinSource>& sources,
                                        bool point_in_time) {
  if (spine.empty()) {
    return Status::InvalidArgument("spine is empty");
  }
  if (spine.front().schema() == nullptr) {
    return Status::InvalidArgument("spine rows have no schema");
  }
  {
    int eidx = spine.front().schema()->FieldIndex(spine_entity_column);
    int tidx = spine.front().schema()->FieldIndex(spine_time_column);
    if (eidx < 0 || tidx < 0) {
      return Status::InvalidArgument("spine is missing entity/time column");
    }
    if (spine.front().schema()->field(tidx).type != FeatureType::kTimestamp) {
      return Status::InvalidArgument("spine time column is not a TIMESTAMP");
    }
  }
  MLFS_ASSIGN_OR_RETURN(auto prepared,
                        PrepareJoin(spine.front().schema(), sources));
  SchemaPtr out_schema = std::move(prepared.first);
  std::vector<ResolvedSource> resolved = std::move(prepared.second);
  const SchemaPtr& spine_schema = spine.front().schema();
  int spine_entity_idx = spine_schema->FieldIndex(spine_entity_column);
  int spine_time_idx = spine_schema->FieldIndex(spine_time_column);

  TrainingSet out;
  out.schema = out_schema;
  out.rows.reserve(spine.size());
  for (const Row& spine_row : spine) {
    if (spine_row.schema() == nullptr ||
        !(*spine_row.schema() == *spine_schema)) {
      return Status::InvalidArgument("spine rows have mixed schemas");
    }
    const Value& entity = spine_row.value(spine_entity_idx);
    Timestamp t = spine_row.value(spine_time_idx).time_value();

    std::vector<Value> values = spine_row.values();
    for (const ResolvedSource& rs : resolved) {
      StatusOr<Row> source_row =
          rs.table->AsOf(entity, point_in_time ? t : kMaxTimestamp);
      bool usable = source_row.ok();
      if (usable && point_in_time && rs.max_age > 0) {
        Timestamp event_time =
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
    MLFS_ASSIGN_OR_RETURN(Row row,
                          Row::Create(out_schema, std::move(values)));
    out.rows.push_back(std::move(row));
  }
  return out;
}

// First (up to) 8 key bytes packed big-endian, so a single integer compare
// resolves most key orderings before falling back to byte-wise compare.
// prefix(a) < prefix(b) implies a < b lexicographically; equality falls
// through to the full comparison.
uint64_t KeyPrefix(const std::string& key) {
  unsigned char buf[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  std::memcpy(buf, key.data(), std::min<size_t>(key.size(), 8));
  uint64_t p = 0;
  for (int i = 0; i < 8; ++i) p = (p << 8) | buf[i];
  return p;
}

// Batched sort-merge as-of join (see point_in_time.h). Produces output
// identical to ReferenceJoinImpl; the pit_merge and columnar property
// suites pin it.
StatusOr<TrainingSet> MergeJoinImpl(const SpineIndex& spine_index,
                                    const std::vector<JoinSource>& sources,
                                    bool point_in_time,
                                    const JoinOptions& options) {
  MLFS_ASSIGN_OR_RETURN(auto prepared,
                        PrepareJoin(spine_index.schema(), sources));
  SchemaPtr out_schema = std::move(prepared.first);
  std::vector<ResolvedSource> resolved = std::move(prepared.second);
  const std::vector<Row>& spine = spine_index.rows();
  const std::vector<std::string>& keys = spine_index.keys();
  const std::vector<Timestamp>& times = spine_index.times();
  const std::vector<uint32_t>& sorted = spine_index.sorted_rows();
  const std::vector<uint32_t>& pos_of_row = spine_index.pos_of_row();
  constexpr uint32_t kNoRequest = SpineIndex::kNoRequest;
  const size_t n = spine.size();
  const size_t m = sorted.size();

  // 1. Lay out the batch requests in the index's (key, ts) order. The
  //    naive join asks for each entity's globally latest row, so every
  //    request degenerates to ts = +inf (still sorted).
  std::vector<AsOfRequest> requests(m);
  for (size_t p = 0; p < m; ++p) {
    requests[p] = {keys[sorted[p]],
                   point_in_time ? times[sorted[p]] : kMaxTimestamp};
  }

  // 2. Fan out: sources × entity-range shards of the sorted request array
  //    (shards cut at key boundaries so no entity's run is split).
  std::unique_ptr<ThreadPool> pool;
  if (options.max_threads > 1) {
    pool = std::make_unique<ThreadPool>(options.max_threads);
  }
  std::vector<std::pair<size_t, size_t>> shards;
  {
    const size_t want = pool != nullptr ? pool->num_threads() * 2 : 1;
    const size_t target = m == 0 ? 0 : (m + want - 1) / want;
    size_t start = 0;
    while (start < m) {
      size_t stop = std::min(m, start + target);
      while (stop < m && requests[stop].key == requests[stop - 1].key) ++stop;
      shards.emplace_back(start, stop);
      start = stop;
    }
  }
  std::vector<std::vector<Row>> source_rows(resolved.size());
  for (auto& rows : source_rows) rows.resize(m);
  const size_t num_tasks = resolved.size() * shards.size();
  std::vector<Status> task_status(num_tasks);
  // Each task fills a private miss bitmap for its shard (bitmap words at
  // shard boundaries would be shared between tasks otherwise); the shard
  // bitmaps are stitched into one per-source bitmap after the barrier.
  std::vector<std::vector<uint64_t>> task_miss(num_tasks);
  ParallelFor(pool.get(), 0, num_tasks, [&](size_t task) {
    const size_t s = task / shards.size();
    const auto [start, stop] = shards[task % shards.size()];
    AsOfReadOptions read_options;
    read_options.columns = resolved[s].proj;
    read_options.projected_schema = resolved[s].proj_schema;
    read_options.miss_bitmap = &task_miss[task];
    task_status[task] = resolved[s].table->AsOfBatch(
        std::span<const AsOfRequest>(requests.data() + start, stop - start),
        std::span<Row>(source_rows[s].data() + start, stop - start),
        read_options);
  });
  for (Status& s : task_status) {
    MLFS_RETURN_IF_ERROR(std::move(s));
  }
  std::vector<std::vector<uint64_t>> source_miss(
      resolved.size(), std::vector<uint64_t>((m + 63) / 64, 0));
  for (size_t task = 0; task < num_tasks; ++task) {
    const size_t s = task / shards.size();
    const auto [start, stop] = shards[task % shards.size()];
    for (size_t i = start; i < stop; ++i) {
      if (MissBitmapTest(task_miss[task], i - start)) {
        source_miss[s][i >> 6] |= uint64_t{1} << (i & 63);
      }
    }
  }

  // 3. Assemble output rows in spine order: reserve the full output width
  //    once per row instead of copy-and-growing from the spine values.
  TrainingSet out;
  out.schema = out_schema;
  out.rows.assign(n, Row());
  const size_t out_width = out_schema->num_fields();
  std::atomic<uint64_t> missing{0};
  const size_t num_sources = resolved.size();
  const auto assemble = [&](size_t r) {
    // The source rows for spine row r sit at a position that is random
    // with respect to r (the batch answered them in sorted key order), so
    // reading them chases three dependent allocations per row — the Row
    // object, its shared buffer header, and the buffer's element storage.
    // A three-stage prefetch pipeline overlaps the misses: objects three
    // stages ahead, headers two ahead, element data one ahead.
    constexpr size_t kFetch = 8;
    if (r + 3 * kFetch < n) {
      const uint32_t p3 = pos_of_row[r + 3 * kFetch];
      if (p3 != kNoRequest) {
        for (size_t s = 0; s < num_sources; ++s) {
          __builtin_prefetch(&source_rows[s][p3]);
        }
      }
    }
    if (r + 2 * kFetch < n) {
      const uint32_t p2 = pos_of_row[r + 2 * kFetch];
      if (p2 != kNoRequest) {
        for (size_t s = 0; s < num_sources; ++s) {
          __builtin_prefetch(source_rows[s][p2].payload_address());
        }
      }
    }
    if (r + kFetch < n) {
      const uint32_t p1 = pos_of_row[r + kFetch];
      if (p1 != kNoRequest) {
        for (size_t s = 0; s < num_sources; ++s) {
          const Row& ahead = source_rows[s][p1];
          if (ahead.schema() != nullptr && !resolved[s].out_pos.empty()) {
            __builtin_prefetch(ahead.values().data() +
                               resolved[s].out_pos.front());
          }
        }
      }
    }
    std::vector<Value> values;
    values.reserve(out_width);
    const std::vector<Value>& spine_values = spine[r].values();
    values.insert(values.end(), spine_values.begin(), spine_values.end());
    uint64_t row_missing = 0;
    const uint32_t pos = pos_of_row[r];
    for (size_t s = 0; s < resolved.size(); ++s) {
      const ResolvedSource& rs = resolved[s];
      // A miss never materialized a result row — the batch read reported
      // it through the bitmap instead, and the null-fill happens here.
      bool usable =
          pos != kNoRequest && !MissBitmapTest(source_miss[s], pos);
      const Row* src = usable ? &source_rows[s][pos] : nullptr;
      if (usable && point_in_time && rs.max_age > 0) {
        Timestamp event_time = src->value(rs.time_pos).time_value();
        usable = event_time >= times[r] - rs.max_age;
      }
      if (usable) {
        for (int p : rs.out_pos) values.push_back(src->value(p));
      } else {
        values.insert(values.end(), rs.out_pos.size(), Value::Null());
        row_missing += rs.out_pos.size();
      }
    }
    out.rows[r] = Row::CreateUnsafe(out_schema, std::move(values));
    if (row_missing != 0) {
      missing.fetch_add(row_missing, std::memory_order_relaxed);
    }
  };
  if (pool == nullptr) {
    // Serial fast path: calling the lambda directly (instead of through
    // ParallelFor's std::function) lets the compiler inline the row body
    // into the loop and hoist the per-source invariants.
    for (size_t r = 0; r < n; ++r) assemble(r);
  } else {
    ParallelFor(pool.get(), 0, n, assemble);
  }
  out.missing_cells = missing.load(std::memory_order_relaxed);
  return out;
}

}  // namespace

StatusOr<SpineIndex> SpineIndex::Build(std::vector<Row> spine,
                                       const std::string& entity_column,
                                       const std::string& time_column) {
  if (spine.empty()) {
    return Status::InvalidArgument("spine is empty");
  }
  SpineIndex index;
  index.schema_ = spine.front().schema();
  if (index.schema_ == nullptr) {
    return Status::InvalidArgument("spine rows have no schema");
  }
  index.entity_idx_ = index.schema_->FieldIndex(entity_column);
  index.time_idx_ = index.schema_->FieldIndex(time_column);
  if (index.entity_idx_ < 0 || index.time_idx_ < 0) {
    return Status::InvalidArgument("spine is missing entity/time column");
  }
  if (index.schema_->field(index.time_idx_).type != FeatureType::kTimestamp) {
    return Status::InvalidArgument("spine time column is not a TIMESTAMP");
  }
  index.rows_ = std::move(spine);
  const size_t n = index.rows_.size();
  index.keys_.resize(n);
  index.times_.assign(n, 0);
  index.pos_of_row_.assign(n, kNoRequest);

  // Canonicalize every entity key exactly once. A key that is not
  // INT64/STRING is not an error (the row-at-a-time reference treats the
  // per-row AsOf failure as a miss): the row simply misses every source.
  // Value-packed sort entries: the key prefix and timestamp travel with
  // the index so most comparisons stay inside the 24-byte struct instead
  // of chasing side arrays per compare.
  struct SortEntry {
    uint64_t prefix;
    Timestamp ts;
    uint32_t row;
  };
  std::vector<SortEntry> ents;
  ents.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Row& spine_row = index.rows_[i];
    if (spine_row.schema() == nullptr ||
        !(*spine_row.schema() == *index.schema_)) {
      return Status::InvalidArgument("spine rows have mixed schemas");
    }
    index.times_[i] = spine_row.value(index.time_idx_).time_value();
    StatusOr<std::string> key =
        EntityKeyToString(spine_row.value(index.entity_idx_));
    if (!key.ok()) continue;
    index.keys_[i] = std::move(*key);
    ents.push_back({KeyPrefix(index.keys_[i]), index.times_[i],
                    static_cast<uint32_t>(i)});
  }

  // Sort by (key, ts). The key order itself is irrelevant — the batch
  // contract only needs equal keys contiguous with ascending timestamps —
  // so the integer prefix carries almost every comparison; only prefix
  // ties fall back to the full byte-wise key compare.
  std::sort(ents.begin(), ents.end(),
            [&index](const SortEntry& a, const SortEntry& b) {
              if (a.prefix != b.prefix) return a.prefix < b.prefix;
              const int c = index.keys_[a.row].compare(index.keys_[b.row]);
              if (c != 0) return c < 0;
              return a.ts < b.ts;
            });
  index.sorted_.resize(ents.size());
  for (size_t p = 0; p < ents.size(); ++p) {
    index.sorted_[p] = ents[p].row;
    index.pos_of_row_[ents[p].row] = static_cast<uint32_t>(p);
  }
  return index;
}

StatusOr<TrainingSet> PointInTimeJoin(const std::vector<Row>& spine,
                                      const std::string& spine_entity_column,
                                      const std::string& spine_time_column,
                                      const std::vector<JoinSource>& sources,
                                      const JoinOptions& options) {
  MLFS_ASSIGN_OR_RETURN(
      SpineIndex index,
      SpineIndex::Build(spine, spine_entity_column, spine_time_column));
  return MergeJoinImpl(index, sources, /*point_in_time=*/true, options);
}

StatusOr<TrainingSet> PointInTimeJoin(const SpineIndex& spine,
                                      const std::vector<JoinSource>& sources,
                                      const JoinOptions& options) {
  return MergeJoinImpl(spine, sources, /*point_in_time=*/true, options);
}

StatusOr<TrainingSet> NaiveLatestJoin(const std::vector<Row>& spine,
                                      const std::string& spine_entity_column,
                                      const std::string& spine_time_column,
                                      const std::vector<JoinSource>& sources,
                                      const JoinOptions& options) {
  MLFS_ASSIGN_OR_RETURN(
      SpineIndex index,
      SpineIndex::Build(spine, spine_entity_column, spine_time_column));
  return MergeJoinImpl(index, sources, /*point_in_time=*/false, options);
}

StatusOr<TrainingSet> NaiveLatestJoin(const SpineIndex& spine,
                                      const std::vector<JoinSource>& sources,
                                      const JoinOptions& options) {
  return MergeJoinImpl(spine, sources, /*point_in_time=*/false, options);
}

StatusOr<TrainingSet> PointInTimeJoinReference(
    const std::vector<Row>& spine, const std::string& spine_entity_column,
    const std::string& spine_time_column,
    const std::vector<JoinSource>& sources) {
  return ReferenceJoinImpl(spine, spine_entity_column, spine_time_column,
                           sources, /*point_in_time=*/true);
}

StatusOr<TrainingSet> NaiveLatestJoinReference(
    const std::vector<Row>& spine, const std::string& spine_entity_column,
    const std::string& spine_time_column,
    const std::vector<JoinSource>& sources) {
  return ReferenceJoinImpl(spine, spine_entity_column, spine_time_column,
                           sources, /*point_in_time=*/false);
}

StatusOr<uint64_t> CountDivergentCells(const TrainingSet& reference,
                                       const TrainingSet& candidate) {
  if (reference.rows.size() != candidate.rows.size()) {
    return Status::InvalidArgument("training sets have different row counts");
  }
  if (reference.schema == nullptr || candidate.schema == nullptr ||
      !(*reference.schema == *candidate.schema)) {
    return Status::InvalidArgument("training sets have different schemas");
  }
  uint64_t divergent = 0;
  for (size_t r = 0; r < reference.rows.size(); ++r) {
    const Row& a = reference.rows[r];
    const Row& b = candidate.rows[r];
    for (size_t c = 0; c < a.num_values(); ++c) {
      if (!(a.value(c) == b.value(c))) ++divergent;
    }
  }
  return divergent;
}

}  // namespace mlfs
