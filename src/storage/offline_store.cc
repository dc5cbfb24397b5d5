#include "storage/offline_store.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <utility>

#include "common/failpoint.h"
#include "common/serde.h"
#include "io/block_file.h"
#include "storage/entity_key.h"
#include "storage/segment_batch.h"

namespace mlfs {

namespace {
/// Rows per vectorized predicate/materialization batch. Large enough to
/// amortize the per-batch dispatch, small enough that every register of a
/// typical program stays cache-resident.
constexpr size_t kEvalBatchRows = 1024;
/// Spill file sequence, process-wide: a table and its restored copy share
/// name and spill_dir.
std::atomic<uint64_t> g_spill_seq{0};
}  // namespace

OfflineTable::OfflineTable(OfflineTableOptions options)
    : options_(std::move(options)) {
  entity_idx_ = options_.schema->FieldIndex(options_.entity_column);
  time_idx_ = options_.schema->FieldIndex(options_.time_column);
  all_columns_.resize(options_.schema->num_fields());
  for (size_t i = 0; i < all_columns_.size(); ++i) {
    all_columns_[i] = static_cast<int>(i);
  }
}

StatusOr<std::unique_ptr<OfflineTable>> OfflineTable::Create(
    OfflineTableOptions options) {
  if (options.name.empty()) {
    return Status::InvalidArgument("offline table needs a name");
  }
  if (options.schema == nullptr) {
    return Status::InvalidArgument("offline table needs a schema");
  }
  if (options.partition_granularity <= 0) {
    return Status::InvalidArgument("partition granularity must be positive");
  }
  int eidx = options.schema->FieldIndex(options.entity_column);
  if (eidx < 0) {
    return Status::InvalidArgument("entity column '" + options.entity_column +
                                   "' not in schema");
  }
  const FieldSpec& efield = options.schema->field(eidx);
  if (efield.type != FeatureType::kInt64 &&
      efield.type != FeatureType::kString) {
    return Status::InvalidArgument("entity column must be INT64 or STRING");
  }
  if (efield.nullable) {
    return Status::InvalidArgument("entity column must be NOT NULL");
  }
  int tidx = options.schema->FieldIndex(options.time_column);
  if (tidx < 0) {
    return Status::InvalidArgument("time column '" + options.time_column +
                                   "' not in schema");
  }
  const FieldSpec& tfield = options.schema->field(tidx);
  if (tfield.type != FeatureType::kTimestamp || tfield.nullable) {
    return Status::InvalidArgument(
        "time column must be TIMESTAMP NOT NULL");
  }
  if (options.memory_budget_bytes > 0 && options.spill_dir.empty()) {
    return Status::InvalidArgument(
        "memory_budget_bytes requires a spill_dir");
  }
  return std::unique_ptr<OfflineTable>(new OfflineTable(std::move(options)));
}

int64_t OfflineTable::PartitionIdFor(Timestamp ts) const {
  // Floor division so negative timestamps partition correctly.
  int64_t g = options_.partition_granularity;
  int64_t q = ts / g;
  if (ts % g != 0 && ts < 0) --q;
  return q;
}

OfflineTable::RowLoc OfflineTable::Resolve(const Partition& part,
                                           size_t ordinal) {
  RowLoc loc;
  if (ordinal >= part.head_base) {
    loc.head = &part.head_rows[ordinal - part.head_base];
    return loc;
  }
  // Rightmost segment whose base is <= ordinal.
  auto it = std::upper_bound(part.segment_base.begin(),
                             part.segment_base.end(), ordinal);
  size_t si = static_cast<size_t>(it - part.segment_base.begin()) - 1;
  loc.seg = part.segments[si].get();
  loc.seg_row = ordinal - part.segment_base[si];
  return loc;
}

Row OfflineTable::MaterializeRow(const RowLoc& loc) const {
  if (loc.head != nullptr) return *loc.head;
  std::vector<Value> values;
  values.reserve(all_columns_.size());
  loc.seg->AppendProjected(loc.seg_row, all_columns_, &values);
  return Row::CreateUnsafe(options_.schema, std::move(values));
}

Status OfflineTable::SealPartitionLocked(int64_t pid, Partition& part) {
  if (part.head_rows.empty()) return Status::OK();
  MLFS_ASSIGN_OR_RETURN(
      std::string blob,
      Segment::Encode(options_.schema, pid, entity_idx_, time_idx_,
                      std::span<const Row>(part.head_rows)));
  MLFS_ASSIGN_OR_RETURN(SegmentPtr seg, Segment::FromBytes(std::move(blob)));
  // The head's ordinal range [head_base, head_base + n) moves into the
  // segment verbatim; no key-directory posting changes.
  part.segments.push_back(std::move(seg));
  part.segment_base.push_back(part.head_base);
  part.head_base += part.head_rows.size();
  part.head_rows.clear();
  return Status::OK();
}

Status OfflineTable::AppendLocked(const Row& row) {
  if (row.schema() == nullptr || !(*row.schema() == *options_.schema)) {
    return Status::InvalidArgument("row schema does not match table '" +
                                   options_.name + "'");
  }
  const Value& evalue = row.value(entity_idx_);
  MLFS_ASSIGN_OR_RETURN(std::string key, EntityKeyToString(evalue));
  const Value& tvalue = row.value(time_idx_);
  if (tvalue.is_null()) {
    return Status::InvalidArgument("event time is null");
  }
  Timestamp ts = tvalue.time_value();
  const int64_t pid = PartitionIdFor(ts);
  Partition& part = partitions_[pid];
  const size_t ordinal = part.head_base + part.head_rows.size();
  part.head_rows.push_back(row);
  AddPostingLocked(key, ts, ordinal, &part);
  ++num_rows_;
  max_event_time_ = std::max(max_event_time_, ts);
  // Auto-seal a full head under the same exclusive lock. No failpoint
  // here: the row is already appended and indexed, so fault injection on
  // the seal path belongs to the explicit maintenance entry points.
  if (options_.seal_rows > 0 && part.head_rows.size() >= options_.seal_rows) {
    MLFS_RETURN_IF_ERROR(SealPartitionLocked(pid, part));
  }
  return Status::OK();
}

void OfflineTable::AddPostingLocked(std::string_view key, Timestamp ts,
                                    size_t ordinal, const Partition* part) {
  auto it = key_directory_.find(key);
  if (it == key_directory_.end()) {
    it = key_directory_.try_emplace(std::string(key)).first;
  }
  std::vector<GlobalPosting>& list = it->second;
  // Equal timestamps go after existing ones, so as-of reads pick the most
  // recently appended row; partitions cover disjoint time ranges, so ts
  // order alone keeps the stream consistent with a partition-ordered walk.
  // An in-order posting (the common case) simply appends; the first one
  // below the last posting opens the list's unsorted tail (try_emplace
  // keeps that first start).
  if (!list.empty() && ts < list.back().ts) {
    unsorted_tails_.try_emplace(&list, list.size());
  }
  list.push_back(GlobalPosting{ts, ordinal, part});
}

void OfflineTable::SortPostingTailsLocked() {
  const auto by_ts = [](const GlobalPosting& a, const GlobalPosting& b) {
    return a.ts < b.ts;
  };
  for (const auto& [list, tail] : unsorted_tails_) {
    const auto mid = list->begin() + static_cast<std::ptrdiff_t>(tail);
    // Both steps are stable: the tail keeps append order among equal
    // timestamps, and inplace_merge puts the prefix's equal timestamps
    // (appended earlier) first.
    std::stable_sort(mid, list->end(), by_ts);
    std::inplace_merge(list->begin(), mid, list->end(), by_ts);
  }
  unsorted_tails_.clear();
}

Status OfflineTable::Append(const Row& row) {
  MLFS_FAILPOINT("offline_store.append");
  std::unique_lock lock(mu_);
  const Status s = AppendLocked(row);
  SortPostingTailsLocked();
  return s;
}

Status OfflineTable::AppendBatch(const std::vector<Row>& rows) {
  MLFS_FAILPOINT("offline_store.append");
  std::unique_lock lock(mu_);
  Status s;
  for (const Row& row : rows) {
    s = AppendLocked(row);
    if (!s.ok()) break;
  }
  // Rows appended before a failing one stay appended and indexed.
  SortPostingTailsLocked();
  return s;
}

Status OfflineTable::ValidateCompiled(const CompiledExpr& expr,
                                      bool need_bool) const {
  if (expr.schema() == nullptr || !(*expr.schema() == *options_.schema)) {
    return Status::InvalidArgument(
        "expression was not compiled against table '" + options_.name + "'");
  }
  if (need_bool && expr.output_type() != FeatureType::kBool &&
      expr.output_type() != FeatureType::kNull) {
    return Status::InvalidArgument("scan predicate must be BOOL, got " +
                                   std::string(FeatureTypeToString(
                                       expr.output_type())));
  }
  return Status::OK();
}

Status OfflineTable::ValidateProjection(
    std::span<const int> columns, const SchemaPtr& projected_schema) const {
  if (columns.empty()) {
    if (projected_schema != nullptr) {
      return Status::InvalidArgument(
          "projected_schema set without a column projection");
    }
    return Status::OK();
  }
  if (projected_schema == nullptr) {
    return Status::InvalidArgument(
        "column projection requires projected_schema");
  }
  if (projected_schema->num_fields() != columns.size()) {
    return Status::InvalidArgument(
        "projected_schema width does not match projection");
  }
  for (size_t i = 0; i < columns.size(); ++i) {
    int col = columns[i];
    if (col < 0 || static_cast<size_t>(col) >= options_.schema->num_fields()) {
      return Status::InvalidArgument("projection column index out of range");
    }
    const FieldSpec& src = options_.schema->field(col);
    const FieldSpec& dst = projected_schema->field(i);
    if (src.type != dst.type) {
      return Status::InvalidArgument("projection type mismatch for column '" +
                                     src.name + "'");
    }
    if (src.nullable && !dst.nullable) {
      return Status::InvalidArgument(
          "projection drops nullability of column '" + src.name + "'");
    }
  }
  return Status::OK();
}

StatusOr<std::vector<Row>> OfflineTable::Scan(const ScanSpec& spec) const {
  const CompiledExpr* pred = spec.predicate;
  if (pred != nullptr) {
    MLFS_RETURN_IF_ERROR(ValidateCompiled(*pred, /*need_bool=*/true));
  }
  MLFS_RETURN_IF_ERROR(ValidateProjection(spec.columns, spec.projected_schema));
  const bool projected = !spec.columns.empty();
  const std::span<const int> columns =
      projected ? spec.columns : std::span<const int>(all_columns_);
  const SchemaPtr& out_schema =
      projected ? spec.projected_schema : options_.schema;
  const Timestamp lo = spec.lo, hi = spec.hi;
  std::shared_lock lock(mu_);
  std::vector<Row> out;
  if (lo >= hi) return out;
  // Partitions wholly outside [lo, hi) are skipped without touching rows.
  const int64_t lo_part =
      (lo == kMinTimestamp) ? INT64_MIN : PartitionIdFor(lo);
  const int64_t hi_part =
      (hi == kMaxTimestamp) ? INT64_MAX : PartitionIdFor(hi);
  // In-window rows collect as candidates, up to kEvalBatchRows at a time;
  // the predicate evaluates over each batch — sealed rows straight off the
  // segment's column buffers, head rows through a row source — and only
  // survivors (TriBool == 1: false and NULL both drop) gather their cells.
  ExprScratch scratch;
  const ColumnVector* res = nullptr;
  auto keep = [&](size_t i) { return pred == nullptr || res->TriBool(i) == 1; };
  std::vector<uint32_t> seg_cand;
  seg_cand.reserve(kEvalBatchRows);
  auto flush_segment = [&](const Segment& seg) -> Status {
    if (pred != nullptr && !seg_cand.empty()) {
      MLFS_RETURN_IF_ERROR(
          pred->EvalBatch(SegmentBatchSource(&seg, seg_cand), &scratch, &res));
    }
    for (size_t i = 0; i < seg_cand.size(); ++i) {
      if (!keep(i)) continue;
      // Cells move into the row: a string or embedding is never copied.
      std::vector<Value> values;
      values.reserve(columns.size());
      seg.AppendProjected(seg_cand[i], columns, &values);
      out.push_back(Row::CreateUnsafe(out_schema, std::move(values)));
    }
    seg_cand.clear();
    return Status::OK();
  };
  std::vector<const Row*> head_cand;
  head_cand.reserve(kEvalBatchRows);
  auto flush_head = [&]() -> Status {
    if (pred != nullptr && !head_cand.empty()) {
      MLFS_RETURN_IF_ERROR(pred->EvalBatch(
          RowPtrBatchSource(options_.schema, head_cand), &scratch, &res));
    }
    for (size_t i = 0; i < head_cand.size(); ++i) {
      if (!keep(i)) continue;
      const Row& row = *head_cand[i];
      if (!projected) {
        out.push_back(row);
        continue;
      }
      std::vector<Value> values;
      values.reserve(columns.size());
      for (int col : columns) values.push_back(row.value(col));
      out.push_back(Row::CreateUnsafe(out_schema, std::move(values)));
    }
    head_cand.clear();
    return Status::OK();
  };
  for (auto it = partitions_.lower_bound(lo_part);
       it != partitions_.end() && it->first <= hi_part; ++it) {
    const Partition& part = it->second;
    // Segments then head is exactly per-partition append order, which is
    // the order the legacy row engine scanned — scans stay byte-identical.
    for (const SegmentPtr& seg : part.segments) {
      if (seg->max_ts() < lo || seg->min_ts() >= hi) {
        scan_segments_skipped_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      // A segment fully inside the window needs no per-row time checks.
      const bool contained = seg->min_ts() >= lo && seg->max_ts() < hi;
      for (size_t r = 0; r < seg->num_rows(); ++r) {
        if (!contained) {
          const Timestamp ts = seg->ts(r);
          if (ts < lo || ts >= hi) continue;
        }
        seg_cand.push_back(static_cast<uint32_t>(r));
        if (seg_cand.size() == kEvalBatchRows) {
          MLFS_RETURN_IF_ERROR(flush_segment(*seg));
        }
      }
      MLFS_RETURN_IF_ERROR(flush_segment(*seg));
    }
    for (const Row& row : part.head_rows) {
      const Timestamp ts = row.value(time_idx_).time_value();
      if (ts < lo || ts >= hi) continue;
      head_cand.push_back(&row);
      if (head_cand.size() == kEvalBatchRows) {
        MLFS_RETURN_IF_ERROR(flush_head());
      }
    }
    MLFS_RETURN_IF_ERROR(flush_head());
  }
  return out;
}

StatusOr<Row> OfflineTable::AsOf(const Value& entity_key, Timestamp ts) const {
  MLFS_FAILPOINT("offline_store.as_of");
  MLFS_ASSIGN_OR_RETURN(std::string key, EntityKeyToString(entity_key));
  std::shared_lock lock(mu_);
  auto dit = key_directory_.find(key);
  if (dit != key_directory_.end()) {
    const std::vector<GlobalPosting>& merged = dit->second;
    // Rightmost posting with posting.ts <= ts: max event time, with the
    // most-recently-appended row winning equal-timestamp ties.
    auto bit = std::upper_bound(
        merged.begin(), merged.end(), ts,
        [](Timestamp t, const GlobalPosting& g) { return t < g.ts; });
    if (bit != merged.begin()) {
      --bit;
      return MaterializeRow(Resolve(*bit->part, bit->ordinal));
    }
  }
  return Status::NotFound("no row for entity '" + key + "' as of " +
                          FormatTimestamp(ts));
}

Status OfflineTable::AsOfBatch(std::span<const AsOfRequest> requests,
                               std::span<Row> results,
                               const AsOfReadOptions& options) const {
  MLFS_FAILPOINT("offline_store.as_of");
  if (results.size() != requests.size()) {
    return Status::InvalidArgument("AsOfBatch results/requests size mismatch");
  }
  MLFS_RETURN_IF_ERROR(
      ValidateProjection(options.columns, options.projected_schema));
  for (size_t i = 1; i < requests.size(); ++i) {
    const AsOfRequest& prev = requests[i - 1];
    const AsOfRequest& cur = requests[i];
    if (cur.key < prev.key ||
        (cur.key == prev.key && cur.ts < prev.ts)) {
      return Status::InvalidArgument(
          "AsOfBatch requests must be sorted by (key, ts)");
    }
  }
  const size_t n = requests.size();
  if (options.miss_bitmap != nullptr) {
    options.miss_bitmap->assign((n + 63) / 64, 0);
  }
  std::shared_lock lock(mu_);
  // Pass 1: resolve every request to its matched posting (or null). The
  // key directory holds each entity's merged posting stream already sorted
  // by ts: one hash probe per *entity*, then one flat forward cursor
  // answers the entity's whole ascending request run. Postings and row
  // storage stay stable for the duration of the shared lock (appends and
  // maintenance are excluded), so they can be dereferenced in pass 2.
  std::vector<const GlobalPosting*> hits(n, nullptr);
  size_t i = 0;
  while (i < n) {
    const std::string_view key = requests[i].key;
    size_t run_end = i + 1;
    while (run_end < n && requests[run_end].key == key) ++run_end;
    auto dit = key_directory_.find(key);
    if (dit == key_directory_.end()) {
      i = run_end;  // Absent entity: every request in the run misses.
      continue;
    }
    const std::vector<GlobalPosting>& postings = dit->second;
    size_t pos = 0;
    for (; i < run_end; ++i) {
      // The remaining postings are ts-sorted, so a binary search from the
      // cursor lands directly past the last matchable posting: postings
      // the request timestamp cannot match are skipped, never visited.
      pos = static_cast<size_t>(
          std::upper_bound(postings.begin() + pos, postings.end(),
                           requests[i].ts,
                           [](Timestamp t, const GlobalPosting& g) {
                             return t < g.ts;
                           }) -
          postings.begin());
      if (pos > 0) {
        // Rightmost posting with ts <= request: max event time, with the
        // most-recently-appended row winning equal-timestamp ties.
        hits[i] = &postings[pos - 1];
      }
    }
  }
  // Pass 2: materialize. Misses only mark the bitmap — results[i] is left
  // untouched, no empty row is built. Segment hits (and projected head
  // hits) gather the requested cells; full-width head hits are deferred to
  // the prefetch-pipelined copy loop below, which is the hot shape on the
  // training path (fresh rows still in the mutable head).
  const bool projected = !options.columns.empty();
  std::vector<const Row*> head_hits(n, nullptr);
  std::vector<Value> values;
  for (i = 0; i < n; ++i) {
    const GlobalPosting* g = hits[i];
    if (g == nullptr) {
      if (options.miss_bitmap != nullptr) {
        (*options.miss_bitmap)[i >> 6] |= uint64_t{1} << (i & 63);
      }
      continue;
    }
    RowLoc loc = Resolve(*g->part, g->ordinal);
    if (loc.head != nullptr && !projected) {
      head_hits[i] = loc.head;
      continue;
    }
    values.clear();
    if (loc.head != nullptr) {
      for (int col : options.columns) values.push_back(loc.head->value(col));
    } else {
      loc.seg->AppendProjected(
          loc.seg_row, projected ? options.columns : all_columns_, &values);
    }
    results[i] = Row::CreateUnsafe(
        projected ? options.projected_schema : options_.schema, values);
  }
  // Pass 3: copy full-width head hits out. The copies are refcount bumps
  // on control blocks scattered across the partitions, so the loop is
  // latency-bound on cache misses; prefetching the Row object one stage
  // ahead and its shared value buffer a second stage ahead overlaps them.
  constexpr size_t kFetch = 8;
  for (i = 0; i < n; ++i) {
    if (i + 2 * kFetch < n && head_hits[i + 2 * kFetch] != nullptr) {
      __builtin_prefetch(head_hits[i + 2 * kFetch]);
    }
    if (i + kFetch < n && head_hits[i + kFetch] != nullptr) {
      __builtin_prefetch(head_hits[i + kFetch]->payload_address());
    }
    if (head_hits[i] != nullptr) results[i] = *head_hits[i];
  }
  return Status::OK();
}

std::vector<const OfflineTable::GlobalPosting*>
OfflineTable::LatestPostingsLocked(Timestamp ts) const {
  // Each entity settles with one binary search over its merged posting
  // stream: the rightmost posting with ts <= the cutoff is its latest row.
  // Emitted in encoded-key order so the result is independent of hash-map
  // insertion history (a snapshot restore replays rows segment-first).
  std::vector<std::pair<const std::string*, const GlobalPosting*>> hits;
  hits.reserve(key_directory_.size());
  for (const auto& [key, merged] : key_directory_) {
    auto it = std::upper_bound(
        merged.begin(), merged.end(), ts,
        [](Timestamp t, const GlobalPosting& g) { return t < g.ts; });
    if (it == merged.begin()) continue;
    hits.emplace_back(&key, &*--it);
  }
  std::sort(hits.begin(), hits.end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });
  std::vector<const GlobalPosting*> out;
  out.reserve(hits.size());
  for (const auto& [key, posting] : hits) out.push_back(posting);
  return out;
}

std::vector<Row> OfflineTable::LatestPerEntityAsOf(Timestamp ts) const {
  std::shared_lock lock(mu_);
  const std::vector<const GlobalPosting*> hits = LatestPostingsLocked(ts);
  std::vector<Row> out;
  out.reserve(hits.size());
  for (const GlobalPosting* posting : hits) {
    out.push_back(MaterializeRow(Resolve(*posting->part, posting->ordinal)));
  }
  return out;
}

StatusOr<std::vector<MaterializedCell>> OfflineTable::EvalLatestPerEntityAsOf(
    Timestamp ts, const CompiledExpr& expr) const {
  MLFS_RETURN_IF_ERROR(ValidateCompiled(expr, /*need_bool=*/false));
  std::shared_lock lock(mu_);
  const std::vector<const GlobalPosting*> hits = LatestPostingsLocked(ts);
  const size_t n = hits.size();
  std::vector<MaterializedCell> out(n);
  // Group the matched rows by residence so each group evaluates as column
  // batches: segment rows load straight off the encoded buffers, head rows
  // go through a row-pointer source. Only the entity cell and the result
  // are ever materialized as Values.
  struct SegGroup {
    const Segment* seg;
    std::vector<uint32_t> rows;
    std::vector<size_t> slots;  // Index into `out`, parallel to `rows`.
  };
  std::vector<SegGroup> groups;
  std::unordered_map<const Segment*, size_t> group_of;
  std::vector<const Row*> head_rows;
  std::vector<size_t> head_slots;
  for (size_t i = 0; i < n; ++i) {
    out[i].event_time = hits[i]->ts;
    RowLoc loc = Resolve(*hits[i]->part, hits[i]->ordinal);
    if (loc.head != nullptr) {
      out[i].entity = loc.head->value(entity_idx_);
      head_rows.push_back(loc.head);
      head_slots.push_back(i);
      continue;
    }
    out[i].entity = loc.seg->value(entity_idx_, loc.seg_row);
    auto [git, inserted] = group_of.emplace(loc.seg, groups.size());
    if (inserted) groups.push_back(SegGroup{loc.seg, {}, {}});
    SegGroup& g = groups[git->second];
    g.rows.push_back(static_cast<uint32_t>(loc.seg_row));
    g.slots.push_back(i);
  }
  ExprScratch scratch;
  const ColumnVector* res = nullptr;
  for (const SegGroup& g : groups) {
    for (size_t off = 0; off < g.rows.size(); off += kEvalBatchRows) {
      const size_t len = std::min(kEvalBatchRows, g.rows.size() - off);
      SegmentBatchSource src(g.seg,
                             std::span<const uint32_t>(g.rows).subspan(off, len));
      MLFS_RETURN_IF_ERROR(expr.EvalBatch(src, &scratch, &res));
      for (size_t j = 0; j < len; ++j) {
        out[g.slots[off + j]].value = res->GetValue(j);
      }
    }
  }
  for (size_t off = 0; off < head_rows.size(); off += kEvalBatchRows) {
    const size_t len = std::min(kEvalBatchRows, head_rows.size() - off);
    RowPtrBatchSource src(
        options_.schema,
        std::span<const Row* const>(head_rows).subspan(off, len));
    MLFS_RETURN_IF_ERROR(expr.EvalBatch(src, &scratch, &res));
    for (size_t j = 0; j < len; ++j) {
      out[head_slots[off + j]].value = res->GetValue(j);
    }
  }
  return out;
}

std::vector<std::string> OfflineTable::EntityKeys() const {
  std::shared_lock lock(mu_);
  std::lock_guard cache_lock(keys_mu_);
  // The key directory holds every distinct key exactly once, and keys are
  // never removed — so the sorted cache is current iff the sizes match,
  // and the sort runs once per batch of new keys instead of once per call.
  if (keys_cache_.size() != key_directory_.size()) {
    keys_cache_.clear();
    keys_cache_.reserve(key_directory_.size());
    for (const auto& [key, runs] : key_directory_) keys_cache_.push_back(key);
    std::sort(keys_cache_.begin(), keys_cache_.end());
  }
  return keys_cache_;
}

size_t OfflineTable::num_rows() const {
  std::shared_lock lock(mu_);
  return num_rows_;
}

size_t OfflineTable::num_partitions() const {
  std::shared_lock lock(mu_);
  return partitions_.size();
}

Timestamp OfflineTable::max_event_time() const {
  std::shared_lock lock(mu_);
  return max_event_time_;
}

OfflineStorageStats OfflineTable::storage_stats() const {
  std::shared_lock lock(mu_);
  OfflineStorageStats stats;
  for (const auto& [pid, part] : partitions_) {
    stats.head_rows += part.head_rows.size();
    for (const SegmentPtr& seg : part.segments) {
      ++stats.sealed_segments;
      stats.sealed_rows += seg->num_rows();
      if (seg->spilled()) {
        ++stats.spilled_segments;
        stats.spilled_bytes += seg->encoded_size();
      } else {
        stats.resident_segment_bytes += seg->encoded_size();
      }
    }
  }
  stats.maintenance_errors =
      maintenance_errors_.load(std::memory_order_relaxed);
  stats.scan_segments_skipped =
      scan_segments_skipped_.load(std::memory_order_relaxed);
  return stats;
}

// --- Tier maintenance ----------------------------------------------------

Status OfflineTable::SealHeadsInner(size_t min_rows) {
  MLFS_FAILPOINT("offline_store.seal");
  std::unique_lock lock(mu_);
  for (auto& [pid, part] : partitions_) {
    if (part.head_rows.size() < std::max<size_t>(min_rows, 1)) continue;
    MLFS_RETURN_IF_ERROR(SealPartitionLocked(pid, part));
  }
  return Status::OK();
}

Status OfflineTable::SealHeads() {
  std::lock_guard m(maintenance_mu_);
  return SealHeadsInner(1);
}

Status OfflineTable::CompactPartition(int64_t pid) {
  // Capture the partition's current immutable segment list under the
  // shared lock. Appends may grow the head (and auto-seal may append NEW
  // segments) while we merge, but captured segments themselves can only be
  // replaced by another maintenance pass — and maintenance_mu_ (held by
  // the caller) serializes those.
  std::vector<SegmentPtr> captured;
  {
    std::shared_lock lock(mu_);
    auto it = partitions_.find(pid);
    if (it == partitions_.end()) return Status::OK();
    captured = it->second.segments;
  }
  if (captured.size() < 2) return Status::OK();
  // Merge off-lock, column by column (no row is decoded): adjacent
  // segments cover adjacent ordinal ranges, so concatenating them in order
  // is ordinal order — the merged segment covers the contiguous range
  // starting at the first segment's base and the append-order tie-break is
  // untouched.
  MLFS_ASSIGN_OR_RETURN(std::string blob, Segment::Merge(captured));
  MLFS_ASSIGN_OR_RETURN(SegmentPtr merged, Segment::FromBytes(std::move(blob)));
  // Swap under the exclusive lock, after verifying the captured segments
  // still lead the partition (they must — see above — but a pointer check
  // is cheap insurance against a future locking regression). Auto-seal may
  // have appended segments after them, never before.
  std::unique_lock lock(mu_);
  auto it = partitions_.find(pid);
  if (it == partitions_.end()) {
    return Status::Internal("partition vanished during compaction");
  }
  Partition& part = it->second;
  const size_t n = captured.size();
  if (part.segments.size() < n ||
      !std::equal(captured.begin(), captured.end(), part.segments.begin())) {
    return Status::Internal("segments changed during compaction");
  }
  const size_t base = part.segment_base.front();
  part.segments.erase(part.segments.begin(), part.segments.begin() + n);
  part.segments.insert(part.segments.begin(), std::move(merged));
  part.segment_base.erase(part.segment_base.begin(),
                          part.segment_base.begin() + n);
  part.segment_base.insert(part.segment_base.begin(), base);
  return Status::OK();
}

Status OfflineTable::CompactInner(size_t min_segments) {
  MLFS_FAILPOINT("offline_store.compact");
  std::vector<int64_t> candidates;
  {
    std::shared_lock lock(mu_);
    for (const auto& [pid, part] : partitions_) {
      if (part.segments.size() >= std::max<size_t>(min_segments, 2)) {
        candidates.push_back(pid);
      }
    }
  }
  for (int64_t pid : candidates) {
    MLFS_RETURN_IF_ERROR(CompactPartition(pid));
  }
  return Status::OK();
}

Status OfflineTable::CompactPartitions() {
  std::lock_guard m(maintenance_mu_);
  return CompactInner(2);
}

Status OfflineTable::EnforceBudgetInner() {
  if (options_.memory_budget_bytes == 0 || options_.spill_dir.empty()) {
    return Status::OK();
  }
  MLFS_FAILPOINT("offline_store.spill");
  // Pick victims under the shared lock: coldest (oldest partition) first,
  // oldest segment within a partition first.
  struct Victim {
    int64_t pid;
    SegmentPtr seg;
  };
  std::vector<Victim> victims;
  {
    std::shared_lock lock(mu_);
    size_t resident = 0;
    for (const auto& [pid, part] : partitions_) {
      for (const SegmentPtr& seg : part.segments) {
        if (!seg->spilled()) resident += seg->encoded_size();
      }
    }
    for (const auto& [pid, part] : partitions_) {
      if (resident <= options_.memory_budget_bytes) break;
      for (const SegmentPtr& seg : part.segments) {
        if (seg->spilled()) continue;
        victims.push_back(Victim{pid, seg});
        resident -= seg->encoded_size();
        if (resident <= options_.memory_budget_bytes) break;
      }
    }
  }
  if (victims.empty()) return Status::OK();
  std::error_code ec;
  std::filesystem::create_directories(options_.spill_dir, ec);
  for (Victim& v : victims) {
    const std::string path =
        options_.spill_dir + "/" + options_.name + "_p" +
        std::to_string(v.pid) + "_" + std::to_string(g_spill_seq++) + ".seg";
    // Write + map + validate off-lock (Segment::SpillToFile: atomic write
    // + mmap reopen, no file left behind on failure); readers keep using
    // the resident blob until the swap below, and on any failure the
    // resident segment simply stays resident — the table is never
    // degraded by a spill fault.
    auto mapped =
        Segment::SpillToFile(*v.seg, path, /*remove_file_on_destroy=*/true);
    if (!mapped.ok()) {
      return mapped.status();
    }
    std::unique_lock lock(mu_);
    auto it = partitions_.find(v.pid);
    if (it == partitions_.end()) continue;
    Partition& part = it->second;
    for (size_t s = 0; s < part.segments.size(); ++s) {
      if (part.segments[s] == v.seg) {
        // Same bytes, different backing store; ordinals (and therefore
        // every key-directory posting) are untouched. The old resident blob is
        // freed when in-flight readers drop their reference.
        part.segments[s] = *mapped;
        break;
      }
    }
  }
  return Status::OK();
}

Status OfflineTable::EnforceMemoryBudget() {
  std::lock_guard m(maintenance_mu_);
  return EnforceBudgetInner();
}

Status OfflineTable::RunMaintenance() {
  std::lock_guard m(maintenance_mu_);
  Status s = options_.seal_rows > 0 ? SealHeadsInner(options_.seal_rows)
                                    : Status::OK();
  if (s.ok()) s = CompactInner(options_.compact_min_segments);
  if (s.ok()) s = EnforceBudgetInner();
  if (!s.ok()) maintenance_errors_.fetch_add(1, std::memory_order_relaxed);
  return s;
}

// --- Snapshots -----------------------------------------------------------

namespace {
// Sealed segments travel verbatim (envelope and all); only the mutable
// heads travel as a row stream.
constexpr uint32_t kTableSnapshotMagic = 0x4d4c4654;  // "MLFT"
constexpr uint32_t kTableSnapshotVersion = 2;  // v2: Checksum64 trailer.
}  // namespace

std::string OfflineTable::Snapshot() const {
  std::shared_lock lock(mu_);
  Encoder enc;
  enc.PutString(options_.name);
  enc.PutString(options_.entity_column);
  enc.PutString(options_.time_column);
  enc.PutFixed64(static_cast<uint64_t>(options_.partition_granularity));
  enc.PutSchema(*options_.schema);
  enc.PutVarint64(options_.seal_rows);
  enc.PutVarint64(options_.memory_budget_bytes);
  enc.PutString(options_.spill_dir);
  enc.PutVarint64(options_.compact_min_segments);
  size_t num_segments = 0;
  size_t head_rows = 0;
  for (const auto& [pid, part] : partitions_) {
    num_segments += part.segments.size();
    head_rows += part.head_rows.size();
  }
  enc.PutVarint64(num_segments);
  for (const auto& [pid, part] : partitions_) {
    for (const SegmentPtr& seg : part.segments) enc.PutString(seg->encoded());
  }
  enc.PutVarint64(head_rows);
  for (const auto& [pid, part] : partitions_) {
    for (const Row& row : part.head_rows) enc.PutRow(row);
  }
  return BlockFile::Seal(kTableSnapshotMagic, kTableSnapshotVersion,
                         enc.buffer());
}

Status OfflineTable::AdoptSegmentLocked(const SegmentPtr& seg) {
  if (!(*seg->schema() == *options_.schema)) {
    return Status::Corruption("snapshot segment schema does not match table");
  }
  if (seg->entity_idx() != entity_idx_ || seg->time_idx() != time_idx_) {
    return Status::Corruption("snapshot segment column indices do not match");
  }
  Partition& part = partitions_[seg->partition_id()];
  if (!part.head_rows.empty()) {
    return Status::Corruption("snapshot interleaves segments and head rows");
  }
  const size_t base = part.head_base;
  // Validate partition assignment before adopting: a corrupt-but-checksum-
  // valid snapshot must not be able to put rows where scans skip them.
  for (size_t r = 0; r < seg->num_rows(); ++r) {
    if (PartitionIdFor(seg->ts(r)) != seg->partition_id()) {
      return Status::Corruption(
          "snapshot segment row outside its partition's time range");
    }
  }
  part.segments.push_back(seg);
  part.segment_base.push_back(base);
  part.head_base += seg->num_rows();
  // Add the rows to the key directory. Rows are visited in ordinal order
  // and segments are adopted in ordinal order, so the stable tail merge
  // reproduces the original append-order tie-break for equal timestamps.
  for (size_t r = 0; r < seg->num_rows(); ++r) {
    MLFS_ASSIGN_OR_RETURN(std::string key,
                          EntityKeyToString(seg->value(entity_idx_, r)));
    const Timestamp ts = seg->ts(r);
    AddPostingLocked(key, ts, base + r, &part);
    ++num_rows_;
    max_event_time_ = std::max(max_event_time_, ts);
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<OfflineTable>> OfflineTable::FromSnapshot(
    std::string_view snapshot) {
  MLFS_ASSIGN_OR_RETURN(
      std::string_view body,
      BlockFile::Unseal(kTableSnapshotMagic, kTableSnapshotVersion, snapshot,
                        "offline-table snapshot"));
  Decoder dec(body);
  OfflineTableOptions options;
  MLFS_ASSIGN_OR_RETURN(options.name, dec.GetString());
  MLFS_ASSIGN_OR_RETURN(options.entity_column, dec.GetString());
  MLFS_ASSIGN_OR_RETURN(options.time_column, dec.GetString());
  MLFS_ASSIGN_OR_RETURN(uint64_t granularity, dec.GetFixed64());
  options.partition_granularity = static_cast<Timestamp>(granularity);
  MLFS_ASSIGN_OR_RETURN(options.schema, dec.GetSchema());
  MLFS_ASSIGN_OR_RETURN(options.seal_rows, dec.GetVarint64());
  MLFS_ASSIGN_OR_RETURN(options.memory_budget_bytes, dec.GetVarint64());
  MLFS_ASSIGN_OR_RETURN(options.spill_dir, dec.GetString());
  MLFS_ASSIGN_OR_RETURN(options.compact_min_segments, dec.GetVarint64());
  MLFS_ASSIGN_OR_RETURN(auto table, Create(std::move(options)));
  std::unique_lock lock(table->mu_);
  MLFS_ASSIGN_OR_RETURN(uint64_t num_segments, dec.GetVarint64());
  for (uint64_t s = 0; s < num_segments; ++s) {
    MLFS_ASSIGN_OR_RETURN(std::string blob, dec.GetString());
    MLFS_ASSIGN_OR_RETURN(SegmentPtr seg, Segment::FromBytes(std::move(blob)));
    MLFS_RETURN_IF_ERROR(table->AdoptSegmentLocked(seg));
  }
  MLFS_ASSIGN_OR_RETURN(uint64_t n, dec.GetVarint64());
  for (uint64_t i = 0; i < n; ++i) {
    MLFS_ASSIGN_OR_RETURN(Row row, dec.GetRow(table->options_.schema));
    MLFS_RETURN_IF_ERROR(table->AppendLocked(row));
  }
  // A failed restore drops the table, so only the whole one needs sorting.
  table->SortPostingTailsLocked();
  return table;
}

Status OfflineStore::CreateTable(OfflineTableOptions options) {
  MLFS_ASSIGN_OR_RETURN(auto table, OfflineTable::Create(std::move(options)));
  return AdoptTable(std::move(table));
}

Status OfflineStore::AdoptTable(std::unique_ptr<OfflineTable> table) {
  if (table == nullptr) {
    return Status::InvalidArgument("cannot adopt a null table");
  }
  std::lock_guard lock(mu_);
  auto [it, inserted] = tables_.emplace(table->name(), std::move(table));
  if (!inserted) {
    return Status::AlreadyExists("offline table '" + it->first +
                                 "' already exists");
  }
  return Status::OK();
}

StatusOr<OfflineTable*> OfflineStore::GetTable(const std::string& name) const {
  std::lock_guard lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("offline table '" + name + "' not found");
  }
  return it->second.get();
}

bool OfflineStore::HasTable(const std::string& name) const {
  std::lock_guard lock(mu_);
  return tables_.count(name) > 0;
}

std::vector<std::string> OfflineStore::TableNames() const {
  std::lock_guard lock(mu_);
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, table] : tables_) out.push_back(name);
  return out;
}

}  // namespace mlfs
