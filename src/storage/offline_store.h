#ifndef MLFS_STORAGE_OFFLINE_STORE_H_
#define MLFS_STORAGE_OFFLINE_STORE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/row.h"
#include "common/schema.h"
#include "common/status.h"
#include "common/timestamp.h"
#include "expr/evaluator.h"
#include "io/block_file.h"
#include "storage/segment.h"

namespace mlfs {

/// One point-in-time read in an AsOfBatch call: the *canonical* entity key
/// (EntityKeyToString form) and the as-of timestamp. The key bytes must
/// outlive the call.
struct AsOfRequest {
  std::string_view key;
  Timestamp ts = 0;
};

/// Optional knobs for batched point-in-time reads (AsOfBatch).
struct AsOfReadOptions {
  /// Projection: indices into the table schema to gather, in output order.
  /// Empty means full width. With columnar segments the projection is
  /// resolved *before* the gather — unrequested columns are never
  /// materialized, not copied and dropped.
  std::span<const int> columns;
  /// Schema of the projected output rows; must have one field per entry in
  /// `columns` with matching types. Required iff `columns` is non-empty
  /// (callers build it once and reuse it so every result row shares one
  /// schema object).
  SchemaPtr projected_schema;
  /// When set, receives one bit per request (bit i of word i/64): 1 means
  /// the request missed (no history at its timestamp). Missed slots of
  /// `results` are left untouched either way — no empty row is
  /// materialized — so a caller that passes default-constructed rows can
  /// test `schema() != nullptr` instead.
  std::vector<uint64_t>* miss_bitmap = nullptr;
};

/// One OfflineTable::Scan: the rows with event time in [lo, hi), optionally
/// filtered by a predicate and narrowed to a column projection.
struct ScanSpec {
  Timestamp lo = kMinTimestamp;
  Timestamp hi = kMaxTimestamp;
  /// Projection, as in AsOfReadOptions: indices into the table schema, in
  /// output order; empty means full width. Sealed segments never decode
  /// unrequested columns.
  std::span<const int> columns = {};
  /// Schema of the projected rows; required iff `columns` is non-empty.
  SchemaPtr projected_schema = nullptr;
  /// Optional filter, compiled against the table schema with BOOL output.
  /// It runs batch-wise over segment column buffers and head rows before
  /// any row is gathered, and a row survives only when it evaluates to
  /// true (false and NULL both drop, SQL WHERE semantics). Not owned; must
  /// outlive the call.
  const CompiledExpr* predicate = nullptr;
};

/// Tests bit `i` of a miss bitmap produced by AsOfBatch.
inline bool MissBitmapTest(const std::vector<uint64_t>& bitmap, size_t i) {
  return (bitmap[i >> 6] >> (i & 63)) & 1;
}

/// One entity's result from a batch materialization read
/// (OfflineTable::EvalLatestPerEntityAsOf).
struct MaterializedCell {
  Value entity;
  Timestamp event_time = 0;
  Value value;
};

/// Configuration for one offline (historical) table.
struct OfflineTableOptions {
  std::string name;
  SchemaPtr schema;
  /// Column holding the entity key (INT64 or STRING; non-nullable).
  std::string entity_column;
  /// Column holding the event timestamp (TIMESTAMP; non-nullable).
  std::string time_column;
  /// Rows are grouped into partitions of this width (default: daily), the
  /// standard feature-store layout for time-based joins.
  Timestamp partition_granularity = kMicrosPerDay;

  // --- Columnar / tiered storage knobs ---------------------------------
  /// A partition's mutable row head seals into an immutable columnar
  /// segment once it holds this many rows (checked on append, under the
  /// same exclusive lock). 0 disables automatic sealing; heads then seal
  /// only through SealHeads()/RunMaintenance().
  size_t seal_rows = 8192;
  /// Soft cap on encoded segment bytes kept resident in RAM; 0 means
  /// unlimited. Over-budget segments spill to `spill_dir` during
  /// EnforceMemoryBudget()/RunMaintenance() (coldest partition first),
  /// after which they are served through a read-only file mapping.
  size_t memory_budget_bytes = 0;
  /// Directory for spilled segment files; empty disables spilling.
  std::string spill_dir;
  /// RunMaintenance() compacts a partition once it accumulates this many
  /// sealed segments (explicit CompactPartitions() compacts at >= 2).
  size_t compact_min_segments = 4;
};

/// Storage-tier counters for one table (see storage_stats()).
struct OfflineStorageStats {
  size_t head_rows = 0;
  size_t sealed_rows = 0;
  size_t sealed_segments = 0;
  size_t spilled_segments = 0;
  /// Encoded bytes of sealed segments held in RAM (what the memory budget
  /// caps). Spilled segments keep only their decoded time index resident.
  size_t resident_segment_bytes = 0;
  /// Encoded bytes of spilled segment files on disk.
  size_t spilled_bytes = 0;
  /// RunMaintenance() calls that returned an error.
  uint64_t maintenance_errors = 0;
  /// Sealed segments that Scan skipped *entirely* because their
  /// [min_ts, max_ts] range was disjoint from the scan window — how much
  /// work the segment-level time index saved.
  uint64_t scan_segments_skipped = 0;
  /// Always zero: the table has no readahead (see ReadaheadStats).
  ReadaheadStats readahead;
};

/// Append-only, time-partitioned table of historical feature rows: the
/// "offline store" half of the feature store's dual datastore (paper
/// §2.2.2, e.g. a SQL warehouse). Backfills append to it; training-set
/// construction and materialization read from it. Range reads go through
/// one Scan(ScanSpec); *as-of* (point-in-time) reads go through AsOfBatch
/// (AsOf is a batch of one) and materialization through
/// EvalLatestPerEntityAsOf, both resolved by one key directory: per entity,
/// a single ts-sorted posting list merged across partitions.
///
/// Storage is tiered: each partition is a mutable row-oriented head that
/// seals into immutable column-major segments (dictionary strings,
/// delta-packed timestamps, raw fixed-width numerics; checksummed), which
/// maintenance compacts and — past the memory budget — spills to
/// memory-mapped files so backfills larger than RAM work. Maintenance runs
/// only when a caller calls it (RunMaintenance and the steps below); the
/// table starts no thread of its own. Rows keep a stable per-partition
/// ordinal across seal/compact/spill, so the key directory built at append
/// time never needs rewriting. The never-sealed configuration
/// (seal_rows = 0) is exactly the legacy all-in-RAM row engine and serves
/// as the differential-testing oracle.
///
/// Thread-safe: appends and structural changes take an exclusive lock;
/// reads take a shared lock (sealed segments are immutable, so readers
/// never observe a segment mid-build).
class OfflineTable {
 public:
  /// Validates options (columns exist with the required types).
  static StatusOr<std::unique_ptr<OfflineTable>> Create(
      OfflineTableOptions options);

  /// Appends one row; rows may arrive in any time order (late data is
  /// supported and lands in the partition of its event time).
  Status Append(const Row& row);

  Status AppendBatch(const std::vector<Row>& rows);

  /// The rows `spec` selects, in storage order: partitions ascending, each
  /// partition's sealed segments before its mutable head, append order
  /// within each. Sealed segments whose time range misses [lo, hi) are
  /// skipped whole (counted in storage_stats().scan_segments_skipped);
  /// segments wholly inside it skip the per-row time check. Rows conform
  /// to the table schema, or to `spec.projected_schema` when projected.
  /// InvalidArgument if the predicate was not compiled against this table
  /// or is not BOOL, or the projection is malformed.
  StatusOr<std::vector<Row>> Scan(const ScanSpec& spec) const;

  /// The most recent row for `entity_key` with event_time <= ts
  /// (point-in-time read): a one-request, full-width AsOfBatch on the
  /// canonical key. NotFound if the entity has no history at ts;
  /// InvalidArgument if the key is not INT64/STRING.
  StatusOr<Row> AsOf(const Value& entity_key, Timestamp ts) const;

  /// Batched point-in-time reads: the offline half of the training hot
  /// path. `requests` must be sorted ascending by (key, ts); the call
  /// acquires the shared lock **once**, probes the key directory once per
  /// entity, and answers all of an entity's requests with one flat forward
  /// cursor walk. `results[i]` receives the matched row — a head-row copy
  /// or a columnar gather — or is left untouched on a miss: callers either
  /// pass `options.miss_bitmap` or test `results[i].schema() != nullptr`
  /// against default-constructed inputs. For equal event times the most
  /// recently appended row wins. With
  /// `options.columns` set, results conform to `options.projected_schema`
  /// and only those columns are gathered.
  ///
  /// InvalidArgument if `results.size() != requests.size()`, the requests
  /// are not sorted, or the projection is malformed. The
  /// `offline_store.as_of` failpoint is evaluated once per call.
  Status AsOfBatch(std::span<const AsOfRequest> requests,
                   std::span<Row> results,
                   const AsOfReadOptions& options = {}) const;

  /// The materialization query that loads the online store: per entity,
  /// its latest row as of `ts`, with `expr` evaluated over it vectorized —
  /// segment-resident rows straight over columnar buffers, head rows
  /// through a batched row source — without materializing full-width rows
  /// on the sealed path. One cell per entity with history at `ts`, in
  /// ascending canonical key (EntityKeyToString) order. `expr` must be
  /// compiled against the table schema.
  StatusOr<std::vector<MaterializedCell>> EvalLatestPerEntityAsOf(
      Timestamp ts, const CompiledExpr& expr) const;

  // --- Tier maintenance -------------------------------------------------

  /// Seals every partition's non-empty mutable head into a columnar
  /// segment. The `offline_store.seal` failpoint fires once per call.
  Status SealHeads();

  /// Merges every partition with >= 2 sealed segments into one segment per
  /// partition. Runs the merge off the table lock (segments are immutable)
  /// and swaps under the exclusive lock. `offline_store.compact` failpoint.
  Status CompactPartitions();

  /// Spills the coldest resident segments to `spill_dir` until resident
  /// segment bytes fit `memory_budget_bytes` (no-op when unconfigured).
  /// File writes run off the table lock; the resident blob is swapped for
  /// the validated file mapping under the exclusive lock.
  /// `offline_store.spill` failpoint.
  Status EnforceMemoryBudget();

  /// SealHeads (only heads at/above seal_rows) + CompactPartitions (only
  /// partitions at/above compact_min_segments) + EnforceMemoryBudget — the
  /// periodic maintenance step (Materializer runs one after each feature
  /// log append). A failed pass leaves the table readable and is counted
  /// in storage_stats().maintenance_errors.
  Status RunMaintenance();

  OfflineStorageStats storage_stats() const;

  const OfflineTableOptions& options() const { return options_; }
  const std::string& name() const { return options_.name; }
  size_t num_rows() const;
  size_t num_partitions() const;
  /// Event time of the newest row, or kMinTimestamp when empty.
  Timestamp max_event_time() const;

  /// Serializes the table, sealed in the BlockFile envelope ("MLFT"):
  /// options (name, key/time columns, granularity, schema, seal_rows,
  /// memory_budget_bytes, spill_dir, compact_min_segments — every option),
  /// sealed segments (encoded blobs, checksums and all) and the mutable
  /// heads' rows.
  std::string Snapshot() const;

  /// The one table restore: checks the envelope, then rebuilds the table —
  /// options, sealed tier and heads — from `Snapshot()` output alone.
  static StatusOr<std::unique_ptr<OfflineTable>> FromSnapshot(
      std::string_view snapshot);

 private:
  /// Transparent hash/eq so batch reads can probe the key directory with
  /// string_view keys without materializing a std::string per lookup.
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const { return HashBytes(s); }
  };
  struct KeyEq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const {
      return a == b;
    }
  };
  /// One partition: sealed columnar segments (ordinal ranges
  /// [segment_base[i], segment_base[i] + segments[i]->num_rows())) followed
  /// by the mutable row head at [head_base, head_base + head_rows.size()).
  /// Ordinals are assigned at append time and never change: sealing moves
  /// the head's ordinal range into a segment, compaction concatenates
  /// adjacent segments' ranges, spilling only swaps a segment's backing
  /// store — so key-directory postings survive every tier transition
  /// untouched.
  struct Partition {
    std::vector<SegmentPtr> segments;
    std::vector<size_t> segment_base;  // Parallel to `segments`.
    size_t head_base = 0;
    std::vector<Row> head_rows;
  };
  /// One row reference in the cross-partition key directory. The Partition
  /// pointer is node-stable (std::map node); the row is addressed by its
  /// stable ordinal (see Partition).
  struct GlobalPosting {
    Timestamp ts;
    size_t ordinal;
    const Partition* part;
  };
  /// A resolved ordinal: either a head row or a (segment, local row) pair.
  struct RowLoc {
    const Row* head = nullptr;
    const Segment* seg = nullptr;
    size_t seg_row = 0;
  };

  explicit OfflineTable(OfflineTableOptions options);

  Status AppendLocked(const Row& row);
  /// Appends one row's posting to its entity's list. A posting below the
  /// list's last one opens (or extends) an unsorted tail, recorded in
  /// unsorted_tails_. Caller holds the exclusive lock and calls
  /// SortPostingTailsLocked before releasing it.
  void AddPostingLocked(std::string_view key, Timestamp ts, size_t ordinal,
                        const Partition* part);
  /// Sorts every unsorted tail by ts (stably, keeping append order) and
  /// merges it into its list's sorted prefix — the order one upper_bound
  /// insert per row would have built, at O(k log k) per list instead of
  /// O(k) per row.
  void SortPostingTailsLocked();
  /// Seals `part`'s head into a segment (caller holds the exclusive lock).
  Status SealPartitionLocked(int64_t pid, Partition& part);
  /// Adopts a restored segment as the next ordinal range of its partition
  /// and adds its rows to the key directory (caller holds the exclusive
  /// lock).
  Status AdoptSegmentLocked(const SegmentPtr& seg);
  /// Merges `pid`'s sealed segments, captured under the shared lock, into
  /// one segment and swaps it in place. Caller holds maintenance_mu_.
  Status CompactPartition(int64_t pid);
  Status SealHeadsInner(size_t min_rows);
  Status CompactInner(size_t min_segments);
  Status EnforceBudgetInner();
  /// Checks a column projection against the table schema.
  Status ValidateProjection(std::span<const int> columns,
                            const SchemaPtr& projected_schema) const;
  /// Checks `expr` was compiled against this table's schema (and, when
  /// `need_bool`, that it is a predicate).
  Status ValidateCompiled(const CompiledExpr& expr, bool need_bool) const;
  /// Per entity, the posting of its latest row as of `ts` (the rightmost
  /// posting with posting.ts <= ts), in canonical key order. Caller holds
  /// the shared lock.
  std::vector<const GlobalPosting*> LatestPostingsLocked(Timestamp ts) const;
  static RowLoc Resolve(const Partition& part, size_t ordinal);
  int64_t PartitionIdFor(Timestamp ts) const;

  OfflineTableOptions options_;
  int entity_idx_ = -1;
  int time_idx_ = -1;
  std::vector<int> all_columns_;  // 0..num_fields-1, for full-width gathers.

  mutable std::shared_mutex mu_;
  // Ordered so scans walk partitions in time order.
  std::map<int64_t, Partition> partitions_;
  // Key directory: entity key -> the entity's full posting stream merged
  // across partitions, globally sorted by ts with equal timestamps in
  // append order, which gives as-of reads their most-recently-appended
  // tie-break. Maintained on append (under the exclusive lock) so
  // AsOfBatch answers a key's whole request run with one hash probe and
  // one flat, sequential cursor walk — no per-partition probing or
  // pointer chasing.
  std::unordered_map<std::string, std::vector<GlobalPosting>, KeyHash, KeyEq>
      key_directory_;
  // Posting lists holding an unsorted tail (node-stable pointers into
  // key_directory_) -> where the tail starts. Kept beside the directory
  // rather than in it, so no list pays for the mark; empty whenever the
  // exclusive lock is free, so readers only ever see sorted lists.
  std::unordered_map<std::vector<GlobalPosting>*, size_t> unsorted_tails_;
  size_t num_rows_ = 0;
  Timestamp max_event_time_ = kMinTimestamp;

  /// Sealed segments whose time range let a scan skip them whole.
  mutable std::atomic<uint64_t> scan_segments_skipped_{0};

  // Serializes compaction/spill passes so their off-lock work never
  // targets a segment another maintenance pass is replacing.
  std::mutex maintenance_mu_;
  std::atomic<uint64_t> maintenance_errors_{0};
};

/// Named collection of offline tables.
class OfflineStore {
 public:
  /// Creates a table; AlreadyExists if the name is taken.
  Status CreateTable(OfflineTableOptions options);

  /// Adopts an already-constructed table (e.g. OfflineTable::FromSnapshot).
  Status AdoptTable(std::unique_ptr<OfflineTable> table);

  /// Borrowed pointer valid for the store's lifetime; NotFound if absent.
  StatusOr<OfflineTable*> GetTable(const std::string& name) const;

  bool HasTable(const std::string& name) const;
  std::vector<std::string> TableNames() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<OfflineTable>> tables_;
};

}  // namespace mlfs

#endif  // MLFS_STORAGE_OFFLINE_STORE_H_
