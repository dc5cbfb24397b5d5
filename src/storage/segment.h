#ifndef MLFS_STORAGE_SEGMENT_H_
#define MLFS_STORAGE_SEGMENT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/row.h"
#include "common/schema.h"
#include "common/status.h"
#include "common/timestamp.h"
#include "io/block_file.h"

namespace mlfs {

class ColumnVector;
class Segment;
using SegmentPtr = std::shared_ptr<const Segment>;

/// Per-column encoding inside a sealed segment. The encoding is chosen from
/// the schema field type at seal time; every encoding supports O(1) random
/// access directly on the encoded bytes (so a memory-mapped spilled segment
/// is readable without decompression) except kDeltaTimestamp, whose varint
/// stream is decoded once at open into a resident time index.
enum class ColumnEncoding : uint8_t {
  /// Schema type kNull: the column carries no data (every cell is NULL).
  kNullOnly = 0,
  /// INT64 / DOUBLE: raw little-endian 8-byte values (bit patterns for
  /// doubles, so the round-trip is bit-exact).
  kRaw64 = 1,
  /// BOOL: one byte per row (0/1).
  kBool = 2,
  /// TIMESTAMP: zigzag-varint deltas from the previous row's value.
  kDeltaTimestamp = 3,
  /// STRING: dictionary of distinct strings (first-appearance order) with
  /// fixed-width u32 codes per row.
  kDictionary = 4,
  /// EMBEDDING: u64 float-offset fences plus a flat float blob.
  kFloatList = 5,
};

/// An immutable, checksummed, column-major block of rows sealed out of an
/// OfflineTable partition's mutable head — the unit of the offline store's
/// tiered storage. A segment's encoded bytes are self-contained (schema,
/// partition id, column index hints, whole-body checksum) and live either
/// resident in RAM or spilled as a memory-mapped file; the read path is
/// identical in both tiers.
///
/// Blob layout (version 2): the shared BlockFile envelope
///   [u32 magic "MLSG"][u32 version][u64 body_len][body][u64 checksum]
/// Body: header (partition id, entity/time column indices, schema, row
/// count, min/max event time, per-column {encoding, byte length}) followed
/// by the concatenated column buffers. Every column buffer starts with a
/// has-nulls byte and, when it is set, a null bitmap of one bit per row.
/// The envelope's body checksum covers every column byte, so columns carry
/// no checksums of their own.
///
/// FromBytes/FromFile validate *everything* up front — the envelope
/// (magic, version, length, body checksum) through io/block_file, then
/// every structural invariant (offset fences, dictionary code ranges,
/// varint stream termination, a NULL-free time column) — so cell accessors
/// can run without per-access bounds checks and a truncated or bit-flipped
/// blob surfaces as a Status error, never UB.
class Segment {
 public:
  /// Encodes `rows` (all conforming to `schema`, all in partition
  /// `partition_id`) into a self-contained blob. Row order is preserved:
  /// row i of the segment is rows[i], which is what keeps the offline
  /// store's append-order tie-break stable across seals and compactions.
  static StatusOr<std::string> Encode(const SchemaPtr& schema,
                                      int64_t partition_id, int entity_idx,
                                      int time_idx, std::span<const Row> rows);

  /// Compaction: merges `segments` (same schema, partition and entity/time
  /// columns; InvalidArgument otherwise) into one blob, column by column
  /// and without decoding a row — raw64 and bool bytes are copied, null
  /// bitmaps concatenated, timestamps re-delta-encoded from the time
  /// index, dictionary codes remapped through one merged first-appearance
  /// dictionary, embedding fences rebased. Guarantee: the result is
  /// byte-identical to Encode over the segments' decoded rows in order
  /// (so row i of segment k lands at the sum of the earlier segments' rows
  /// plus i, and the append-order tie-break survives compaction).
  static StatusOr<std::string> Merge(std::span<const SegmentPtr> segments);

  /// Parses and validates a blob held in RAM (the resident tier).
  static StatusOr<std::shared_ptr<const Segment>> FromBytes(std::string bytes);

  /// Memory-maps and validates a segment file (the spilled tier). When
  /// `remove_file_on_destroy` is set the file is deleted when the last
  /// reference to the segment drops (spill files are scratch, not
  /// checkpoints). The `segment.open` failpoint fires before the map.
  static StatusOr<std::shared_ptr<const Segment>> FromFile(
      std::string path, bool remove_file_on_destroy);

  /// Writes `seg`'s encoded blob to `path` (atomic write + mmap reopen
  /// via BlockFile::Spill) and returns the file-backed twin serving the
  /// same bytes. On failure no file is left behind and `seg` is
  /// untouched — the caller simply keeps the resident segment.
  static StatusOr<std::shared_ptr<const Segment>> SpillToFile(
      const Segment& seg, std::string path, bool remove_file_on_destroy);

  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;

  size_t num_rows() const { return num_rows_; }
  const SchemaPtr& schema() const { return schema_; }
  int64_t partition_id() const { return partition_id_; }
  int entity_idx() const { return entity_idx_; }
  int time_idx() const { return time_idx_; }
  Timestamp min_ts() const { return min_ts_; }
  Timestamp max_ts() const { return max_ts_; }
  bool spilled() const { return file_->mapped(); }
  const std::string& path() const { return file_->path(); }

  /// The full encoded blob (resident buffer or file mapping) — what a
  /// spill writes to disk and what a table snapshot embeds.
  std::string_view encoded() const { return data_; }
  size_t encoded_size() const { return data_.size(); }

  /// Approximate RAM held by this segment: the encoded blob when resident,
  /// plus the decoded time index (kept resident even when spilled — it is
  /// the column every scan bound and as-of probe touches).
  size_t resident_bytes() const;

  /// Event time of `row` (decoded time index; O(1)).
  Timestamp ts(size_t row) const { return delta_cols_[time_idx_][row]; }

  bool is_null(size_t col, size_t row) const;

  /// Materializes one cell.
  Value value(size_t col, size_t row) const;

  /// Appends the cells of `row` for each column in `cols` (in order) to
  /// `out` — the projected gather primitive under AsOfBatch and Scan.
  void AppendProjected(size_t row, std::span<const int> cols,
                       std::vector<Value>* out) const;

  /// Gathers column `col` of the listed rows into `out` (including its
  /// Reset) straight off the encoded column buffers — no per-cell Value is
  /// materialized. This is the batch-load primitive behind vectorized
  /// predicate pushdown and batch materialization (expr/column_batch.h).
  void LoadColumn(size_t col, std::span<const uint32_t> rows,
                  ColumnVector* out) const;

  /// Readahead hook: asks the kernel for the spilled file's pages
  /// (madvise WILLNEED) and faults them in — run off the serving thread
  /// one segment ahead of the gather cursor. No-op when resident.
  void PrefetchSpill() const {
    if (!file_->mapped()) return;
    file_->AdviseWillNeed(0, file_->size());
    file_->TouchPages(0, file_->size());
  }

 private:
  struct Column {
    ColumnEncoding enc = ColumnEncoding::kNullOnly;
    const unsigned char* nulls = nullptr;  // Bitmap, or null when no nulls.
    const unsigned char* data = nullptr;   // Encoding-specific section.
    size_t data_len = 0;
    // kDictionary pieces.
    uint32_t dict_count = 0;
    const unsigned char* codes = nullptr;
    const unsigned char* dict_offsets = nullptr;  // dict_count + 1 u32s.
    const unsigned char* dict_blob = nullptr;
    // kFloatList pieces.
    const unsigned char* fences = nullptr;  // num_rows + 1 u64s.
    const unsigned char* floats = nullptr;
  };

  Segment() = default;

  /// Wraps an envelope-validated BlockFile in a parsed segment.
  static StatusOr<std::shared_ptr<const Segment>> FromBlockFile(
      BlockFilePtr file);

  /// Parses the body of `file_` (set by the factories), filling every
  /// member and validating all invariants.
  Status Parse();

  bool NullBit(const Column& c, size_t row) const {
    return c.nulls != nullptr && (c.nulls[row >> 3] >> (row & 7)) & 1;
  }

  /// Whether any row of column `col` is NULL (a crafted blob may carry an
  /// all-zero bitmap).
  bool AnyNull(size_t col) const;

  // Backing storage (resident blob or validated file mapping); data_
  // views the full envelope.
  BlockFilePtr file_;
  std::string_view data_;

  SchemaPtr schema_;
  int64_t partition_id_ = 0;
  int entity_idx_ = -1;
  int time_idx_ = -1;
  size_t num_rows_ = 0;
  Timestamp min_ts_ = kMinTimestamp;
  Timestamp max_ts_ = kMinTimestamp;
  std::vector<Column> cols_;
  // Decoded values for kDeltaTimestamp columns (empty for other columns).
  std::vector<std::vector<Timestamp>> delta_cols_;
};

}  // namespace mlfs

#endif  // MLFS_STORAGE_SEGMENT_H_
