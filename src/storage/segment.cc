#include "storage/segment.h"

#include <algorithm>
#include <cstring>

#include "common/failpoint.h"
#include "common/hash.h"
#include "common/serde.h"
#include "expr/column_batch.h"

namespace mlfs {
namespace {

constexpr uint32_t kSegmentMagic = 0x47534c4d;  // "MLSG"
// v2: no per-column checksums (the envelope's body checksum covers every
// column byte) and a Checksum64 envelope trailer.
constexpr uint32_t kSegmentVersion = 2;

// Raw little-endian-host loads/stores. The column buffers use memcpy'd host
// integers (like FastHash64) rather than the serde byte-by-byte codec: the
// sections are accessed in place through the file mapping, so load cost is
// what matters. Segments are scratch + checkpoint artifacts for one host,
// not a cross-architecture interchange format.
uint64_t LoadU64(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

uint32_t LoadU32(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

void StoreU64(char* p, uint64_t v) { std::memcpy(p, &v, 8); }

void StoreU32(char* p, uint32_t v) { std::memcpy(p, &v, 4); }

void AppendVarint(std::string* buf, uint64_t v) {
  while (v >= 0x80) {
    buf->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  buf->push_back(static_cast<char>(v));
}

uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t ZigzagDecode(uint64_t u) {
  return static_cast<int64_t>((u >> 1) ^ (0 - (u & 1)));
}

// Reads one varint from [p, end); advances *p. False on overrun/overlong.
bool ReadVarint(const unsigned char** p, const unsigned char* end,
                uint64_t* out) {
  uint64_t v = 0;
  int shift = 0;
  while (*p < end && shift < 64) {
    unsigned char byte = **p;
    ++*p;
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *out = v;
      return true;
    }
    shift += 7;
  }
  return false;
}

ColumnEncoding EncodingFor(FeatureType type) {
  switch (type) {
    case FeatureType::kNull:
      return ColumnEncoding::kNullOnly;
    case FeatureType::kBool:
      return ColumnEncoding::kBool;
    case FeatureType::kInt64:
      return ColumnEncoding::kRaw64;
    case FeatureType::kDouble:
      return ColumnEncoding::kRaw64;
    case FeatureType::kString:
      return ColumnEncoding::kDictionary;
    case FeatureType::kTimestamp:
      return ColumnEncoding::kDeltaTimestamp;
    case FeatureType::kEmbedding:
      return ColumnEncoding::kFloatList;
  }
  return ColumnEncoding::kNullOnly;
}

/// Open-addressing string interner behind every dictionary column: codes
/// in first-appearance order. It is sized once from an upper bound on the
/// distinct count (load <= 1/2), so it never rehashes, and it holds two
/// flat arrays, not a heap node per distinct string (entity keys are
/// nearly all distinct, so that would be an allocation per row). Interned
/// bytes are borrowed and must outlive the interner.
class DictInterner {
 public:
  explicit DictInterner(size_t max_distinct) {
    size_t capacity = 16;
    while (capacity < 2 * max_distinct) capacity <<= 1;
    slots_.assign(capacity, Slot{0, kEmptySlot});
    mask_ = capacity - 1;
  }

  uint32_t Intern(std::string_view s) {
    const uint64_t h = FastHash64(s.data(), s.size());
    const uint32_t tag = static_cast<uint32_t>(h >> 32);
    for (size_t i = h & mask_;; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.code == kEmptySlot) {
        slot = Slot{tag, static_cast<uint32_t>(dict_.size())};
        dict_.push_back(s);
        return slot.code;
      }
      if (slot.tag == tag && dict_[slot.code] == s) return slot.code;
    }
  }

  /// The distinct strings, indexed by code.
  const std::vector<std::string_view>& dict() const { return dict_; }

 private:
  struct Slot {
    uint32_t tag;   // High hash bits, so most mismatches skip the compare.
    uint32_t code;  // kEmptySlot while free.
  };
  static constexpr uint32_t kEmptySlot = UINT32_MAX;
  std::vector<Slot> slots_;
  size_t mask_ = 0;
  std::vector<std::string_view> dict_;
};

/// Starts a column buffer: the has-nulls byte, then (when `has_nulls`) a
/// zeroed bitmap of `rows` bits. Returns the bitmap's offset in `buf`.
size_t BeginColumn(bool has_nulls, size_t rows, std::string* buf) {
  buf->push_back(has_nulls ? 1 : 0);
  const size_t bitmap_at = buf->size();
  if (has_nulls) buf->append((rows + 7) / 8, '\0');
  return bitmap_at;
}

/// Appends a dictionary column's data section:
///   [u32 count][u32 code per row][u32 offsets, count + 1][string bytes]
/// The one writer behind Encode and Merge.
Status AppendDictionary(const std::vector<std::string_view>& dict,
                        std::span<const uint32_t> codes, std::string* buf) {
  uint64_t blob_len = 0;
  for (std::string_view s : dict) blob_len += s.size();
  if (blob_len > UINT32_MAX) {
    return Status::InvalidArgument("dictionary blob exceeds 4 GiB");
  }
  const size_t at = buf->size();
  buf->resize(at + 4 + 4 * codes.size() + 4 * (dict.size() + 1) + blob_len);
  char* p = buf->data() + at;
  StoreU32(p, static_cast<uint32_t>(dict.size()));
  p += 4;
  std::memcpy(p, codes.data(), 4 * codes.size());
  p += 4 * codes.size();
  uint32_t offset = 0;
  StoreU32(p, offset);
  p += 4;
  for (std::string_view s : dict) {
    offset += static_cast<uint32_t>(s.size());
    StoreU32(p, offset);
    p += 4;
  }
  for (std::string_view s : dict) {
    std::memcpy(p, s.data(), s.size());
    p += s.size();
  }
  return Status::OK();
}

/// What a segment body's header records besides its schema and columns.
struct HeaderFields {
  int64_t partition_id;
  int entity_idx;
  int time_idx;
  size_t num_rows;
  Timestamp min_ts;
  Timestamp max_ts;
};

/// Writes the body header — partition id, entity/time column indices,
/// schema, row count, min/max event time, then {encoding, byte length} per
/// column — and seals it with the column buffers into the envelope, each
/// byte copied once. The one writer behind Encode and Merge.
std::string SealSegment(const Schema& schema, const HeaderFields& h,
                        const std::vector<std::string>& col_bufs) {
  Encoder header;
  header.PutFixed64(static_cast<uint64_t>(h.partition_id));
  header.PutVarint64(static_cast<uint64_t>(h.entity_idx));
  header.PutVarint64(static_cast<uint64_t>(h.time_idx));
  header.PutSchema(schema);
  header.PutVarint64(h.num_rows);
  header.PutFixed64(static_cast<uint64_t>(h.min_ts));
  header.PutFixed64(static_cast<uint64_t>(h.max_ts));
  header.PutVarint64(col_bufs.size());
  for (size_t c = 0; c < col_bufs.size(); ++c) {
    header.PutU8(static_cast<uint8_t>(EncodingFor(schema.field(c).type)));
    header.PutVarint64(col_bufs[c].size());
  }
  std::vector<std::string_view> pieces;
  pieces.reserve(1 + col_bufs.size());
  pieces.push_back(header.buffer());
  for (const std::string& buf : col_bufs) pieces.push_back(buf);
  return BlockFile::Seal(kSegmentMagic, kSegmentVersion, pieces);
}

}  // namespace

StatusOr<std::string> Segment::Encode(const SchemaPtr& schema,
                                      int64_t partition_id, int entity_idx,
                                      int time_idx,
                                      std::span<const Row> rows) {
  if (schema == nullptr) {
    return Status::InvalidArgument("segment needs a schema");
  }
  if (rows.empty()) {
    return Status::InvalidArgument("cannot seal an empty segment");
  }
  const size_t n = rows.size();
  const size_t ncols = schema->num_fields();
  if (entity_idx < 0 || static_cast<size_t>(entity_idx) >= ncols ||
      time_idx < 0 || static_cast<size_t>(time_idx) >= ncols) {
    return Status::InvalidArgument("segment entity/time index out of range");
  }
  if (schema->field(time_idx).type != FeatureType::kTimestamp) {
    return Status::InvalidArgument("segment time column is not a timestamp");
  }
  for (const Row& row : rows) {
    if (row.schema() == nullptr || !(*row.schema() == *schema)) {
      return Status::InvalidArgument("segment rows have mixed schemas");
    }
  }
  Timestamp min_ts = kMaxTimestamp;
  Timestamp max_ts = kMinTimestamp;
  for (const Row& row : rows) {
    const Value& tv = row.value(time_idx);
    if (tv.is_null()) {
      return Status::InvalidArgument("segment row has null event time");
    }
    min_ts = std::min(min_ts, tv.time_value());
    max_ts = std::max(max_ts, tv.time_value());
  }

  std::vector<std::string> col_bufs(ncols);
  std::vector<uint32_t> codes;
  for (size_t c = 0; c < ncols; ++c) {
    const FeatureType type = schema->field(c).type;
    std::string& buf = col_bufs[c];
    bool has_nulls = false;
    for (const Row& row : rows) {
      if (row.value(c).is_null()) {
        has_nulls = true;
        break;
      }
    }
    const size_t bitmap_at = BeginColumn(has_nulls, n, &buf);
    if (has_nulls) {
      for (size_t r = 0; r < n; ++r) {
        if (rows[r].value(c).is_null()) {
          buf[bitmap_at + (r >> 3)] |= static_cast<char>(1u << (r & 7));
        }
      }
    }
    switch (EncodingFor(type)) {
      case ColumnEncoding::kNullOnly:
        for (size_t r = 0; r < n; ++r) {
          if (!rows[r].value(c).is_null()) {
            return Status::InvalidArgument(
                "non-null value in a NULL-typed column");
          }
        }
        break;
      case ColumnEncoding::kRaw64: {
        const size_t at = buf.size();
        buf.resize(at + 8 * n);
        for (size_t r = 0; r < n; ++r) {
          const Value& v = rows[r].value(c);
          uint64_t bits = 0;
          if (!v.is_null()) {
            if (type == FeatureType::kInt64) {
              bits = static_cast<uint64_t>(v.int64_value());
            } else {
              double d = v.double_value();
              std::memcpy(&bits, &d, 8);
            }
          }
          StoreU64(buf.data() + at + 8 * r, bits);
        }
        break;
      }
      case ColumnEncoding::kBool: {
        const size_t at = buf.size();
        buf.resize(at + n);
        for (size_t r = 0; r < n; ++r) {
          const Value& v = rows[r].value(c);
          buf[at + r] = !v.is_null() && v.bool_value() ? 1 : 0;
        }
        break;
      }
      case ColumnEncoding::kDeltaTimestamp: {
        // Null cells repeat the previous value (delta 0); the bitmap is
        // what makes them NULL on read.
        Timestamp prev = 0;
        for (size_t r = 0; r < n; ++r) {
          const Value& v = rows[r].value(c);
          Timestamp t = v.is_null() ? prev : v.time_value();
          AppendVarint(&buf, ZigzagEncode(t - prev));
          prev = t;
        }
        break;
      }
      case ColumnEncoding::kDictionary: {
        // Dictionary in first-appearance order; null cells take code 0.
        DictInterner dict(n);
        codes.assign(n, 0);
        for (size_t r = 0; r < n; ++r) {
          const Value& v = rows[r].value(c);
          if (!v.is_null()) codes[r] = dict.Intern(v.string_value());
        }
        MLFS_RETURN_IF_ERROR(AppendDictionary(dict.dict(), codes, &buf));
        break;
      }
      case ColumnEncoding::kFloatList: {
        const size_t fences_at = buf.size();
        buf.resize(fences_at + 8 * (n + 1));  // Zeroed: fence 0 is 0.
        uint64_t fence = 0;
        for (size_t r = 0; r < n; ++r) {
          const Value& v = rows[r].value(c);
          if (!v.is_null()) fence += v.embedding_value().size();
          StoreU64(buf.data() + fences_at + 8 * (r + 1), fence);
        }
        buf.reserve(buf.size() + 4 * fence);
        for (size_t r = 0; r < n; ++r) {
          const Value& v = rows[r].value(c);
          if (v.is_null()) continue;
          const std::vector<float>& e = v.embedding_value();
          buf.append(reinterpret_cast<const char*>(e.data()),
                     e.size() * sizeof(float));
        }
        break;
      }
    }
  }
  return SealSegment(*schema,
                     {partition_id, entity_idx, time_idx, n, min_ts, max_ts},
                     col_bufs);
}

bool Segment::AnyNull(size_t col) const {
  const unsigned char* nulls = cols_[col].nulls;
  if (nulls == nullptr) return false;
  const size_t full = num_rows_ / 8;
  for (size_t i = 0; i < full; ++i) {
    if (nulls[i] != 0) return true;
  }
  const size_t rem = num_rows_ % 8;
  return rem != 0 && (nulls[full] & ((1u << rem) - 1)) != 0;
}

StatusOr<std::string> Segment::Merge(std::span<const SegmentPtr> segments) {
  if (segments.empty()) {
    return Status::InvalidArgument("cannot merge zero segments");
  }
  const Segment& first = *segments.front();
  size_t n = 0;
  Timestamp min_ts = kMaxTimestamp;
  Timestamp max_ts = kMinTimestamp;
  for (const SegmentPtr& seg : segments) {
    if (!(*seg->schema_ == *first.schema_) ||
        seg->partition_id_ != first.partition_id_ ||
        seg->entity_idx_ != first.entity_idx_ ||
        seg->time_idx_ != first.time_idx_) {
      return Status::InvalidArgument(
          "merged segments differ in schema, partition or key columns");
    }
    n += seg->num_rows_;
    min_ts = std::min(min_ts, seg->min_ts_);
    max_ts = std::max(max_ts, seg->max_ts_);
  }

  // Every section is rebuilt exactly as Encode would write it for the
  // segments' decoded rows, including for non-canonical (crafted but
  // checksum-valid) inputs: bits past a bitmap's rows are dropped, and
  // bytes under NULL cells are written as Encode writes a NULL.
  const size_t ncols = first.cols_.size();
  std::vector<std::string> col_bufs(ncols);
  std::vector<uint32_t> codes;
  std::vector<uint32_t> remap;
  for (size_t c = 0; c < ncols; ++c) {
    std::string& buf = col_bufs[c];
    bool has_nulls = false;
    for (const SegmentPtr& seg : segments) has_nulls |= seg->AnyNull(c);
    const size_t bitmap_at = BeginColumn(has_nulls, n, &buf);
    if (has_nulls) {
      // Concatenate the bitmaps: segment rows start at any bit offset.
      size_t base = 0;
      for (const SegmentPtr& seg : segments) {
        const unsigned char* src = seg->cols_[c].nulls;
        const size_t rows = seg->num_rows_;
        for (size_t i = 0; src != nullptr && i < (rows + 7) / 8; ++i) {
          unsigned byte = src[i];
          if (8 * i + 8 > rows) byte &= (1u << (rows % 8)) - 1;
          const size_t bit = base + 8 * i;
          char* dst = buf.data() + bitmap_at + (bit >> 3);
          dst[0] |= static_cast<char>(byte << (bit & 7));
          if ((bit & 7) != 0 && (byte >> (8 - (bit & 7))) != 0) {
            dst[1] |= static_cast<char>(byte >> (8 - (bit & 7)));
          }
        }
        base += rows;
      }
    }
    switch (first.cols_[c].enc) {
      case ColumnEncoding::kNullOnly:
        break;
      case ColumnEncoding::kRaw64:
      case ColumnEncoding::kBool: {
        // Copied as they are; only a NULL cell's bytes are re-zeroed.
        const size_t width =
            first.cols_[c].enc == ColumnEncoding::kRaw64 ? 8 : 1;
        for (const SegmentPtr& seg : segments) {
          const Column& col = seg->cols_[c];
          const size_t at = buf.size();
          buf.append(reinterpret_cast<const char*>(col.data),
                     width * seg->num_rows_);
          if (col.nulls == nullptr) continue;
          for (size_t r = 0; r < seg->num_rows_; ++r) {
            if (seg->NullBit(col, r)) {
              std::memset(buf.data() + at + width * r, 0, width);
            }
          }
        }
        break;
      }
      case ColumnEncoding::kDeltaTimestamp: {
        // Re-delta-encoded from the decoded time index across segment
        // boundaries; a NULL cell repeats the previous value, as in Encode.
        Timestamp prev = 0;
        for (const SegmentPtr& seg : segments) {
          const Column& col = seg->cols_[c];
          const std::vector<Timestamp>& ts = seg->delta_cols_[c];
          for (size_t r = 0; r < seg->num_rows_; ++r) {
            const Timestamp t = seg->NullBit(col, r) ? prev : ts[r];
            AppendVarint(&buf, ZigzagEncode(t - prev));
            prev = t;
          }
        }
        break;
      }
      case ColumnEncoding::kDictionary: {
        // Each segment's codes remap through one merged dictionary, kept in
        // first-appearance order by walking the rows: a code is interned
        // the first time a row uses it, then remapped by table lookup.
        constexpr uint32_t kUnmapped = UINT32_MAX;
        size_t max_distinct = 0;
        for (const SegmentPtr& seg : segments) {
          max_distinct += seg->cols_[c].dict_count;
        }
        DictInterner dict(max_distinct);
        codes.assign(n, 0);
        size_t base = 0;
        for (const SegmentPtr& seg : segments) {
          const Column& col = seg->cols_[c];
          remap.assign(col.dict_count, kUnmapped);
          for (size_t r = 0; r < seg->num_rows_; ++r) {
            if (seg->NullBit(col, r)) continue;
            const uint32_t code = LoadU32(col.codes + 4 * r);
            uint32_t& merged = remap[code];
            if (merged == kUnmapped) {
              const uint32_t beg = LoadU32(col.dict_offsets + 4 * code);
              const uint32_t end = LoadU32(col.dict_offsets + 4 * code + 4);
              merged = dict.Intern(std::string_view(
                  reinterpret_cast<const char*>(col.dict_blob) + beg,
                  end - beg));
            }
            codes[base + r] = merged;
          }
          base += seg->num_rows_;
        }
        MLFS_RETURN_IF_ERROR(AppendDictionary(dict.dict(), codes, &buf));
        break;
      }
      case ColumnEncoding::kFloatList: {
        // Fences are rebased by the floats before each segment; the float
        // blobs are concatenated (a NULL cell's span, if any, dropped).
        const size_t fences_at = buf.size();
        uint64_t total = 0;
        for (const SegmentPtr& seg : segments) {
          total += LoadU64(seg->cols_[c].fences + 8 * seg->num_rows_);
        }
        buf.reserve(fences_at + 8 * (n + 1) + 4 * total);
        buf.resize(fences_at + 8 * (n + 1));  // Zeroed: fence 0 is 0.
        uint64_t fence = 0;
        size_t row = 0;
        for (const SegmentPtr& seg : segments) {
          const Column& col = seg->cols_[c];
          const size_t rows = seg->num_rows_;
          if (col.nulls == nullptr) {
            for (size_t r = 1; r <= rows; ++r) {
              StoreU64(buf.data() + fences_at + 8 * (row + r),
                       fence + LoadU64(col.fences + 8 * r));
            }
            const uint64_t floats = LoadU64(col.fences + 8 * rows);
            buf.append(reinterpret_cast<const char*>(col.floats), 4 * floats);
            fence += floats;
          } else {
            for (size_t r = 0; r < rows; ++r) {
              if (!seg->NullBit(col, r)) {
                const uint64_t beg = LoadU64(col.fences + 8 * r);
                const uint64_t end = LoadU64(col.fences + 8 * r + 8);
                buf.append(reinterpret_cast<const char*>(col.floats + 4 * beg),
                           4 * (end - beg));
                fence += end - beg;
              }
              StoreU64(buf.data() + fences_at + 8 * (row + r + 1), fence);
            }
          }
          row += rows;
        }
        break;
      }
    }
  }
  return SealSegment(*first.schema_,
                     {first.partition_id_, first.entity_idx_,
                      first.time_idx_, n, min_ts, max_ts},
                     col_bufs);
}

Status Segment::Parse() {
  // The envelope (magic, version, length, body checksum) was validated by
  // the BlockFile factory; everything here is body-internal structure.
  const std::string_view body = file_->body();
  Decoder dec(body);
  MLFS_ASSIGN_OR_RETURN(uint64_t pid_bits, dec.GetFixed64());
  partition_id_ = static_cast<int64_t>(pid_bits);
  MLFS_ASSIGN_OR_RETURN(uint64_t eidx, dec.GetVarint64());
  MLFS_ASSIGN_OR_RETURN(uint64_t tidx, dec.GetVarint64());
  MLFS_ASSIGN_OR_RETURN(schema_, dec.GetSchema());
  MLFS_ASSIGN_OR_RETURN(uint64_t n, dec.GetVarint64());
  MLFS_ASSIGN_OR_RETURN(uint64_t min_bits, dec.GetFixed64());
  MLFS_ASSIGN_OR_RETURN(uint64_t max_bits, dec.GetFixed64());
  min_ts_ = static_cast<Timestamp>(min_bits);
  max_ts_ = static_cast<Timestamp>(max_bits);
  MLFS_ASSIGN_OR_RETURN(uint64_t ncols, dec.GetVarint64());
  if (n == 0) return Status::Corruption("segment: zero rows");
  if (ncols != schema_->num_fields()) {
    return Status::Corruption("segment: column count does not match schema");
  }
  if (eidx >= ncols || tidx >= ncols) {
    return Status::Corruption("segment: entity/time index out of range");
  }
  entity_idx_ = static_cast<int>(eidx);
  time_idx_ = static_cast<int>(tidx);
  const FieldSpec& efield = schema_->field(entity_idx_);
  if (efield.type != FeatureType::kInt64 &&
      efield.type != FeatureType::kString) {
    return Status::Corruption("segment: entity column is not INT64/STRING");
  }
  if (schema_->field(time_idx_).type != FeatureType::kTimestamp) {
    return Status::Corruption("segment: time column is not TIMESTAMP");
  }
  num_rows_ = n;

  struct ColMeta {
    ColumnEncoding enc;
    uint64_t len;
  };
  std::vector<ColMeta> metas;
  metas.reserve(ncols);
  uint64_t cols_total = 0;
  for (size_t c = 0; c < ncols; ++c) {
    MLFS_ASSIGN_OR_RETURN(uint8_t enc_byte, dec.GetU8());
    if (enc_byte > static_cast<uint8_t>(ColumnEncoding::kFloatList)) {
      return Status::Corruption("segment: unknown column encoding");
    }
    MLFS_ASSIGN_OR_RETURN(uint64_t len, dec.GetVarint64());
    metas.push_back({static_cast<ColumnEncoding>(enc_byte), len});
    cols_total += len;
  }
  if (dec.remaining() != cols_total) {
    return Status::Corruption("segment: column sections do not fill the body");
  }

  const unsigned char* cursor =
      reinterpret_cast<const unsigned char*>(body.data()) +
      (body.size() - dec.remaining());
  cols_.resize(ncols);
  delta_cols_.assign(ncols, {});
  const size_t bitmap_bytes = (n + 7) / 8;
  for (size_t c = 0; c < ncols; ++c) {
    const ColMeta& meta = metas[c];
    if (meta.enc != EncodingFor(schema_->field(c).type)) {
      return Status::Corruption(
          "segment: column encoding does not match schema type");
    }
    const unsigned char* buf = cursor;
    cursor += meta.len;
    Column& col = cols_[c];
    col.enc = meta.enc;
    if (meta.len < 1) {
      return Status::Corruption("segment: column section truncated");
    }
    const bool has_nulls = buf[0] != 0;
    size_t pos = 1;
    if (has_nulls) {
      if (meta.len < pos + bitmap_bytes) {
        return Status::Corruption("segment: null bitmap truncated");
      }
      col.nulls = buf + pos;
      pos += bitmap_bytes;
    }
    col.data = buf + pos;
    col.data_len = meta.len - pos;
    const auto data_end = col.data + col.data_len;
    switch (col.enc) {
      case ColumnEncoding::kNullOnly:
        if (col.data_len != 0) {
          return Status::Corruption("segment: NULL column carries data");
        }
        if (!has_nulls) {
          return Status::Corruption("segment: NULL column without null bits");
        }
        for (size_t r = 0; r < n; ++r) {
          if (!NullBit(col, r)) {
            return Status::Corruption(
                "segment: NULL column has a non-null row");
          }
        }
        break;
      case ColumnEncoding::kRaw64:
        if (col.data_len != 8 * n) {
          return Status::Corruption("segment: raw64 column has wrong size");
        }
        break;
      case ColumnEncoding::kBool:
        if (col.data_len != n) {
          return Status::Corruption("segment: bool column has wrong size");
        }
        for (size_t r = 0; r < n; ++r) {
          if (col.data[r] > 1) {
            return Status::Corruption("segment: bool column byte not 0/1");
          }
        }
        break;
      case ColumnEncoding::kDeltaTimestamp: {
        std::vector<Timestamp>& decoded = delta_cols_[c];
        decoded.reserve(n);
        const unsigned char* p = col.data;
        Timestamp prev = 0;
        for (size_t r = 0; r < n; ++r) {
          uint64_t u;
          if (!ReadVarint(&p, data_end, &u)) {
            return Status::Corruption("segment: timestamp stream truncated");
          }
          prev += ZigzagDecode(u);
          decoded.push_back(prev);
        }
        if (p != data_end) {
          return Status::Corruption(
              "segment: timestamp stream has trailing bytes");
        }
        break;
      }
      case ColumnEncoding::kDictionary: {
        if (col.data_len < 4) {
          return Status::Corruption("segment: dictionary header truncated");
        }
        col.dict_count = LoadU32(col.data);
        const uint64_t fixed =
            4 + 4 * static_cast<uint64_t>(n) +
            4 * (static_cast<uint64_t>(col.dict_count) + 1);
        if (col.data_len < fixed) {
          return Status::Corruption("segment: dictionary sections truncated");
        }
        col.codes = col.data + 4;
        col.dict_offsets = col.codes + 4 * n;
        col.dict_blob = col.dict_offsets + 4 * (col.dict_count + 1);
        const uint64_t blob_len = col.data_len - fixed;
        if (LoadU32(col.dict_offsets) != 0) {
          return Status::Corruption(
              "segment: dictionary offsets do not start at 0");
        }
        for (uint32_t d = 0; d < col.dict_count; ++d) {
          if (LoadU32(col.dict_offsets + 4 * d) >
              LoadU32(col.dict_offsets + 4 * (d + 1))) {
            return Status::Corruption(
                "segment: dictionary offsets not monotonic");
          }
        }
        if (LoadU32(col.dict_offsets + 4 * col.dict_count) != blob_len) {
          return Status::Corruption(
              "segment: dictionary blob length mismatch");
        }
        for (size_t r = 0; r < n; ++r) {
          if (NullBit(col, r)) continue;
          if (LoadU32(col.codes + 4 * r) >= col.dict_count) {
            return Status::Corruption(
                "segment: dictionary code out of range");
          }
        }
        break;
      }
      case ColumnEncoding::kFloatList: {
        const uint64_t fences_len = 8 * (static_cast<uint64_t>(n) + 1);
        if (col.data_len < fences_len) {
          return Status::Corruption("segment: float fences truncated");
        }
        col.fences = col.data;
        col.floats = col.data + fences_len;
        const uint64_t floats_len = col.data_len - fences_len;
        if (floats_len % 4 != 0) {
          return Status::Corruption("segment: float blob misaligned");
        }
        if (LoadU64(col.fences) != 0) {
          return Status::Corruption("segment: float fences not zero-based");
        }
        for (size_t r = 0; r < n; ++r) {
          if (LoadU64(col.fences + 8 * r) > LoadU64(col.fences + 8 * r + 8)) {
            return Status::Corruption("segment: float fences not monotonic");
          }
        }
        if (LoadU64(col.fences + 8 * n) != floats_len / 4) {
          return Status::Corruption("segment: float blob length mismatch");
        }
        break;
      }
    }
  }

  // The time column must be delta-encoded (verified above via EncodingFor),
  // have no NULL cell (Encode refuses one), and its decoded stream must
  // agree with the header's min/max.
  if (AnyNull(time_idx_)) {
    return Status::Corruption("segment: time column has a NULL");
  }
  const std::vector<Timestamp>& ts = delta_cols_[time_idx_];
  Timestamp lo = kMaxTimestamp;
  Timestamp hi = kMinTimestamp;
  for (Timestamp t : ts) {
    lo = std::min(lo, t);
    hi = std::max(hi, t);
  }
  if (lo != min_ts_ || hi != max_ts_) {
    return Status::Corruption("segment: min/max event time mismatch");
  }
  return Status::OK();
}

StatusOr<std::shared_ptr<const Segment>> Segment::FromBlockFile(
    BlockFilePtr file) {
  std::shared_ptr<Segment> seg(new Segment());
  seg->file_ = std::move(file);
  seg->data_ = seg->file_->data();
  MLFS_RETURN_IF_ERROR(seg->Parse());
  return std::shared_ptr<const Segment>(std::move(seg));
}

StatusOr<std::shared_ptr<const Segment>> Segment::FromBytes(
    std::string bytes) {
  MLFS_ASSIGN_OR_RETURN(BlockFilePtr file,
                        BlockFile::FromBytes(kSegmentMagic, kSegmentVersion,
                                             std::move(bytes), "segment"));
  return FromBlockFile(std::move(file));
}

StatusOr<std::shared_ptr<const Segment>> Segment::FromFile(
    std::string path, bool remove_file_on_destroy) {
  MLFS_FAILPOINT("segment.open");
  MLFS_ASSIGN_OR_RETURN(
      BlockFilePtr file,
      BlockFile::Map(kSegmentMagic, kSegmentVersion, std::move(path),
                     remove_file_on_destroy, "segment"));
  return FromBlockFile(std::move(file));
}

StatusOr<std::shared_ptr<const Segment>> Segment::SpillToFile(
    const Segment& seg, std::string path, bool remove_file_on_destroy) {
  // Same fault surface as FromFile: a spill ends in a (re)open, and the
  // fault suite arms "segment.open" to fail that reopen.
  MLFS_FAILPOINT("segment.open");
  MLFS_ASSIGN_OR_RETURN(
      BlockFilePtr file,
      BlockFile::Spill(kSegmentMagic, kSegmentVersion, seg.encoded(),
                       std::move(path), remove_file_on_destroy, "segment"));
  return FromBlockFile(std::move(file));
}

size_t Segment::resident_bytes() const {
  size_t total = spilled() ? 0 : data_.size();
  for (const std::vector<Timestamp>& d : delta_cols_) {
    total += d.size() * sizeof(Timestamp);
  }
  return total;
}

bool Segment::is_null(size_t col, size_t row) const {
  MLFS_DCHECK(col < cols_.size() && row < num_rows_);
  return NullBit(cols_[col], row);
}

Value Segment::value(size_t col, size_t row) const {
  MLFS_DCHECK(col < cols_.size() && row < num_rows_);
  const Column& c = cols_[col];
  if (NullBit(c, row)) return Value::Null();
  switch (c.enc) {
    case ColumnEncoding::kNullOnly:
      return Value::Null();
    case ColumnEncoding::kRaw64: {
      const uint64_t bits = LoadU64(c.data + 8 * row);
      if (schema_->field(col).type == FeatureType::kInt64) {
        return Value::Int64(static_cast<int64_t>(bits));
      }
      double d;
      std::memcpy(&d, &bits, 8);
      return Value::Double(d);
    }
    case ColumnEncoding::kBool:
      return Value::Bool(c.data[row] != 0);
    case ColumnEncoding::kDeltaTimestamp:
      return Value::Time(delta_cols_[col][row]);
    case ColumnEncoding::kDictionary: {
      const uint32_t code = LoadU32(c.codes + 4 * row);
      const uint32_t beg = LoadU32(c.dict_offsets + 4 * code);
      const uint32_t end = LoadU32(c.dict_offsets + 4 * (code + 1));
      return Value::String(
          std::string(reinterpret_cast<const char*>(c.dict_blob) + beg,
                      end - beg));
    }
    case ColumnEncoding::kFloatList: {
      const uint64_t beg = LoadU64(c.fences + 8 * row);
      const uint64_t end = LoadU64(c.fences + 8 * row + 8);
      std::vector<float> floats(end - beg);
      // An empty embedding's data() may be null, which memcpy forbids.
      if (end > beg) {
        std::memcpy(floats.data(), c.floats + 4 * beg, 4 * (end - beg));
      }
      return Value::Embedding(std::move(floats));
    }
  }
  return Value::Null();
}

void Segment::AppendProjected(size_t row, std::span<const int> cols,
                              std::vector<Value>* out) const {
  for (int c : cols) out->push_back(value(static_cast<size_t>(c), row));
}

void Segment::LoadColumn(size_t col, std::span<const uint32_t> rows,
                         ColumnVector* out) const {
  MLFS_DCHECK(col < cols_.size());
  const Column& c = cols_[col];
  const FeatureType type = schema_->field(col).type;
  const size_t n = rows.size();
  out->Reset(type, n);
  switch (c.enc) {
    case ColumnEncoding::kNullOnly:
      break;  // Reset(kNull) already marked every cell NULL.
    case ColumnEncoding::kRaw64: {
      if (type == FeatureType::kInt64) {
        int64_t* o = out->i64();
        for (size_t i = 0; i < n; ++i) {
          o[i] = static_cast<int64_t>(LoadU64(c.data + 8 * rows[i]));
        }
      } else {
        double* o = out->f64();
        for (size_t i = 0; i < n; ++i) {
          const uint64_t bits = LoadU64(c.data + 8 * rows[i]);
          std::memcpy(&o[i], &bits, 8);
        }
      }
      break;
    }
    case ColumnEncoding::kBool: {
      uint8_t* o = out->b8();
      for (size_t i = 0; i < n; ++i) o[i] = c.data[rows[i]] != 0;
      break;
    }
    case ColumnEncoding::kDeltaTimestamp: {
      const std::vector<Timestamp>& ts = delta_cols_[col];
      int64_t* o = out->i64();
      for (size_t i = 0; i < n; ++i) o[i] = ts[rows[i]];
      break;
    }
    case ColumnEncoding::kDictionary: {
      // Hand the VM a dictionary *view* — 4 bytes of code per row plus
      // borrowed dictionary buffers (the segment outlives the scan) —
      // instead of copying every string. String predicates then evaluate
      // once per distinct code; per-cell reads go through StringAt
      // transparently.
      out->ResetDictionary(n, c.dict_count, c.dict_offsets, c.dict_blob);
      uint32_t* codes = out->codes();
      for (size_t i = 0; i < n; ++i) codes[i] = LoadU32(c.codes + 4 * rows[i]);
      break;  // Null bits from the shared bitmap loop below.
    }
    case ColumnEncoding::kFloatList: {
      for (size_t i = 0; i < n; ++i) {
        if (NullBit(c, rows[i])) {
          out->AppendNullCell();
          continue;
        }
        const uint64_t beg = LoadU64(c.fences + 8 * rows[i]);
        const uint64_t end = LoadU64(c.fences + 8 * rows[i] + 8);
        out->AppendEmbeddingBytes(c.floats + 4 * beg, end - beg);
      }
      return;
    }
  }
  if (c.nulls != nullptr) {
    for (size_t i = 0; i < n; ++i) {
      if (NullBit(c, rows[i])) out->SetNull(i);
    }
  }
}

}  // namespace mlfs
