#include "embedding/tier.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <unordered_set>

#include "common/failpoint.h"

namespace mlfs {
namespace {

constexpr uint32_t kTierMagic = 0x4d4c4554;  // "MLET"
constexpr uint32_t kTierVersion = 2;  // v2: Checksum64 trailer.
constexpr size_t kTierBodyFixedBytes = 28;  // bits + n + dim + block_rows.

inline void AppendU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}
inline void AppendU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}
inline void AppendFloat(std::string* out, float v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}
inline uint32_t LoadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
inline uint64_t LoadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}
inline float LoadFloat(const uint8_t* p) {
  float v;
  std::memcpy(&v, p, 4);
  return v;
}

std::atomic<uint64_t> g_tier_file_counter{0};

}  // namespace

StatusOr<std::unique_ptr<EmbeddingTier>> EmbeddingTier::Build(
    const float* data, size_t n, size_t dim, EmbeddingTierOptions options) {
  if (data == nullptr || n == 0 || dim == 0) {
    return Status::InvalidArgument("cannot build a tier over an empty matrix");
  }
  MLFS_ASSIGN_OR_RETURN(PackedCodes packed,
                        PackUniform(data, n, dim, options.bits));
  std::unique_ptr<EmbeddingTier> tier(new EmbeddingTier());
  MLFS_RETURN_IF_ERROR(tier->WriteAndMap(packed, options));
  // Seed the hot arena with the leading blocks that fit the budget,
  // holding the *exact* source floats (not a dequantized round trip): a
  // row that is never demoted serves byte-identical data. Seeding is
  // placement, not promotion, so it leaves the promotion counter alone.
  const size_t seed =
      std::min(tier->cache_->capacity(), tier->blocks_count_);
  for (size_t b = 0; b < seed; ++b) {
    const size_t row0 = tier->BlockRow0(b);
    const size_t nrows = tier->BlockRows(b);
    tier->cache_->Insert(b,
                         std::make_shared<const std::vector<float>>(
                             data + row0 * dim, data + (row0 + nrows) * dim),
                         tier->BlockBytes(b), tier->cache_->BeginBatch(),
                         /*count_promotion=*/false);
  }
  return tier;
}

StatusOr<std::unique_ptr<EmbeddingTier>> EmbeddingTier::Restore(
    PackedCodes packed,
    std::vector<std::pair<uint32_t, std::vector<float>>> hot_blocks,
    EmbeddingTierOptions options) {
  if (packed.bits < 1 || packed.bits > 16 || packed.n == 0 ||
      packed.dim == 0 ||
      packed.row_bytes !=
          (packed.dim * static_cast<size_t>(packed.bits) + 7) / 8 ||
      packed.lo.size() != packed.dim || packed.hi.size() != packed.dim ||
      packed.codes.size() != packed.n * packed.row_bytes) {
    return Status::Corruption("embedding tier snapshot: bad packed shape");
  }
  options.bits = packed.bits;
  std::unique_ptr<EmbeddingTier> tier(new EmbeddingTier());
  MLFS_RETURN_IF_ERROR(tier->WriteAndMap(packed, options));
  // Seed in snapshot order: later blocks carry newer stamps, so a restore
  // under a smaller budget keeps the same blocks a full seed + demotion
  // pass would.
  std::unordered_set<uint32_t> seen;
  for (auto& [b, rows] : hot_blocks) {
    if (b >= tier->blocks_count_ ||
        rows.size() != tier->BlockRows(b) * tier->dim_ ||
        !seen.insert(b).second) {
      return Status::Corruption("embedding tier snapshot: bad hot block");
    }
    tier->cache_->Insert(
        b, std::make_shared<const std::vector<float>>(std::move(rows)),
        tier->BlockBytes(b), tier->cache_->BeginBatch(),
        /*count_promotion=*/false);
  }
  return tier;
}

EmbeddingTier::~EmbeddingTier() = default;

Status EmbeddingTier::WriteAndMap(const PackedCodes& packed,
                                  const EmbeddingTierOptions& options) {
  MLFS_FAILPOINT("embedding.tier.spill");
  if (options.dir.empty()) {
    return Status::InvalidArgument("embedding tier: dir is required");
  }
  if (options.block_rows == 0) {
    return Status::InvalidArgument("embedding tier: block_rows must be > 0");
  }

  std::string body;
  body.reserve(kTierBodyFixedBytes + 8 * packed.dim + packed.codes.size());
  AppendU32(&body, static_cast<uint32_t>(packed.bits));
  AppendU64(&body, packed.n);
  AppendU64(&body, packed.dim);
  AppendU64(&body, options.block_rows);
  for (float v : packed.lo) AppendFloat(&body, v);
  for (float v : packed.hi) AppendFloat(&body, v);
  body.append(reinterpret_cast<const char*>(packed.codes.data()),
              packed.codes.size());

  std::error_code ec;
  std::filesystem::create_directories(options.dir, ec);
  const uint64_t id =
      g_tier_file_counter.fetch_add(1, std::memory_order_relaxed);
  std::string path = options.dir + "/" + options.file_stem + "_" +
                     std::to_string(id) + ".emt";
  MLFS_ASSIGN_OR_RETURN(
      file_, BlockFile::Spill(kTierMagic, kTierVersion,
                              BlockFile::Seal(kTierMagic, kTierVersion, body),
                              std::move(path), options.remove_file_on_destroy,
                              "tier file"));
  MLFS_RETURN_IF_ERROR(ParseBody());

  const size_t block_bytes = block_rows_ * dim_ * sizeof(float);
  const size_t hot_limit =
      std::min(block_bytes == 0 ? size_t{0}
                                : options.memory_budget_bytes / block_bytes,
               blocks_count_);
  cache_ = std::make_unique<BlockCache>(blocks_count_, hot_limit);
  readahead_ = std::make_unique<ReadaheadScheduler>(options.readahead);
  return Status::OK();
}

Status EmbeddingTier::ParseBody() {
  // Envelope (magic, version, length, checksum) validated by BlockFile;
  // this parses the tier-specific body shape.
  const std::string_view body_view = file_->body();
  const uint8_t* body = reinterpret_cast<const uint8_t*>(body_view.data());
  if (body_view.size() < kTierBodyFixedBytes) {
    return Status::Corruption("tier file truncated");
  }
  const uint32_t bits = LoadU32(body);
  const uint64_t n = LoadU64(body + 4);
  const uint64_t dim = LoadU64(body + 12);
  const uint64_t block_rows = LoadU64(body + 20);
  if (bits < 1 || bits > 16 || n == 0 || dim == 0 || dim > (1u << 24) ||
      block_rows == 0) {
    return Status::Corruption("tier file bad shape");
  }
  bits_ = static_cast<int>(bits);
  n_ = n;
  dim_ = dim;
  block_rows_ = block_rows;
  row_bytes_ = (dim_ * static_cast<size_t>(bits_) + 7) / 8;
  blocks_count_ = (n_ + block_rows_ - 1) / block_rows_;
  if (body_view.size() < kTierBodyFixedBytes + 8 * dim_) {
    return Status::Corruption("tier file range table truncated");
  }
  const size_t codes_len = body_view.size() - kTierBodyFixedBytes - 8 * dim_;
  if (codes_len / row_bytes_ != n_ || codes_len % row_bytes_ != 0) {
    return Status::Corruption("tier file code section length mismatch");
  }
  lo_f_.resize(dim_);
  hi_f_.resize(dim_);
  const uint8_t* ranges = body + kTierBodyFixedBytes;
  for (size_t j = 0; j < dim_; ++j) {
    lo_f_[j] = LoadFloat(ranges + 4 * j);
    hi_f_[j] = LoadFloat(ranges + 4 * (dim_ + j));
    if (!std::isfinite(lo_f_[j]) || !std::isfinite(hi_f_[j]) ||
        lo_f_[j] > hi_f_[j]) {
      return Status::Corruption("tier file non-finite or inverted range");
    }
  }
  codes_ = ranges + 8 * dim_;
  tables_ = MakeDecodeTables(bits_, lo_f_, hi_f_);
  return Status::OK();
}

PackedCodesView EmbeddingTier::MapView() const {
  PackedCodesView view;
  view.bits = bits_;
  view.n = n_;
  view.dim = dim_;
  view.row_bytes = row_bytes_;
  view.lo = tables_.lo.data();
  view.step = tables_.step.data();
  view.codes = codes_;
  return view;
}

BlockCache::Payload EmbeddingTier::LoadBlockPayload(size_t b) const {
  auto rows = std::make_shared<std::vector<float>>(BlockRows(b) * dim_);
  DequantizeRange(MapView(), BlockRow0(b), BlockRows(b), rows->data());
  return rows;
}

Status EmbeddingTier::CheckLoadFault() const {
  if (!FailpointRegistry::Instance().AnyArmed()) return Status::OK();
  Status s = FailpointRegistry::Instance().Evaluate("embedding.tier.load");
  if (!s.ok()) load_faults_.fetch_add(1, std::memory_order_relaxed);
  return s;
}

StatusOr<const float*> EmbeddingTier::GetRow(size_t row) const {
  if (row >= n_) {
    return Status::OutOfRange("embedding tier row out of range");
  }
  const int64_t r = static_cast<int64_t>(row);
  std::vector<const float*> out;
  MLFS_RETURN_IF_ERROR(MultiGetRows({&r, 1}, &out));
  return out[0];
}

Status EmbeddingTier::MultiGetRows(std::span<const int64_t> rows,
                                   std::vector<const float*>* out) const {
  out->assign(rows.size(), nullptr);
  auto& pins = BlockCache::ThreadPins();
  pins.clear();
  // (row, slot) pairs in row order, so each block's rows are adjacent:
  // one Touch refreshes a hot block's stamp and one pin serves them all.
  std::vector<std::pair<size_t, size_t>> order;
  order.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i] >= 0 && static_cast<size_t>(rows[i]) < n_) {
      order.emplace_back(static_cast<size_t>(rows[i]), i);
    }
  }
  std::sort(order.begin(), order.end());
  const uint64_t stamp = cache_->BeginBatch();
  size_t cold = 0;  // Cold pairs compact to the front of `order`.
  for (size_t k = 0; k < order.size();) {
    const size_t b = order[k].first / block_rows_;
    BlockCache::Payload hot = cache_->Touch(b, stamp);
    for (; k < order.size() && order[k].first / block_rows_ == b; ++k) {
      if (hot == nullptr) {
        order[cold++] = order[k];
      } else {
        (*out)[order[k].second] =
            BlockFloats(hot) + (order[k].first - BlockRow0(b)) * dim_;
      }
    }
    if (hot != nullptr) pins.push_back(std::move(hot));
  }
  cache_->CountAccess(order.size() - cold, cold);
  if (cold == 0) return Status::OK();

  // Cold rows decode from the mapped codes into one per-call buffer that
  // the pin set owns. Their blocks are never promoted: only SetHotLimit
  // changes the hot set. A load fault leaves every cold slot null.
  MLFS_RETURN_IF_ERROR(CheckLoadFault());
  std::shared_ptr<float[]> decoded =
      std::make_shared_for_overwrite<float[]>(cold * dim_);
  const PackedCodesView view = MapView();
  for (size_t c = 0; c < cold; ++c) {
    float* dst = decoded.get() + c * dim_;
    DequantizeRange(view, order[c].first, 1, dst);
    (*out)[order[c].second] = dst;
  }
  pins.push_back(std::move(decoded));
  return Status::OK();
}

void EmbeddingTier::CopyRow(size_t row, float* out) const {
  MLFS_DCHECK(row < n_);
  const size_t b = row / block_rows_;
  BlockCache::Payload local = cache_->Peek(b);
  if (local != nullptr) {
    std::memcpy(out, BlockFloats(local) + (row - BlockRow0(b)) * dim_,
                dim_ * sizeof(float));
  } else {
    DequantizeRange(MapView(), row, 1, out);
  }
}

Status EmbeddingTier::ScanBlocks(
    const std::function<void(size_t row0, size_t nrows, const float* rows)>&
        fn) const {
  MLFS_RETURN_IF_ERROR(CheckLoadFault());
  scans_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t stamp = cache_->BeginBatch();
  // Sequential-scan readahead: while fn chews on block b, the scheduler
  // dequantizes the next cold block. Peek keeps the probe from
  // perturbing LRU order.
  const bool ra = readahead_->enabled();
  auto prefetch_next = [&](size_t next) {
    if (!ra || next >= blocks_count_ || cache_->Peek(next) != nullptr) return;
    readahead_->Prefetch(next,
                         [this, next] { return LoadBlockPayload(next); });
  };
  prefetch_next(0);
  std::vector<float> scratch;
  for (size_t b = 0; b < blocks_count_; ++b) {
    const size_t row0 = BlockRow0(b);
    const size_t nrows = BlockRows(b);
    // Refresh so a scan keeps the hot set warm, but never promote: a
    // full ANN pass must not flush the point-lookup working set.
    BlockCache::Payload local = cache_->Touch(b, stamp);
    prefetch_next(b + 1);
    if (local != nullptr) {
      fn(row0, nrows, BlockFloats(local));
      continue;
    }
    scan_cold_blocks_.fetch_add(1, std::memory_order_relaxed);
    BlockCache::Payload fetched = ra ? readahead_->Consume(b) : nullptr;
    if (fetched != nullptr) {
      fn(row0, nrows, BlockFloats(fetched));
    } else {
      scratch.resize(nrows * dim_);
      DequantizeRange(MapView(), row0, nrows, scratch.data());
      fn(row0, nrows, scratch.data());
    }
  }
  return Status::OK();
}

void EmbeddingTier::SetHotLimit(size_t blocks) const {
  cache_->SetCapacity(blocks);
}

EmbeddingTierStats EmbeddingTier::stats() const {
  const BlockCacheStats cs = cache_->stats();
  EmbeddingTierStats s;
  s.hot_hits = cs.hits;
  s.cold_misses = cs.misses;
  s.promotions = cs.promotions;
  s.demotions = cs.evictions;
  s.scans = scans_.load(std::memory_order_relaxed);
  s.scan_cold_blocks = scan_cold_blocks_.load(std::memory_order_relaxed);
  s.load_faults = load_faults_.load(std::memory_order_relaxed);
  s.hot_blocks = cs.resident_blocks;
  s.total_blocks = cs.num_blocks;
  s.hot_limit_blocks = cs.capacity_blocks;
  s.resident_bytes = cs.resident_bytes;
  s.packed_bytes = file_->size();
  s.readahead = readahead_->stats();
  return s;
}

std::vector<std::pair<uint32_t, std::vector<float>>>
EmbeddingTier::HotBlocksSnapshot() const {
  std::vector<std::pair<uint32_t, std::vector<float>>> hot;
  for (auto& [b, payload] : cache_->ResidentSnapshot()) {
    hot.emplace_back(b,
                     *static_cast<const std::vector<float>*>(payload.get()));
  }
  return hot;
}

}  // namespace mlfs
