#include "embedding/tier.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>

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

/// The calling thread's pin set, shared by every tier: each read clears
/// it and parks there what the pointers it hands out point into (the hot
/// prefix it read, the rows it decoded).
std::vector<std::shared_ptr<const void>>& ThreadPins() {
  thread_local std::vector<std::shared_ptr<const void>> pins;
  return pins;
}

/// Whole blocks of `block_rows` x `dim` floats that fit in `budget` bytes,
/// at most `blocks`.
size_t HotLimit(size_t budget, size_t dim, size_t block_rows, size_t blocks) {
  return std::min(budget / (dim * sizeof(float)) / block_rows, blocks);
}

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
  // The hot prefix holds the *exact* source floats of the leading blocks
  // that fit the budget (not a dequantized round trip), so a hot row
  // serves byte-identical data.
  const size_t h = HotLimit(options.memory_budget_bytes, dim,
                            tier->block_rows_, tier->blocks_count_);
  if (h > 0) {
    const size_t rows = std::min(h * tier->block_rows_, n);
    tier->hot_ = std::make_shared<const std::vector<float>>(
        data, data + rows * dim);
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
  if (options.block_rows == 0) {
    return Status::InvalidArgument("embedding tier: block_rows must be > 0");
  }
  // The hot set is a prefix: blocks 0..h-1 in order, h within the budget.
  // Checked before the spill, so no restore path adopts another shape.
  const size_t block_rows = options.block_rows;
  const size_t blocks =
      packed.n / block_rows + (packed.n % block_rows != 0);
  if (hot_blocks.size() > HotLimit(options.memory_budget_bytes, packed.dim,
                                   block_rows, blocks)) {
    return Status::Corruption("embedding tier snapshot: hot blocks exceed "
                              "the budget");
  }
  std::vector<float> prefix;
  for (size_t b = 0; b < hot_blocks.size(); ++b) {
    const std::vector<float>& rows = hot_blocks[b].second;
    if (hot_blocks[b].first != b ||
        rows.size() !=
            std::min(block_rows, packed.n - b * block_rows) * packed.dim) {
      return Status::Corruption("embedding tier snapshot: hot blocks are "
                                "not a prefix");
    }
    prefix.insert(prefix.end(), rows.begin(), rows.end());
  }
  options.bits = packed.bits;
  std::unique_ptr<EmbeddingTier> tier(new EmbeddingTier());
  MLFS_RETURN_IF_ERROR(tier->WriteAndMap(packed, options));
  if (!prefix.empty()) {
    tier->hot_ = std::make_shared<const std::vector<float>>(std::move(prefix));
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
                              std::move(path), /*remove_file_on_destroy=*/true,
                              "tier file"));
  return ParseBody();
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
  blocks_count_ = n_ / block_rows_ + (n_ % block_rows_ != 0);
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

EmbeddingTier::HotPrefix EmbeddingTier::Hot() const {
  std::lock_guard<std::mutex> lock(hot_mu_);
  return hot_;
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
  auto& pins = ThreadPins();
  pins.clear();
  HotPrefix hot = Hot();
  const size_t hot_rows = HotRows(hot);
  auto in_range = [&](int64_t r) {
    return r >= 0 && static_cast<size_t>(r) < n_;
  };
  size_t hits = 0, cold = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!in_range(rows[i])) continue;
    const size_t row = static_cast<size_t>(rows[i]);
    if (row < hot_rows) {
      (*out)[i] = hot->data() + row * dim_;
      ++hits;
    } else {
      ++cold;
    }
  }
  hot_hits_.fetch_add(hits, std::memory_order_relaxed);
  cold_misses_.fetch_add(cold, std::memory_order_relaxed);
  if (hits > 0) pins.push_back(std::move(hot));
  if (cold == 0) return Status::OK();

  // Cold rows decode from the mapped codes into one per-call buffer that
  // the pin set owns; their blocks never join the hot prefix. A load
  // fault leaves every cold slot null.
  MLFS_RETURN_IF_ERROR(CheckLoadFault());
  std::shared_ptr<float[]> decoded =
      std::make_shared_for_overwrite<float[]>(cold * dim_);
  const PackedCodesView view = MapView();
  float* dst = decoded.get();
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!in_range(rows[i]) || static_cast<size_t>(rows[i]) < hot_rows) {
      continue;
    }
    DequantizeRange(view, static_cast<size_t>(rows[i]), 1, dst);
    (*out)[i] = dst;
    dst += dim_;
  }
  pins.push_back(std::move(decoded));
  return Status::OK();
}

void EmbeddingTier::CopyRow(size_t row, float* out) const {
  MLFS_DCHECK(row < n_);
  const HotPrefix hot = Hot();
  if (row < HotRows(hot)) {
    std::memcpy(out, hot->data() + row * dim_, dim_ * sizeof(float));
  } else {
    DequantizeRange(MapView(), row, 1, out);
  }
}

Status EmbeddingTier::ScanBlocks(
    const std::function<void(size_t row0, size_t nrows, const float* rows)>&
        fn) const {
  MLFS_RETURN_IF_ERROR(CheckLoadFault());
  scans_.fetch_add(1, std::memory_order_relaxed);
  const HotPrefix hot = Hot();
  const size_t hot_blocks = HotBlocks(hot);
  const PackedCodesView view = MapView();
  std::vector<float> scratch;
  for (size_t b = 0; b < blocks_count_; ++b) {
    const size_t row0 = BlockRow0(b);
    const size_t nrows = BlockRows(b);
    if (b < hot_blocks) {
      fn(row0, nrows, hot->data() + row0 * dim_);
      continue;
    }
    scan_cold_blocks_.fetch_add(1, std::memory_order_relaxed);
    scratch.resize(nrows * dim_);
    DequantizeRange(view, row0, nrows, scratch.data());
    fn(row0, nrows, scratch.data());
  }
  return Status::OK();
}

void EmbeddingTier::DemoteAll() const {
  HotPrefix dropped;
  {
    std::lock_guard<std::mutex> lock(hot_mu_);
    dropped.swap(hot_);
  }
  // Freed here unless a reader's pin set still holds it.
  demotions_.fetch_add(HotBlocks(dropped), std::memory_order_relaxed);
}

EmbeddingTierStats EmbeddingTier::stats() const {
  const HotPrefix hot = Hot();
  EmbeddingTierStats s;
  s.hot_hits = hot_hits_.load(std::memory_order_relaxed);
  s.cold_misses = cold_misses_.load(std::memory_order_relaxed);
  s.demotions = demotions_.load(std::memory_order_relaxed);
  s.scans = scans_.load(std::memory_order_relaxed);
  s.scan_cold_blocks = scan_cold_blocks_.load(std::memory_order_relaxed);
  s.load_faults = load_faults_.load(std::memory_order_relaxed);
  s.hot_blocks = HotBlocks(hot);
  s.total_blocks = blocks_count_;
  s.resident_bytes = HotRows(hot) * dim_ * sizeof(float);
  s.packed_bytes = file_->size();
  return s;
}

std::vector<std::pair<uint32_t, std::vector<float>>>
EmbeddingTier::HotBlocksSnapshot() const {
  const HotPrefix hot = Hot();
  std::vector<std::pair<uint32_t, std::vector<float>>> out;
  for (size_t b = 0; b < HotBlocks(hot); ++b) {
    const float* rows = hot->data() + BlockRow0(b) * dim_;
    out.emplace_back(static_cast<uint32_t>(b),
                     std::vector<float>(rows, rows + BlockRows(b) * dim_));
  }
  return out;
}

}  // namespace mlfs
