#ifndef MLFS_EMBEDDING_TIER_H_
#define MLFS_EMBEDDING_TIER_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "embedding/compress.h"
#include "io/block_file.h"

namespace mlfs {

/// Configuration of one table's cold tier.
struct EmbeddingTierOptions {
  /// Budget for the hot prefix (the only float32 RAM the tier holds; the
  /// packed file is memory-mapped and the key index stays resident either
  /// way). The leading blocks that fit are hot; 0 means none: every read
  /// dequantizes.
  size_t memory_budget_bytes = 0;
  /// Bits per dimension in the packed cold tier (1..16).
  int bits = 8;
  /// Rows per block — the unit of the hot prefix and of scan
  /// dequantization; point reads decode single rows.
  size_t block_rows = 256;
  /// Directory the packed tier file is written into (required). Tier
  /// files are scratch: deleted when the tier is destroyed. Snapshots
  /// embed the packed codes, not the file path.
  std::string dir;
  /// Stem of the tier file name (a unique suffix is always appended).
  std::string file_stem = "tier";
};

/// Monotonic tier counters plus a point-in-time occupancy snapshot.
struct EmbeddingTierStats {
  uint64_t hot_hits = 0;      // Rows served from the hot prefix.
  uint64_t cold_misses = 0;   // Rows decoded from the packed codes.
  /// Always 0: reads never promote a block. Kept because the benchmark's
  /// traced report reads it (io.tier.promotions).
  uint64_t promotions = 0;
  uint64_t demotions = 0;     // Hot blocks dropped by DemoteAll.
  uint64_t scans = 0;         // ScanBlocks passes (ANN scans).
  uint64_t scan_cold_blocks = 0;  // Blocks dequantized into scan scratch.
  uint64_t load_faults = 0;   // Injected embedding.tier.load failures.
  size_t hot_blocks = 0;
  size_t total_blocks = 0;
  size_t resident_bytes = 0;  // Hot prefix bytes right now.
  size_t packed_bytes = 0;    // Size of the mmap'd tier file.
  /// Always zero: the tier has no readahead. Kept because the benchmark
  /// adds it into its io.readahead.* counters.
  ReadaheadStats readahead;
};

/// The out-of-core half of a tiered EmbeddingTable (MLKV-style): every row
/// lives scalar-quantized in a checksummed, memory-mapped file, and a
/// *hot prefix* — blocks [0, h) — additionally holds exact float32 rows
/// in RAM. A read serves a hot row from the prefix and decodes a cold row
/// alone from the mapped codes; reads never change the hot set. Build and
/// Restore fix the prefix, and the only change after that is DemoteAll,
/// which drops all of it. So a row that was ever served exact stays exact
/// until DemoteAll, and after DemoteAll every row serves codec values.
///
/// The packed file is a BlockFile ("MLET" magic in the common envelope,
/// spilled with the WriteFileAtomic + mmap-reopen discipline and fully
/// validated at open); this file owns the quantization codec, the
/// row-addressing geometry and the hot prefix.
///
///   body: u32 bits, u64 n, u64 dim, u64 block_rows,
///         float lo[dim], float hi[dim], codes[n * row_bytes]
///
/// Pointer lifetime: pointers handed out by GetRow/MultiGetRows stay
/// valid until the *calling thread's* next GetRow/MultiGetRows on any
/// tier. Each read parks the prefix it served from and the rows it
/// decoded in a thread-local pin set, cleared at the start of the
/// thread's next read, so a DemoteAll on another thread never frees
/// storage a reader still dereferences. Copy before issuing another read.
///
/// Failpoints: "embedding.tier.spill" fires before the tier file is
/// written (Build/Restore fail cleanly); "embedding.tier.load" fires when
/// a read needs a cold row or a scan runs (GetRow/ScanBlocks propagate
/// the injected status; MultiGetRows nulls the cold rows and returns it);
/// "io.load" (in BlockFile::Map) fires underneath.
///
/// Thread-safe: a read takes the prefix mutex once to copy the prefix
/// pointer, and decodes outside it.
class EmbeddingTier {
 public:
  /// Packs `data` (n x dim row-major float32), writes + maps the tier
  /// file, and makes the leading blocks that fit the budget the hot
  /// prefix, holding *exact* copies of `data` (a hot row serves
  /// byte-identical floats; only cold rows pay quantization error).
  static StatusOr<std::unique_ptr<EmbeddingTier>> Build(
      const float* data, size_t n, size_t dim, EmbeddingTierOptions options);

  /// Rebuilds a tier from snapshot parts: the packed codes and the hot
  /// blocks (block id -> exact float rows) captured by HotBlocksSnapshot.
  /// The hot blocks must be exactly blocks 0..h-1, in order, with h
  /// within the budget; any other shape is Corruption.
  static StatusOr<std::unique_ptr<EmbeddingTier>> Restore(
      PackedCodes packed,
      std::vector<std::pair<uint32_t, std::vector<float>>> hot_blocks,
      EmbeddingTierOptions options);

  ~EmbeddingTier();
  EmbeddingTier(const EmbeddingTier&) = delete;
  EmbeddingTier& operator=(const EmbeddingTier&) = delete;

  /// Row pointer (hot prefix or the row decoded alone); see the pointer
  /// lifetime contract above.
  StatusOr<const float*> GetRow(size_t row) const;

  /// Batched lookup: out[i] points at rows[i]'s vector, or is null when
  /// rows[i] is out of range or a cold row whose load was fault-injected;
  /// the injected fault is returned (OK otherwise). Hits and misses count
  /// per row.
  Status MultiGetRows(std::span<const int64_t> rows,
                      std::vector<const float*>* out) const;

  /// Copies one row into `out` (dim floats) without pinning.
  void CopyRow(size_t row, float* out) const;

  /// Streams every row block-wise in ascending row order:
  /// fn(row0, nrows, rows) where `rows` is nrows x dim floats — the hot
  /// prefix directly, or a per-call scratch for dequantized cold blocks.
  /// The scan reads the prefix it found when it started.
  Status ScanBlocks(
      const std::function<void(size_t row0, size_t nrows, const float* rows)>&
          fn) const;

  size_t n() const { return n_; }
  size_t dim() const { return dim_; }
  int bits() const { return bits_; }
  size_t block_rows() const { return block_rows_; }
  size_t row_bytes() const { return row_bytes_; }
  size_t num_blocks() const { return blocks_count_; }
  /// Length of the hot prefix in blocks.
  size_t hot_blocks() const { return HotBlocks(Hot()); }
  const std::vector<float>& lo() const { return lo_f_; }
  const std::vector<float>& hi() const { return hi_f_; }
  /// The packed code section (n * row_bytes bytes, mmap-backed).
  const uint8_t* codes() const { return codes_; }
  const std::string& path() const { return file_->path(); }

  /// Drops the whole hot prefix: every row serves codec values from now
  /// on. The store uses this to take RAM away from superseded versions
  /// without rewriting tier files.
  void DemoteAll() const;

  EmbeddingTierStats stats() const;

  /// The hot prefix split back into (block id, exact float rows) pairs,
  /// blocks 0..h-1 — the mutable half of a snapshot (the immutable half
  /// is codes()/lo()/hi()).
  std::vector<std::pair<uint32_t, std::vector<float>>> HotBlocksSnapshot()
      const;

 private:
  /// Exact float32 rows of blocks [0, h), row-major; null when h = 0.
  using HotPrefix = std::shared_ptr<const std::vector<float>>;

  EmbeddingTier() = default;

  /// Encodes the packed matrix into the shared envelope and spills it via
  /// BlockFile (atomic write + mmap reopen).
  Status WriteAndMap(const PackedCodes& packed, const EmbeddingTierOptions&
                     options);
  /// Validates the mapped body and wires up codes_/lo/hi/steps.
  Status ParseBody();

  /// Borrowed codec view over the mapped code section.
  PackedCodesView MapView() const;

  size_t BlockRow0(size_t b) const { return b * block_rows_; }
  size_t BlockRows(size_t b) const {
    return std::min(block_rows_, n_ - BlockRow0(b));
  }
  /// The current hot prefix (one mutex acquisition).
  HotPrefix Hot() const;
  size_t HotRows(const HotPrefix& hot) const {
    return hot == nullptr ? 0 : hot->size() / dim_;
  }
  size_t HotBlocks(const HotPrefix& hot) const {
    const size_t rows = HotRows(hot);
    return rows / block_rows_ + (rows % block_rows_ != 0);
  }
  /// Evaluates the "embedding.tier.load" failpoint, counting a fault.
  Status CheckLoadFault() const;

  // Codec geometry (immutable after open).
  int bits_ = 0;
  size_t n_ = 0;
  size_t dim_ = 0;
  size_t block_rows_ = 0;
  size_t row_bytes_ = 0;
  size_t blocks_count_ = 0;
  std::vector<float> lo_f_, hi_f_;
  PackedDecodeTables tables_;
  const uint8_t* codes_ = nullptr;
  BlockFilePtr file_;

  mutable std::mutex hot_mu_;
  mutable HotPrefix hot_;  // Guarded by hot_mu_; replaced, never mutated.

  mutable std::atomic<uint64_t> hot_hits_{0};
  mutable std::atomic<uint64_t> cold_misses_{0};
  mutable std::atomic<uint64_t> demotions_{0};
  mutable std::atomic<uint64_t> scans_{0};
  mutable std::atomic<uint64_t> scan_cold_blocks_{0};
  mutable std::atomic<uint64_t> load_faults_{0};
};

}  // namespace mlfs

#endif  // MLFS_EMBEDDING_TIER_H_
