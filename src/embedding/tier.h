#ifndef MLFS_EMBEDDING_TIER_H_
#define MLFS_EMBEDDING_TIER_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "embedding/compress.h"
#include "io/block_cache.h"
#include "io/block_file.h"
#include "io/readahead.h"

namespace mlfs {

/// Configuration of one table's cold tier.
struct EmbeddingTierOptions {
  /// Budget for the hot float32 arena (the only RAM the tier manages; the
  /// packed file is memory-mapped and the key index stays resident either
  /// way). 0 means no hot blocks: every read dequantizes.
  size_t memory_budget_bytes = 0;
  /// Bits per dimension in the packed cold tier (1..16).
  int bits = 8;
  /// Rows per block — the unit of the hot arena (seeding, demotion) and
  /// of scan dequantization; point reads decode single rows.
  size_t block_rows = 256;
  /// Directory the packed tier file is written into (required).
  std::string dir;
  /// Stem of the tier file name (a unique suffix is always appended).
  std::string file_stem = "tier";
  /// Tier files are scratch by default: deleted when the tier is
  /// destroyed. Snapshots embed the packed codes, not the file path.
  bool remove_file_on_destroy = true;
  /// Async cold-block prefetch for ScanBlocks (io/readahead.h).
  /// Default-disabled; scanned bytes are identical either way
  /// (dequantization is deterministic), readahead only moves it off the
  /// scanning thread.
  ReadaheadOptions readahead;
};

/// Monotonic tier counters plus a point-in-time occupancy snapshot.
struct EmbeddingTierStats {
  uint64_t hot_hits = 0;      // Rows served from the hot arena.
  uint64_t cold_misses = 0;   // Rows decoded from the packed codes.
  uint64_t promotions = 0;    // Always 0: reads never promote a block.
  uint64_t demotions = 0;     // Hot blocks evicted back to codes-only.
  uint64_t scans = 0;         // ScanBlocks passes (ANN scans).
  uint64_t scan_cold_blocks = 0;  // Blocks dequantized into scan scratch.
  uint64_t load_faults = 0;   // Injected embedding.tier.load failures.
  size_t hot_blocks = 0;
  size_t total_blocks = 0;
  size_t hot_limit_blocks = 0;
  size_t resident_bytes = 0;  // Hot arena bytes right now.
  size_t packed_bytes = 0;    // Size of the mmap'd tier file.
  ReadaheadStats readahead;   // Scan prefetch counters.
};

/// The out-of-core half of a tiered EmbeddingTable (MLKV-style): every row
/// lives scalar-quantized in a checksummed, memory-mapped file; a bounded
/// set of "hot" blocks additionally holds float32 rows in RAM. Reads are
/// served from the hot arena when possible; a cold row is decoded alone
/// from the mapped codes (row decode), and its block is never promoted.
/// The hot set is what Build/Restore seeded, shrunk only by SetHotLimit,
/// so seeded rows stay exact. Reads and full scans (ScanBlocks) refresh
/// the stamps of the hot blocks they touch, which decides what a later
/// SetHotLimit shrink demotes first.
///
/// Storage plumbing is the shared io/ subsystem: the packed file is a
/// BlockFile ("MLET" magic in the common envelope, spilled with the
/// WriteFileAtomic + mmap-reopen discipline and fully validated at open),
/// the hot arena is a BlockCache (batch-granular LRU with the shared
/// thread-local pin set), and scan prefetch runs on a ReadaheadScheduler.
/// This file owns only the quantization codec and the row-addressing
/// geometry.
///
///   body: u32 bits, u64 n, u64 dim, u64 block_rows,
///         float lo[dim], float hi[dim], codes[n * row_bytes]
///
/// Pointer lifetime: pointers handed out by GetRow/MultiGetRows stay
/// valid until the *calling thread's* next GetRow/MultiGetRows on any
/// tier (the BlockCache thread-local pin set keeps the backing hot blocks
/// and the call's decoded cold rows alive across concurrent demotion);
/// copy before issuing another read.
/// Hot demotion therefore never invalidates a pointer another thread
/// just obtained.
///
/// Failpoints: "embedding.tier.spill" fires before the tier file is
/// written (Build/Restore fail cleanly); "embedding.tier.load" fires when
/// a read needs a cold row or a scan runs (GetRow/ScanBlocks propagate
/// the injected status; MultiGetRows nulls the cold rows and returns it);
/// "io.load" (in BlockFile::Map) and "io.readahead" (in the scheduler)
/// fire underneath.
///
/// Thread-safe; the cache and scheduler carry their own locks,
/// dequantization runs outside all of them.
class EmbeddingTier {
 public:
  /// Packs `data` (n x dim row-major float32), writes + maps the tier
  /// file, and seeds the hot arena with the first blocks that fit the
  /// budget, holding *exact* copies of `data` (a never-demoted row serves
  /// byte-identical floats; only demoted/cold rows pay quantization
  /// error).
  static StatusOr<std::unique_ptr<EmbeddingTier>> Build(
      const float* data, size_t n, size_t dim, EmbeddingTierOptions options);

  /// Rebuilds a tier from snapshot parts: the packed codes and the hot
  /// blocks (block id -> exact float rows) captured by HotBlocksSnapshot.
  static StatusOr<std::unique_ptr<EmbeddingTier>> Restore(
      PackedCodes packed,
      std::vector<std::pair<uint32_t, std::vector<float>>> hot_blocks,
      EmbeddingTierOptions options);

  ~EmbeddingTier();
  EmbeddingTier(const EmbeddingTier&) = delete;
  EmbeddingTier& operator=(const EmbeddingTier&) = delete;

  /// Row pointer (hot arena or the row decoded alone); see the pointer
  /// lifetime contract above.
  StatusOr<const float*> GetRow(size_t row) const;

  /// Batched lookup: out[i] points at rows[i]'s vector, or is null when
  /// rows[i] is out of range or a cold row whose load was fault-injected;
  /// the injected fault is returned (OK otherwise). Hits and misses count
  /// per row; each distinct hot block is stamped and pinned once.
  Status MultiGetRows(std::span<const int64_t> rows,
                      std::vector<const float*>* out) const;

  /// Copies one row into `out` (dim floats) without stamping or pinning.
  void CopyRow(size_t row, float* out) const;

  /// Streams every row block-wise in ascending row order:
  /// fn(row0, nrows, rows) where `rows` is nrows x dim floats — the hot
  /// arena directly, or a per-call scratch for dequantized cold blocks.
  /// Refreshes hot stamps, never promotes. With readahead enabled the
  /// next cold block dequantizes on the scheduler while fn runs.
  Status ScanBlocks(
      const std::function<void(size_t row0, size_t nrows, const float* rows)>&
          fn) const;

  size_t n() const { return n_; }
  size_t dim() const { return dim_; }
  int bits() const { return bits_; }
  size_t block_rows() const { return block_rows_; }
  size_t row_bytes() const { return row_bytes_; }
  size_t num_blocks() const { return blocks_count_; }
  size_t hot_limit_blocks() const { return cache_->capacity(); }
  const std::vector<float>& lo() const { return lo_f_; }
  const std::vector<float>& hi() const { return hi_f_; }
  /// The packed code section (n * row_bytes bytes, mmap-backed).
  const uint8_t* codes() const { return codes_; }
  const std::string& path() const { return file_->path(); }

  /// Adjusts the hot arena capacity in blocks (cache policy, not data):
  /// shrinking demotes the least recently touched blocks immediately;
  /// growing demotes nothing and promotes nothing. The store uses this to
  /// take the arena away from superseded versions without rewriting tier
  /// files.
  void SetHotLimit(size_t blocks) const;

  EmbeddingTierStats stats() const;

  /// Current hot blocks as (block id, exact float rows) pairs — the
  /// mutable half of a snapshot (the immutable half is codes()/lo()/hi()).
  std::vector<std::pair<uint32_t, std::vector<float>>> HotBlocksSnapshot()
      const;

 private:
  using BlockData = std::shared_ptr<const std::vector<float>>;

  EmbeddingTier() = default;

  /// Encodes the packed matrix into the shared envelope, spills it via
  /// BlockFile (atomic write + mmap reopen), and wires up the cache and
  /// readahead scheduler.
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
  size_t BlockBytes(size_t b) const {
    return BlockRows(b) * dim_ * sizeof(float);
  }
  /// Dequantizes block `b` into a fresh vector<float> payload (what scan
  /// readahead jobs materialize; no locks needed: the mapped codes are
  /// immutable).
  BlockCache::Payload LoadBlockPayload(size_t b) const;
  /// Evaluates the "embedding.tier.load" failpoint, counting a fault.
  Status CheckLoadFault() const;
  static const float* BlockFloats(const BlockCache::Payload& p) {
    return static_cast<const std::vector<float>*>(p.get())->data();
  }

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

  // The mapped tier file; declared before the cache and scheduler so
  // in-flight readahead jobs (which read the mapped codes) drain first.
  BlockFilePtr file_;
  std::unique_ptr<BlockCache> cache_;
  std::unique_ptr<ReadaheadScheduler> readahead_;

  // Tier-specific counters (the cache and scheduler keep their own).
  mutable std::atomic<uint64_t> scans_{0};
  mutable std::atomic<uint64_t> scan_cold_blocks_{0};
  mutable std::atomic<uint64_t> load_faults_{0};
};

}  // namespace mlfs

#endif  // MLFS_EMBEDDING_TIER_H_
