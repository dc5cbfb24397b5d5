#ifndef MLFS_IO_BLOCK_CACHE_H_
#define MLFS_IO_BLOCK_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace mlfs {

/// Monotonic cache counters plus a point-in-time occupancy snapshot.
struct BlockCacheStats {
  uint64_t hits = 0;        // Accesses served from a resident block.
  uint64_t misses = 0;      // Accesses that found their block cold.
  uint64_t promotions = 0;  // Cold blocks materialized into the cache.
  uint64_t evictions = 0;   // Resident blocks dropped back to cold.
  size_t resident_blocks = 0;
  size_t capacity_blocks = 0;
  size_t num_blocks = 0;
  size_t resident_bytes = 0;
};

/// Budgeted residency over a fixed universe of `num_blocks` block slots —
/// the shared cache policy behind the embedding cold tier's hot arena
/// (and any other block-granular out-of-core structure). The cache owns
/// policy only: payloads are opaque shared_ptrs the caller materializes
/// (dequantized float rows, parsed blocks, ...).
///
/// Replacement is batch-granular LRU: the caller draws one clock stamp
/// per read batch (BeginBatch) and stamps every block that batch touches
/// with it, so a thousand-row MultiGet counts one access per block. The
/// embedding tier Inserts only to seed a freshly built or restored
/// cache: its point reads and scans Touch resident blocks and decode cold
/// rows or blocks into their own buffers, never promoting them. After
/// seeding, only SetCapacity changes what is resident, and the stamps
/// decide which blocks a shrink evicts first.
///
/// Eviction is a linear min-stamp scan (block universes are small —
/// rows / block_rows slots) run whenever an Insert or SetCapacity leaves
/// the cache over budget.
///
/// Pointer lifetime: payloads handed out stay valid as long as someone
/// holds the shared_ptr. Readers that hand out interior pointers park the
/// payload in ThreadPins() — a per-thread pin set shared by every cache,
/// cleared at the start of the thread's next read — so eviction by
/// another thread can never free storage a reader still dereferences.
///
/// Thread-safe; every operation takes the one internal mutex.
class BlockCache {
 public:
  using Payload = std::shared_ptr<const void>;

  /// A cache over `num_blocks` slots holding at most `capacity` of them
  /// resident (capacity is clamped to num_blocks).
  BlockCache(size_t num_blocks, size_t capacity);

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  /// The pin set of the calling thread, shared across all caches: clear
  /// it at the start of a read, push every payload the read serves from.
  static std::vector<Payload>& ThreadPins();

  /// Advances the LRU clock one tick and returns the new stamp — call
  /// once per read batch and pass the stamp to Touch/Insert.
  uint64_t BeginBatch();

  /// Refreshes `block`'s stamp and returns its payload (null = cold).
  /// Does not count hits/misses: access accounting is per caller-defined
  /// unit (the embedding tier counts rows, not blocks) — use CountAccess.
  Payload Touch(size_t block, uint64_t stamp);

  /// Returns `block`'s payload without stamping (peek for copy paths
  /// that must not perturb the LRU order).
  Payload Peek(size_t block) const;

  /// Materializes `block` if absent (and capacity allows), charging
  /// `bytes` toward resident_bytes, and evicts over-budget blocks.
  /// Always refreshes the stamp. Returns true when this call inserted
  /// the payload (a promotion); false when the block was already
  /// resident or capacity is zero. `count_promotion` is false when
  /// seeding a freshly built cache, which is placement, not promotion.
  bool Insert(size_t block, Payload payload, size_t bytes, uint64_t stamp,
              bool count_promotion = true);

  /// Adds `hits` and `misses` to the counters (caller-defined units).
  void CountAccess(uint64_t hits, uint64_t misses);

  /// Adjusts the residency budget: shrinking evicts excess blocks
  /// immediately (min-stamp first); growing lets future Inserts fill
  /// the new room.
  void SetCapacity(size_t capacity);

  size_t capacity() const;
  size_t resident() const;
  size_t num_blocks() const { return blocks_.size(); }

  /// Current resident blocks as (block id, payload) pairs in ascending
  /// block order — the mutable half of a snapshot.
  std::vector<std::pair<uint32_t, Payload>> ResidentSnapshot() const;

  BlockCacheStats stats() const;

 private:
  struct Slot {
    Payload payload;     // Null = cold.
    size_t bytes = 0;    // Resident charge (0 while cold).
    uint64_t stamp = 0;  // Batch-granular LRU clock tick of last access.
  };

  /// Caller holds mu_. Evicts lowest-stamp resident blocks until the
  /// resident count is back under capacity.
  void EvictOverCapacityLocked();

  mutable std::mutex mu_;
  std::vector<Slot> blocks_;
  size_t capacity_ = 0;
  size_t resident_ = 0;
  size_t resident_bytes_ = 0;
  uint64_t tick_ = 0;
  uint64_t hits_ = 0, misses_ = 0, promotions_ = 0, evictions_ = 0;
};

}  // namespace mlfs

#endif  // MLFS_IO_BLOCK_CACHE_H_
