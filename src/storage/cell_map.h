#ifndef MLFS_STORAGE_CELL_MAP_H_
#define MLFS_STORAGE_CELL_MAP_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "common/logging.h"
#include "common/row.h"
#include "common/timestamp.h"

namespace mlfs {

/// One online-store cell: the latest feature row for a (view, entity) pair.
struct OnlineCell {
  Row row;
  Timestamp event_time = 0;
  Timestamp expires_at = 0;  // kMaxTimestamp when no TTL.
};

/// Open-addressing hash map from composed cell key ("view\x1fentity") to
/// OnlineCell, specialized for the online-store read path:
///
///  - Callers pass the 64-bit key hash explicitly, so a hash computed once
///    per batched lookup is never recomputed inside the table (a
///    std::unordered_map would rehash the key on every find).
///  - Probing walks a dense array of 8-byte hash tags (8 per cache line)
///    with linear probing; the wide slot array is touched only to confirm
///    the key on a tag match, so a miss costs one cache line.
///  - PrefetchBucket() / PrefetchCandidate() issue software prefetches so a
///    batched caller (OnlineStore::MultiGet) can overlap the memory latency
///    of many probes instead of paying each miss chain serially.
///
/// Erase leaves a tombstone; the table rehashes in place once tombstones
/// plus live entries pass 7/8 occupancy (doubling when live entries alone
/// justify it). Not thread-safe: the owning shard's lock provides exclusion.
class CellMap {
 public:
  CellMap() = default;
  CellMap(CellMap&&) = default;
  CellMap& operator=(CellMap&&) = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Returns the cell for `key` (whose hash is `hash`), or nullptr.
  const OnlineCell* Find(uint64_t hash, std::string_view key) const {
    if (size_ == 0) return nullptr;
    const uint64_t tag = HashToTag(hash);
    const size_t mask = hashes_.size() - 1;
    for (size_t i = tag & mask;; i = (i + 1) & mask) {
      const uint64_t t = hashes_[i];
      if (t == kEmptyTag) return nullptr;
      if (t == tag && entries_[i].key == key) return &entries_[i].cell;
    }
  }
  OnlineCell* Find(uint64_t hash, std::string_view key) {
    return const_cast<OnlineCell*>(
        static_cast<const CellMap*>(this)->Find(hash, key));
  }

  /// Inserts (key, cell) if absent. Returns the resident cell and whether
  /// it was newly inserted; an existing cell is left untouched.
  std::pair<OnlineCell*, bool> Insert(uint64_t hash, std::string_view key,
                                      OnlineCell cell) {
    MaybeGrow();
    const uint64_t tag = HashToTag(hash);
    const size_t mask = hashes_.size() - 1;
    size_t reuse = kNoSlot;
    for (size_t i = tag & mask;; i = (i + 1) & mask) {
      const uint64_t t = hashes_[i];
      if (t == kEmptyTag) {
        const size_t dst = (reuse != kNoSlot) ? reuse : i;
        if (dst == i) ++used_;  // Tombstone reuse does not raise occupancy.
        hashes_[dst] = tag;
        entries_[dst].key.assign(key);
        entries_[dst].cell = std::move(cell);
        ++size_;
        return {&entries_[dst].cell, true};
      }
      if (t == kTombstoneTag) {
        if (reuse == kNoSlot) reuse = i;
        continue;
      }
      if (t == tag && entries_[i].key == key) return {&entries_[i].cell, false};
    }
  }

  /// Removes `key` if present; returns whether a cell was removed.
  bool Erase(uint64_t hash, std::string_view key) {
    if (size_ == 0) return false;
    const uint64_t tag = HashToTag(hash);
    const size_t mask = hashes_.size() - 1;
    for (size_t i = tag & mask;; i = (i + 1) & mask) {
      const uint64_t t = hashes_[i];
      if (t == kEmptyTag) return false;
      if (t == tag && entries_[i].key == key) {
        EraseSlot(i);
        return true;
      }
    }
  }

  /// Calls f(key, cell) for every live entry (unspecified order).
  template <typename F>
  void ForEach(F&& f) const {
    for (size_t i = 0; i < hashes_.size(); ++i) {
      if (hashes_[i] >= kFirstRealTag) f(entries_[i].key, entries_[i].cell);
    }
  }

  /// Removes every entry for which f(key, cell) returns true; returns how
  /// many were removed. f may inspect the cell (e.g. to account bytes).
  template <typename F>
  size_t EraseIf(F&& f) {
    size_t erased = 0;
    for (size_t i = 0; i < hashes_.size(); ++i) {
      if (hashes_[i] >= kFirstRealTag && f(entries_[i].key, entries_[i].cell)) {
        EraseSlot(i);
        ++erased;
      }
    }
    return erased;
  }

  /// Prefetches the probe window for `hash` (the dense tag array).
  void PrefetchBucket(uint64_t hash) const {
    if (hashes_.empty()) return;
    Prefetch(&hashes_[HashToTag(hash) & (hashes_.size() - 1)]);
  }

  /// Walks the (already prefetched) tag array, prefetches the slot of the
  /// first tag match, and returns its index — or kNoCandidate when the
  /// probe chain ends at an empty slot first (a definitive miss). Key
  /// confirmation is deferred to FindFrom: a false positive only costs a
  /// prefetch of a colliding slot.
  static constexpr int64_t kNoCandidate = -1;
  int64_t PrefetchCandidate(uint64_t hash) const {
    if (size_ == 0) return kNoCandidate;
    const uint64_t tag = HashToTag(hash);
    const size_t mask = hashes_.size() - 1;
    for (size_t i = tag & mask;; i = (i + 1) & mask) {
      const uint64_t t = hashes_[i];
      if (t == kEmptyTag) return kNoCandidate;
      if (t == tag) {
        const char* p = reinterpret_cast<const char*>(&entries_[i]);
        Prefetch(p);
        Prefetch(p + 64);  // Slot{string key; OnlineCell} spans two lines.
        return static_cast<int64_t>(i);
      }
    }
  }

  /// Prefetches the heap payloads behind a candidate slot: the key bytes
  /// when they spill out of the small-string buffer (read by the key
  /// confirmation), and the row's shared value buffer, whose reference
  /// count the copy-on-write Row copy bumps. Only ADDRESSES already
  /// resident in the slot are read here — dereferencing the payload (even
  /// to test emptiness) would stall this stage on the very line it is
  /// supposed to prefetch.
  void PrefetchRowAt(int64_t slot) const {
    if (slot < 0) return;
    const Slot& s = entries_[static_cast<size_t>(slot)];
    Prefetch(s.key.data());
    Prefetch(s.cell.row.payload_address());
  }

  /// Find() resuming at a PrefetchCandidate() result; kNoCandidate is a
  /// miss. Continues down the probe chain on a hash-tag false positive.
  const OnlineCell* FindFrom(int64_t slot, uint64_t hash,
                             std::string_view key) const {
    if (slot < 0) return nullptr;
    const uint64_t tag = HashToTag(hash);
    const size_t mask = hashes_.size() - 1;
    for (size_t i = static_cast<size_t>(slot);; i = (i + 1) & mask) {
      const uint64_t t = hashes_[i];
      if (t == kEmptyTag) return nullptr;
      if (t == tag && entries_[i].key == key) return &entries_[i].cell;
    }
  }

 private:
  struct Slot {
    std::string key;
    OnlineCell cell;
  };

  static constexpr uint64_t kEmptyTag = 0;
  static constexpr uint64_t kTombstoneTag = 1;
  static constexpr uint64_t kFirstRealTag = 2;
  static constexpr size_t kNoSlot = static_cast<size_t>(-1);
  static constexpr size_t kInitialCapacity = 16;

  /// Tags 0 and 1 are reserved; remap the (vanishingly rare) colliding
  /// hashes. The tag doubles as the probe start, so insert and find must
  /// derive the home index from the same remapped value.
  static uint64_t HashToTag(uint64_t h) { return h < kFirstRealTag ? h + kFirstRealTag : h; }

  /// Highest-locality prefetch (into L1): a batched caller consumes the
  /// line within a few dozen probes (~8KB in flight), and a lower hint
  /// would leave the consuming stage paying an L2/L3 hit per line anyway.
  static void Prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
    (void)p;
#endif
  }

  void EraseSlot(size_t i) {
    hashes_[i] = kTombstoneTag;
    entries_[i] = Slot{};  // Frees the key and the row payload eagerly.
    --size_;
  }

  /// Keeps at least one empty slot so probe loops always terminate.
  void MaybeGrow() {
    const size_t cap = hashes_.size();
    if (cap == 0) {
      Rehash(kInitialCapacity);
      return;
    }
    if ((used_ + 1) * 8 >= cap * 7) {
      // Double when live entries drove the occupancy; a same-size rehash
      // just sweeps tombstones left by heavy eviction.
      Rehash(size_ * 2 >= cap ? cap * 2 : cap);
    }
  }

  /// Asks the kernel to back a large, not-yet-touched allocation with
  /// transparent huge pages. Embedding-scale tables span hundreds of MB;
  /// 4K pages would make nearly every cold probe pay a TLB walk on top of
  /// its DRAM miss (and walks defeat the software prefetch pipeline).
  /// Must run between the allocation and the first touch, while the pages
  /// are still unfaulted.
  static void AdviseHugePages(void* p, size_t bytes) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
    constexpr size_t kMinBytes = 1 << 21;  // One 2MB huge page.
    if (p == nullptr || bytes < kMinBytes) return;
    const uintptr_t addr = reinterpret_cast<uintptr_t>(p);
    const uintptr_t first = (addr + kMinBytes - 1) & ~(kMinBytes - 1);
    const uintptr_t last = (addr + bytes) & ~(kMinBytes - 1);
    if (last > first) {
      madvise(reinterpret_cast<void*>(first), last - first, MADV_HUGEPAGE);
    }
#else
    (void)p;
    (void)bytes;
#endif
  }

  void Rehash(size_t new_cap) {
    MLFS_DCHECK((new_cap & (new_cap - 1)) == 0);
    std::vector<uint64_t> old_hashes = std::move(hashes_);
    std::vector<Slot> old_slots = std::move(entries_);
    hashes_.reserve(new_cap);
    AdviseHugePages(hashes_.data(), new_cap * sizeof(uint64_t));
    hashes_.assign(new_cap, kEmptyTag);
    entries_.clear();
    entries_.shrink_to_fit();  // Drop the old buffer before the fresh one.
    entries_.reserve(new_cap);
    AdviseHugePages(entries_.data(), new_cap * sizeof(Slot));
    entries_.resize(new_cap);
    const size_t mask = new_cap - 1;
    for (size_t i = 0; i < old_hashes.size(); ++i) {
      const uint64_t tag = old_hashes[i];
      if (tag < kFirstRealTag) continue;
      size_t j = tag & mask;
      while (hashes_[j] != kEmptyTag) j = (j + 1) & mask;
      hashes_[j] = tag;
      entries_[j] = std::move(old_slots[i]);
    }
    used_ = size_;
  }

  std::vector<uint64_t> hashes_;  // Dense probe array; parallel to entries_.
  std::vector<Slot> entries_;
  size_t size_ = 0;  // Live entries.
  size_t used_ = 0;  // Live entries + tombstones (occupied probe slots).
};

}  // namespace mlfs

#endif  // MLFS_STORAGE_CELL_MAP_H_
