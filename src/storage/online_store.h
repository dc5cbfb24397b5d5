#ifndef MLFS_STORAGE_ONLINE_STORE_H_
#define MLFS_STORAGE_ONLINE_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/row.h"
#include "common/schema.h"
#include "common/status.h"
#include "common/timestamp.h"
#include "storage/cell_map.h"

namespace mlfs {

/// Counters describing online-store traffic.
struct OnlineStoreStats {
  uint64_t puts = 0;
  uint64_t gets = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t expired = 0;       // Gets that found only an expired cell.
  uint64_t stale_writes = 0;  // Puts dropped because a newer cell existed.
  size_t num_cells = 0;
  size_t approx_bytes = 0;
};

struct OnlineStoreOptions {
  /// Shards (each with its own lock) for concurrent serving.
  size_t num_shards = 16;
};

/// The shard of a cell-key hash among `num_shards`, from the hash's high 32
/// bits (multiply-shift). CellMap starts probing at the hash's low bits; a
/// shard picked from those too (hash % 16) would leave every key of a
/// shard sharing its low 4 bits, so keys could start at only 1/16 of the
/// slots. Every shard lookup (Put, Get, MultiGet, Restore) goes through
/// this.
inline size_t OnlineShardIndex(uint64_t hash, size_t num_shards) {
  return static_cast<size_t>(((hash >> 32) * num_shards) >> 32);
}

/// Low-latency, in-memory, latest-value store: the "online" half of the
/// dual datastore (paper §2.2.2, e.g. an in-memory DBMS). Keyed by
/// (view, entity); each cell holds the most recent feature row for that
/// entity with its event time and an optional TTL.
///
/// Last-writer-wins is by *event time*, not write time, so replayed or
/// out-of-order materializations can never clobber fresher data.
///
/// Thread-safe; sharded by key hash. Each shard is guarded by a
/// std::shared_mutex: readers (Get / MultiGet / GetEventTime / stats /
/// Snapshot) take shared locks and never serialize against each other,
/// writers (Put / EvictExpired / DropView / Restore) take exclusive locks.
/// MultiGet is shard-aware: it hashes every key up front (no per-key
/// composed-key heap allocation), groups keys by shard, and serves each
/// shard's keys under a single shared critical section.
class OnlineStore {
 public:
  explicit OnlineStore(OnlineStoreOptions options = {});

  /// Registers a view (a named feature row layout). Writes and reads
  /// validate against the view's schema.
  Status CreateView(const std::string& view, SchemaPtr schema);

  bool HasView(const std::string& view) const;
  size_t num_views() const;
  StatusOr<SchemaPtr> ViewSchema(const std::string& view) const;

  /// Upserts the row for (view, entity_key). Drops the write (counted in
  /// stats().stale_writes) when an existing cell has a newer event time.
  /// The cell expires at `write_time` + `ttl`; `ttl` <= 0 means it never
  /// expires. The write time itself is not stored.
  Status Put(const std::string& view, const Value& entity_key, Row row,
             Timestamp event_time, Timestamp write_time, Timestamp ttl = 0);

  /// Latest row for (view, entity_key); NotFound on miss or when the cell
  /// has expired at `now`.
  StatusOr<Row> Get(const std::string& view, const Value& entity_key,
                    Timestamp now) const;

  /// Batched get preserving input order; individual entries may fail.
  /// Equivalent to a loop of Get (same per-key results, counters, and
  /// failpoint evaluations) but takes each shard lock once per batch
  /// instead of once per key.
  std::vector<StatusOr<Row>> MultiGet(const std::string& view,
                                      const std::vector<Value>& entity_keys,
                                      Timestamp now) const;

  /// Event time of the cell (freshness probes); NotFound semantics as Get.
  StatusOr<Timestamp> GetEventTime(const std::string& view,
                                   const Value& entity_key,
                                   Timestamp now) const;

  /// Removes expired cells; returns how many were evicted.
  size_t EvictExpired(Timestamp now);

  /// Removes every cell of `view`.
  size_t DropView(const std::string& view);

  OnlineStoreStats stats() const;

  /// Serializes views (name + schema) and all cells, sealed in the
  /// BlockFile envelope ("MLON"). Traffic counters are not persisted.
  std::string Snapshot() const;

  /// Restores a Snapshot() into this store, which must have no views
  /// (FailedPrecondition). The envelope is checked before anything changes.
  Status Restore(std::string_view snapshot);

 private:
  /// Cells live in a prefetch-friendly open-addressing table (CellMap)
  /// keyed by the composed "view\x1fentity" string; every store operation
  /// computes the key hash exactly once and passes it through.
  struct Shard {
    mutable std::shared_mutex mu;
    CellMap cells;
    size_t approx_bytes = 0;
  };

  Shard& ShardFor(uint64_t full_key_hash) const {
    return *shards_[OnlineShardIndex(full_key_hash, shards_.size())];
  }
  static std::string FullKey(const std::string& view, const std::string& key);

  OnlineStoreOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::shared_mutex views_mu_;
  std::unordered_map<std::string, SchemaPtr> views_;

  /// False until any cell is written with a real TTL; lets batched reads
  /// skip the expiry branch entirely for the common no-TTL deployment.
  mutable std::atomic<bool> may_have_ttl_{false};

  mutable std::atomic<uint64_t> puts_{0};
  mutable std::atomic<uint64_t> gets_{0};
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  mutable std::atomic<uint64_t> expired_{0};
  mutable std::atomic<uint64_t> stale_writes_{0};
};

}  // namespace mlfs

#endif  // MLFS_STORAGE_ONLINE_STORE_H_
