#ifndef MLFS_EMBEDDING_EMBEDDING_TABLE_H_
#define MLFS_EMBEDDING_EMBEDDING_TABLE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ref.h"
#include "common/status.h"
#include "common/timestamp.h"
#include "ml/sgns.h"

namespace mlfs {

class EmbeddingTier;
struct EmbeddingTierOptions;
struct PackedCodes;

/// Provenance and identity of one embedding table version.
struct EmbeddingTableMetadata {
  /// Logical embedding name, e.g. "entity_emb".
  std::string name;
  /// Assigned by the EmbeddingStore on registration (0 = unregistered).
  int version = 0;
  Timestamp created_at = 0;
  /// Free-form provenance: what corpus/config produced these vectors.
  std::string training_source;
  /// "name@vK" of the table this one was derived from (compression,
  /// patching, retraining); empty for from-scratch tables.
  std::string parent;
  /// True when this table is a slice patch of `parent` (PatchEmbedding);
  /// the lineage graph records the provenance as `patched_into` instead of
  /// the generic `derived_from`.
  bool patched = false;
  std::string notes;

  std::string VersionedName() const {
    return FormatVersionedRef(name, version);
  }
};

/// An immutable snapshot of entity embeddings: fixed dimension, one vector
/// per entity key. This is the first-class "embedding feature" artifact the
/// paper argues feature stores must manage (§3.1.2) — versioned, with
/// provenance, and queryable like any other feature.
///
/// A table is either *resident* (all vectors in one float32 buffer, the
/// historical form) or *tiered* (vectors live in an EmbeddingTier: packed
/// quantized codes in a memory-mapped file plus a budgeted hot prefix of
/// exact float rows — the MLKV-style out-of-core form for working sets
/// that outgrow RAM, paper §3.1.2). Get/MultiGet/GetVector behave
/// identically in both forms except that a tiered table serves
/// *dequantized* values for rows outside its hot prefix; pointers
/// returned by a tiered table stay valid until the calling thread's next
/// Get/MultiGet on any tiered table (copy them before the next lookup —
/// every in-tree caller copies immediately). row()/raw() remain
/// resident-only; tier-agnostic code uses CopyRow().
class EmbeddingTable {
 public:
  /// `keys` and rows of `vectors` (n * dim, row-major) correspond 1:1.
  /// Keys must be unique and non-empty; dim must be positive.
  static StatusOr<std::shared_ptr<const EmbeddingTable>> Create(
      EmbeddingTableMetadata metadata, std::vector<std::string> keys,
      std::vector<float> vectors, size_t dim);

  /// Builds a tiered copy of `source` (same metadata and keys): packs its
  /// vectors into a checksummed mmap'd tier file and keeps only the
  /// leading blocks that fit `options.memory_budget_bytes` hot. Fails if
  /// `source` is empty or the spill is fault-injected.
  static StatusOr<std::shared_ptr<const EmbeddingTable>> CreateTiered(
      const EmbeddingTable& source, const EmbeddingTierOptions& options);

  /// Rebuilds a tiered table from checkpoint parts: the packed codes and
  /// the exact hot blocks captured at snapshot time.
  static StatusOr<std::shared_ptr<const EmbeddingTable>> RestoreTiered(
      EmbeddingTableMetadata metadata, std::vector<std::string> keys,
      PackedCodes packed,
      std::vector<std::pair<uint32_t, std::vector<float>>> hot_blocks,
      const EmbeddingTierOptions& options);

  /// Wraps SGNS output, naming row i with `keys[i]`.
  static StatusOr<std::shared_ptr<const EmbeddingTable>> FromTokenEmbeddings(
      EmbeddingTableMetadata metadata, const TokenEmbeddings& embeddings,
      std::vector<std::string> keys);

  const EmbeddingTableMetadata& metadata() const { return metadata_; }
  size_t size() const { return keys_.size(); }
  size_t dim() const { return dim_; }

  /// True when vectors live in an EmbeddingTier instead of the resident
  /// buffer.
  bool tiered() const { return tier_ != nullptr; }
  /// The backing tier (null for resident tables) — stats, scans, and
  /// snapshotting.
  const EmbeddingTier* tier() const { return tier_.get(); }

  /// Pointer to the vector of `key`, or NotFound. Tiered: see the pointer
  /// lifetime contract in the class comment; may also return an injected
  /// "embedding.tier.load" fault for cold rows.
  StatusOr<const float*> Get(const std::string& key) const;

  /// Batched lookup: entry i points at `keys[i]`'s vector, or is null for
  /// a missing key. One output allocation for the whole batch — the unit
  /// embedding-feature hydration and batched ANN queries are built on.
  /// Tiered: cold rows decode one at a time and never promote, and a
  /// fault-injected cold load nulls every cold row of the call; `fault`,
  /// when given, receives that fault (OK otherwise), so a caller can tell
  /// a degraded read from a missing key.
  std::vector<const float*> MultiGet(const std::vector<std::string>& keys,
                                     Status* fault = nullptr) const;

  /// Vector copy (convenience for Value::Embedding interop).
  StatusOr<std::vector<float>> GetVector(const std::string& key) const;

  /// Copies row i (dim floats) into `out`; works for both forms and never
  /// promotes — the tier-agnostic row accessor.
  void CopyRow(size_t i, float* out) const;

  /// Resident copy of this table (tiered rows at their served values);
  /// for consumers that genuinely need the whole matrix in RAM (HNSW
  /// builds, drift checks).
  StatusOr<std::shared_ptr<const EmbeddingTable>> Materialize() const;

  const float* row(size_t i) const {
    MLFS_DCHECK(!tiered());
    MLFS_DCHECK(i < size());
    return vectors_.data() + i * dim_;
  }
  const std::string& key(size_t i) const {
    MLFS_DCHECK(i < size());
    return keys_[i];
  }
  /// Row index of `key`, or -1.
  int IndexOf(const std::string& key) const;

  const std::vector<std::string>& keys() const { return keys_; }
  const std::vector<float>& raw() const {
    MLFS_DCHECK(!tiered());
    return vectors_;
  }

  /// Derives a new (unregistered) table with the same keys and replaced
  /// vectors — used by compression and patching.
  StatusOr<std::shared_ptr<const EmbeddingTable>> WithVectors(
      EmbeddingTableMetadata metadata, std::vector<float> vectors,
      size_t dim) const;

 private:
  EmbeddingTable(EmbeddingTableMetadata metadata,
                 std::vector<std::string> keys, std::vector<float> vectors,
                 size_t dim);
  EmbeddingTable(EmbeddingTableMetadata metadata,
                 std::vector<std::string> keys,
                 std::shared_ptr<const EmbeddingTier> tier);

  EmbeddingTableMetadata metadata_;
  std::vector<std::string> keys_;
  std::vector<float> vectors_;  // Empty when tiered.
  size_t dim_;
  std::shared_ptr<const EmbeddingTier> tier_;  // Null when resident.
  std::unordered_map<std::string, size_t> index_;
};

using EmbeddingTablePtr = std::shared_ptr<const EmbeddingTable>;

/// `table` itself when resident; else a resident copy of its served values
/// (dequantized where cold), held by `*copy`. For whole-matrix math and for
/// code that holds Get pointers across further lookups, which a tiered
/// table's pointer contract (class comment) forbids.
StatusOr<const EmbeddingTable*> AsResident(const EmbeddingTable& table,
                                           EmbeddingTablePtr* copy);

}  // namespace mlfs

#endif  // MLFS_EMBEDDING_EMBEDDING_TABLE_H_
