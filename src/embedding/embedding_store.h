#ifndef MLFS_EMBEDDING_EMBEDDING_STORE_H_
#define MLFS_EMBEDDING_EMBEDDING_STORE_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "embedding/embedding_table.h"
#include "embedding/tier.h"
#include "lineage/lineage_graph.h"

namespace mlfs {

/// Store-wide out-of-core policy for registered embedding tables.
struct EmbeddingTierPolicy {
  /// Total float32 RAM the store may spend on registered embedding
  /// vectors. 0 disables tiering (every table stays resident — the
  /// historical behavior). When set, registration spills whatever does
  /// not fit into packed quantized tier files: the newest version of each
  /// name gets hot-prefix budget first, superseded versions go fully cold.
  size_t memory_budget_bytes = 0;
  /// Bits per dimension for spilled tables (1..16).
  int bits = 8;
  /// Bits per dimension for superseded versions demoted to fully-cold
  /// tiers (1..16). Old versions are kept only for pinned consumers and
  /// reproducibility audits, so they can tolerate coarser quantization
  /// than the serving version. 0 keeps `bits` for superseded versions
  /// too. Applies when a resident superseded version is demoted; tables
  /// that were already tiered keep their original packing.
  int superseded_bits = 0;
  /// Rows per tier block.
  size_t block_rows = 256;
  /// Where tier files are written; empty means
  /// <system temp dir>/mlfs_emb. Files are removed with their tables.
  std::string spill_dir;
};

/// Aggregate tiering counters across every table version in the store.
struct EmbeddingStoreTierStats {
  size_t tiered_tables = 0;
  size_t resident_tables = 0;
  /// Registrations kept resident because the tier spill failed (fault
  /// injection or I/O error) — tiering degrades, never drops data.
  uint64_t spill_errors = 0;
  /// Snapshot restores that fell back to a resident table because the
  /// tier file could not be rebuilt.
  uint64_t restore_fallbacks = 0;
  /// Sum of the per-tier counters (hits, misses, demotions, ...).
  EmbeddingTierStats tier;
};

/// Versioned catalog of embedding tables: registration, retrieval by
/// version, and lineage — the embedding-native half of the feature store
/// the paper calls for ("support for versioning, provenance, and
/// downstream quality metrics", §4).
///
/// Tables are immutable; "updating" an embedding means registering a new
/// version. Consumers pin versions (see ModelRegistry), which is what makes
/// version skew detectable.
///
/// Every registration is recorded in a LineageGraph: the table itself as an
/// `embedding` artifact, its metadata().parent as a `derived_from` (or
/// `patched_into`, for PatchEmbedding outputs) edge, and its
/// training_source as a `trained_on` edge. Registering version K also marks
/// version K-1 superseded, fanning a StalenessEvent out to its transitive
/// consumers. Lineage() is a walk over that graph; parent chains have no
/// second, private representation.
///
/// With an EmbeddingTierPolicy budget, the store is additionally the
/// admission controller for embedding RAM (paper §3.1.2: embedding working
/// sets outgrow memory): each registration re-applies the budget, spilling
/// cold versions to packed quantized tier files (see EmbeddingTier) while
/// lookups keep their exact API contracts.
class EmbeddingStore {
 public:
  /// `lineage` (not owned) is the shared cross-layer graph; when null the
  /// store owns a private graph (standalone use in tests/tools).
  explicit EmbeddingStore(LineageGraph* lineage = nullptr,
                          EmbeddingTierPolicy tier_policy = {});

  /// Registers `table` under its metadata().name; assigns and returns the
  /// new version number. `registered_at` stamps metadata().created_at if
  /// unset. Under a tier policy this may spill this or older versions.
  StatusOr<int> Register(const EmbeddingTablePtr& table,
                         Timestamp registered_at);

  /// Latest version of `name`.
  StatusOr<EmbeddingTablePtr> GetLatest(const std::string& name) const;

  StatusOr<EmbeddingTablePtr> GetVersion(const std::string& name,
                                         int version) const;

  /// Parses "name@vK" (or bare "name" = latest).
  StatusOr<EmbeddingTablePtr> Resolve(const std::string& reference) const;

  std::vector<std::string> Names() const;
  /// All versions of `name`, ascending.
  StatusOr<std::vector<EmbeddingTablePtr>> Versions(
      const std::string& name) const;

  /// Chain of ancestors starting at "name@vK" (inclusive), following
  /// `derived_from`/`patched_into` lineage edges up to the root table.
  StatusOr<std::vector<std::string>> Lineage(
      const std::string& reference) const;

  /// Marks the latest version of `name` deprecated: emits a kDeprecated
  /// StalenessEvent fanned out to its transitive downstream consumers.
  Status Deprecate(const std::string& name, Timestamp now);

  size_t num_tables() const;

  const EmbeddingTierPolicy& tier_policy() const { return tier_policy_; }

  /// Aggregated tiering counters (zeros when tiering is disabled).
  EmbeddingStoreTierStats TierStats() const;

  /// The lineage graph this store records into (shared or owned).
  LineageGraph& lineage_graph() { return *lineage_; }
  const LineageGraph& lineage_graph() const { return *lineage_; }

  /// Serializes every version of every table. Resident tables store raw
  /// floats; tiered tables store their packed codes plus the exact hot
  /// blocks, so a restore reproduces byte-identical serving.
  std::string Snapshot() const;

  /// Restores a Snapshot() into this (empty) store, preserving version
  /// numbers and re-recording lineage edges (without re-emitting
  /// staleness events — restore the graph's own snapshot for those).
  /// Each table comes back in the form it was saved in: resident, or
  /// tiered with the same hot prefix (a hot set that is not blocks 0..h-1
  /// within the recorded count is Corruption). A tiered entry whose tier
  /// file cannot be rebuilt falls back to an equivalent resident table
  /// (counted in TierStats().restore_fallbacks).
  Status Restore(std::string_view snapshot);

 private:
  /// Records `table` (already version-stamped) into the lineage graph.
  void RecordLineage(const EmbeddingTableMetadata& metadata,
                     int previous_version);

  /// Caller holds mu_. Re-applies the tier budget across every version:
  /// superseded versions are tiered with no hot prefix (or demoted), the
  /// newest version of each name shares the budget in name order, and
  /// tables that no longer fit are converted to tiered form in place.
  /// No-op without a budget.
  void ApplyTierBudgetLocked(Timestamp now);

  /// Caller holds mu_. Tier options for one table under the policy.
  EmbeddingTierOptions TierOptionsLocked(const EmbeddingTableMetadata&
                                             metadata,
                                         size_t hot_budget) const;

  mutable std::mutex mu_;
  std::map<std::string, std::vector<EmbeddingTablePtr>> tables_;
  std::unique_ptr<LineageGraph> owned_lineage_;
  LineageGraph* lineage_;  // Shared (not owned) or owned_lineage_.get().
  EmbeddingTierPolicy tier_policy_;
  std::string spill_dir_;  // Resolved tier_policy_.spill_dir.
  mutable uint64_t spill_errors_ = 0;
  mutable uint64_t restore_fallbacks_ = 0;
};

}  // namespace mlfs

#endif  // MLFS_EMBEDDING_EMBEDDING_STORE_H_
