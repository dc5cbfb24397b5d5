#ifndef MLFS_CORE_FEATURE_STORE_H_
#define MLFS_CORE_FEATURE_STORE_H_

#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/timestamp.h"
#include "embedding/ann.h"
#include "embedding/embedding_drift.h"
#include "embedding/embedding_store.h"
#include "lineage/lineage_graph.h"
#include "modelstore/model_registry.h"
#include "monitoring/alerting.h"
#include "quality/drift.h"
#include "quality/feature_stats.h"
#include "registry/orchestrator.h"
#include "registry/registry.h"
#include "serving/feature_server.h"
#include "serving/point_in_time.h"
#include "storage/offline_store.h"
#include "storage/online_store.h"
#include "streaming/stream_pipeline.h"

namespace mlfs {

struct FeatureStoreOptions {
  OnlineStoreOptions online;
  FeatureServerOptions serving;
  /// Logical start of time.
  Timestamp start_time = 0;
  /// ANN index used by NearestNeighbors: "hnsw" or "brute".
  std::string ann_index = "hnsw";
  /// Out-of-core policy for registered embeddings: with a
  /// memory_budget_bytes, versions that do not fit spill to packed
  /// quantized tier files (see EmbeddingTierPolicy). Default: disabled,
  /// everything stays resident.
  EmbeddingTierPolicy embedding_tiering;
};

/// The integrated system this repository reproduces: a feature store that
/// manages *both* tabular features and embeddings as first-class citizens
/// across the full ML pipeline — authoring, materialization, serving,
/// training-set construction, model registration, and monitoring — per
/// Orr et al., "Managing ML Pipelines: Feature Stores and the Coming Wave
/// of Embedding Ecosystems" (VLDB 2021).
///
/// All time is logical (clock()); the store never reads the wall clock.
///
/// All components share one LineageGraph (lineage()): every publish,
/// embedding registration, model registration, and materialization run is
/// recorded there, staleness events fan out to the AlertBus, and served
/// responses carry staleness annotations (FeatureVector::stale).
class FeatureStore {
 public:
  explicit FeatureStore(FeatureStoreOptions options = {});

  // --- Component access (power users / tests) ------------------------------
  SimClock& clock() { return clock_; }
  OfflineStore& offline() { return offline_; }
  OnlineStore& online() { return online_; }
  FeatureRegistry& registry() { return registry_; }
  Orchestrator& orchestrator() { return orchestrator_; }
  EmbeddingStore& embeddings() { return embedding_store_; }
  ModelRegistry& models() { return model_registry_; }
  AlertBus& alerts() { return alerts_; }
  FeatureServer& server() { return server_; }
  LineageGraph& lineage() { return lineage_; }
  const LineageGraph& lineage() const { return lineage_; }

  // --- Tabular feature workflow (paper §2.2) -------------------------------

  /// Registers a raw source table in the offline store.
  Status CreateSourceTable(OfflineTableOptions options);

  /// Appends raw event rows and advances the clock to the newest event.
  Status Ingest(const std::string& table, const std::vector<Row>& rows);

  /// Publishes a feature definition (validated against its source).
  StatusOr<int> PublishFeature(const FeatureDefinition& def);

  /// Runs every due feature refresh at the current logical time.
  StatusOr<int> RunMaterialization();

  /// Serves a feature vector from the online store at logical now.
  StatusOr<FeatureVector> ServeFeatures(
      const Value& entity_key, const std::vector<std::string>& features);

  /// Leakage-free training set: point-in-time joins each feature's
  /// materialization log onto the spine; output columns carry the feature
  /// names. `max_age` 0 disables age filtering. `join_options` fans the
  /// merge-join out across sources/entity shards for large spines.
  StatusOr<TrainingSet> BuildTrainingSet(
      const std::vector<Row>& spine, const std::string& spine_entity_column,
      const std::string& spine_time_column,
      const std::vector<std::string>& features, Timestamp max_age = 0,
      const JoinOptions& join_options = {});

  /// As above with a prebuilt SpineIndex, so pipelines that join the same
  /// label spine against several feature sets canonicalize and sort it
  /// once instead of per call.
  StatusOr<TrainingSet> BuildTrainingSet(
      const SpineIndex& spine, const std::vector<std::string>& features,
      Timestamp max_age = 0, const JoinOptions& join_options = {});

  /// Creates a streaming feature view materializing into both stores.
  /// The returned pipeline is owned by the store.
  StatusOr<StreamPipeline*> CreateStreamPipeline(
      StreamPipelineOptions options);

  // --- Embeddings as first-class citizens (paper §3) ------------------------

  /// Registers an embedding table version.
  StatusOr<int> RegisterEmbedding(const EmbeddingTablePtr& table);

  /// Latest vector for `key`.
  StatusOr<std::vector<float>> GetEmbedding(const std::string& name,
                                            const std::string& key) const;

  /// k nearest entities of `reference_key` under the latest version (ANN
  /// index built and cached per version), the key itself excluded; fewer
  /// when the table holds fewer, and InvalidArgument for k = 0. The index
  /// build happens outside
  /// the cache lock with once-per-version semantics: concurrent callers on
  /// the same version share one build, and a slow build on one embedding
  /// never blocks lookups on another. A batch of one:
  /// NearestEntitiesBatch(name, {reference_key}, k)[0].
  StatusOr<std::vector<std::pair<std::string, float>>> NearestEntities(
      const std::string& name, const std::string& reference_key, size_t k);

  /// Entry i is reference_keys[i]'s neighbors. One index resolve + one
  /// AnnIndex::BatchSearch for the whole batch; entries fail independently
  /// (an unknown reference key NotFounds only its own slot; a reference row
  /// nulled by a tier load fault gets that fault).
  std::vector<StatusOr<std::vector<std::pair<std::string, float>>>>
  NearestEntitiesBatch(const std::string& name,
                       const std::vector<std::string>& reference_keys,
                       size_t k);

  // --- Models & version skew (paper §2.2.2, §4) ------------------------------

  /// Registers a trained model with pinned feature/embedding versions.
  StatusOr<int> RegisterModel(ModelRecord record);

  /// Latest models pinned to outdated embedding versions; emits a
  /// CRITICAL alert per skewed consumer ("dot product loses meaning") and
  /// a WARNING per dangling (unpinned/unresolvable) reference.
  StatusOr<VersionSkewReport> CheckEmbeddingVersionSkew();

  // --- Lineage & staleness (paper §2.2.2, §4) --------------------------------

  /// Transitive downstream consumers impacted by a change to `artifact` —
  /// "what breaks if this changes?" across every layer.
  std::vector<ArtifactId> ImpactOf(const ArtifactId& artifact) const;

  /// Deprecates the latest version of feature `name`: the kDeprecated
  /// StalenessEvent fans out to its consumers (alerts + serving
  /// annotations).
  Status DeprecateFeature(const std::string& name);

  /// Deprecates the latest version of embedding `name`; same fan-out.
  Status DeprecateEmbedding(const std::string& name);

  // --- Monitoring (paper §2.2.3, §3.1.3) ------------------------------------

  /// Drift of `feature`'s materialized values: reference window
  /// [ref_lo, ref_hi) vs current window [cur_lo, cur_hi) of its log table.
  /// Emits a WARNING alert when drifted.
  StatusOr<DriftReport> CheckFeatureDrift(const std::string& feature,
                                          Timestamp ref_lo, Timestamp ref_hi,
                                          Timestamp cur_lo, Timestamp cur_hi);

  /// Geometry drift between two registered versions of an embedding;
  /// emits a WARNING alert when drifted.
  StatusOr<EmbeddingDriftReport> CheckEmbeddingUpdateDrift(
      const std::string& name, int from_version, int to_version);

  /// Online freshness of `feature` for the given entities at logical now.
  FreshnessReport CheckFreshness(const std::string& feature,
                                 const std::vector<Value>& entity_keys) const;

  /// Number of cached ANN indexes (bounded: superseded unpinned versions
  /// are evicted on insert).
  size_t ann_cache_size() const;

  // --- Durability -------------------------------------------------------------

  /// Writes one sealed file, `dir/checkpoint.mlfs`: the logical clock and
  /// every component snapshot, fsynced and published by one rename, so a
  /// failed checkpoint leaves the previous file whole. Components are
  /// snapshotted one after another, not under an ingest barrier.
  Status Checkpoint(const std::string& dir) const;

  /// Restores a Checkpoint() into this store. Before anything changes it
  /// refuses a store that is not fresh (any table, online view, feature,
  /// embedding, model or lineage artifact: FailedPrecondition) and a
  /// missing (NotFound) or changed (Corruption) file. Stream pipelines and
  /// orchestrator refresh state are not persisted.
  Status RestoreCheckpoint(const std::string& dir);

 private:
  /// Maps registered feature names to JoinSources over their log tables.
  StatusOr<std::vector<JoinSource>> ResolveFeatureSources(
      const std::vector<std::string>& features, Timestamp max_age);

  FeatureStoreOptions options_;
  SimClock clock_;
  OfflineStore offline_;
  OnlineStore online_;
  /// Shared cross-layer artifact graph; declared before every component
  /// that records into it (construction and destruction order).
  LineageGraph lineage_;
  FeatureRegistry registry_;
  Materializer materializer_;
  Orchestrator orchestrator_;
  EmbeddingStore embedding_store_;
  ModelRegistry model_registry_;
  AlertBus alerts_;
  FeatureServer server_;
  std::vector<std::unique_ptr<StreamPipeline>> pipelines_;

  /// One cached (or in-flight) ANN index build for "name@vK". Entries are
  /// inserted under ann_mu_ but *built* outside it via the once flag, so a
  /// slow HNSW build never holds the cache lock; build_status records a
  /// failed build for every sharer.
  struct CachedIndex {
    EmbeddingTablePtr table;  // Keeps the indexed buffer alive.
    std::once_flag built;
    std::unique_ptr<AnnIndex> index;
    Status build_status;
  };

  /// Cached (building if needed) index for `table`'s version. Evicts
  /// superseded versions of the same name on insert — only the latest
  /// version plus versions still pinned by registered models stay cached,
  /// so re-registering an embedding N times cannot pin N full tables.
  StatusOr<std::shared_ptr<CachedIndex>> GetOrBuildAnnIndex(
      const EmbeddingTablePtr& table);

  /// Drops cached indexes of `name` with a version below `version`, except
  /// versions pinned by a latest registered model. Caller holds ann_mu_
  /// exclusively.
  void EvictSupersededAnnLocked(const std::string& name, int version);

  mutable std::shared_mutex ann_mu_;
  // Key: "name@vK".
  std::map<std::string, std::shared_ptr<CachedIndex>> ann_cache_;
};

}  // namespace mlfs

#endif  // MLFS_CORE_FEATURE_STORE_H_
