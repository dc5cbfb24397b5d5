#ifndef MLFS_SERVING_FEATURE_SERVER_H_
#define MLFS_SERVING_FEATURE_SERVER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/histogram.h"
#include "common/row.h"
#include "common/status.h"
#include "embedding/embedding_store.h"
#include "lineage/lineage_graph.h"
#include "registry/feature_def.h"
#include "storage/online_store.h"

namespace mlfs {

class FeatureRegistry;  // registry/registry.h
class Program;          // expr/bytecode.h

/// What Get does when a requested feature has no live online value.
enum class MissingFeaturePolicy : uint8_t {
  kNull,   // Fill with NULL (model handles imputation).
  kError,  // Fail the whole request.
};

struct FeatureServerOptions {
  MissingFeaturePolicy missing_policy = MissingFeaturePolicy::kNull;
  /// Store reads per feature before giving up on a *transient* error
  /// (Internal / ResourceExhausted / Corruption): 1 means no retries.
  /// Non-transient errors (NotFound, InvalidArgument, ...) never retry.
  uint32_t max_attempts = 1;
  /// Real-time backoff before retry k: initial_backoff_micros << (k-1).
  /// 0 disables sleeping (retries stay back-to-back; keep 0 in unit tests).
  uint64_t initial_backoff_micros = 0;
};

/// Traffic and resilience counters for one FeatureServer.
struct FeatureServerStats {
  uint64_t requests = 0;
  /// Store reads re-issued after a transient error.
  uint64_t retries = 0;
  /// Features NULL-filled because retries were exhausted (kNull policy).
  uint64_t degraded_features = 0;
  /// Responses containing at least one degraded feature.
  uint64_t degraded_responses = 0;
};

/// An assembled feature vector for one entity.
struct FeatureVector {
  std::vector<std::string> names;
  std::vector<Value> values;
  /// Event time of the oldest contributing feature (staleness signal);
  /// kMaxTimestamp when every feature was missing.
  Timestamp oldest_event_time = kMaxTimestamp;
  uint64_t missing = 0;
  /// Subset of `missing` that was NULL-filled after exhausting retries on
  /// a transient store error (graceful degradation), rather than a miss.
  uint64_t degraded = 0;
  /// Staleness annotations, one "<feature>: <why>" entry per requested
  /// feature whose serving artifact (online view or embedding table) is
  /// marked stale in the lineage graph. Empty = everything served fresh.
  std::vector<std::string> stale;
};

/// Low-latency online feature serving: assembles per-entity feature
/// vectors from materialized online views ("features need to be
/// continuously provided to deployed models", paper §2.2.2). Each
/// requested feature name must be an online view produced by the
/// materializer (schema {entity, event_time, value}).
///
/// Transient store errors (as injected by failpoints, or surfaced by a
/// future disk/remote backend) are retried up to options.max_attempts with
/// exponential backoff; when retries are exhausted the server degrades
/// gracefully per MissingFeaturePolicy instead of failing the request
/// (kNull fills NULL so the model can impute). stats() exposes
/// retry/degradation counters for alerting.
///
/// GetFeaturesBatch is the one serving path (GetFeatures is a batch of
/// one): it issues one shard-grouped OnlineStore::MultiGet per requested
/// view (views × one store call, instead of entities × features point
/// Gets) and retries transient errors per (entity, feature) cell. Results
/// are per-entity: one entity failing under kError does not fail its
/// batch-mates.
///
/// When constructed with an EmbeddingStore, a requested feature that is
/// not an online view but names a registered embedding (bare name or
/// "name@vK") hydrates straight from the embedding table — one
/// EmbeddingTable::MultiGet per view per batch — so embedding features
/// ride the batched serving path without being copied row-by-row into the
/// online store first. Entity keys must be strings for embedding
/// hydration (embedding tables key by string); other key types miss.
///
/// When constructed with a FeatureRegistry, a requested feature that is
/// neither an online view nor an embedding but *is* registered evaluates
/// its definition at request time: the server fetches each entity's
/// latest raw source row from the table's mirror view (written by
/// FeatureStore::Ingest; see SourceMirrorViewName) with the same
/// shard-grouped MultiGet the view path uses, then runs the published
/// expression through the bytecode VM vector-at-a-time over the found
/// rows. Programs are compiled once per definition version and cached;
/// mirror fetches for computed features sharing a source table are
/// issued once per table per batch. NULL/error semantics match offline
/// materialization exactly (the same compiled program evaluates both
/// sides), so a served computed value is byte-identical to what the
/// materializer would have logged for that input row; a row whose
/// evaluation fails carries its own error (Program::EvalBatch reports
/// errors per row) and fails or NULL-fills only its entity. A feature whose
/// latest version is marked stale in the lineage graph carries the same
/// staleness annotation the view path produces.
///
/// Thread-safe. Latency of every request is recorded (wall-clock
/// microseconds) in latency_histogram() — the one place MLFS uses real
/// time, because serving latency is a measurement, not simulation state.
/// Metrics are striped across per-thread-affine histogram shards merged
/// on read, so latency recording never serializes concurrent requests.
class FeatureServer {
 public:
  /// `embeddings` (optional, not owned) enables direct embedding-feature
  /// hydration for feature names that resolve in it. `lineage` (optional,
  /// not owned) enables per-response staleness annotations: a feature
  /// whose view/embedding artifact is marked stale in the graph is still
  /// served, but the response says so (FeatureVector::stale). `registry`
  /// (optional, not owned) enables serving-time evaluation of registered
  /// features that have no materialized online view.
  explicit FeatureServer(const OnlineStore* store,
                         FeatureServerOptions options = {},
                         const EmbeddingStore* embeddings = nullptr,
                         const LineageGraph* lineage = nullptr,
                         const FeatureRegistry* registry = nullptr);

  FeatureServer(const FeatureServer&) = delete;
  FeatureServer& operator=(const FeatureServer&) = delete;

  /// Fetches `features` for `entity_key` at logical time `now`: exactly
  /// GetFeaturesBatch({entity_key}, features, now)[0].
  StatusOr<FeatureVector> GetFeatures(const Value& entity_key,
                                      const std::vector<std::string>& features,
                                      Timestamp now) const;

  /// Entry i is entity_keys[i]'s result. Every requested feature is
  /// fetched for the whole batch first; then entries fail independently
  /// (under kError a missing feature fails only that entity's entry; a
  /// non-feature view fails every entry it has a row for with
  /// FailedPrecondition, under either policy). Each entity, failed or
  /// not, counts as one request and records one latency sample (the
  /// batch's amortized per-entity latency).
  std::vector<StatusOr<FeatureVector>> GetFeaturesBatch(
      const std::vector<Value>& entity_keys,
      const std::vector<std::string>& features, Timestamp now) const;

  /// Merged copy of the striped request-latency histograms (microseconds).
  Histogram latency_histogram() const;

  FeatureServerStats stats() const;

  uint64_t requests() const;

 private:
  /// One stripe of the request metrics; requests pick a stripe by thread
  /// affinity so concurrent recordings hit disjoint locks. Padded to a
  /// cache line to avoid false sharing between stripes.
  struct alignas(64) MetricsStripe {
    mutable std::mutex mu;
    Histogram latency_us;
    uint64_t requests = 0;
  };
  static constexpr size_t kMetricsStripes = 8;

  void RecordLatency(double micros, uint64_t num_requests) const;

  /// One shard-grouped MultiGet of `view`, then up to max_attempts reads
  /// (with backoff) of each entity whose read failed transiently.
  std::vector<StatusOr<Row>> FetchRows(const std::string& view,
                                       const std::vector<Value>& keys,
                                       Timestamp now) const;

  /// Resolved embedding table for a requested feature name, or null when
  /// the name should go through the online-view path.
  EmbeddingTablePtr ResolveEmbeddingFeature(const std::string& feature) const;

  /// A feature served by evaluating its published definition at request
  /// time against the source table's mirror view.
  struct ComputedFeature {
    RegisteredFeature reg;
    std::string mirror_view;
    /// Compiled against the mirror view's schema; null until the mirror
    /// view exists (no ingest yet), in which case every entity misses.
    std::shared_ptr<const Program> program;
  };

  /// Resolves `feature` as serving-time computed: registered in
  /// `registry_`, not an online view, not an embedding. nullopt sends the
  /// name down the other paths.
  std::optional<ComputedFeature> ResolveComputedFeature(
      const std::string& feature) const;

  /// Cached (compiling on first use) program for `reg`, keyed "name@vN".
  std::shared_ptr<const Program> CompiledProgramFor(
      const RegisteredFeature& reg) const;

  /// "<feature>: <why>" when `artifact` is marked stale ("" otherwise).
  std::string StaleNoteArtifact(const std::string& feature,
                                const ArtifactId& artifact) const;

  /// As above for the view/embedding serving artifact behind `feature`.
  /// `table` is the resolved embedding table, or null for the online-view
  /// path.
  std::string StaleNote(const std::string& feature,
                        const EmbeddingTablePtr& table) const;

  const OnlineStore* store_;            // Not owned.
  const EmbeddingStore* embeddings_;    // Not owned; may be null.
  const LineageGraph* lineage_;         // Not owned; may be null.
  const FeatureRegistry* registry_;     // Not owned; may be null.
  FeatureServerOptions options_;
  /// Compiled programs for served computed features, keyed "name@vN".
  mutable std::mutex compile_mu_;
  mutable std::unordered_map<std::string, std::shared_ptr<const Program>>
      compile_cache_;
  mutable std::vector<MetricsStripe> metrics_;
  mutable std::atomic<uint64_t> retries_{0};
  mutable std::atomic<uint64_t> degraded_features_{0};
  mutable std::atomic<uint64_t> degraded_responses_{0};
};

}  // namespace mlfs

#endif  // MLFS_SERVING_FEATURE_SERVER_H_
