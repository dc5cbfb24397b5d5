#include "core/feature_store.h"

#include <algorithm>

#include "common/serde.h"
#include "io/block_file.h"
#include "registry/materializer.h"
#include "storage/entity_key.h"
#include "storage/persistence.h"

namespace mlfs {

FeatureStore::FeatureStore(FeatureStoreOptions options)
    : options_(std::move(options)),
      clock_(options_.start_time),
      online_(options_.online),
      registry_(&offline_, &lineage_),
      materializer_(&online_, &offline_, &lineage_),
      orchestrator_(&registry_, &materializer_),
      embedding_store_(&lineage_, options_.embedding_tiering),
      model_registry_(&lineage_),
      server_(&online_, options_.serving, &embedding_store_, &lineage_,
              &registry_) {
  // Surface every staleness fan-out on the alert bus. Routine supersedes
  // (a new version landed) are informational; deprecations and drift mean
  // downstream consumers are actively at risk.
  lineage_.Subscribe([this](const StalenessEvent& event) {
    const AlertSeverity severity =
        event.reason == StalenessReason::kSuperseded ? AlertSeverity::kInfo
                                                     : AlertSeverity::kWarning;
    std::string message = StalenessInfo{event.reason, event.at, event.source,
                                        event.detail}
                              .ToString();
    message += "; impacted: " + std::to_string(event.impacted.size()) +
               " downstream artifact(s)";
    alerts_.Emit({event.at, "staleness:" + event.source.ToString(), severity,
                  std::move(message)});
  });
}

Status FeatureStore::CreateSourceTable(OfflineTableOptions options) {
  return offline_.CreateTable(std::move(options));
}

Status FeatureStore::Ingest(const std::string& table,
                            const std::vector<Row>& rows) {
  MLFS_ASSIGN_OR_RETURN(OfflineTable* offline_table, offline_.GetTable(table));
  MLFS_RETURN_IF_ERROR(offline_table->AppendBatch(rows));
  clock_.AdvanceTo(offline_table->max_event_time());
  // Mirror each entity's latest raw row into the online store (full
  // source schema, keyed by the table's entity column) so the server can
  // evaluate registered features at request time over exactly the inputs
  // the materializer would read. Event-time LWW with write order breaking
  // ties matches the offline side's latest-ordinal-wins, so the mirror
  // always holds the row EvalLatestPerEntityAsOf(now) would pick.
  const OfflineTableOptions& opts = offline_table->options();
  const int entity_idx = opts.schema->FieldIndex(opts.entity_column);
  const int time_idx = opts.schema->FieldIndex(opts.time_column);
  if (entity_idx < 0 || time_idx < 0) return Status::OK();
  const std::string mirror = SourceMirrorViewName(table);
  if (!online_.HasView(mirror)) {
    MLFS_RETURN_IF_ERROR(online_.CreateView(mirror, opts.schema));
    (void)lineage_.AddEdge(ViewArtifact(mirror), EdgeKind::kMaterializes,
                           TableArtifact(table));
  }
  const Timestamp now = clock_.now();
  for (const Row& row : rows) {
    const Value& key = row.value(static_cast<size_t>(entity_idx));
    const Value& ts = row.value(static_cast<size_t>(time_idx));
    if (key.is_null() || ts.is_null()) continue;
    MLFS_RETURN_IF_ERROR(
        online_.Put(mirror, key, row, ts.time_value(), now));
  }
  return Status::OK();
}

StatusOr<int> FeatureStore::PublishFeature(const FeatureDefinition& def) {
  return registry_.Publish(def, clock_.now());
}

StatusOr<int> FeatureStore::RunMaterialization() {
  return orchestrator_.RunDue(clock_.now());
}

StatusOr<FeatureVector> FeatureStore::ServeFeatures(
    const Value& entity_key, const std::vector<std::string>& features) {
  return server_.GetFeatures(entity_key, features, clock_.now());
}

StatusOr<std::vector<JoinSource>> FeatureStore::ResolveFeatureSources(
    const std::vector<std::string>& features, Timestamp max_age) {
  std::vector<JoinSource> sources;
  sources.reserve(features.size());
  for (const std::string& feature : features) {
    // Validate the feature exists (clearer error than a missing log table).
    MLFS_RETURN_IF_ERROR(registry_.Get(feature).status());
    MLFS_ASSIGN_OR_RETURN(
        OfflineTable* log_table,
        offline_.GetTable(Materializer::LogTableName(feature)));
    JoinSource source;
    source.table = log_table;
    source.columns = {"value"};
    source.output_columns = {feature};
    source.max_age = max_age;
    sources.push_back(std::move(source));
  }
  return sources;
}

StatusOr<TrainingSet> FeatureStore::BuildTrainingSet(
    const std::vector<Row>& spine, const std::string& spine_entity_column,
    const std::string& spine_time_column,
    const std::vector<std::string>& features, Timestamp max_age,
    const JoinOptions& join_options) {
  MLFS_ASSIGN_OR_RETURN(std::vector<JoinSource> sources,
                        ResolveFeatureSources(features, max_age));
  return PointInTimeJoin(spine, spine_entity_column, spine_time_column,
                         sources, join_options);
}

StatusOr<TrainingSet> FeatureStore::BuildTrainingSet(
    const SpineIndex& spine, const std::vector<std::string>& features,
    Timestamp max_age, const JoinOptions& join_options) {
  MLFS_ASSIGN_OR_RETURN(std::vector<JoinSource> sources,
                        ResolveFeatureSources(features, max_age));
  return PointInTimeJoin(spine, sources, join_options);
}

StatusOr<StreamPipeline*> FeatureStore::CreateStreamPipeline(
    StreamPipelineOptions options) {
  MLFS_ASSIGN_OR_RETURN(auto pipeline,
                        StreamPipeline::Create(std::move(options), &online_,
                                               &offline_));
  pipelines_.push_back(std::move(pipeline));
  return pipelines_.back().get();
}

StatusOr<int> FeatureStore::RegisterEmbedding(const EmbeddingTablePtr& table) {
  return embedding_store_.Register(table, clock_.now());
}

StatusOr<std::vector<float>> FeatureStore::GetEmbedding(
    const std::string& name, const std::string& key) const {
  MLFS_ASSIGN_OR_RETURN(EmbeddingTablePtr table,
                        embedding_store_.GetLatest(name));
  return table->GetVector(key);
}

StatusOr<std::shared_ptr<FeatureStore::CachedIndex>>
FeatureStore::GetOrBuildAnnIndex(const EmbeddingTablePtr& table) {
  const std::string cache_key = table->metadata().VersionedName();
  std::shared_ptr<CachedIndex> entry;
  {
    std::shared_lock lock(ann_mu_);
    auto it = ann_cache_.find(cache_key);
    if (it != ann_cache_.end()) entry = it->second;
  }
  if (entry == nullptr) {
    std::unique_lock lock(ann_mu_);
    auto it = ann_cache_.find(cache_key);
    if (it == ann_cache_.end()) {
      entry = std::make_shared<CachedIndex>();
      entry->table = table;
      ann_cache_.emplace(cache_key, entry);
      EvictSupersededAnnLocked(table->metadata().name,
                               table->metadata().version);
    } else {
      entry = it->second;
    }
  }
  // The build runs outside ann_mu_: one slow HNSW build stalls only
  // callers of this same version (who share its result via the once flag),
  // never lookups on other embeddings or versions.
  std::call_once(entry->built, [&] {
    if (entry->table->tiered() && options_.ann_index == "brute") {
      // Stays out-of-core: the index streams tier blocks per search
      // instead of holding a second resident copy of the vectors.
      entry->index = MakeTieredBruteForceIndex(entry->table);
      entry->build_status = entry->index->Build(nullptr, 0, 0);
    } else {
      if (entry->table->tiered()) {
        // HNSW needs stable row pointers for its whole lifetime, which a
        // tiered table cannot give; index a resident copy (the documented
        // RAM cost of graph indexes over spilled versions).
        StatusOr<EmbeddingTablePtr> resident = entry->table->Materialize();
        if (!resident.ok()) {
          entry->build_status = resident.status();
          return;
        }
        entry->table = *std::move(resident);
      }
      entry->index = options_.ann_index == "brute" ? MakeBruteForceIndex()
                                                   : MakeHnswIndex();
      entry->build_status = entry->index->Build(
          entry->table->raw().data(), entry->table->size(),
          entry->table->dim());
    }
    if (!entry->build_status.ok()) entry->index.reset();
  });
  if (!entry->build_status.ok()) return entry->build_status;
  return entry;
}

void FeatureStore::EvictSupersededAnnLocked(const std::string& name,
                                            int version) {
  // Versions pinned by the latest registered models stay cached: a skewed
  // consumer still being served must not lose its index to an eviction.
  std::vector<std::string> pinned;
  for (const ModelRecord& model : model_registry_.ListLatest()) {
    for (const std::string& ref : model.embedding_refs) {
      pinned.push_back(ref);
    }
  }
  for (auto it = ann_cache_.begin(); it != ann_cache_.end();) {
    const EmbeddingTableMetadata& metadata = it->second->table->metadata();
    const bool superseded =
        metadata.name == name && metadata.version < version;
    if (superseded && std::find(pinned.begin(), pinned.end(), it->first) ==
                          pinned.end()) {
      it = ann_cache_.erase(it);
    } else {
      ++it;
    }
  }
}

namespace {

/// Drops the reference key from its own neighbor list and truncates to k.
std::vector<std::pair<std::string, float>> FilterSelf(
    const EmbeddingTable& table, const std::string& reference_key,
    const std::vector<Neighbor>& hits, size_t k) {
  std::vector<std::pair<std::string, float>> out;
  out.reserve(k);
  for (const Neighbor& hit : hits) {
    if (table.key(hit.id) == reference_key) continue;
    out.emplace_back(table.key(hit.id), hit.distance);
    if (out.size() == k) break;
  }
  return out;
}

}  // namespace

StatusOr<std::vector<std::pair<std::string, float>>>
FeatureStore::NearestEntities(const std::string& name,
                              const std::string& reference_key, size_t k) {
  return std::move(NearestEntitiesBatch(name, {reference_key}, k)[0]);
}

std::vector<StatusOr<std::vector<std::pair<std::string, float>>>>
FeatureStore::NearestEntitiesBatch(
    const std::string& name, const std::vector<std::string>& reference_keys,
    size_t k) {
  using Result = StatusOr<std::vector<std::pair<std::string, float>>>;
  const size_t n = reference_keys.size();
  if (k == 0) {
    return std::vector<Result>(
        n, Result(Status::InvalidArgument("NearestEntities needs k >= 1")));
  }
  StatusOr<EmbeddingTablePtr> table = embedding_store_.GetLatest(name);
  if (!table.ok()) {
    return std::vector<Result>(n, Result(table.status()));
  }
  StatusOr<std::shared_ptr<CachedIndex>> entry = GetOrBuildAnnIndex(*table);
  if (!entry.ok()) {
    return std::vector<Result>(n, Result(entry.status()));
  }
  // Gather the resolved reference vectors into one contiguous query
  // buffer; unknown keys fail only their own slot.
  std::vector<Result> out(n, Result(Status::Internal("slot not filled")));
  const size_t dim = (*table)->dim();
  Status fault;
  std::vector<const float*> rows = (*table)->MultiGet(reference_keys, &fault);
  std::vector<float> queries;
  queries.reserve(n * dim);
  std::vector<size_t> query_slot;  // queries row -> out slot.
  query_slot.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (rows[i] == nullptr) {
      // A null row of a key the table holds was nulled by a tier load
      // fault.
      if (!fault.ok() && (*table)->IndexOf(reference_keys[i]) >= 0) {
        out[i] = fault;
      } else {
        out[i] = Status::NotFound("no embedding for key '" +
                                  reference_keys[i] + "'");
      }
      continue;
    }
    queries.insert(queries.end(), rows[i], rows[i] + dim);
    query_slot.push_back(i);
  }
  if (query_slot.empty()) return out;
  // One extra hit makes room for the reference row itself; clamped first
  // so that k + 1 cannot wrap.
  k = std::min(k, (*table)->size());
  StatusOr<std::vector<std::vector<Neighbor>>> hits =
      (*entry)->index->BatchSearch(queries.data(), query_slot.size(), k + 1);
  if (!hits.ok()) {
    for (size_t slot : query_slot) out[slot] = hits.status();
    return out;
  }
  for (size_t q = 0; q < query_slot.size(); ++q) {
    const size_t slot = query_slot[q];
    out[slot] = FilterSelf(**table, reference_keys[slot], (*hits)[q], k);
  }
  return out;
}

size_t FeatureStore::ann_cache_size() const {
  std::shared_lock lock(ann_mu_);
  return ann_cache_.size();
}

StatusOr<int> FeatureStore::RegisterModel(ModelRecord record) {
  return model_registry_.Register(std::move(record), clock_.now());
}

StatusOr<VersionSkewReport> FeatureStore::CheckEmbeddingVersionSkew() {
  MLFS_ASSIGN_OR_RETURN(VersionSkewReport report,
                        model_registry_.CheckEmbeddingSkew(embedding_store_));
  for (const VersionSkew& skew : report.skews) {
    alerts_.Emit({clock_.now(), "version_skew:" + skew.model,
                  AlertSeverity::kCritical,
                  "model pins " + skew.embedding + "@v" +
                      std::to_string(skew.pinned_version) +
                      " but serving has v" +
                      std::to_string(skew.latest_version) +
                      " — dot products against the new space are "
                      "meaningless; retrain or hold the rollout"});
  }
  for (const DanglingRef& dangling : report.dangling) {
    alerts_.Emit({clock_.now(), "dangling_ref:" + dangling.model,
                  AlertSeverity::kWarning,
                  "embedding ref '" + dangling.ref +
                      "' cannot be skew-checked: " + dangling.detail});
  }
  return report;
}

std::vector<ArtifactId> FeatureStore::ImpactOf(
    const ArtifactId& artifact) const {
  return lineage_.ImpactSet(artifact);
}

Status FeatureStore::DeprecateFeature(const std::string& name) {
  return registry_.Deprecate(name, clock_.now());
}

Status FeatureStore::DeprecateEmbedding(const std::string& name) {
  return embedding_store_.Deprecate(name, clock_.now());
}

StatusOr<DriftReport> FeatureStore::CheckFeatureDrift(
    const std::string& feature, Timestamp ref_lo, Timestamp ref_hi,
    Timestamp cur_lo, Timestamp cur_hi) {
  MLFS_ASSIGN_OR_RETURN(
      OfflineTable* log_table,
      offline_.GetTable(Materializer::LogTableName(feature)));
  // Only the value column is read: a projected scan never decodes the
  // log's entity and time columns.
  const SchemaPtr& log_schema = log_table->options().schema;
  const int value_idx = log_schema->FieldIndex("value");
  if (value_idx < 0) {
    return Status::FailedPrecondition("log table '" + log_table->name() +
                                      "' has no value column");
  }
  const int columns[] = {value_idx};
  MLFS_ASSIGN_OR_RETURN(SchemaPtr value_schema,
                        Schema::Create({log_schema->field(value_idx)}));
  auto extract = [&](Timestamp lo,
                     Timestamp hi) -> StatusOr<std::vector<double>> {
    MLFS_ASSIGN_OR_RETURN(std::vector<Row> rows,
                          log_table->Scan({lo, hi, columns, value_schema}));
    std::vector<double> values;
    for (const Row& row : rows) {
      const Value& v = row.value(0);
      if (v.is_null()) continue;
      auto d = v.AsDouble();
      if (d.ok()) values.push_back(*d);
    }
    return values;
  };
  MLFS_ASSIGN_OR_RETURN(std::vector<double> reference,
                        extract(ref_lo, ref_hi));
  MLFS_ASSIGN_OR_RETURN(std::vector<double> current, extract(cur_lo, cur_hi));
  if (reference.size() < 10) {
    return Status::FailedPrecondition(
        "reference window has too few materialized values (" +
        std::to_string(reference.size()) + ")");
  }
  if (current.empty()) {
    return Status::FailedPrecondition("current window is empty");
  }
  MLFS_ASSIGN_OR_RETURN(DriftDetector detector,
                        DriftDetector::Fit(std::move(reference)));
  MLFS_ASSIGN_OR_RETURN(DriftReport report, detector.Check(current));
  if (report.drifted) {
    alerts_.Emit({clock_.now(), "drift:" + feature, AlertSeverity::kWarning,
                  report.ToString()});
    // Propagate: the feature's current version (and everything serving or
    // consuming it) is now suspect.
    auto latest = registry_.Get(feature);
    if (latest.ok()) {
      (void)lineage_.MarkStale(FeatureArtifact(feature, latest->version),
                               StalenessReason::kDrift, clock_.now(),
                               report.ToString());
    }
  }
  return report;
}

StatusOr<EmbeddingDriftReport> FeatureStore::CheckEmbeddingUpdateDrift(
    const std::string& name, int from_version, int to_version) {
  MLFS_ASSIGN_OR_RETURN(EmbeddingTablePtr from,
                        embedding_store_.GetVersion(name, from_version));
  MLFS_ASSIGN_OR_RETURN(EmbeddingTablePtr to,
                        embedding_store_.GetVersion(name, to_version));
  MLFS_ASSIGN_OR_RETURN(EmbeddingDriftReport report,
                        CheckEmbeddingDrift(*from, *to));
  if (report.drifted) {
    alerts_.Emit({clock_.now(), "embedding_drift:" + name,
                  AlertSeverity::kWarning, report.ToString()});
    // The old version's geometry no longer matches the space being rolled
    // out: consumers still pinned to it are the ones at risk.
    (void)lineage_.MarkStale(EmbeddingArtifact(name, from_version),
                             StalenessReason::kDrift, clock_.now(),
                             report.ToString());
  }
  return report;
}

FreshnessReport FeatureStore::CheckFreshness(
    const std::string& feature,
    const std::vector<Value>& entity_keys) const {
  return ComputeFreshness(online_, feature, entity_keys, clock_.now());
}

namespace {
constexpr uint32_t kCheckpointMagic = 0x4d4c434b;  // "MLCK"
constexpr uint32_t kCheckpointVersion = 2;  // v2: Checksum64 trailer.
constexpr char kCheckpointFile[] = "/checkpoint.mlfs";
}  // namespace

Status FeatureStore::Checkpoint(const std::string& dir) const {
  Encoder enc;
  enc.PutFixed64(static_cast<uint64_t>(clock_.now()));
  for (const std::string& snapshot :
       {lineage_.Snapshot(), online_.Snapshot(), registry_.Snapshot(),
        embedding_store_.Snapshot(), model_registry_.Snapshot()}) {
    enc.PutString(snapshot);
  }
  const std::vector<std::string> tables = offline_.TableNames();
  enc.PutVarint64(tables.size());
  for (const std::string& name : tables) {
    MLFS_ASSIGN_OR_RETURN(OfflineTable * table, offline_.GetTable(name));
    enc.PutString(table->Snapshot());
  }
  return WriteFileAtomic(
      dir + kCheckpointFile,
      BlockFile::Seal(kCheckpointMagic, kCheckpointVersion, enc.buffer()),
      /*durable=*/true);
}

Status FeatureStore::RestoreCheckpoint(const std::string& dir) {
  if (!offline_.TableNames().empty() || online_.num_views() != 0 ||
      registry_.num_features() != 0 || embedding_store_.num_tables() != 0 ||
      model_registry_.num_models() != 0 || lineage_.num_artifacts() != 0) {
    return Status::FailedPrecondition(
        "RestoreCheckpoint requires a fresh store");
  }
  MLFS_ASSIGN_OR_RETURN(
      BlockFilePtr file,
      BlockFile::Map(kCheckpointMagic, kCheckpointVersion,
                     dir + kCheckpointFile, /*remove_file_on_destroy=*/false,
                     "checkpoint"));
  // Split the whole file and rebuild the tables before the first change.
  Decoder dec(file->body());
  MLFS_ASSIGN_OR_RETURN(uint64_t now, dec.GetFixed64());
  std::string lineage, online, registry, embeddings, models;
  for (std::string* snapshot :
       {&lineage, &online, &registry, &embeddings, &models}) {
    MLFS_ASSIGN_OR_RETURN(*snapshot, dec.GetString());
  }
  MLFS_ASSIGN_OR_RETURN(uint64_t num_tables, dec.GetVarint64());
  std::vector<std::unique_ptr<OfflineTable>> tables;
  for (uint64_t i = 0; i < num_tables; ++i) {
    MLFS_ASSIGN_OR_RETURN(std::string snapshot, dec.GetString());
    MLFS_ASSIGN_OR_RETURN(auto table, OfflineTable::FromSnapshot(snapshot));
    tables.push_back(std::move(table));
  }
  if (!dec.AtEnd()) return Status::Corruption("checkpoint: trailing bytes");
  // Lineage first: it carries staleness annotations and the event log the
  // silo restores cannot reconstruct; their re-recorded edges then land as
  // idempotent no-ops.
  MLFS_RETURN_IF_ERROR(lineage_.Restore(lineage));
  for (auto& table : tables) {
    MLFS_RETURN_IF_ERROR(offline_.AdoptTable(std::move(table)));
  }
  MLFS_RETURN_IF_ERROR(online_.Restore(online));
  MLFS_RETURN_IF_ERROR(registry_.Restore(registry));
  MLFS_RETURN_IF_ERROR(embedding_store_.Restore(embeddings));
  MLFS_RETURN_IF_ERROR(model_registry_.Restore(models));
  clock_.AdvanceTo(static_cast<Timestamp>(now));
  return Status::OK();
}

}  // namespace mlfs
