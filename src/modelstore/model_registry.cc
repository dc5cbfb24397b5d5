#include "modelstore/model_registry.h"

#include <algorithm>
#include <set>

#include "common/hash.h"
#include "common/serde.h"
#include "io/block_file.h"

namespace mlfs {

ModelRegistry::ModelRegistry(LineageGraph* lineage) {
  if (lineage == nullptr) {
    owned_lineage_ = std::make_unique<LineageGraph>();
    lineage_ = owned_lineage_.get();
  } else {
    lineage_ = lineage;
  }
}

StatusOr<int> ModelRegistry::Register(ModelRecord record, Timestamp now) {
  if (record.name.empty()) {
    return Status::InvalidArgument("model needs a name");
  }
  if (record.trained_at == 0) record.trained_at = now;
  if (record.weights_checksum == 0 && !record.weights.empty()) {
    record.weights_checksum =
        Fnv1a64(record.weights.data(),
                record.weights.size() * sizeof(double));
  }
  int version = 0;
  ModelRecord stamped;
  {
    std::lock_guard lock(mu_);
    auto& versions = models_[record.name];
    record.version = versions.empty() ? 1 : versions.back().version + 1;
    version = record.version;
    versions.push_back(std::move(record));
    stamped = versions.back();
  }
  RecordLineage(stamped);
  return version;
}

void ModelRegistry::RecordLineage(const ModelRecord& record) {
  const ArtifactId self = ModelArtifact(record.name, record.version);
  (void)lineage_->AddArtifact(self);
  // One deduplicated pins edge per pinned reference; unpinned refs have no
  // version to pin and surface later as dangling findings.
  for (const std::string& ref : record.embedding_refs) {
    const VersionedRef parsed = ParseVersionedRef(ref);
    if (!parsed.pinned()) continue;
    (void)lineage_->AddEdge(self, EdgeKind::kPins,
                            EmbeddingArtifact(parsed.name, parsed.version));
  }
  for (const std::string& ref : record.feature_refs) {
    const VersionedRef parsed = ParseVersionedRef(ref);
    if (!parsed.pinned()) continue;
    (void)lineage_->AddEdge(self, EdgeKind::kPins,
                            FeatureArtifact(parsed.name, parsed.version));
  }
}

StatusOr<ModelRecord> ModelRegistry::Get(const std::string& name) const {
  std::lock_guard lock(mu_);
  auto it = models_.find(name);
  if (it == models_.end()) {
    return Status::NotFound("model '" + name + "' not registered");
  }
  return it->second.back();
}

StatusOr<ModelRecord> ModelRegistry::GetVersion(const std::string& name,
                                                int version) const {
  std::lock_guard lock(mu_);
  auto it = models_.find(name);
  if (it == models_.end()) {
    return Status::NotFound("model '" + name + "' not registered");
  }
  for (const ModelRecord& record : it->second) {
    if (record.version == version) return record;
  }
  return Status::NotFound("model '" + name + "' has no version " +
                          std::to_string(version));
}

std::vector<ModelRecord> ModelRegistry::ListLatest() const {
  std::lock_guard lock(mu_);
  std::vector<ModelRecord> out;
  out.reserve(models_.size());
  for (const auto& [name, versions] : models_) {
    out.push_back(versions.back());
  }
  return out;
}

StatusOr<VersionSkewReport> ModelRegistry::CheckEmbeddingSkew(
    const EmbeddingStore& embeddings) const {
  VersionSkewReport report;

  // Unresolvable refs become findings, never aborts: one model's typo must
  // not hide real skew elsewhere. Repeated refs are deduplicated.
  std::map<std::string, int> latest_models;
  for (const ModelRecord& record : ListLatest()) {
    latest_models[record.name] = record.version;
    std::set<std::string> seen;
    for (const std::string& ref : record.embedding_refs) {
      if (!seen.insert(ref).second) continue;
      const VersionedRef parsed = ParseVersionedRef(ref);
      if (!parsed.pinned()) {
        report.dangling.push_back(
            {record.VersionedName(), ref, "unpinned embedding reference"});
        continue;
      }
      if (!embeddings.GetVersion(parsed.name, parsed.version).ok()) {
        report.dangling.push_back({record.VersionedName(), ref,
                                   "pinned version not in embedding store"});
      }
    }
  }

  // Skew is a lineage question: for every superseded embedding version the
  // graph knows of, its impact set names the consumers left behind. The
  // direct `pins` edge pins down which stale version each model holds.
  for (const std::string& name : embeddings.Names()) {
    auto latest = embeddings.GetLatest(name);
    if (!latest.ok()) continue;
    const int latest_version = latest.value()->metadata().version;
    for (const ArtifactId& stale :
         lineage_->VersionsOf(ArtifactKind::kEmbedding, name)) {
      if (stale.version <= 0 || stale.version >= latest_version) continue;
      for (const ArtifactId& impacted : lineage_->ImpactSet(stale)) {
        if (impacted.kind != ArtifactKind::kModel) continue;
        auto it = latest_models.find(impacted.name);
        if (it == latest_models.end() || it->second != impacted.version) {
          continue;  // Superseded models are not actionable consumers.
        }
        bool pins_directly = false;
        for (const LineageEdge& edge : lineage_->OutEdges(impacted)) {
          if (edge.kind == EdgeKind::kPins && edge.to == stale) {
            pins_directly = true;
            break;
          }
        }
        if (!pins_directly) continue;
        report.skews.push_back(
            VersionSkew{FormatVersionedRef(impacted.name, impacted.version),
                        name, stale.version, latest_version});
      }
    }
  }
  return report;
}

std::vector<std::string> ModelRegistry::ConsumersOfEmbedding(
    const std::string& embedding_name) const {
  // Reverse pins edges over every known version of the embedding.
  std::map<std::string, int> latest_models;
  for (const ModelRecord& record : ListLatest()) {
    latest_models[record.name] = record.version;
  }
  std::vector<std::string> out;
  for (const ArtifactId& version :
       lineage_->VersionsOf(ArtifactKind::kEmbedding, embedding_name)) {
    for (const LineageEdge& edge : lineage_->InEdges(version)) {
      if (edge.kind != EdgeKind::kPins) continue;
      if (edge.from.kind != ArtifactKind::kModel) continue;
      auto it = latest_models.find(edge.from.name);
      if (it == latest_models.end() || it->second != edge.from.version) {
        continue;
      }
      out.push_back(FormatVersionedRef(edge.from.name, edge.from.version));
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

size_t ModelRegistry::num_models() const {
  std::lock_guard lock(mu_);
  return models_.size();
}

namespace {
constexpr uint32_t kModelSnapshotMagic = 0x4d4c4d44;  // "MLMD"
constexpr uint32_t kModelSnapshotVersion = 2;  // v2: Checksum64 trailer.
}  // namespace

std::string ModelRegistry::Snapshot() const {
  std::lock_guard lock(mu_);
  Encoder enc;
  uint64_t total = 0;
  for (const auto& [name, versions] : models_) total += versions.size();
  enc.PutVarint64(total);
  for (const auto& [name, versions] : models_) {
    for (const ModelRecord& record : versions) {
      enc.PutString(record.name);
      enc.PutVarint64(static_cast<uint64_t>(record.version));
      enc.PutString(record.task);
      enc.PutVarint64(record.feature_refs.size());
      for (const auto& ref : record.feature_refs) enc.PutString(ref);
      enc.PutVarint64(record.embedding_refs.size());
      for (const auto& ref : record.embedding_refs) enc.PutString(ref);
      enc.PutVarint64(record.hyperparameters.size());
      for (const auto& [key, value] : record.hyperparameters) {
        enc.PutString(key);
        enc.PutString(value);
      }
      enc.PutVarint64(record.metrics.size());
      for (const auto& [key, value] : record.metrics) {
        enc.PutString(key);
        enc.PutDouble(value);
      }
      enc.PutFixed64(static_cast<uint64_t>(record.trained_at));
      enc.PutFixed64(record.weights_checksum);
      enc.PutVarint64(record.weights.size());
      for (double w : record.weights) enc.PutDouble(w);
    }
  }
  return BlockFile::Seal(kModelSnapshotMagic, kModelSnapshotVersion,
                         enc.buffer());
}

Status ModelRegistry::Restore(std::string_view snapshot) {
  std::unique_lock lock(mu_);
  if (!models_.empty()) {
    return Status::FailedPrecondition("Restore requires an empty registry");
  }
  MLFS_ASSIGN_OR_RETURN(
      std::string_view body,
      BlockFile::Unseal(kModelSnapshotMagic, kModelSnapshotVersion, snapshot,
                        "model snapshot"));
  Decoder dec(body);
  MLFS_ASSIGN_OR_RETURN(uint64_t total, dec.GetVarint64());
  for (uint64_t i = 0; i < total; ++i) {
    ModelRecord record;
    MLFS_ASSIGN_OR_RETURN(record.name, dec.GetString());
    MLFS_ASSIGN_OR_RETURN(uint64_t version, dec.GetVarint64());
    record.version = static_cast<int>(version);
    MLFS_ASSIGN_OR_RETURN(record.task, dec.GetString());
    MLFS_ASSIGN_OR_RETURN(uint64_t num_features, dec.GetVarint64());
    for (uint64_t f = 0; f < num_features; ++f) {
      MLFS_ASSIGN_OR_RETURN(std::string ref, dec.GetString());
      record.feature_refs.push_back(std::move(ref));
    }
    MLFS_ASSIGN_OR_RETURN(uint64_t num_embeddings, dec.GetVarint64());
    for (uint64_t e = 0; e < num_embeddings; ++e) {
      MLFS_ASSIGN_OR_RETURN(std::string ref, dec.GetString());
      record.embedding_refs.push_back(std::move(ref));
    }
    MLFS_ASSIGN_OR_RETURN(uint64_t num_hyper, dec.GetVarint64());
    for (uint64_t h = 0; h < num_hyper; ++h) {
      MLFS_ASSIGN_OR_RETURN(std::string key, dec.GetString());
      MLFS_ASSIGN_OR_RETURN(std::string value, dec.GetString());
      record.hyperparameters.emplace(std::move(key), std::move(value));
    }
    MLFS_ASSIGN_OR_RETURN(uint64_t num_metrics, dec.GetVarint64());
    for (uint64_t m = 0; m < num_metrics; ++m) {
      MLFS_ASSIGN_OR_RETURN(std::string key, dec.GetString());
      MLFS_ASSIGN_OR_RETURN(double value, dec.GetDouble());
      record.metrics.emplace(std::move(key), value);
    }
    MLFS_ASSIGN_OR_RETURN(uint64_t trained_at, dec.GetFixed64());
    record.trained_at = static_cast<Timestamp>(trained_at);
    MLFS_ASSIGN_OR_RETURN(record.weights_checksum, dec.GetFixed64());
    MLFS_ASSIGN_OR_RETURN(uint64_t num_weights, dec.GetVarint64());
    if (num_weights > dec.remaining() / sizeof(double)) {
      return Status::Corruption("model weight count exceeds snapshot");
    }
    record.weights.resize(num_weights);
    for (auto& w : record.weights) {
      MLFS_ASSIGN_OR_RETURN(w, dec.GetDouble());
    }
    models_[record.name].push_back(std::move(record));
  }
  // Re-record graph structure (idempotent when the graph itself was also
  // restored); no staleness events are re-emitted.
  std::vector<ModelRecord> restored;
  for (const auto& [name, versions] : models_) {
    restored.insert(restored.end(), versions.begin(), versions.end());
  }
  lock.unlock();
  for (const ModelRecord& record : restored) RecordLineage(record);
  return Status::OK();
}

}  // namespace mlfs
