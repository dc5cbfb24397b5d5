#include "registry/registry.h"

#include <algorithm>

#include "common/serde.h"
#include "expr/evaluator.h"
#include "expr/parser.h"
#include "io/block_file.h"

namespace mlfs {

FeatureRegistry::FeatureRegistry(const OfflineStore* offline,
                                 LineageGraph* lineage)
    : offline_(offline) {
  if (lineage == nullptr) {
    owned_lineage_ = std::make_unique<LineageGraph>();
    lineage_ = owned_lineage_.get();
  } else {
    lineage_ = lineage;
  }
}

StatusOr<int> FeatureRegistry::Publish(const FeatureDefinition& def,
                                       Timestamp now) {
  if (def.name.empty()) {
    return Status::InvalidArgument("feature needs a name");
  }
  if (def.entity.empty()) {
    return Status::InvalidArgument("feature '" + def.name +
                                   "' needs an entity");
  }
  if (def.cadence <= 0) {
    return Status::InvalidArgument("feature '" + def.name +
                                   "' needs a positive cadence");
  }
  MLFS_ASSIGN_OR_RETURN(OfflineTable* table,
                        offline_->GetTable(def.source_table));
  MLFS_ASSIGN_OR_RETURN(ExprPtr expr, ParseExpr(def.expression));
  MLFS_ASSIGN_OR_RETURN(FeatureType output_type,
                        InferType(*expr, *table->options().schema));
  if (output_type == FeatureType::kNull) {
    return Status::InvalidArgument("feature '" + def.name +
                                   "' expression is always NULL");
  }

  RegisteredFeature reg;
  reg.def = def;
  reg.registered_at = now;
  reg.output_type = output_type;
  reg.input_columns = expr->ReferencedColumns();
  reg.source_entity_column = table->options().entity_column;
  reg.source_time_column = table->options().time_column;

  int version = 0;
  {
    std::lock_guard lock(mu_);
    auto& versions = features_[def.name];
    reg.version = versions.empty() ? 1 : versions.back().version + 1;
    version = reg.version;
    versions.push_back(reg);
  }
  // Lineage recording and staleness fan-out run outside mu_ so listeners
  // (alerting bridges) can call back into the registry.
  RecordLineage(reg);
  if (version > 1) {
    (void)lineage_->MarkStale(
        FeatureArtifact(def.name, version - 1), StalenessReason::kSuperseded,
        now, "superseded by " + reg.VersionedName());
  }
  return version;
}

void FeatureRegistry::RecordLineage(const RegisteredFeature& reg) {
  const ArtifactId self = FeatureArtifact(reg.def.name, reg.version);
  (void)lineage_->AddArtifact(self);
  for (const std::string& column : reg.input_columns) {
    const ArtifactId col = ColumnArtifact(reg.def.source_table, column);
    (void)lineage_->AddEdge(self, EdgeKind::kDerivedFrom, col);
    (void)lineage_->AddEdge(col, EdgeKind::kDerivedFrom,
                            TableArtifact(reg.def.source_table));
  }
  if (reg.input_columns.empty() && !reg.def.source_table.empty()) {
    // Constant expressions still depend on the table existing.
    (void)lineage_->AddEdge(self, EdgeKind::kDerivedFrom,
                            TableArtifact(reg.def.source_table));
  }
}

StatusOr<RegisteredFeature> FeatureRegistry::Get(
    const std::string& name) const {
  std::lock_guard lock(mu_);
  auto it = features_.find(name);
  if (it == features_.end()) {
    return Status::NotFound("feature '" + name + "' not registered");
  }
  return it->second.back();
}

StatusOr<RegisteredFeature> FeatureRegistry::GetVersion(
    const std::string& name, int version) const {
  std::lock_guard lock(mu_);
  auto it = features_.find(name);
  if (it == features_.end()) {
    return Status::NotFound("feature '" + name + "' not registered");
  }
  for (const auto& reg : it->second) {
    if (reg.version == version) return reg;
  }
  return Status::NotFound("feature '" + name + "' has no version " +
                          std::to_string(version));
}

std::vector<RegisteredFeature> FeatureRegistry::ListLatest() const {
  std::lock_guard lock(mu_);
  std::vector<RegisteredFeature> out;
  out.reserve(features_.size());
  for (const auto& [name, versions] : features_) {
    out.push_back(versions.back());
  }
  return out;
}

std::vector<RegisteredFeature> FeatureRegistry::ListByEntity(
    const std::string& entity) const {
  std::vector<RegisteredFeature> out;
  for (auto& reg : ListLatest()) {
    if (reg.def.entity == entity) out.push_back(std::move(reg));
  }
  return out;
}

Status FeatureRegistry::Deprecate(const std::string& name, Timestamp now) {
  int version = 0;
  std::string versioned;
  {
    std::lock_guard lock(mu_);
    auto it = features_.find(name);
    if (it == features_.end()) {
      return Status::NotFound("feature '" + name + "' not registered");
    }
    it->second.back().deprecated = true;
    version = it->second.back().version;
    versioned = it->second.back().VersionedName();
  }
  return lineage_
      ->MarkStale(FeatureArtifact(name, version), StalenessReason::kDeprecated,
                  now, versioned + " deprecated by operator")
      .status();
}

std::vector<std::string> FeatureRegistry::FeaturesReadingColumn(
    const std::string& source_table, const std::string& column) const {
  // Reverse lineage edges: who declared a dependency on this column? Only
  // a feature's *latest* version counts — superseded versions no longer
  // break when the column changes.
  std::vector<std::string> out;
  const std::vector<LineageEdge> readers =
      lineage_->InEdges(ColumnArtifact(source_table, column));
  std::lock_guard lock(mu_);
  for (const LineageEdge& edge : readers) {
    if (edge.from.kind != ArtifactKind::kFeature) continue;
    if (edge.kind != EdgeKind::kDerivedFrom) continue;
    auto it = features_.find(edge.from.name);
    if (it == features_.end() ||
        it->second.back().version != edge.from.version) {
      continue;
    }
    out.push_back(edge.from.name);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

size_t FeatureRegistry::num_features() const {
  std::lock_guard lock(mu_);
  return features_.size();
}

namespace {
constexpr uint32_t kRegistrySnapshotMagic = 0x4d4c4647;  // "MLFG"
constexpr uint32_t kRegistrySnapshotVersion = 2;  // v2: Checksum64 trailer.
}  // namespace

std::string FeatureRegistry::Snapshot() const {
  std::lock_guard lock(mu_);
  Encoder enc;
  uint64_t total = 0;
  for (const auto& [name, versions] : features_) total += versions.size();
  enc.PutVarint64(total);
  for (const auto& [name, versions] : features_) {
    for (const RegisteredFeature& reg : versions) {
      enc.PutString(reg.def.name);
      enc.PutString(reg.def.entity);
      enc.PutString(reg.def.source_table);
      enc.PutString(reg.def.expression);
      enc.PutFixed64(static_cast<uint64_t>(reg.def.cadence));
      enc.PutFixed64(static_cast<uint64_t>(reg.def.online_ttl));
      enc.PutString(reg.def.description);
      enc.PutString(reg.def.owner);
      enc.PutVarint64(static_cast<uint64_t>(reg.version));
      enc.PutFixed64(static_cast<uint64_t>(reg.registered_at));
      enc.PutU8(static_cast<uint8_t>(reg.output_type));
      enc.PutVarint64(reg.input_columns.size());
      for (const auto& column : reg.input_columns) enc.PutString(column);
      enc.PutString(reg.source_entity_column);
      enc.PutString(reg.source_time_column);
      enc.PutU8(reg.deprecated ? 1 : 0);
    }
  }
  return BlockFile::Seal(kRegistrySnapshotMagic, kRegistrySnapshotVersion,
                         enc.buffer());
}

Status FeatureRegistry::Restore(std::string_view snapshot) {
  std::unique_lock lock(mu_);
  if (!features_.empty()) {
    return Status::FailedPrecondition("Restore requires an empty registry");
  }
  MLFS_ASSIGN_OR_RETURN(
      std::string_view body,
      BlockFile::Unseal(kRegistrySnapshotMagic, kRegistrySnapshotVersion,
                        snapshot, "registry snapshot"));
  Decoder dec(body);
  MLFS_ASSIGN_OR_RETURN(uint64_t total, dec.GetVarint64());
  for (uint64_t i = 0; i < total; ++i) {
    RegisteredFeature reg;
    MLFS_ASSIGN_OR_RETURN(reg.def.name, dec.GetString());
    MLFS_ASSIGN_OR_RETURN(reg.def.entity, dec.GetString());
    MLFS_ASSIGN_OR_RETURN(reg.def.source_table, dec.GetString());
    MLFS_ASSIGN_OR_RETURN(reg.def.expression, dec.GetString());
    MLFS_ASSIGN_OR_RETURN(uint64_t cadence, dec.GetFixed64());
    reg.def.cadence = static_cast<Timestamp>(cadence);
    MLFS_ASSIGN_OR_RETURN(uint64_t ttl, dec.GetFixed64());
    reg.def.online_ttl = static_cast<Timestamp>(ttl);
    MLFS_ASSIGN_OR_RETURN(reg.def.description, dec.GetString());
    MLFS_ASSIGN_OR_RETURN(reg.def.owner, dec.GetString());
    MLFS_ASSIGN_OR_RETURN(uint64_t version, dec.GetVarint64());
    reg.version = static_cast<int>(version);
    MLFS_ASSIGN_OR_RETURN(uint64_t registered_at, dec.GetFixed64());
    reg.registered_at = static_cast<Timestamp>(registered_at);
    MLFS_ASSIGN_OR_RETURN(uint8_t type, dec.GetU8());
    if (type > static_cast<uint8_t>(FeatureType::kEmbedding)) {
      return Status::Corruption("bad output type tag");
    }
    reg.output_type = static_cast<FeatureType>(type);
    MLFS_ASSIGN_OR_RETURN(uint64_t num_columns, dec.GetVarint64());
    for (uint64_t c = 0; c < num_columns; ++c) {
      MLFS_ASSIGN_OR_RETURN(std::string column, dec.GetString());
      reg.input_columns.push_back(std::move(column));
    }
    MLFS_ASSIGN_OR_RETURN(reg.source_entity_column, dec.GetString());
    MLFS_ASSIGN_OR_RETURN(reg.source_time_column, dec.GetString());
    MLFS_ASSIGN_OR_RETURN(uint8_t deprecated, dec.GetU8());
    reg.deprecated = deprecated != 0;
    features_[reg.def.name].push_back(std::move(reg));
  }
  // Re-record graph structure (idempotent when the graph itself was also
  // restored); no staleness events are re-emitted.
  std::vector<RegisteredFeature> restored;
  for (const auto& [name, versions] : features_) {
    restored.insert(restored.end(), versions.begin(), versions.end());
  }
  lock.unlock();
  for (const RegisteredFeature& reg : restored) RecordLineage(reg);
  return Status::OK();
}

}  // namespace mlfs
