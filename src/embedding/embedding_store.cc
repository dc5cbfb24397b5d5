#include "embedding/embedding_store.h"

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "common/serde.h"
#include "common/string_util.h"
#include "embedding/compress.h"
#include "io/block_file.h"

namespace mlfs {
namespace {

std::string SanitizeFileStem(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out.empty() ? "emb" : out;
}

std::string DefaultSpillDir() {
  std::error_code ec;
  std::filesystem::path tmp = std::filesystem::temp_directory_path(ec);
  if (ec) tmp = ".";
  return (tmp / "mlfs_emb").string();
}

}  // namespace

EmbeddingStore::EmbeddingStore(LineageGraph* lineage,
                               EmbeddingTierPolicy tier_policy)
    : tier_policy_(std::move(tier_policy)) {
  if (lineage == nullptr) {
    owned_lineage_ = std::make_unique<LineageGraph>();
    lineage_ = owned_lineage_.get();
  } else {
    lineage_ = lineage;
  }
  spill_dir_ = tier_policy_.spill_dir.empty() ? DefaultSpillDir()
                                              : tier_policy_.spill_dir;
}

EmbeddingTierOptions EmbeddingStore::TierOptionsLocked(
    const EmbeddingTableMetadata& metadata, size_t hot_budget) const {
  EmbeddingTierOptions options;
  options.memory_budget_bytes = hot_budget;
  options.bits = tier_policy_.bits;
  options.block_rows = tier_policy_.block_rows;
  options.dir = spill_dir_;
  options.file_stem = SanitizeFileStem(metadata.name) + "_v" +
                      std::to_string(metadata.version);
  options.remove_file_on_destroy = true;
  return options;
}

void EmbeddingStore::ApplyTierBudgetLocked(Timestamp /*now*/) {
  if (tier_policy_.memory_budget_bytes == 0) return;
  // Superseded versions go fully cold: history is for lineage walks and
  // occasional drift checks, not the serving hot path, so it keeps only
  // its packed codes (registration already emitted the staleness event).
  for (auto& [name, versions] : tables_) {
    for (size_t i = 0; i + 1 < versions.size(); ++i) {
      EmbeddingTablePtr& slot = versions[i];
      if (slot->size() == 0) continue;
      if (slot->tiered()) {
        slot->tier()->DemoteAll();
        continue;
      }
      EmbeddingTierOptions options = TierOptionsLocked(slot->metadata(), 0);
      if (tier_policy_.superseded_bits > 0) {
        // History tolerates coarser packing than the serving version: it
        // is read for audits and drift checks, not ANN quality.
        options.bits = tier_policy_.superseded_bits;
      }
      StatusOr<EmbeddingTablePtr> tiered =
          EmbeddingTable::CreateTiered(*slot, options);
      if (!tiered.ok()) {
        // Degrade, never drop: the version stays resident and the next
        // registration retries the spill.
        ++spill_errors_;
        continue;
      }
      slot = std::move(tiered).value();
    }
  }
  // Latest versions share the budget, names in ascending order: a table
  // that fits in the remainder stays resident (exact floats); one that
  // does not is tiered with the remainder as its hot prefix budget.
  size_t remaining = tier_policy_.memory_budget_bytes;
  for (auto& [name, versions] : tables_) {
    if (versions.empty()) continue;
    EmbeddingTablePtr& slot = versions.back();
    if (slot->size() == 0) continue;
    const size_t row_bytes = slot->dim() * sizeof(float);
    if (slot->tiered()) {
      const size_t arena = slot->tier()->hot_blocks() *
                           slot->tier()->block_rows() * row_bytes;
      remaining -= std::min(remaining, arena);
      continue;
    }
    const size_t cost = slot->size() * row_bytes;
    if (cost <= remaining) {
      remaining -= cost;
      continue;
    }
    StatusOr<EmbeddingTablePtr> tiered = EmbeddingTable::CreateTiered(
        *slot, TierOptionsLocked(slot->metadata(), remaining));
    if (!tiered.ok()) {
      ++spill_errors_;
      continue;
    }
    slot = std::move(tiered).value();
    const size_t arena = slot->tier()->hot_blocks() *
                         slot->tier()->block_rows() * row_bytes;
    remaining -= std::min(remaining, arena);
  }
}

StatusOr<int> EmbeddingStore::Register(const EmbeddingTablePtr& table,
                                       Timestamp registered_at) {
  if (table == nullptr) {
    return Status::InvalidArgument("cannot register null table");
  }
  const std::string& name = table->metadata().name;
  EmbeddingTableMetadata stamped_metadata;
  int version = 0;
  {
    std::lock_guard lock(mu_);
    auto& versions = tables_[name];
    version = versions.empty() ? 1 : versions.back()->metadata().version + 1;
    // Tables are immutable: clone with stamped metadata.
    EmbeddingTableMetadata metadata = table->metadata();
    metadata.version = version;
    if (metadata.created_at == 0) metadata.created_at = registered_at;
    if (!versions.empty() && versions.back()->dim() != table->dim()) {
      // Allowed (e.g. re-train at a new dim) but it must be deliberate;
      // record it in the notes so lineage explains the change.
      const EmbeddingTablePtr& prev = versions.back();
      std::string note = "dim changed " + std::to_string(prev->size()) + "x" +
                         std::to_string(prev->dim()) + " -> " +
                         std::to_string(table->size()) + "x" +
                         std::to_string(table->dim());
      if (!metadata.notes.empty()) metadata.notes += "; ";
      metadata.notes += note;
    }
    // An unpinned parent reference resolves against the store as of now.
    if (!metadata.parent.empty()) {
      VersionedRef parent = ParseVersionedRef(metadata.parent);
      if (!parent.pinned()) {
        auto it = tables_.find(parent.name);
        if (it != tables_.end() && !it->second.empty()) {
          parent.version = it->second.back()->metadata().version;
        }
        metadata.parent = parent.ToString();
      }
    }
    // A tiered input is cloned through its served values (the store's
    // copy re-tiers under its own policy below).
    std::vector<float> vectors;
    if (table->tiered()) {
      vectors.resize(table->size() * table->dim());
      for (size_t i = 0; i < table->size(); ++i) {
        table->CopyRow(i, vectors.data() + i * table->dim());
      }
    } else {
      vectors = table->raw();
    }
    MLFS_ASSIGN_OR_RETURN(
        EmbeddingTablePtr stamped,
        EmbeddingTable::Create(metadata, table->keys(), std::move(vectors),
                               table->dim()));
    versions.push_back(std::move(stamped));
    stamped_metadata = std::move(metadata);
    ApplyTierBudgetLocked(registered_at);
  }
  // Lineage recording and staleness fan-out run outside mu_ so listeners
  // (alerting bridges) can call back into the store.
  RecordLineage(stamped_metadata, version - 1);
  if (version > 1) {
    (void)lineage_->MarkStale(
        EmbeddingArtifact(name, version - 1), StalenessReason::kSuperseded,
        registered_at, "superseded by " + stamped_metadata.VersionedName());
  }
  return version;
}

void EmbeddingStore::RecordLineage(const EmbeddingTableMetadata& metadata,
                                   int /*previous_version*/) {
  const ArtifactId self = EmbeddingArtifact(metadata.name, metadata.version);
  (void)lineage_->AddArtifact(self);
  if (!metadata.parent.empty()) {
    const VersionedRef parent = ParseVersionedRef(metadata.parent);
    const EdgeKind kind = metadata.patched ? EdgeKind::kPatchedInto
                                           : EdgeKind::kDerivedFrom;
    (void)lineage_->AddEdge(self, kind,
                            EmbeddingArtifact(parent.name, parent.version));
  }
  if (!metadata.training_source.empty()) {
    (void)lineage_->AddEdge(self, EdgeKind::kTrainedOn,
                            TableArtifact(metadata.training_source));
  }
}

StatusOr<EmbeddingTablePtr> EmbeddingStore::GetLatest(
    const std::string& name) const {
  std::lock_guard lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end() || it->second.empty()) {
    return Status::NotFound("no embedding table named '" + name + "'");
  }
  return it->second.back();
}

StatusOr<EmbeddingTablePtr> EmbeddingStore::GetVersion(
    const std::string& name, int version) const {
  std::lock_guard lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no embedding table named '" + name + "'");
  }
  for (const auto& table : it->second) {
    if (table->metadata().version == version) return table;
  }
  return Status::NotFound("embedding '" + name + "' has no version " +
                          std::to_string(version));
}

StatusOr<EmbeddingTablePtr> EmbeddingStore::Resolve(
    const std::string& reference) const {
  const VersionedRef ref = ParseVersionedRef(reference);
  // A reference that does not parse as "name@vK" (e.g. a bare name like
  // "user@vip") is treated as a whole name rather than rejected.
  if (!ref.pinned()) return GetLatest(reference);
  return GetVersion(ref.name, ref.version);
}

std::vector<std::string> EmbeddingStore::Names() const {
  std::lock_guard lock(mu_);
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, versions] : tables_) out.push_back(name);
  return out;
}

StatusOr<std::vector<EmbeddingTablePtr>> EmbeddingStore::Versions(
    const std::string& name) const {
  std::lock_guard lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no embedding table named '" + name + "'");
  }
  return it->second;
}

StatusOr<std::vector<std::string>> EmbeddingStore::Lineage(
    const std::string& reference) const {
  MLFS_ASSIGN_OR_RETURN(EmbeddingTablePtr table, Resolve(reference));
  // Walk ancestry edges in the shared graph — the only record of parent
  // chains (per-silo parent maps were removed with the graph refactor).
  std::vector<std::string> chain;
  ArtifactId current = EmbeddingArtifact(table->metadata().name,
                                         table->metadata().version);
  for (int depth = 0; depth < 64; ++depth) {
    chain.push_back(FormatVersionedRef(current.name, current.version));
    const ArtifactId* parent = nullptr;
    std::vector<LineageEdge> edges = lineage_->OutEdges(current);
    for (const LineageEdge& edge : edges) {
      if (edge.to.kind != ArtifactKind::kEmbedding) continue;
      if (edge.kind != EdgeKind::kDerivedFrom &&
          edge.kind != EdgeKind::kPatchedInto) {
        continue;
      }
      parent = &edge.to;
      break;
    }
    if (parent == nullptr) return chain;
    current = *parent;
  }
  return Status::Internal("lineage chain too deep (cycle?)");
}

Status EmbeddingStore::Deprecate(const std::string& name, Timestamp now) {
  MLFS_ASSIGN_OR_RETURN(EmbeddingTablePtr latest, GetLatest(name));
  return lineage_
      ->MarkStale(
          EmbeddingArtifact(name, latest->metadata().version),
          StalenessReason::kDeprecated, now,
          latest->metadata().VersionedName() + " deprecated by operator")
      .status();
}

size_t EmbeddingStore::num_tables() const {
  std::lock_guard lock(mu_);
  return tables_.size();
}

EmbeddingStoreTierStats EmbeddingStore::TierStats() const {
  std::lock_guard lock(mu_);
  EmbeddingStoreTierStats out;
  out.spill_errors = spill_errors_;
  out.restore_fallbacks = restore_fallbacks_;
  for (const auto& [name, versions] : tables_) {
    for (const auto& table : versions) {
      if (!table->tiered()) {
        ++out.resident_tables;
        continue;
      }
      ++out.tiered_tables;
      const EmbeddingTierStats s = table->tier()->stats();
      out.tier.hot_hits += s.hot_hits;
      out.tier.cold_misses += s.cold_misses;
      out.tier.demotions += s.demotions;
      out.tier.scans += s.scans;
      out.tier.scan_cold_blocks += s.scan_cold_blocks;
      out.tier.load_faults += s.load_faults;
      out.tier.hot_blocks += s.hot_blocks;
      out.tier.total_blocks += s.total_blocks;
      out.tier.resident_bytes += s.resident_bytes;
      out.tier.packed_bytes += s.packed_bytes;
    }
  }
  return out;
}

namespace {
// Each table carries a mode byte: resident (exact floats) or tiered
// (packed codes + exact hot blocks).
constexpr uint32_t kEmbeddingSnapshotMagic = 0x4d4c4532;  // "MLE2"
constexpr uint32_t kEmbeddingSnapshotVersion = 2;  // v2: Checksum64 trailer.
constexpr uint8_t kSnapshotModeResident = 0;
constexpr uint8_t kSnapshotModeTiered = 1;

void PutMetadata(Encoder* enc, const EmbeddingTableMetadata& metadata) {
  enc->PutString(metadata.name);
  enc->PutVarint64(static_cast<uint64_t>(metadata.version));
  enc->PutFixed64(static_cast<uint64_t>(metadata.created_at));
  enc->PutString(metadata.training_source);
  enc->PutString(metadata.parent);
  enc->PutU8(metadata.patched ? 1 : 0);
  enc->PutString(metadata.notes);
}

StatusOr<EmbeddingTableMetadata> GetMetadata(Decoder* dec) {
  EmbeddingTableMetadata metadata;
  MLFS_ASSIGN_OR_RETURN(metadata.name, dec->GetString());
  MLFS_ASSIGN_OR_RETURN(uint64_t version, dec->GetVarint64());
  metadata.version = static_cast<int>(version);
  MLFS_ASSIGN_OR_RETURN(uint64_t created_at, dec->GetFixed64());
  metadata.created_at = static_cast<Timestamp>(created_at);
  MLFS_ASSIGN_OR_RETURN(metadata.training_source, dec->GetString());
  MLFS_ASSIGN_OR_RETURN(metadata.parent, dec->GetString());
  MLFS_ASSIGN_OR_RETURN(uint8_t patched, dec->GetU8());
  metadata.patched = patched != 0;
  MLFS_ASSIGN_OR_RETURN(metadata.notes, dec->GetString());
  return metadata;
}

}  // namespace

std::string EmbeddingStore::Snapshot() const {
  std::lock_guard lock(mu_);
  Encoder enc;
  uint64_t total = 0;
  for (const auto& [name, versions] : tables_) total += versions.size();
  enc.PutVarint64(total);
  for (const auto& [name, versions] : tables_) {
    for (const auto& table : versions) {
      PutMetadata(&enc, table->metadata());
      enc.PutVarint64(table->size());
      enc.PutVarint64(table->dim());
      for (const auto& key : table->keys()) enc.PutString(key);
      if (!table->tiered()) {
        enc.PutU8(kSnapshotModeResident);
        for (float x : table->raw()) enc.PutFloat(x);
        continue;
      }
      const EmbeddingTier* tier = table->tier();
      // Exact hot blocks make the restored table serve byte-identical
      // vectors, not a dequantized approximation of its hot prefix. The
      // prefix length is recorded twice: as the restore's hot budget in
      // blocks, and as the block count.
      const auto hot = tier->HotBlocksSnapshot();
      enc.PutU8(kSnapshotModeTiered);
      enc.PutVarint64(static_cast<uint64_t>(tier->bits()));
      enc.PutVarint64(tier->block_rows());
      enc.PutVarint64(hot.size());
      for (float x : tier->lo()) enc.PutFloat(x);
      for (float x : tier->hi()) enc.PutFloat(x);
      enc.PutString(std::string_view(
          reinterpret_cast<const char*>(tier->codes()),
          tier->n() * tier->row_bytes()));
      enc.PutVarint64(hot.size());
      for (const auto& [block, rows] : hot) {
        enc.PutVarint64(block);
        enc.PutString(std::string_view(
            reinterpret_cast<const char*>(rows.data()),
            rows.size() * sizeof(float)));
      }
    }
  }
  return BlockFile::Seal(kEmbeddingSnapshotMagic, kEmbeddingSnapshotVersion,
                         enc.buffer());
}

Status EmbeddingStore::Restore(std::string_view snapshot) {
  {
    std::lock_guard lock(mu_);
    if (!tables_.empty()) {
      return Status::FailedPrecondition("Restore requires an empty store");
    }
  }
  MLFS_ASSIGN_OR_RETURN(
      std::string_view body,
      BlockFile::Unseal(kEmbeddingSnapshotMagic, kEmbeddingSnapshotVersion,
                        snapshot, "embedding snapshot"));
  Decoder dec(body);
  MLFS_ASSIGN_OR_RETURN(uint64_t total, dec.GetVarint64());
  std::vector<EmbeddingTableMetadata> restored;
  {
    std::lock_guard lock(mu_);
    for (uint64_t t = 0; t < total; ++t) {
      MLFS_ASSIGN_OR_RETURN(EmbeddingTableMetadata metadata, GetMetadata(&dec));
      MLFS_ASSIGN_OR_RETURN(uint64_t n, dec.GetVarint64());
      MLFS_ASSIGN_OR_RETURN(uint64_t dim, dec.GetVarint64());
      // A key takes at least one byte: no allocation outgrows the input.
      if (dim == 0 || dim > (1ULL << 24) || n > dec.remaining()) {
        return Status::Corruption("implausible embedding shape");
      }
      std::vector<std::string> keys;
      keys.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        MLFS_ASSIGN_OR_RETURN(std::string key, dec.GetString());
        keys.push_back(std::move(key));
      }
      MLFS_ASSIGN_OR_RETURN(uint8_t mode, dec.GetU8());
      EmbeddingTablePtr table;
      if (mode == kSnapshotModeResident) {
        if (n * dim > dec.remaining() / sizeof(float)) {
          return Status::Corruption("embedding vectors exceed snapshot");
        }
        std::vector<float> vectors(n * dim);
        for (auto& x : vectors) {
          MLFS_ASSIGN_OR_RETURN(x, dec.GetFloat());
        }
        MLFS_ASSIGN_OR_RETURN(
            table, EmbeddingTable::Create(std::move(metadata),
                                          std::move(keys), std::move(vectors),
                                          dim));
      } else if (mode == kSnapshotModeTiered) {
        MLFS_ASSIGN_OR_RETURN(uint64_t bits, dec.GetVarint64());
        MLFS_ASSIGN_OR_RETURN(uint64_t block_rows, dec.GetVarint64());
        MLFS_ASSIGN_OR_RETURN(uint64_t hot_limit, dec.GetVarint64());
        if (bits < 1 || bits > 16 || block_rows == 0 ||
            dim > dec.remaining() / (2 * sizeof(float))) {
          return Status::Corruption("implausible tier geometry");
        }
        PackedCodes packed;
        packed.bits = static_cast<int>(bits);
        packed.n = n;
        packed.dim = dim;
        packed.row_bytes = (dim * bits + 7) / 8;
        packed.lo.resize(dim);
        packed.hi.resize(dim);
        for (auto& x : packed.lo) {
          MLFS_ASSIGN_OR_RETURN(x, dec.GetFloat());
        }
        for (auto& x : packed.hi) {
          MLFS_ASSIGN_OR_RETURN(x, dec.GetFloat());
        }
        MLFS_ASSIGN_OR_RETURN(std::string codes, dec.GetString());
        if (codes.size() != n * packed.row_bytes) {
          return Status::Corruption("tier code section length mismatch");
        }
        packed.codes.assign(codes.begin(), codes.end());
        MLFS_ASSIGN_OR_RETURN(uint64_t hot_count, dec.GetVarint64());
        if (hot_count > dec.remaining() / 2) {  // Id + length bytes each.
          return Status::Corruption("tier hot block count exceeds snapshot");
        }
        std::vector<std::pair<uint32_t, std::vector<float>>> hot;
        hot.reserve(hot_count);
        for (uint64_t h = 0; h < hot_count; ++h) {
          MLFS_ASSIGN_OR_RETURN(uint64_t block, dec.GetVarint64());
          MLFS_ASSIGN_OR_RETURN(std::string payload, dec.GetString());
          if (payload.empty() || payload.size() % sizeof(float) != 0 ||
              block > UINT32_MAX) {
            return Status::Corruption("tier hot block malformed");
          }
          std::vector<float> rows(payload.size() / sizeof(float));
          std::memcpy(rows.data(), payload.data(), payload.size());
          hot.emplace_back(static_cast<uint32_t>(block), std::move(rows));
        }
        const size_t hot_budget =
            static_cast<size_t>(hot_limit) * block_rows * dim * sizeof(float);
        // The snapshot's own geometry wins over the current policy: hot
        // blocks were captured at the recorded block_rows, and bits are
        // baked into the codes.
        EmbeddingTierOptions options = TierOptionsLocked(metadata, hot_budget);
        options.block_rows = block_rows;
        StatusOr<EmbeddingTablePtr> tiered = EmbeddingTable::RestoreTiered(
            metadata, keys, packed, hot, options);
        if (tiered.ok()) {
          table = std::move(tiered).value();
        } else if (tiered.status().code() == StatusCode::kCorruption) {
          return tiered.status();
        } else {
          // The spill failed (fault injection, full disk): fall back to a
          // resident table serving the exact same values — dequantized
          // codes with the exact hot blocks overlaid.
          ++restore_fallbacks_;
          const PackedDecodeTables tables =
              MakeDecodeTables(packed.bits, packed.lo, packed.hi);
          std::vector<float> vectors(n * dim);
          DequantizeRange(ViewOf(packed, tables), 0, n, vectors.data());
          for (const auto& [block, rows] : hot) {
            // Bounded before multiplying, so no offset can wrap.
            if (n == 0 || block > (n - 1) / block_rows ||
                rows.size() > (n - block * block_rows) * dim) {
              return Status::Corruption("tier hot block out of range");
            }
            const size_t row0 = static_cast<size_t>(block) * block_rows;
            std::copy(rows.begin(), rows.end(),
                      vectors.begin() + row0 * dim);
          }
          MLFS_ASSIGN_OR_RETURN(
              table, EmbeddingTable::Create(std::move(metadata),
                                            std::move(keys),
                                            std::move(vectors), dim));
        }
      } else {
        return Status::Corruption("unknown embedding snapshot mode");
      }
      auto& versions = tables_[table->metadata().name];
      if (!versions.empty() &&
          versions.back()->metadata().version >= table->metadata().version) {
        return Status::Corruption("snapshot versions out of order");
      }
      restored.push_back(table->metadata());
      versions.push_back(std::move(table));
    }
  }
  // Re-record graph structure (idempotent when the graph itself was also
  // restored from its snapshot); staleness events are the graph's state,
  // not re-emitted here.
  for (const EmbeddingTableMetadata& metadata : restored) {
    RecordLineage(metadata, metadata.version - 1);
  }
  return Status::OK();
}

}  // namespace mlfs
