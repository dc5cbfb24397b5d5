#include "embedding/embedding_table.h"

#include <cstring>

#include "embedding/tier.h"

namespace mlfs {
namespace {

Status ValidateKeys(const std::vector<std::string>& keys) {
  std::unordered_map<std::string, int> seen;
  seen.reserve(keys.size());
  for (const auto& key : keys) {
    if (key.empty()) {
      return Status::InvalidArgument("empty embedding key");
    }
    if (!seen.emplace(key, 1).second) {
      return Status::InvalidArgument("duplicate embedding key '" + key + "'");
    }
  }
  return Status::OK();
}

}  // namespace

EmbeddingTable::EmbeddingTable(EmbeddingTableMetadata metadata,
                               std::vector<std::string> keys,
                               std::vector<float> vectors, size_t dim)
    : metadata_(std::move(metadata)),
      keys_(std::move(keys)),
      vectors_(std::move(vectors)),
      dim_(dim) {
  index_.reserve(keys_.size());
  for (size_t i = 0; i < keys_.size(); ++i) index_.emplace(keys_[i], i);
}

EmbeddingTable::EmbeddingTable(EmbeddingTableMetadata metadata,
                               std::vector<std::string> keys,
                               std::shared_ptr<const EmbeddingTier> tier)
    : metadata_(std::move(metadata)),
      keys_(std::move(keys)),
      dim_(tier->dim()),
      tier_(std::move(tier)) {
  index_.reserve(keys_.size());
  for (size_t i = 0; i < keys_.size(); ++i) index_.emplace(keys_[i], i);
}

StatusOr<EmbeddingTablePtr> EmbeddingTable::Create(
    EmbeddingTableMetadata metadata, std::vector<std::string> keys,
    std::vector<float> vectors, size_t dim) {
  if (metadata.name.empty()) {
    return Status::InvalidArgument("embedding table needs a name");
  }
  if (dim == 0) {
    return Status::InvalidArgument("embedding dim must be positive");
  }
  // Divide instead of multiplying: keys.size() * dim can wrap size_t for
  // hostile dims and accept a mis-sized buffer.
  const bool size_ok = keys.empty()
                           ? vectors.empty()
                           : vectors.size() % dim == 0 &&
                                 vectors.size() / dim == keys.size();
  if (!size_ok) {
    return Status::InvalidArgument(
        "vector buffer size " + std::to_string(vectors.size()) +
        " does not hold " + std::to_string(keys.size()) + " rows of dim " +
        std::to_string(dim));
  }
  MLFS_RETURN_IF_ERROR(ValidateKeys(keys));
  return EmbeddingTablePtr(new EmbeddingTable(
      std::move(metadata), std::move(keys), std::move(vectors), dim));
}

StatusOr<EmbeddingTablePtr> EmbeddingTable::CreateTiered(
    const EmbeddingTable& source, const EmbeddingTierOptions& options) {
  if (source.size() == 0) {
    return Status::InvalidArgument("cannot tier an empty embedding table");
  }
  StatusOr<std::unique_ptr<EmbeddingTier>> tier = [&] {
    if (source.tiered()) {
      std::vector<float> data(source.size() * source.dim());
      for (size_t i = 0; i < source.size(); ++i) {
        source.CopyRow(i, data.data() + i * source.dim());
      }
      return EmbeddingTier::Build(data.data(), source.size(), source.dim(),
                                  options);
    }
    return EmbeddingTier::Build(source.raw().data(), source.size(),
                                source.dim(), options);
  }();
  MLFS_RETURN_IF_ERROR(tier.status());
  return EmbeddingTablePtr(new EmbeddingTable(
      source.metadata(), source.keys(),
      std::shared_ptr<const EmbeddingTier>(std::move(tier).value())));
}

StatusOr<EmbeddingTablePtr> EmbeddingTable::RestoreTiered(
    EmbeddingTableMetadata metadata, std::vector<std::string> keys,
    PackedCodes packed,
    std::vector<std::pair<uint32_t, std::vector<float>>> hot_blocks,
    const EmbeddingTierOptions& options) {
  if (metadata.name.empty()) {
    return Status::InvalidArgument("embedding table needs a name");
  }
  if (keys.size() != packed.n) {
    return Status::Corruption("tiered snapshot: key count != packed rows");
  }
  MLFS_RETURN_IF_ERROR(ValidateKeys(keys));
  MLFS_ASSIGN_OR_RETURN(
      std::unique_ptr<EmbeddingTier> tier,
      EmbeddingTier::Restore(std::move(packed), std::move(hot_blocks),
                             options));
  return EmbeddingTablePtr(new EmbeddingTable(
      std::move(metadata), std::move(keys),
      std::shared_ptr<const EmbeddingTier>(std::move(tier))));
}

StatusOr<EmbeddingTablePtr> EmbeddingTable::FromTokenEmbeddings(
    EmbeddingTableMetadata metadata, const TokenEmbeddings& embeddings,
    std::vector<std::string> keys) {
  if (keys.size() != embeddings.vocab_size) {
    return Status::InvalidArgument("key count != vocab size");
  }
  return Create(std::move(metadata), std::move(keys), embeddings.vectors,
                embeddings.dim);
}

StatusOr<const float*> EmbeddingTable::Get(const std::string& key) const {
  auto it = index_.find(key);
  if (it == index_.end()) {
    return Status::NotFound("no embedding for key '" + key + "'");
  }
  if (tier_ != nullptr) return tier_->GetRow(it->second);
  return row(it->second);
}

std::vector<const float*> EmbeddingTable::MultiGet(
    const std::vector<std::string>& keys, Status* fault) const {
  if (tier_ != nullptr) {
    std::vector<int64_t> rows(keys.size(), -1);
    for (size_t i = 0; i < keys.size(); ++i) {
      auto it = index_.find(keys[i]);
      if (it != index_.end()) rows[i] = static_cast<int64_t>(it->second);
    }
    std::vector<const float*> out;
    Status s = tier_->MultiGetRows(rows, &out);
    if (fault != nullptr) *fault = std::move(s);
    return out;
  }
  if (fault != nullptr) *fault = Status::OK();
  std::vector<const float*> out(keys.size(), nullptr);
  for (size_t i = 0; i < keys.size(); ++i) {
    auto it = index_.find(keys[i]);
    if (it != index_.end()) out[i] = row(it->second);
  }
  return out;
}

StatusOr<std::vector<float>> EmbeddingTable::GetVector(
    const std::string& key) const {
  MLFS_ASSIGN_OR_RETURN(const float* r, Get(key));
  return std::vector<float>(r, r + dim_);
}

void EmbeddingTable::CopyRow(size_t i, float* out) const {
  MLFS_DCHECK(i < size());
  if (tier_ != nullptr) {
    tier_->CopyRow(i, out);
  } else {
    std::memcpy(out, vectors_.data() + i * dim_, dim_ * sizeof(float));
  }
}

StatusOr<EmbeddingTablePtr> EmbeddingTable::Materialize() const {
  std::vector<float> data(size() * dim_);
  for (size_t i = 0; i < size(); ++i) CopyRow(i, data.data() + i * dim_);
  return Create(metadata_, keys_, std::move(data), dim_);
}

int EmbeddingTable::IndexOf(const std::string& key) const {
  auto it = index_.find(key);
  return it == index_.end() ? -1 : static_cast<int>(it->second);
}

StatusOr<EmbeddingTablePtr> EmbeddingTable::WithVectors(
    EmbeddingTableMetadata metadata, std::vector<float> vectors,
    size_t dim) const {
  return Create(std::move(metadata), keys_, std::move(vectors), dim);
}

StatusOr<const EmbeddingTable*> AsResident(const EmbeddingTable& table,
                                           EmbeddingTablePtr* copy) {
  if (!table.tiered()) return &table;
  MLFS_ASSIGN_OR_RETURN(*copy, table.Materialize());
  return copy->get();
}

}  // namespace mlfs
