#include "embedding/align.h"

#include "embedding/distance.h"
#include "ml/matrix.h"

namespace mlfs {

StatusOr<AlignmentResult> AlignToReference(
    const EmbeddingTable& source, const EmbeddingTable& reference,
    const std::vector<std::string>& anchor_keys) {
  if (source.dim() != reference.dim()) {
    return Status::InvalidArgument(
        "alignment needs equal dimensions, got " +
        std::to_string(source.dim()) + " vs " +
        std::to_string(reference.dim()));
  }
  // Procrustes wants stable whole-matrix access (and holds Get pointers
  // across further lookups, which the tiered pin contract forbids).
  if (source.tiered() || reference.tiered()) {
    EmbeddingTablePtr copy_s, copy_r;
    MLFS_ASSIGN_OR_RETURN(const EmbeddingTable* rs,
                          AsResident(source, &copy_s));
    MLFS_ASSIGN_OR_RETURN(const EmbeddingTable* rr,
                          AsResident(reference, &copy_r));
    return AlignToReference(*rs, *rr, anchor_keys);
  }
  const size_t d = source.dim();

  std::vector<std::string> anchors = anchor_keys;
  if (anchors.empty()) {
    for (size_t i = 0; i < source.size(); ++i) {
      if (reference.IndexOf(source.key(i)) >= 0) {
        anchors.push_back(source.key(i));
      }
    }
  }
  if (anchors.size() < d) {
    return Status::InvalidArgument(
        "alignment needs at least dim=" + std::to_string(d) +
        " anchors, have " + std::to_string(anchors.size()));
  }

  Matrix x(anchors.size(), d);  // Source anchor vectors.
  Matrix y(anchors.size(), d);  // Reference anchor vectors.
  for (size_t a = 0; a < anchors.size(); ++a) {
    MLFS_ASSIGN_OR_RETURN(const float* sv, source.Get(anchors[a]));
    MLFS_ASSIGN_OR_RETURN(const float* rv, reference.Get(anchors[a]));
    for (size_t j = 0; j < d; ++j) {
      x.at(a, j) = sv[j];
      y.at(a, j) = rv[j];
    }
  }
  MLFS_ASSIGN_OR_RETURN(Matrix rotation, OrthogonalProcrustes(x, y));

  // Apply: every source vector v -> v R.
  std::vector<float> rotated(source.size() * d);
  for (size_t i = 0; i < source.size(); ++i) {
    const float* v = source.row(i);
    float* out = rotated.data() + i * d;
    for (size_t j = 0; j < d; ++j) {
      double sum = 0.0;
      for (size_t k = 0; k < d; ++k) sum += v[k] * rotation.at(k, j);
      out[j] = static_cast<float>(sum);
    }
  }

  EmbeddingTableMetadata metadata = source.metadata();
  metadata.parent = source.metadata().VersionedName();
  metadata.version = 0;
  metadata.notes = "Procrustes-aligned to " +
                   reference.metadata().VersionedName() + " on " +
                   std::to_string(anchors.size()) + " anchors";
  MLFS_ASSIGN_OR_RETURN(EmbeddingTablePtr aligned,
                        source.WithVectors(std::move(metadata),
                                           std::move(rotated), d));

  AlignmentResult result;
  result.anchors_used = anchors.size();
  double cosine_total = 0.0;
  for (const std::string& anchor : anchors) {
    const float* av = aligned->Get(anchor).value();
    const float* rv = reference.Get(anchor).value();
    cosine_total += CosineSimilarity(av, rv, d);
  }
  result.anchor_cosine =
      cosine_total / static_cast<double>(anchors.size());
  result.aligned = std::move(aligned);
  return result;
}

}  // namespace mlfs
