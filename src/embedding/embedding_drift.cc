#include "embedding/embedding_drift.h"

#include <cmath>
#include <cstdio>
#include <vector>

#include "embedding/distance.h"
#include "embedding/quality.h"
#include "quality/drift.h"

namespace mlfs {

std::string EmbeddingDriftReport::ToString() const {
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "nan_cells=%llu norm_psi=%.4f churn=%.4f "
                "centroid_cos=%.4f self_cos=%.4f -> %s",
                static_cast<unsigned long long>(null_or_nan_cells), norm_psi,
                mean_neighbor_churn, centroid_cosine, mean_self_cosine,
                drifted ? "DRIFT" : "stable");
  return buf;
}

StatusOr<EmbeddingDriftReport> CheckEmbeddingDrift(
    const EmbeddingTable& a, const EmbeddingTable& b, size_t k,
    size_t max_keys, EmbeddingDriftThresholds thresholds) {
  // Drift math wants whole-matrix access; tiered versions are compared at
  // their served (dequantized-where-cold) values.
  if (a.tiered() || b.tiered()) {
    EmbeddingTablePtr copy_a, copy_b;
    MLFS_ASSIGN_OR_RETURN(const EmbeddingTable* ra, AsResident(a, &copy_a));
    MLFS_ASSIGN_OR_RETURN(const EmbeddingTable* rb, AsResident(b, &copy_b));
    return CheckEmbeddingDrift(*ra, *rb, k, max_keys, thresholds);
  }
  EmbeddingDriftReport report;

  // Tabular-style signal 1: broken cells in the new version.
  for (float x : b.raw()) {
    if (!std::isfinite(x)) ++report.null_or_nan_cells;
  }

  // Tabular-style signal 2: PSI over vector norms (a scalar projection a
  // traditional FS might track).
  std::vector<double> norms_a, norms_b;
  norms_a.reserve(a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    norms_a.push_back(L2Norm(a.row(i), a.dim()));
  }
  norms_b.reserve(b.size());
  for (size_t i = 0; i < b.size(); ++i) {
    norms_b.push_back(L2Norm(b.row(i), b.dim()));
  }
  if (norms_a.size() >= 10 && !norms_b.empty()) {
    MLFS_ASSIGN_OR_RETURN(DriftDetector detector,
                          DriftDetector::Fit(norms_a));
    MLFS_ASSIGN_OR_RETURN(DriftReport norm_report, detector.Check(norms_b));
    report.norm_psi = norm_report.psi;
  }

  // Embedding-native signals over common keys.
  if (a.dim() == b.dim()) {
    std::vector<double> centroid_a(a.dim(), 0.0), centroid_b(a.dim(), 0.0);
    double self_cos_total = 0.0;
    size_t common = 0;
    for (size_t i = 0; i < a.size(); ++i) {
      int bi = b.IndexOf(a.key(i));
      if (bi < 0) continue;
      const float* va = a.row(i);
      const float* vb = b.row(static_cast<size_t>(bi));
      for (size_t j = 0; j < a.dim(); ++j) {
        centroid_a[j] += va[j];
        centroid_b[j] += vb[j];
      }
      self_cos_total += CosineSimilarity(va, vb, a.dim());
      ++common;
    }
    if (common > 0) {
      report.mean_self_cosine = self_cos_total / static_cast<double>(common);
      double dot = 0, na = 0, nb = 0;
      for (size_t j = 0; j < a.dim(); ++j) {
        dot += centroid_a[j] * centroid_b[j];
        na += centroid_a[j] * centroid_a[j];
        nb += centroid_b[j] * centroid_b[j];
      }
      double denom = std::sqrt(na) * std::sqrt(nb);
      report.centroid_cosine = denom > 0 ? dot / denom : 0.0;
    }
  }

  auto stability = NeighborStability(a, b, k, max_keys);
  if (stability.ok()) {
    report.mean_neighbor_churn = 1.0 - stability->mean_overlap;
  }

  report.drifted =
      report.null_or_nan_cells > 0 ||
      report.mean_neighbor_churn > thresholds.neighbor_churn_above ||
      report.mean_self_cosine < thresholds.self_cosine_below ||
      report.norm_psi > thresholds.norm_psi_above;
  return report;
}

}  // namespace mlfs
