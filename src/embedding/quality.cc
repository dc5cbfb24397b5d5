#include "embedding/quality.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "embedding/distance.h"
#include "ml/matrix.h"
#include "ml/metrics.h"

namespace mlfs {
namespace {

// Keys present in both tables, in table-a order.
std::vector<std::string> CommonKeys(const EmbeddingTable& a,
                                    const EmbeddingTable& b) {
  std::vector<std::string> out;
  out.reserve(std::min(a.size(), b.size()));
  for (size_t i = 0; i < a.size(); ++i) {
    if (b.IndexOf(a.key(i)) >= 0) out.push_back(a.key(i));
  }
  return out;
}

// Indices (into `universe`) of the k nearest keys to `center` by cosine
// within the given table.
std::vector<size_t> TopKWithin(const EmbeddingTable& table,
                               const std::vector<std::string>& universe,
                               size_t center, size_t k) {
  const float* q = table.Get(universe[center]).value();
  std::vector<std::pair<float, size_t>> scored;
  scored.reserve(universe.size() - 1);
  for (size_t i = 0; i < universe.size(); ++i) {
    if (i == center) continue;
    const float* v = table.Get(universe[i]).value();
    scored.emplace_back(-CosineSimilarity(q, v, table.dim()), i);
  }
  size_t take = std::min(k, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + take, scored.end());
  std::vector<size_t> out;
  out.reserve(take);
  for (size_t i = 0; i < take; ++i) out.push_back(scored[i].second);
  return out;
}

}  // namespace

StatusOr<NeighborStabilityReport> NeighborStability(const EmbeddingTable& a,
                                                    const EmbeddingTable& b,
                                                    size_t k,
                                                    size_t max_keys) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  // TopKWithin holds one Get pointer across the others, which the tiered
  // pointer contract forbids: compare resident forms.
  if (a.tiered() || b.tiered()) {
    EmbeddingTablePtr copy_a, copy_b;
    MLFS_ASSIGN_OR_RETURN(const EmbeddingTable* ra, AsResident(a, &copy_a));
    MLFS_ASSIGN_OR_RETURN(const EmbeddingTable* rb, AsResident(b, &copy_b));
    return NeighborStability(*ra, *rb, k, max_keys);
  }
  std::vector<std::string> universe = CommonKeys(a, b);
  if (universe.size() < k + 1) {
    return Status::InvalidArgument(
        "tables share too few keys for k=" + std::to_string(k));
  }
  // Deterministic subsample: evenly spaced centers.
  size_t num_centers = std::min(max_keys, universe.size());
  NeighborStabilityReport report;
  report.keys_compared = num_centers;
  double total = 0.0;
  for (size_t c = 0; c < num_centers; ++c) {
    size_t center = c * universe.size() / num_centers;
    auto neighbors_a = TopKWithin(a, universe, center, k);
    auto neighbors_b = TopKWithin(b, universe, center, k);
    std::unordered_set<size_t> set_a(neighbors_a.begin(), neighbors_a.end());
    size_t common = 0;
    for (size_t id : neighbors_b) common += set_a.count(id);
    double overlap =
        static_cast<double>(common) / static_cast<double>(k);
    total += overlap;
    report.min_overlap = std::min(report.min_overlap, overlap);
  }
  report.mean_overlap = total / static_cast<double>(num_centers);
  return report;
}

StatusOr<double> EigenspaceOverlapScore(const EmbeddingTable& a,
                                        const EmbeddingTable& b) {
  // The stacking loop holds a's Get pointer across b's: see
  // NeighborStability.
  if (a.tiered() || b.tiered()) {
    EmbeddingTablePtr copy_a, copy_b;
    MLFS_ASSIGN_OR_RETURN(const EmbeddingTable* ra, AsResident(a, &copy_a));
    MLFS_ASSIGN_OR_RETURN(const EmbeddingTable* rb, AsResident(b, &copy_b));
    return EigenspaceOverlapScore(*ra, *rb);
  }
  std::vector<std::string> universe = CommonKeys(a, b);
  const size_t n = universe.size();
  if (n == 0) {
    return Status::InvalidArgument("tables share no keys");
  }
  const size_t da = a.dim();
  const size_t db = b.dim();
  // Stack common-key vectors as n x d matrices.
  Matrix xa(n, da), xb(n, db);
  for (size_t i = 0; i < n; ++i) {
    const float* ra = a.Get(universe[i]).value();
    const float* rb = b.Get(universe[i]).value();
    for (size_t j = 0; j < da; ++j) xa.at(i, j) = ra[j];
    for (size_t j = 0; j < db; ++j) xb.at(i, j) = rb[j];
  }
  // Orthonormal column bases (spans of the embedding matrices).
  Matrix ua = OrthonormalizeColumns(xa);
  Matrix ub = OrthonormalizeColumns(xb);
  if (ua.cols() == 0 || ub.cols() == 0) {
    return Status::InvalidArgument("an embedding matrix has rank zero");
  }
  Matrix cross = ua.Transpose().Multiply(ub);
  double fro = cross.FrobeniusNorm();
  double score = fro * fro /
                 static_cast<double>(std::max(ua.cols(), ub.cols()));
  return std::min(1.0, score);
}

StatusOr<Dataset> MaterializeTask(const DownstreamTask& task,
                                  const EmbeddingTable& table) {
  if (task.keys.size() != task.labels.size()) {
    return Status::InvalidArgument("task keys/labels misaligned");
  }
  Dataset data;
  data.dim = table.dim();
  for (size_t i = 0; i < task.keys.size(); ++i) {
    auto vec = table.GetVector(task.keys[i]);
    if (!vec.ok()) continue;  // Key absent from this version.
    data.Add(*vec, task.labels[i]);
  }
  if (data.size() == 0) {
    return Status::InvalidArgument("no task key found in the table");
  }
  return data;
}

StatusOr<InstabilityReport> DownstreamInstability(
    const EmbeddingTable& a, const EmbeddingTable& b,
    const DownstreamTask& task, double test_fraction,
    const TrainConfig& config) {
  // Restrict to keys present in both tables so datasets are aligned.
  DownstreamTask shared;
  for (size_t i = 0; i < task.keys.size(); ++i) {
    if (a.IndexOf(task.keys[i]) >= 0 && b.IndexOf(task.keys[i]) >= 0) {
      shared.keys.push_back(task.keys[i]);
      shared.labels.push_back(task.labels[i]);
    }
  }
  MLFS_ASSIGN_OR_RETURN(Dataset data_a, MaterializeTask(shared, a));
  MLFS_ASSIGN_OR_RETURN(Dataset data_b, MaterializeTask(shared, b));
  if (data_a.size() != data_b.size()) {
    return Status::Internal("aligned datasets differ in size");
  }
  // Same split on both sides (same seed, same order).
  auto [train_a, test_a] = TrainTestSplit(data_a, test_fraction, config.seed);
  auto [train_b, test_b] = TrainTestSplit(data_b, test_fraction, config.seed);

  SoftmaxClassifier model_a, model_b;
  MLFS_RETURN_IF_ERROR(model_a.Fit(train_a, config).status());
  MLFS_RETURN_IF_ERROR(model_b.Fit(train_b, config).status());
  MLFS_ASSIGN_OR_RETURN(std::vector<int> pred_a, model_a.PredictBatch(test_a));
  MLFS_ASSIGN_OR_RETURN(std::vector<int> pred_b, model_b.PredictBatch(test_b));

  InstabilityReport report;
  MLFS_ASSIGN_OR_RETURN(report.prediction_churn,
                        PredictionChurn(pred_a, pred_b));
  MLFS_ASSIGN_OR_RETURN(report.accuracy_a, Accuracy(test_a.labels, pred_a));
  MLFS_ASSIGN_OR_RETURN(report.accuracy_b, Accuracy(test_b.labels, pred_b));
  return report;
}

}  // namespace mlfs
