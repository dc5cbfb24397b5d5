#include <algorithm>

#include "embedding/ann.h"
#include "embedding/exact_scan.h"

namespace mlfs {
namespace {

class BruteForceIndex final : public AnnIndex {
 public:
  explicit BruteForceIndex(Metric metric) : metric_(metric) {}

  Status Build(const float* data, size_t n, size_t dim) override {
    if (data == nullptr || n == 0 || dim == 0) {
      return Status::InvalidArgument("brute-force index needs data");
    }
    if (data_ != nullptr) {
      return Status::FailedPrecondition("index already built");
    }
    data_ = data;
    n_ = n;
    dim_ = dim;
    if (metric_ == Metric::kCosine) {
      // Per-row inverse norms so the scan computes cosine from one dot
      // product per (query, row) instead of three.
      inv_norms_.resize(n);
      for (size_t i = 0; i < n; ++i) {
        inv_norms_[i] = InverseNorm(data + i * dim, dim);
      }
    }
    return Status::OK();
  }

  StatusOr<std::vector<Neighbor>> Search(const float* query,
                                         size_t k) const override {
    return SearchAsBatchOfOne(*this, query, k);
  }

  /// One ExactScan over the whole matrix: each L1-sized row block is
  /// scored against every query of a cache-resident tile.
  StatusOr<std::vector<std::vector<Neighbor>>> BatchSearch(
      const float* queries, size_t nq, size_t k) const override {
    if (data_ == nullptr) {
      return Status::FailedPrecondition("index not built");
    }
    if ((queries == nullptr && nq > 0) || k == 0) {
      return Status::InvalidArgument("bad query batch");
    }
    ExactScan scan(metric_, queries, nq, dim_, std::min(k, n_));
    scan.Add(0, n_, data_, inv_norms_.empty() ? nullptr : inv_norms_.data());
    return scan.Finish();
  }

  std::string name() const override { return "brute_force"; }
  Metric metric() const override { return metric_; }
  size_t dim() const override { return dim_; }

 private:
  Metric metric_;
  const float* data_ = nullptr;
  size_t n_ = 0;
  size_t dim_ = 0;
  std::vector<float> inv_norms_;  // Only populated for kCosine.
};

}  // namespace

StatusOr<std::vector<std::vector<Neighbor>>> AnnIndex::BatchSearch(
    const float* queries, size_t nq, size_t k) const {
  if ((queries == nullptr && nq > 0) || k == 0) {
    return Status::InvalidArgument("bad query batch");
  }
  const size_t stride = dim();
  if (stride == 0 && nq > 0) {
    return Status::FailedPrecondition("index not built");
  }
  std::vector<std::vector<Neighbor>> out(nq);
  for (size_t i = 0; i < nq; ++i) {
    MLFS_ASSIGN_OR_RETURN(out[i], Search(queries + i * stride, k));
  }
  return out;
}

std::string_view MetricToString(Metric metric) {
  switch (metric) {
    case Metric::kL2:
      return "l2";
    case Metric::kInnerProduct:
      return "ip";
    case Metric::kCosine:
      return "cosine";
  }
  return "?";
}

std::unique_ptr<AnnIndex> MakeBruteForceIndex(Metric metric) {
  return std::make_unique<BruteForceIndex>(metric);
}

double RecallAtK(const std::vector<Neighbor>& result,
                 const std::vector<Neighbor>& ground_truth, size_t k) {
  if (k == 0 || ground_truth.empty()) return 0.0;
  size_t limit = std::min(k, ground_truth.size());
  size_t hits = 0;
  for (size_t i = 0; i < limit; ++i) {
    for (size_t j = 0; j < result.size() && j < k; ++j) {
      if (result[j].id == ground_truth[i].id) {
        ++hits;
        break;
      }
    }
  }
  return static_cast<double>(hits) / static_cast<double>(limit);
}

}  // namespace mlfs
