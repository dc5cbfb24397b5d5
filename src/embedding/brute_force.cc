#include <algorithm>
#include <cmath>
#include <queue>

#include "embedding/ann.h"

namespace mlfs {
namespace {

/// Max-heap of the current best k (largest distance on top), updated in
/// ascending row order so ties resolve identically in Search/BatchSearch.
using BestHeap = std::priority_queue<std::pair<float, size_t>>;

std::vector<Neighbor> DrainHeap(BestHeap* heap) {
  std::vector<Neighbor> out(heap->size());
  for (size_t i = heap->size(); i-- > 0;) {
    out[i] = {heap->top().first, heap->top().second};
    heap->pop();
  }
  return out;
}

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
      // Per-row inverse norms so the batched scan computes cosine from one
      // dot product per (query, row) instead of three.
      inv_norms_.resize(n);
      for (size_t i = 0; i < n; ++i) {
        float norm = L2Norm(data + i * dim, dim);
        inv_norms_[i] = norm == 0 ? 0.0f : 1.0f / norm;
      }
    }
    return Status::OK();
  }

  StatusOr<std::vector<Neighbor>> Search(const float* query,
                                         size_t k) const override {
    if (data_ == nullptr) {
      return Status::FailedPrecondition("index not built");
    }
    if (query == nullptr || k == 0) {
      return Status::InvalidArgument("bad query");
    }
    k = std::min(k, n_);
    BestHeap heap;
    for (size_t i = 0; i < n_; ++i) {
      float d = Distance(metric_, query, data_ + i * dim_, dim_);
      if (heap.size() < k) {
        heap.emplace(d, i);
      } else if (d < heap.top().first) {
        heap.pop();
        heap.emplace(d, i);
      }
    }
    return DrainHeap(&heap);
  }

  /// Query-tiled blocked scan: the row-major buffer is read once per tile
  /// of queries (not once per query), so each cache-resident data block is
  /// reused across the whole tile — the batch-1 scan is memory-bound at
  /// embedding scale, the tiled scan is compute-bound.
  StatusOr<std::vector<std::vector<Neighbor>>> BatchSearch(
      const float* queries, size_t nq, size_t k) const override {
    if (data_ == nullptr) {
      return Status::FailedPrecondition("index not built");
    }
    if ((queries == nullptr && nq > 0) || k == 0) {
      return Status::InvalidArgument("bad query batch");
    }
    k = std::min(k, n_);
    std::vector<std::vector<Neighbor>> out(nq);
    for (size_t q0 = 0; q0 < nq; q0 += kQueryTile) {
      const size_t q1 = std::min(q0 + kQueryTile, nq);
      const size_t tile_size = q1 - q0;
      BestHeap heaps[kQueryTile];
      float query_inv_norm[kQueryTile];
      if (metric_ == Metric::kCosine) {
        for (size_t q = 0; q < tile_size; ++q) {
          float norm = L2Norm(queries + (q0 + q) * dim_, dim_);
          query_inv_norm[q] = norm == 0 ? 0.0f : 1.0f / norm;
        }
      }
      for (size_t row0 = 0; row0 < n_; row0 += kRowBlock) {
        const size_t row1 = std::min(row0 + kRowBlock, n_);
        for (size_t q = 0; q < tile_size; ++q) {
          const float* query = queries + (q0 + q) * dim_;
          BestHeap& heap = heaps[q];
          for (size_t i = row0; i < row1; ++i) {
            const float* row = data_ + i * dim_;
            float d;
            switch (metric_) {
              case Metric::kL2:
                d = L2Squared(query, row, dim_);
                break;
              case Metric::kInnerProduct:
                d = -DotProduct(query, row, dim_);
                break;
              case Metric::kCosine:
                d = 1.0f - DotProduct(query, row, dim_) * inv_norms_[i] *
                               query_inv_norm[q];
                break;
            }
            if (heap.size() < k) {
              heap.emplace(d, i);
            } else if (d < heap.top().first) {
              heap.pop();
              heap.emplace(d, i);
            }
          }
        }
      }
      for (size_t q = 0; q < tile_size; ++q) {
        out[q0 + q] = DrainHeap(&heaps[q]);
      }
    }
    return out;
  }

  std::string name() const override { return "brute_force"; }
  Metric metric() const override { return metric_; }
  size_t dim() const override { return dim_; }

 private:
  /// Queries per tile: enough reuse per data block to amortize the scan,
  /// small enough that a tile's heaps and norms stay register/L1 resident.
  static constexpr size_t kQueryTile = 16;
  /// Rows per block: 256 x 300d x 4B = 300KB worst case, L2-resident.
  static constexpr size_t kRowBlock = 256;

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
