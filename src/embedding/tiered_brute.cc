#include <algorithm>
#include <cmath>
#include <queue>

#include "embedding/ann.h"
#include "embedding/embedding_table.h"
#include "embedding/tier.h"

namespace mlfs {
namespace {

using BestHeap = std::priority_queue<std::pair<float, size_t>>;

std::vector<Neighbor> DrainHeap(BestHeap* heap) {
  std::vector<Neighbor> out(heap->size());
  for (size_t i = heap->size(); i-- > 0;) {
    out[i] = {heap->top().first, heap->top().second};
    heap->pop();
  }
  return out;
}

/// Exact scan over a *tiered* embedding table: blocks stream out of the
/// tier (hot prefix directly, cold blocks dequantized into scan scratch —
/// never promoted, so an ANN pass cannot flush the point-lookup working
/// set) and queries tile over each block while it is cache-resident.
///
/// Results are bitwise-identical to BruteForceIndex built over the
/// table's served vectors: rows are visited in ascending order with the
/// same heap update rule and the same per-metric float expressions, and
/// cosine inverse norms are recomputed from the served rows on every scan
/// so demotions (which change a row's served value to its dequantized
/// form) can never leave the norms stale.
class TieredBruteForceIndex final : public AnnIndex {
 public:
  TieredBruteForceIndex(EmbeddingTablePtr table, Metric metric)
      : table_(std::move(table)), metric_(metric) {}

  /// The data lives in the table handed to the constructor; the argument
  /// buffer is ignored (pass nullptr, 0, 0).
  Status Build(const float* /*data*/, size_t /*n*/, size_t /*dim*/) override {
    if (built_) {
      return Status::FailedPrecondition("index already built");
    }
    if (table_ == nullptr || !table_->tiered() || table_->size() == 0) {
      return Status::InvalidArgument(
          "tiered brute-force index needs a non-empty tiered table");
    }
    built_ = true;
    return Status::OK();
  }

  StatusOr<std::vector<Neighbor>> Search(const float* query,
                                         size_t k) const override {
    if (!built_) {
      return Status::FailedPrecondition("index not built");
    }
    if (query == nullptr || k == 0) {
      return Status::InvalidArgument("bad query");
    }
    const size_t n = table_->size();
    const size_t dim = table_->dim();
    k = std::min(k, n);
    BestHeap heap;
    MLFS_RETURN_IF_ERROR(table_->tier()->ScanBlocks(
        [&](size_t row0, size_t nrows, const float* rows) {
          for (size_t r = 0; r < nrows; ++r) {
            float d = Distance(metric_, query, rows + r * dim, dim);
            const size_t i = row0 + r;
            if (heap.size() < k) {
              heap.emplace(d, i);
            } else if (d < heap.top().first) {
              heap.pop();
              heap.emplace(d, i);
            }
          }
        }));
    return DrainHeap(&heap);
  }

  /// One streaming pass over the tier per batch (cold blocks dequantize
  /// once for all queries, not once per query tile); every query scans
  /// each block while it is cache-resident. Per-query scan order stays
  /// ascending, so results match the resident blocked scan exactly.
  StatusOr<std::vector<std::vector<Neighbor>>> BatchSearch(
      const float* queries, size_t nq, size_t k) const override {
    if (!built_) {
      return Status::FailedPrecondition("index not built");
    }
    if ((queries == nullptr && nq > 0) || k == 0) {
      return Status::InvalidArgument("bad query batch");
    }
    const size_t n = table_->size();
    const size_t dim = table_->dim();
    k = std::min(k, n);
    std::vector<std::vector<Neighbor>> out(nq);
    if (nq == 0) return out;

    std::vector<BestHeap> heaps(nq);
    std::vector<float> query_inv_norm;
    if (metric_ == Metric::kCosine) {
      query_inv_norm.resize(nq);
      for (size_t q = 0; q < nq; ++q) {
        float norm = L2Norm(queries + q * dim, dim);
        query_inv_norm[q] = norm == 0 ? 0.0f : 1.0f / norm;
      }
    }
    std::vector<float> row_inv_norm;
    MLFS_RETURN_IF_ERROR(table_->tier()->ScanBlocks(
        [&](size_t row0, size_t nrows, const float* rows) {
          if (metric_ == Metric::kCosine) {
            row_inv_norm.resize(nrows);
            for (size_t r = 0; r < nrows; ++r) {
              float norm = L2Norm(rows + r * dim, dim);
              row_inv_norm[r] = norm == 0 ? 0.0f : 1.0f / norm;
            }
          }
          for (size_t q = 0; q < nq; ++q) {
            const float* query = queries + q * dim;
            BestHeap& heap = heaps[q];
            for (size_t r = 0; r < nrows; ++r) {
              const float* row = rows + r * dim;
              float d = 0.0f;
              switch (metric_) {
                case Metric::kL2:
                  d = L2Squared(query, row, dim);
                  break;
                case Metric::kInnerProduct:
                  d = -DotProduct(query, row, dim);
                  break;
                case Metric::kCosine:
                  d = 1.0f - DotProduct(query, row, dim) *
                                 row_inv_norm[r] * query_inv_norm[q];
                  break;
              }
              const size_t i = row0 + r;
              if (heap.size() < k) {
                heap.emplace(d, i);
              } else if (d < heap.top().first) {
                heap.pop();
                heap.emplace(d, i);
              }
            }
          }
        }));
    for (size_t q = 0; q < nq; ++q) out[q] = DrainHeap(&heaps[q]);
    return out;
  }

  std::string name() const override { return "tiered_brute_force"; }
  Metric metric() const override { return metric_; }
  size_t dim() const override { return built_ ? table_->dim() : 0; }

 private:
  EmbeddingTablePtr table_;
  Metric metric_;
  bool built_ = false;
};

}  // namespace

std::unique_ptr<AnnIndex> MakeTieredBruteForceIndex(
    std::shared_ptr<const EmbeddingTable> table, Metric metric) {
  return std::make_unique<TieredBruteForceIndex>(std::move(table), metric);
}

}  // namespace mlfs
