#ifndef MLFS_EMBEDDING_EXACT_SCAN_H_
#define MLFS_EMBEDDING_EXACT_SCAN_H_

// The exact k-nearest scan behind both brute-force indexes (resident and
// tiered); private to src/embedding/.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "embedding/ann.h"

namespace mlfs {

/// 1 / ||v||, or 0 for a zero vector: the cosine scale of a row or query.
inline float InverseNorm(const float* v, size_t dim) {
  const float norm = L2Norm(v, dim);
  return norm == 0 ? 0.0f : 1.0f / norm;
}

/// Exact k-nearest scan of a batch of queries over rows fed in ascending
/// row order, in any number of Add calls (the whole matrix, or one tier
/// block at a time).
///
/// Per (query, row block) it makes one row-kernel call
/// (`simd::l2_squared_rows` / `dot_product_rows`, bit-identical to the
/// per-pair kernels), applies the metric as IP `-dot` and cosine
/// `1 - dot * inv_row * inv_query`, and compares each distance with the
/// query's current k-th distance held in a local: the max-heap of the best
/// k is touched only by a row that beats it. Rows reach each query's heap
/// in ascending order under the rule "push while fewer than k, else
/// replace the top if strictly closer", so ties and NaN resolve the same
/// way for every batch size and every row source.
///
/// A row block that starts off a 32-byte boundary and is scored against
/// at least 4 queries is first copied into a 64-byte-aligned staging
/// block, so the scan's speed does not depend on where the caller's rows
/// sit: with half of the kernel's 32-byte row loads straddling cache lines
/// it ran 15-20% slower, and malloc places a large matrix 16 bytes past a
/// page (mmap) or wherever its heap happens to be.
class ExactScan {
 public:
  /// `queries`: `nq` row-major vectors of `dim` floats, borrowed until
  /// Finish. `k` must be in [1, rows that will be added].
  ExactScan(Metric metric, const float* queries, size_t nq, size_t dim,
            size_t k)
      : metric_(metric),
        queries_(queries),
        dim_(dim),
        k_(k),
        block_rows_(RowsPerBlock(dim)),
        query_tile_(QueriesPerTile(dim)),
        kernel_(metric == Metric::kL2 ? simd::l2_squared_rows
                                      : simd::dot_product_rows),
        heaps_(nq),
        distances_(block_rows_) {
    if (metric == Metric::kCosine) {
      query_inv_norms_.resize(nq);
      row_inv_norms_.resize(block_rows_);
      for (size_t q = 0; q < nq; ++q) {
        query_inv_norms_[q] = InverseNorm(queries + q * dim, dim);
      }
    }
  }

  /// Scores rows [row0, row0 + nrows), row-major at `rows`, against every
  /// query. `inv_norms` (kCosine only): the rows' InverseNorm, or nullptr
  /// to compute them here.
  void Add(size_t row0, size_t nrows, const float* rows,
           const float* inv_norms = nullptr) {
    const size_t nq = heaps_.size();
    // Query tiles outermost: each tile's queries stay cache-resident while
    // the rows stream past in L1-sized blocks.
    for (size_t q0 = 0; q0 < nq; q0 += query_tile_) {
      const size_t q1 = std::min(q0 + query_tile_, nq);
      for (size_t b0 = 0; b0 < nrows; b0 += block_rows_) {
        const size_t m = std::min(block_rows_, nrows - b0);
        const float* block = Staged(rows + b0 * dim_, m, q1 - q0);
        const float* block_inv_norms = nullptr;
        if (metric_ == Metric::kCosine) {
          if (inv_norms != nullptr) {
            block_inv_norms = inv_norms + b0;
          } else {
            for (size_t r = 0; r < m; ++r) {
              row_inv_norms_[r] = InverseNorm(block + r * dim_, dim_);
            }
            block_inv_norms = row_inv_norms_.data();
          }
        }
        for (size_t q = q0; q < q1; ++q) {
          kernel_(queries_ + q * dim_, block, m, dim_, distances_.data());
          Offer(q, row0 + b0, m, block_inv_norms);
        }
      }
    }
  }

  /// Each query's nearest rows in ascending distance order.
  std::vector<std::vector<Neighbor>> Finish() {
    std::vector<std::vector<Neighbor>> out(heaps_.size());
    for (size_t q = 0; q < heaps_.size(); ++q) {
      BestHeap& heap = heaps_[q];
      out[q].resize(heap.size());
      for (size_t i = heap.size(); i-- > 0;) {
        out[q][i] = {heap.top().first, heap.top().second};
        heap.pop();
      }
    }
    return out;
  }

 private:
  /// Largest distance on top.
  using BestHeap = std::priority_queue<std::pair<float, size_t>>;

  /// Rows per kernel call: a 16 KiB block stays in L1 while every query
  /// of a tile scans it (a multiple of 4, the AVX2 kernel's step).
  static size_t RowsPerBlock(size_t dim) {
    const size_t rows = (16 * 1024) / (dim * sizeof(float));
    return std::max<size_t>(4, rows / 4 * 4);
  }

  /// Queries per tile: 256 KiB of queries stays in L2 for a whole pass.
  static size_t QueriesPerTile(size_t dim) {
    return std::max<size_t>(1, (256 * 1024) / (dim * sizeof(float)));
  }

  /// `block` (m rows), or its copy in the staging block when it is
  /// misaligned and at least 4 queries will read it: for 1 query the copy
  /// cost more than it saved, for 2 about as much.
  const float* Staged(const float* block, size_t m, size_t queries) {
    if (queries < 4 || reinterpret_cast<uintptr_t>(block) % 32 == 0) {
      return block;
    }
    // 64 bytes of slack leave room for a 64-byte boundary.
    if (staging_.empty()) staging_.resize(block_rows_ * dim_ + 16);
    void* start = staging_.data();
    size_t space = staging_.size() * sizeof(float);
    float* staged = static_cast<float*>(
        std::align(64, block_rows_ * dim_ * sizeof(float), start, space));
    std::memcpy(staged, block, m * dim_ * sizeof(float));
    return staged;
  }

  /// Turns the kernel results for rows [row0, row0 + m) into query q's
  /// distances and offers them to its heap.
  void Offer(size_t q, size_t row0, size_t m, const float* inv_norms) {
    float* dist = distances_.data();
    if (metric_ == Metric::kInnerProduct) {
      for (size_t r = 0; r < m; ++r) dist[r] = -dist[r];
    } else if (metric_ == Metric::kCosine) {
      const float inv_query = query_inv_norms_[q];
      for (size_t r = 0; r < m; ++r) {
        dist[r] = 1.0f - dist[r] * inv_norms[r] * inv_query;
      }
    }
    BestHeap& heap = heaps_[q];
    size_t r = 0;
    for (; r < m && heap.size() < k_; ++r) heap.emplace(dist[r], row0 + r);
    if (r == m) return;
    float threshold = heap.top().first;
    auto offer = [&](size_t i) {
      if (dist[i] < threshold) {
        heap.pop();
        heap.emplace(dist[i], row0 + i);
        threshold = heap.top().first;
      }
    };
#if defined(__SSE2__)
    // Four distances per compare (ordered, so false for NaN like `<`): the
    // heap is visited only for a group holding a hit.
    for (; r + 4 <= m; r += 4) {
      const __m128 below =
          _mm_cmplt_ps(_mm_loadu_ps(dist + r), _mm_set1_ps(threshold));
      if (_mm_movemask_ps(below) == 0) continue;
      for (size_t i = r; i < r + 4; ++i) offer(i);
    }
#endif
    for (; r < m; ++r) offer(r);
  }

  const Metric metric_;
  const float* const queries_;
  const size_t dim_;
  const size_t k_;
  const size_t block_rows_;
  const size_t query_tile_;
  const simd::RowsKernelFn kernel_;
  std::vector<BestHeap> heaps_;
  std::vector<float> distances_;        // One block's kernel results.
  std::vector<float> staging_;          // Staged blocks; made on first use.
  std::vector<float> query_inv_norms_;  // kCosine only.
  std::vector<float> row_inv_norms_;    // kCosine, computed per block.
};

/// Search as a batch of one, for indexes whose BatchSearch is the scan.
inline StatusOr<std::vector<Neighbor>> SearchAsBatchOfOne(
    const AnnIndex& index, const float* query, size_t k) {
  MLFS_ASSIGN_OR_RETURN(std::vector<std::vector<Neighbor>> out,
                        index.BatchSearch(query, 1, k));
  return std::move(out[0]);
}

}  // namespace mlfs

#endif  // MLFS_EMBEDDING_EXACT_SCAN_H_
