#ifndef MLFS_EMBEDDING_ANN_H_
#define MLFS_EMBEDDING_ANN_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "embedding/distance.h"

namespace mlfs {

/// One nearest-neighbor hit.
struct Neighbor {
  float distance = 0.0f;  // Under the index metric (smaller = closer).
  size_t id = 0;          // Row id in the indexed data.
};

/// Interface of vector-similarity indexes serving embedding lookups —
/// the "tools for searching and querying these embeddings" the paper names
/// as a requirement for embedding-native feature stores (§4).
///
/// Build() must be called exactly once before Search(). The indexed buffer
/// must outlive the index (indexes store offsets, not copies, except where
/// noted). Search is thread-safe after Build.
class AnnIndex {
 public:
  virtual ~AnnIndex() = default;

  /// Indexes `n` vectors of dimension `dim` (row-major, borrowed).
  virtual Status Build(const float* data, size_t n, size_t dim) = 0;

  /// `k` nearest neighbors of `query` in ascending distance order.
  virtual StatusOr<std::vector<Neighbor>> Search(const float* query,
                                                 size_t k) const = 0;

  /// Batched search: `queries` is `nq` row-major vectors of the indexed
  /// dimension; entry i of the result is query i's neighbors, identical to
  /// what Search(queries + i * dim, k) returns. The base implementation
  /// loops Search; indexes override it to amortize per-query costs
  /// (brute force: blocked scans that reuse each data block across the
  /// whole batch). Runs on the calling thread. Thread-safe after Build.
  virtual StatusOr<std::vector<std::vector<Neighbor>>> BatchSearch(
      const float* queries, size_t nq, size_t k) const;

  virtual std::string name() const = 0;
  virtual Metric metric() const = 0;
  /// Dimension of the indexed vectors (0 before Build). Doubles as the
  /// row stride of a BatchSearch query buffer.
  virtual size_t dim() const = 0;
};

/// Exact scan. The recall-1.0 baseline every approximate index is judged
/// against.
std::unique_ptr<AnnIndex> MakeBruteForceIndex(Metric metric = Metric::kL2);

class EmbeddingTable;
/// Exact scan over a *tiered* embedding table: blocks stream out of the
/// tier (hot prefix or dequantize-on-read, never promoting), so search
/// works within the tier's memory budget instead of materializing the
/// matrix. Build(nullptr, 0, 0) — the data comes from `table`. Results
/// are bitwise-identical to MakeBruteForceIndex over the served vectors.
std::unique_ptr<AnnIndex> MakeTieredBruteForceIndex(
    std::shared_ptr<const EmbeddingTable> table, Metric metric = Metric::kL2);

struct IvfOptions {
  size_t nlist = 64;    // Number of coarse cells.
  size_t nprobe = 8;    // Cells visited per query.
  int kmeans_iterations = 20;
  uint64_t seed = 1;
};
/// Inverted-file index with exact in-cell scan (IVF-Flat). L2 only.
std::unique_ptr<AnnIndex> MakeIvfIndex(IvfOptions options = {});

struct HnswOptions {
  size_t m = 16;                 // Max neighbors per node per layer.
  size_t ef_construction = 100;  // Candidate pool during insertion.
  size_t ef_search = 64;         // Candidate pool during search.
  uint64_t seed = 1;
  Metric metric = Metric::kL2;
};
/// Hierarchical Navigable Small World graph (Malkov & Yashunin).
std::unique_ptr<AnnIndex> MakeHnswIndex(HnswOptions options = {});

/// recall@k of `result` against ground truth ids (fraction of true
/// neighbors retrieved).
double RecallAtK(const std::vector<Neighbor>& result,
                 const std::vector<Neighbor>& ground_truth, size_t k);

}  // namespace mlfs

#endif  // MLFS_EMBEDDING_ANN_H_
