#include <algorithm>

#include "embedding/ann.h"
#include "embedding/embedding_table.h"
#include "embedding/exact_scan.h"
#include "embedding/tier.h"

namespace mlfs {
namespace {

/// Exact scan over a *tiered* embedding table: blocks stream out of the
/// tier (hot prefix directly, cold blocks dequantized into scan scratch —
/// never promoted, so an ANN pass cannot flush the point-lookup working
/// set) into the same ExactScan the resident index runs, once per batch.
///
/// Results are bitwise-identical to BruteForceIndex built over the
/// table's served vectors: the scan sees the same rows in the same order,
/// and cosine inverse norms are recomputed from the served rows on every
/// scan so demotions (which change a row's served value to its
/// dequantized form) can never leave the norms stale.
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
    return SearchAsBatchOfOne(*this, query, k);
  }

  /// One streaming pass over the tier per batch: cold blocks dequantize
  /// once for all queries.
  StatusOr<std::vector<std::vector<Neighbor>>> BatchSearch(
      const float* queries, size_t nq, size_t k) const override {
    if (!built_) {
      return Status::FailedPrecondition("index not built");
    }
    if ((queries == nullptr && nq > 0) || k == 0) {
      return Status::InvalidArgument("bad query batch");
    }
    if (nq == 0) return std::vector<std::vector<Neighbor>>();
    ExactScan scan(metric_, queries, nq, table_->dim(),
                   std::min(k, table_->size()));
    MLFS_RETURN_IF_ERROR(table_->tier()->ScanBlocks(
        [&](size_t row0, size_t nrows, const float* rows) {
          scan.Add(row0, nrows, rows);
        }));
    return scan.Finish();
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
