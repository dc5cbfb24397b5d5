// Batched ANN retrieval and SIMD distance kernels: BatchSearch must agree
// with a loop of Search for every index and metric, and the dispatched
// kernels must agree with the scalar reference kernels on awkward
// (non-multiple-of-lane) dimensions.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "embedding/ann.h"
#include "embedding/distance.h"

namespace mlfs {
namespace {

std::vector<float> RandomVectors(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> out(n * dim);
  for (auto& x : out) x = static_cast<float>(rng.Gaussian());
  return out;
}

TEST(SimdDistanceTest, DispatchedKernelsMatchScalarOnOddDims) {
  // Odd dims exercise every tail-handling path of the vector kernels.
  for (size_t dim : {1u, 3u, 17u, 100u, 300u}) {
    auto a = RandomVectors(1, dim, 100 + dim);
    auto b = RandomVectors(1, dim, 200 + dim);
    const float dot_scalar = DotProductScalar(a.data(), b.data(), dim);
    const float dot_simd = DotProduct(a.data(), b.data(), dim);
    const float l2_scalar = L2SquaredScalar(a.data(), b.data(), dim);
    const float l2_simd = L2Squared(a.data(), b.data(), dim);
    const float tol = 1e-4f;
    EXPECT_NEAR(dot_simd, dot_scalar, tol * (1.0f + std::abs(dot_scalar)))
        << "dot dim=" << dim << " level=" << simd::LevelName();
    EXPECT_NEAR(l2_simd, l2_scalar, tol * (1.0f + std::abs(l2_scalar)))
        << "l2 dim=" << dim << " level=" << simd::LevelName();
  }
}

TEST(SimdDistanceTest, KernelsAgreeOnLaneMultipleDims) {
  for (size_t dim : {8u, 16u, 24u, 64u, 128u}) {
    auto a = RandomVectors(1, dim, 300 + dim);
    auto b = RandomVectors(1, dim, 400 + dim);
    EXPECT_NEAR(DotProduct(a.data(), b.data(), dim),
                DotProductScalar(a.data(), b.data(), dim), 1e-3f)
        << dim;
    EXPECT_NEAR(L2Squared(a.data(), b.data(), dim),
                L2SquaredScalar(a.data(), b.data(), dim), 1e-3f)
        << dim;
  }
}

TEST(SimdDistanceTest, ReportsALevel) {
  // Whatever the host CPU, dispatch must have settled on a known level.
  std::string_view level = simd::LevelName();
  EXPECT_TRUE(level == "scalar" || level == "avx2+fma" || level == "neon")
      << level;
}

// BatchSearch(queries) must return what looping Search over the same
// queries returns. For kL2/kInnerProduct the brute-force batched scan uses
// the identical kernel in identical row order, so results match exactly;
// kCosine uses precomputed row norms, so distances may differ in the last
// ulps — compare with tolerance and accept id swaps only between ties.
void ExpectBatchMatchesLoop(const AnnIndex& index, const float* queries,
                            size_t nq, size_t k, float tol) {
  auto batch = index.BatchSearch(queries, nq, k);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(batch->size(), nq);
  for (size_t q = 0; q < nq; ++q) {
    auto loop = index.Search(queries + q * index.dim(), k).value();
    const auto& got = (*batch)[q];
    ASSERT_EQ(got.size(), loop.size()) << index.name() << " query " << q;
    for (size_t r = 0; r < loop.size(); ++r) {
      EXPECT_NEAR(got[r].distance, loop[r].distance,
                  tol * (1.0f + std::abs(loop[r].distance)))
          << index.name() << " query " << q << " rank " << r;
      if (got[r].id != loop[r].id) {
        // Allowed only when the two candidates tie within tolerance.
        EXPECT_NEAR(got[r].distance, loop[r].distance, 1e-4f)
            << index.name() << " query " << q << " rank " << r
            << " ids " << got[r].id << " vs " << loop[r].id;
      }
    }
  }
}

class BatchSearchPropertyTest : public ::testing::TestWithParam<Metric> {};

TEST_P(BatchSearchPropertyTest, BruteForceBatchEqualsLoop) {
  const size_t n = 700, dim = 24, nq = 37;
  auto data = RandomVectors(n, dim, 11);
  auto queries = RandomVectors(nq, dim, 12);
  auto index = MakeBruteForceIndex(GetParam());
  ASSERT_TRUE(index->Build(data.data(), n, dim).ok());
  for (size_t k : {1u, 5u, 20u, 1000u}) {  // 1000 clamps to n.
    const float tol = GetParam() == Metric::kCosine ? 1e-5f : 0.0f;
    ExpectBatchMatchesLoop(*index, queries.data(), nq, k, tol);
  }
}

INSTANTIATE_TEST_SUITE_P(Metrics, BatchSearchPropertyTest,
                         ::testing::Values(Metric::kL2, Metric::kInnerProduct,
                                           Metric::kCosine));

TEST(BatchSearchPropertyTest, HnswBatchEqualsLoop) {
  const size_t n = 1200, dim = 16, nq = 25;
  auto data = RandomVectors(n, dim, 21);
  auto queries = RandomVectors(nq, dim, 22);
  for (Metric metric : {Metric::kL2, Metric::kCosine}) {
    HnswOptions options;
    options.m = 12;
    options.ef_construction = 80;
    options.ef_search = 48;
    options.metric = metric;
    auto index = MakeHnswIndex(options);
    ASSERT_TRUE(index->Build(data.data(), n, dim).ok());
    for (size_t k : {1u, 10u}) {
      // HNSW batches through the base loop over Search.
      ExpectBatchMatchesLoop(*index, queries.data(), nq, k, 0.0f);
    }
  }
}

TEST(BatchSearchPropertyTest, IvfUsesDefaultLoopImplementation) {
  const size_t n = 600, dim = 8, nq = 9;
  auto data = RandomVectors(n, dim, 31);
  auto queries = RandomVectors(nq, dim, 32);
  IvfOptions options;
  options.nlist = 16;
  options.nprobe = 8;
  auto index = MakeIvfIndex(options);
  ASSERT_TRUE(index->Build(data.data(), n, dim).ok());
  ExpectBatchMatchesLoop(*index, queries.data(), nq, 7, 0.0f);
}

TEST(BatchSearchTest, Validation) {
  auto index = MakeBruteForceIndex();
  std::vector<float> queries = {0, 0};
  // Not built yet.
  EXPECT_TRUE(index->BatchSearch(queries.data(), 1, 1)
                  .status()
                  .IsFailedPrecondition());
  std::vector<float> data = {0, 0, 1, 1};
  ASSERT_TRUE(index->Build(data.data(), 2, 2).ok());
  EXPECT_FALSE(index->BatchSearch(nullptr, 1, 1).ok());
  EXPECT_FALSE(index->BatchSearch(queries.data(), 1, 0).ok());
  // Empty batch is fine.
  EXPECT_EQ(index->BatchSearch(queries.data(), 0, 3).value().size(), 0u);
  // Oversized k clamps per query, like Search.
  EXPECT_EQ(index->BatchSearch(queries.data(), 1, 10).value()[0].size(), 2u);
}

TEST(BatchSearchTest, HnswRepeatedBatchesReuseVisitedPool) {
  // Many consecutive batches on one thread: epoch stamping must keep
  // results correct without ever re-clearing (regression guard for the
  // epoch-wraparound bookkeeping).
  const size_t n = 400, dim = 8, nq = 5, k = 3;
  auto data = RandomVectors(n, dim, 51);
  auto queries = RandomVectors(nq, dim, 52);
  auto index = MakeHnswIndex();
  ASSERT_TRUE(index->Build(data.data(), n, dim).ok());
  auto first = index->BatchSearch(queries.data(), nq, k).value();
  for (int round = 0; round < 50; ++round) {
    auto again = index->BatchSearch(queries.data(), nq, k).value();
    for (size_t q = 0; q < nq; ++q) {
      ASSERT_EQ(again[q].size(), first[q].size());
      for (size_t r = 0; r < first[q].size(); ++r) {
        EXPECT_EQ(again[q][r].id, first[q][r].id);
      }
    }
  }
}

}  // namespace
}  // namespace mlfs
