// Batched ANN retrieval and SIMD distance kernels: BatchSearch must agree
// with a loop of Search for every index and metric, the dispatched
// kernels must agree with the scalar reference kernels on awkward
// (non-multiple-of-lane) dimensions, the row kernels must return the
// per-pair kernels' bits, and the AVX2 scalar tail must be an explicit
// fused multiply-add chain.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>

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

// Gaussian rows, every third of which also carries the specials the
// kernels must carry through unchanged: signed zeros, magnitudes whose
// squares and products overflow, infinities and NaN.
std::vector<float> VectorsWithSpecials(size_t n, size_t dim, uint64_t seed) {
  // Made at run time, so it is the NaN the hardware itself produces (from
  // inf - inf or 0 * inf inside a kernel): every NaN then has one bit
  // pattern, whichever operand an instruction propagates.
  volatile float inf = std::numeric_limits<float>::infinity();
  const float nan = inf - inf;
  const float specials[] = {0.0f, -0.0f, 3e19f, -3e19f, 1e38f, -1e38f,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(), nan};
  Rng rng(seed);
  std::vector<float> out(n * dim);
  for (size_t i = 0; i < out.size(); ++i) {
    const bool special = (i / dim) % 3 == 0 && rng.Uniform(8) == 0;
    out[i] = special ? specials[rng.Uniform(std::size(specials))]
                     : static_cast<float>(rng.Gaussian());
  }
  return out;
}

TEST(SimdDistanceTest, RowKernelsEqualPerPairKernelsBitwise) {
  // Dims cover the 16-wide main loop, the 8-wide remainder and the scalar
  // tail in every combination; row counts cover the 4-row step's
  // remainders on either side of a 256-row boundary.
  const size_t dims[] = {1, 3, 7, 8, 9, 12, 15, 16, 17, 24, 31, 32, 33, 64,
                         300};
  const size_t row_counts[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 255, 256, 257};
  for (size_t dim : dims) {
    // One float of offset leaves rows and queries unaligned to the vector
    // width. Query 0 carries specials, query 1 does not.
    auto rows = VectorsWithSpecials(257, dim + 1, 500 + dim);
    auto queries = VectorsWithSpecials(2, dim + 1, 600 + dim);
    for (size_t qi = 0; qi < 2; ++qi) {
      const float* q = queries.data() + 1 + qi * dim;
      const float* r0 = rows.data() + 1;
      for (size_t nrows : row_counts) {
        std::vector<float> got(nrows), want(nrows);
        simd::l2_squared_rows(q, r0, nrows, dim, got.data());
        for (size_t r = 0; r < nrows; ++r) {
          want[r] = simd::l2_squared(q, r0 + r * dim, dim);
        }
        EXPECT_EQ(
            std::memcmp(got.data(), want.data(), nrows * sizeof(float)), 0)
            << "l2 dim=" << dim << " rows=" << nrows << " query=" << qi
            << " level=" << simd::LevelName();
        simd::dot_product_rows(q, r0, nrows, dim, got.data());
        for (size_t r = 0; r < nrows; ++r) {
          want[r] = simd::dot_product(q, r0 + r * dim, dim);
        }
        EXPECT_EQ(
            std::memcmp(got.data(), want.data(), nrows * sizeof(float)), 0)
            << "dot dim=" << dim << " rows=" << nrows << " query=" << qi
            << " level=" << simd::LevelName();
      }
    }
  }
}

// Below 8 dims the AVX2+FMA kernels run only their scalar tail: one fused
// multiply-add per element onto +0.0, so their bits are the same at every
// optimization level (a plain `sum += x * y` is contracted, or not, as the
// optimizer decides).
TEST(SimdDistanceTest, Avx2TailIsAFusedMultiplyAddChain) {
  if (simd::LevelName() != "avx2+fma") {
    GTEST_SKIP() << "dispatched level is " << simd::LevelName();
  }
  constexpr size_t kPairs = 256;
  for (size_t dim = 1; dim <= 7; ++dim) {
    const auto a = RandomVectors(kPairs, dim, 700 + dim);
    const auto b = RandomVectors(kPairs, dim, 800 + dim);
    for (size_t i = 0; i < kPairs; ++i) {
      const float* x = a.data() + i * dim;
      const float* y = b.data() + i * dim;
      float l2 = 0.0f, dot = 0.0f;
      for (size_t j = 0; j < dim; ++j) {
        const float d = x[j] - y[j];
        l2 = std::fma(d, d, l2);
        dot = std::fma(x[j], y[j], dot);
      }
      const float got_l2 = simd::l2_squared(x, y, dim);
      const float got_dot = simd::dot_product(x, y, dim);
      EXPECT_EQ(std::memcmp(&got_l2, &l2, sizeof(float)), 0)
          << "l2 dim=" << dim << " pair=" << i << ": " << got_l2 << " vs "
          << l2;
      EXPECT_EQ(std::memcmp(&got_dot, &dot, sizeof(float)), 0)
          << "dot dim=" << dim << " pair=" << i << ": " << got_dot << " vs "
          << dot;
    }
  }
}

TEST(SimdDistanceTest, ReportsALevel) {
  // Whatever the host CPU, dispatch must have settled on a known level.
  std::string_view level = simd::LevelName();
  EXPECT_TRUE(level == "scalar" || level == "avx2+fma" || level == "neon")
      << level;
}

// BatchSearch(queries) must return exactly what looping Search over the
// same queries returns: same ids, same distance bits, for every metric.
// Brute force's Search is a batch of one through the same scan; HNSW and
// IVF batch through the base loop over Search.
void ExpectBatchMatchesLoop(const AnnIndex& index, const float* queries,
                            size_t nq, size_t k) {
  auto batch = index.BatchSearch(queries, nq, k);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(batch->size(), nq);
  for (size_t q = 0; q < nq; ++q) {
    auto loop = index.Search(queries + q * index.dim(), k).value();
    const auto& got = (*batch)[q];
    ASSERT_EQ(got.size(), loop.size()) << index.name() << " query " << q;
    for (size_t r = 0; r < loop.size(); ++r) {
      EXPECT_EQ(got[r].id, loop[r].id)
          << index.name() << " query " << q << " rank " << r;
      EXPECT_EQ(got[r].distance, loop[r].distance)
          << index.name() << " query " << q << " rank " << r;
    }
  }
}

class BatchSearchPropertyTest : public ::testing::TestWithParam<Metric> {};

TEST_P(BatchSearchPropertyTest, BruteForceBatchEqualsLoop) {
  // 1001 rows: a multiple of neither the kernel's 4-row step nor any
  // dim's L1 block, so every scan ends on a partial block and remainder.
  const size_t nq = 37;
  for (size_t dim : {24u, 32u, 64u, 300u}) {
    for (size_t n : {700u, 1001u}) {
      auto data = RandomVectors(n, dim, 11 + dim);
      auto queries = RandomVectors(nq, dim, 12 + dim);
      auto index = MakeBruteForceIndex(GetParam());
      ASSERT_TRUE(index->Build(data.data(), n, dim).ok());
      for (size_t k : {1u, 5u, 20u, 1000u}) {  // 1000 clamps to n = 700.
        SCOPED_TRACE("dim=" + std::to_string(dim) + " n=" +
                     std::to_string(n) + " k=" + std::to_string(k));
        ExpectBatchMatchesLoop(*index, queries.data(), nq, k);
      }
    }
  }
}

TEST_P(BatchSearchPropertyTest, BruteForceBatchEqualsLoopAtEveryOffset) {
  // The batch scan stages row blocks that start off a 32-byte boundary
  // into an aligned copy; a search of one query reads the rows in place.
  // Shifting the matrix by 0-7 floats takes both paths over the same rows.
  const size_t n = 1001, nq = 9;
  for (size_t dim : {8u, 32u, 36u}) {
    auto data = RandomVectors(n, dim, 31 + dim);
    auto queries = RandomVectors(nq, dim, 32 + dim);
    std::vector<float> shifted(n * dim + 8);
    for (size_t offset = 0; offset < 8; ++offset) {
      std::copy(data.begin(), data.end(), shifted.begin() + offset);
      auto index = MakeBruteForceIndex(GetParam());
      ASSERT_TRUE(index->Build(shifted.data() + offset, n, dim).ok());
      SCOPED_TRACE("dim=" + std::to_string(dim) +
                   " offset=" + std::to_string(offset));
      ExpectBatchMatchesLoop(*index, queries.data(), nq, 5);
    }
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
      ExpectBatchMatchesLoop(*index, queries.data(), nq, k);
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
  ExpectBatchMatchesLoop(*index, queries.data(), nq, 7);
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
