#ifndef MLFS_EMBEDDING_DISTANCE_H_
#define MLFS_EMBEDDING_DISTANCE_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace mlfs {

/// Similarity/distance space for vector search.
enum class Metric : uint8_t {
  kL2,            // Squared Euclidean distance (smaller = closer).
  kInnerProduct,  // Negated dot product as distance (smaller = closer).
  kCosine,        // 1 - cosine similarity.
};

std::string_view MetricToString(Metric metric);

/// Portable reference kernels (always compiled, no ISA requirements).
/// These are the semantics every SIMD specialization must agree with to
/// within normal float re-association error; tests pin the tolerance.
float DotProductScalar(const float* a, const float* b, size_t dim);
float L2SquaredScalar(const float* a, const float* b, size_t dim);

namespace simd {
using KernelFn = float (*)(const float*, const float*, size_t);
/// Active kernels. Constant-initialized to the scalar reference kernels,
/// upgraded once at load time to the widest ISA the CPU reports (AVX2+FMA
/// on x86, NEON on aarch64) — callers never pay a feature check per call.
extern KernelFn dot_product;
extern KernelFn l2_squared;
/// One query against `nrows` contiguous rows of `dim` floats:
/// out[r] = dot_product(query, rows + r * dim, dim) (resp. l2_squared), bit
/// for bit, for every r. The AVX2+FMA kernels score four rows per step
/// with every query load shared; scalar and NEON loop the per-pair kernel.
/// Dispatched with (and constant-initialized like) the per-pair pointers.
using RowsKernelFn = void (*)(const float* query, const float* rows,
                              size_t nrows, size_t dim, float* out);
extern RowsKernelFn dot_product_rows;
extern RowsKernelFn l2_squared_rows;
/// Name of the dispatched implementation: "avx2+fma", "neon", or "scalar".
std::string_view LevelName();
}  // namespace simd

inline float DotProduct(const float* a, const float* b, size_t dim) {
  return simd::dot_product(a, b, dim);
}

inline float L2Squared(const float* a, const float* b, size_t dim) {
  return simd::l2_squared(a, b, dim);
}

inline float L2Norm(const float* a, size_t dim) {
  return std::sqrt(DotProduct(a, a, dim));
}

inline float CosineSimilarity(const float* a, const float* b, size_t dim) {
  float denom = L2Norm(a, dim) * L2Norm(b, dim);
  if (denom == 0) return 0.0f;
  return DotProduct(a, b, dim) / denom;
}

/// Distance under `metric` (always: smaller = closer).
inline float Distance(Metric metric, const float* a, const float* b,
                      size_t dim) {
  switch (metric) {
    case Metric::kL2:
      return L2Squared(a, b, dim);
    case Metric::kInnerProduct:
      return -DotProduct(a, b, dim);
    case Metric::kCosine:
      return 1.0f - CosineSimilarity(a, b, dim);
  }
  return 0.0f;
}

}  // namespace mlfs

#endif  // MLFS_EMBEDDING_DISTANCE_H_
