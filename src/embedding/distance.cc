// Runtime-dispatched distance kernels. The scalar reference kernels are
// the semantic ground truth; the AVX2+FMA (x86) and NEON (aarch64)
// variants reorder the accumulation (wider partial sums) but keep every
// multiply/subtract bit-identical per lane, so they agree with the scalar
// kernels to within re-association error (~1e-6 relative at dim 300).
//
// Dispatch happens once, at static-initialization time, into plain
// function pointers: HNSW traversal, IVF probing, and k-means assignment
// call through `simd::dot_product` / `simd::l2_squared`, and the exact
// scan through the row kernels `simd::dot_product_rows` /
// `simd::l2_squared_rows`, with no per-call feature test. The pointers are
// constant-initialized to the scalar kernels so any caller that runs
// before this TU's dynamic initializers (e.g. another TU's static
// constructor) still gets correct results.
//
// A row kernel returns exactly the per-pair kernel's bits for every row:
// each row keeps its own accumulators, fed in the same order with the same
// operations, and its horizontal sum and scalar tail associate the same
// way. Only the query loads and the call are shared across rows.

#include "embedding/distance.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define MLFS_DISTANCE_X86 1
#endif

#if defined(__aarch64__)
#include <arm_neon.h>
#define MLFS_DISTANCE_NEON 1
#endif

namespace mlfs {

float DotProductScalar(const float* a, const float* b, size_t dim) {
  float s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  size_t j = 0;
  for (; j + 4 <= dim; j += 4) {
    s0 += a[j] * b[j];
    s1 += a[j + 1] * b[j + 1];
    s2 += a[j + 2] * b[j + 2];
    s3 += a[j + 3] * b[j + 3];
  }
  for (; j < dim; ++j) s0 += a[j] * b[j];
  return s0 + s1 + s2 + s3;
}

float L2SquaredScalar(const float* a, const float* b, size_t dim) {
  float s0 = 0, s1 = 0;
  size_t j = 0;
  for (; j + 2 <= dim; j += 2) {
    float d0 = a[j] - b[j];
    float d1 = a[j + 1] - b[j + 1];
    s0 += d0 * d0;
    s1 += d1 * d1;
  }
  for (; j < dim; ++j) {
    float d = a[j] - b[j];
    s0 += d * d;
  }
  return s0 + s1;
}

namespace simd {
namespace {

#if MLFS_DISTANCE_X86

__attribute__((target("avx2,fma"))) float HorizontalSum(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 sum = _mm_add_ps(lo, hi);
  sum = _mm_add_ps(sum, _mm_movehl_ps(sum, sum));
  sum = _mm_add_ss(sum, _mm_movehdup_ps(sum));
  return _mm_cvtss_f32(sum);
}

/// HorizontalSum of four vectors at once, lane r holding HorizontalSum(vr):
/// the same halves add, then a 4x4 transpose lines up each vector's four
/// partial sums so they associate as (e0 + e2) + (e1 + e3).
__attribute__((target("avx2,fma"))) inline __m128 HorizontalSum4(
    __m256 v0, __m256 v1, __m256 v2, __m256 v3) {
  __m128 e0 = _mm_add_ps(_mm256_castps256_ps128(v0),
                         _mm256_extractf128_ps(v0, 1));
  __m128 e1 = _mm_add_ps(_mm256_castps256_ps128(v1),
                         _mm256_extractf128_ps(v1, 1));
  __m128 e2 = _mm_add_ps(_mm256_castps256_ps128(v2),
                         _mm256_extractf128_ps(v2, 1));
  __m128 e3 = _mm_add_ps(_mm256_castps256_ps128(v3),
                         _mm256_extractf128_ps(v3, 1));
  _MM_TRANSPOSE4_PS(e0, e1, e2, e3);
  return _mm_add_ps(_mm_add_ps(e0, e2), _mm_add_ps(e1, e3));
}

/// One 8-lane step: acc + (a - b)^2 for L2, acc + a * b for dot, fused.
template <bool kL2>
__attribute__((target("avx2,fma"), always_inline)) inline __m256 Accumulate(
    __m256 acc, __m256 a, const float* b) {
  if constexpr (kL2) {
    __m256 d = _mm256_sub_ps(a, _mm256_loadu_ps(b));
    return _mm256_fmadd_ps(d, d, acc);
  } else {
    return _mm256_fmadd_ps(a, _mm256_loadu_ps(b), acc);
  }
}

/// The scalar tail past the last 8-lane step, added onto `sum` with one
/// explicit fused multiply-add per element, so the bits do not depend on
/// whether the optimizer would have contracted `sum += x * y` itself.
template <bool kL2>
__attribute__((target("avx2,fma"), always_inline)) inline float Tail(
    const float* a, const float* b, size_t j, size_t dim, float sum) {
  for (; j < dim; ++j) {
    if constexpr (kL2) {
      const float d = a[j] - b[j];
      sum = __builtin_fmaf(d, d, sum);
    } else {
      sum = __builtin_fmaf(a[j], b[j], sum);
    }
  }
  return sum;
}

/// One pair: two accumulators over 16-wide steps, an 8-wide remainder into
/// the first, their horizontal sum, then the scalar tail.
template <bool kL2>
__attribute__((target("avx2,fma"))) float PairAvx2(const float* a,
                                                   const float* b,
                                                   size_t dim) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t j = 0;
  for (; j + 16 <= dim; j += 16) {
    acc0 = Accumulate<kL2>(acc0, _mm256_loadu_ps(a + j), b + j);
    acc1 = Accumulate<kL2>(acc1, _mm256_loadu_ps(a + j + 8), b + j + 8);
  }
  if (j + 8 <= dim) {
    acc0 = Accumulate<kL2>(acc0, _mm256_loadu_ps(a + j), b + j);
    j += 8;
  }
  return Tail<kL2>(a, b, j, dim, HorizontalSum(_mm256_add_ps(acc0, acc1)));
}

/// PairAvx2 for four rows per step, eight accumulators sharing each query
/// load; rows past the last multiple of four go through PairAvx2.
template <bool kL2>
__attribute__((target("avx2,fma"))) void RowsAvx2(const float* query,
                                                  const float* rows,
                                                  size_t nrows, size_t dim,
                                                  float* out) {
  size_t r = 0;
  for (; r + 4 <= nrows; r += 4) {
    const float* r0 = rows + r * dim;
    const float* r1 = r0 + dim;
    const float* r2 = r1 + dim;
    const float* r3 = r2 + dim;
    __m256 a0 = _mm256_setzero_ps(), b0 = _mm256_setzero_ps();
    __m256 a1 = _mm256_setzero_ps(), b1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps(), b2 = _mm256_setzero_ps();
    __m256 a3 = _mm256_setzero_ps(), b3 = _mm256_setzero_ps();
    size_t j = 0;
    for (; j + 16 <= dim; j += 16) {
      const __m256 q0 = _mm256_loadu_ps(query + j);
      const __m256 q1 = _mm256_loadu_ps(query + j + 8);
      a0 = Accumulate<kL2>(a0, q0, r0 + j);
      b0 = Accumulate<kL2>(b0, q1, r0 + j + 8);
      a1 = Accumulate<kL2>(a1, q0, r1 + j);
      b1 = Accumulate<kL2>(b1, q1, r1 + j + 8);
      a2 = Accumulate<kL2>(a2, q0, r2 + j);
      b2 = Accumulate<kL2>(b2, q1, r2 + j + 8);
      a3 = Accumulate<kL2>(a3, q0, r3 + j);
      b3 = Accumulate<kL2>(b3, q1, r3 + j + 8);
    }
    if (j + 8 <= dim) {
      const __m256 q0 = _mm256_loadu_ps(query + j);
      a0 = Accumulate<kL2>(a0, q0, r0 + j);
      a1 = Accumulate<kL2>(a1, q0, r1 + j);
      a2 = Accumulate<kL2>(a2, q0, r2 + j);
      a3 = Accumulate<kL2>(a3, q0, r3 + j);
      j += 8;
    }
    _mm_storeu_ps(out + r, HorizontalSum4(
                               _mm256_add_ps(a0, b0), _mm256_add_ps(a1, b1),
                               _mm256_add_ps(a2, b2), _mm256_add_ps(a3, b3)));
    if (j < dim) {
      out[r] = Tail<kL2>(query, r0, j, dim, out[r]);
      out[r + 1] = Tail<kL2>(query, r1, j, dim, out[r + 1]);
      out[r + 2] = Tail<kL2>(query, r2, j, dim, out[r + 2]);
      out[r + 3] = Tail<kL2>(query, r3, j, dim, out[r + 3]);
    }
  }
  for (; r < nrows; ++r) out[r] = PairAvx2<kL2>(query, rows + r * dim, dim);
}

bool CpuHasAvx2Fma() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

#endif  // MLFS_DISTANCE_X86

#if MLFS_DISTANCE_NEON

float DotProductNeon(const float* a, const float* b, size_t dim) {
  float32x4_t acc0 = vdupq_n_f32(0);
  float32x4_t acc1 = vdupq_n_f32(0);
  size_t j = 0;
  for (; j + 8 <= dim; j += 8) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + j), vld1q_f32(b + j));
    acc1 = vfmaq_f32(acc1, vld1q_f32(a + j + 4), vld1q_f32(b + j + 4));
  }
  if (j + 4 <= dim) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + j), vld1q_f32(b + j));
    j += 4;
  }
  float sum = vaddvq_f32(vaddq_f32(acc0, acc1));
  for (; j < dim; ++j) sum += a[j] * b[j];
  return sum;
}

float L2SquaredNeon(const float* a, const float* b, size_t dim) {
  float32x4_t acc0 = vdupq_n_f32(0);
  float32x4_t acc1 = vdupq_n_f32(0);
  size_t j = 0;
  for (; j + 8 <= dim; j += 8) {
    float32x4_t d0 = vsubq_f32(vld1q_f32(a + j), vld1q_f32(b + j));
    float32x4_t d1 = vsubq_f32(vld1q_f32(a + j + 4), vld1q_f32(b + j + 4));
    acc0 = vfmaq_f32(acc0, d0, d0);
    acc1 = vfmaq_f32(acc1, d1, d1);
  }
  if (j + 4 <= dim) {
    float32x4_t d = vsubq_f32(vld1q_f32(a + j), vld1q_f32(b + j));
    acc0 = vfmaq_f32(acc0, d, d);
    j += 4;
  }
  float sum = vaddvq_f32(vaddq_f32(acc0, acc1));
  for (; j < dim; ++j) {
    float d = a[j] - b[j];
    sum += d * d;
  }
  return sum;
}

#endif  // MLFS_DISTANCE_NEON

/// The row kernel of a per-pair kernel: one call per row, bit-identical by
/// construction.
template <KernelFn kPair>
void LoopRows(const float* query, const float* rows, size_t nrows,
              size_t dim, float* out) {
  for (size_t r = 0; r < nrows; ++r) out[r] = kPair(query, rows + r * dim, dim);
}

std::string_view g_level = "scalar";

}  // namespace

KernelFn dot_product = DotProductScalar;
KernelFn l2_squared = L2SquaredScalar;
RowsKernelFn dot_product_rows = LoopRows<DotProductScalar>;
RowsKernelFn l2_squared_rows = LoopRows<L2SquaredScalar>;

namespace {

// Dynamic initializer: upgrades the constant-initialized scalar pointers
// to the best ISA available. Runs before main(); callers that run earlier
// (other TUs' static initializers) see the scalar kernels, which is safe.
const bool g_dispatched = [] {
#if MLFS_DISTANCE_X86
  if (CpuHasAvx2Fma()) {
    dot_product = PairAvx2<false>;
    l2_squared = PairAvx2<true>;
    dot_product_rows = RowsAvx2<false>;
    l2_squared_rows = RowsAvx2<true>;
    g_level = "avx2+fma";
  }
#elif MLFS_DISTANCE_NEON
  dot_product = DotProductNeon;
  l2_squared = L2SquaredNeon;
  dot_product_rows = LoopRows<DotProductNeon>;
  l2_squared_rows = LoopRows<L2SquaredNeon>;
  g_level = "neon";
#endif
  return true;
}();

}  // namespace

std::string_view LevelName() { return g_level; }

}  // namespace simd
}  // namespace mlfs
