// Runtime-dispatched typed kernels for the bytecode VM. Unlike the
// distance kernels (which tolerate re-association error), every variant
// here must be BIT-IDENTICAL to its scalar reference: the VM's contract is
// byte-identity with the tree-walking oracle, so a dispatched kernel may
// not change a single result bit. That constrains the designs:
//  - arithmetic/compare kernels are purely per-lane (no re-association);
//  - the compare kernels rebuild the scalar three-way logic from ordered
//    (quiet) masks so NaN still compares "equal".
//
// Dispatch happens once, at static-initialization time, into plain
// function pointers (the distance.cc pattern): constant-initialized to the
// scalar kernels, upgraded by a dynamic initializer, so callers running
// before this TU's initializers still get correct results.

#include "expr/simd_kernels.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define MLFS_VMSIMD_X86 1
#endif

#if defined(__aarch64__)
#include <arm_neon.h>
#define MLFS_VMSIMD_NEON 1
#endif

namespace mlfs {
namespace vmsimd {

// ---------------------------------------------------------------------------
// Scalar references (semantic ground truth).
// ---------------------------------------------------------------------------

void AddF64Scalar(const double* x, const double* y, double* o, size_t n) {
  for (size_t i = 0; i < n; ++i) o[i] = x[i] + y[i];
}

void SubF64Scalar(const double* x, const double* y, double* o, size_t n) {
  for (size_t i = 0; i < n; ++i) o[i] = x[i] - y[i];
}

void MulF64Scalar(const double* x, const double* y, double* o, size_t n) {
  for (size_t i = 0; i < n; ++i) o[i] = x[i] * y[i];
}

void DivF64Scalar(const double* x, const double* y, double* o,
                  uint64_t* null_words, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (y[i] == 0.0) {
      o[i] = 0.0;
      null_words[i >> 6] |= uint64_t{1} << (i & 63);
    } else {
      o[i] = x[i] / y[i];
    }
  }
}

void AddI64Scalar(const int64_t* x, const int64_t* y, int64_t* o, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    o[i] = static_cast<int64_t>(static_cast<uint64_t>(x[i]) +
                                static_cast<uint64_t>(y[i]));
  }
}

void SubI64Scalar(const int64_t* x, const int64_t* y, int64_t* o, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    o[i] = static_cast<int64_t>(static_cast<uint64_t>(x[i]) -
                                static_cast<uint64_t>(y[i]));
  }
}

namespace {

template <typename T, typename Pred>
inline void CmpScalarLoop(const T* x, const T* y, uint8_t* o, size_t n,
                          Pred pred) {
  for (size_t i = 0; i < n; ++i) {
    int c = (x[i] < y[i]) ? -1 : (x[i] > y[i]) ? 1 : 0;
    o[i] = pred(c);
  }
}

template <typename T>
inline void CmpScalarImpl(CmpPred pred, const T* x, const T* y, uint8_t* o,
                          size_t n) {
  switch (pred) {
    case CmpPred::kEq:
      CmpScalarLoop(x, y, o, n, [](int c) { return uint8_t(c == 0); });
      break;
    case CmpPred::kNe:
      CmpScalarLoop(x, y, o, n, [](int c) { return uint8_t(c != 0); });
      break;
    case CmpPred::kLt:
      CmpScalarLoop(x, y, o, n, [](int c) { return uint8_t(c < 0); });
      break;
    case CmpPred::kLe:
      CmpScalarLoop(x, y, o, n, [](int c) { return uint8_t(c <= 0); });
      break;
    case CmpPred::kGt:
      CmpScalarLoop(x, y, o, n, [](int c) { return uint8_t(c > 0); });
      break;
    case CmpPred::kGe:
      CmpScalarLoop(x, y, o, n, [](int c) { return uint8_t(c >= 0); });
      break;
  }
}

}  // namespace

void CmpF64Scalar(CmpPred pred, const double* x, const double* y, uint8_t* o,
                  size_t n) {
  CmpScalarImpl(pred, x, y, o, n);
}

void CmpI64Scalar(CmpPred pred, const int64_t* x, const int64_t* y,
                  uint8_t* o, size_t n) {
  CmpScalarImpl(pred, x, y, o, n);
}

void OrWordsScalar(const uint64_t* a, const uint64_t* b, uint64_t* o,
                   size_t words) {
  for (size_t i = 0; i < words; ++i) o[i] = a[i] | b[i];
}

namespace {

#if MLFS_VMSIMD_X86

__attribute__((target("avx2,fma"))) void AddF64Avx2(const double* x,
                                                    const double* y,
                                                    double* o, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_pd(o + i, _mm256_add_pd(_mm256_loadu_pd(x + i),
                                          _mm256_loadu_pd(y + i)));
    _mm256_storeu_pd(o + i + 4, _mm256_add_pd(_mm256_loadu_pd(x + i + 4),
                                              _mm256_loadu_pd(y + i + 4)));
  }
  for (; i < n; ++i) o[i] = x[i] + y[i];
}

__attribute__((target("avx2,fma"))) void SubF64Avx2(const double* x,
                                                    const double* y,
                                                    double* o, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_pd(o + i, _mm256_sub_pd(_mm256_loadu_pd(x + i),
                                          _mm256_loadu_pd(y + i)));
    _mm256_storeu_pd(o + i + 4, _mm256_sub_pd(_mm256_loadu_pd(x + i + 4),
                                              _mm256_loadu_pd(y + i + 4)));
  }
  for (; i < n; ++i) o[i] = x[i] - y[i];
}

__attribute__((target("avx2,fma"))) void MulF64Avx2(const double* x,
                                                    const double* y,
                                                    double* o, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_pd(o + i, _mm256_mul_pd(_mm256_loadu_pd(x + i),
                                          _mm256_loadu_pd(y + i)));
    _mm256_storeu_pd(o + i + 4, _mm256_mul_pd(_mm256_loadu_pd(x + i + 4),
                                              _mm256_loadu_pd(y + i + 4)));
  }
  for (; i < n; ++i) o[i] = x[i] * y[i];
}

__attribute__((target("avx2,fma"))) void DivF64Avx2(const double* x,
                                                    const double* y,
                                                    double* o,
                                                    uint64_t* null_words,
                                                    size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  size_t i = 0;
  // Four-lane groups never straddle a bitmap word (64 % 4 == 0), so each
  // group's null bits OR into a single word.
  for (; i + 4 <= n; i += 4) {
    const __m256d vy = _mm256_loadu_pd(y + i);
    const __m256d by_zero = _mm256_cmp_pd(vy, zero, _CMP_EQ_OQ);
    const __m256d q = _mm256_div_pd(_mm256_loadu_pd(x + i), vy);
    _mm256_storeu_pd(o + i, _mm256_andnot_pd(by_zero, q));
    const int m = _mm256_movemask_pd(by_zero);
    if (m != 0) null_words[i >> 6] |= static_cast<uint64_t>(m) << (i & 63);
  }
  for (; i < n; ++i) {
    if (y[i] == 0.0) {
      o[i] = 0.0;
      null_words[i >> 6] |= uint64_t{1} << (i & 63);
    } else {
      o[i] = x[i] / y[i];
    }
  }
}

__attribute__((target("avx2"))) void AddI64Avx2(const int64_t* x,
                                                const int64_t* y, int64_t* o,
                                                size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(o + i),
        _mm256_add_epi64(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i)),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i))));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(o + i + 4),
        _mm256_add_epi64(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i + 4)),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i + 4))));
  }
  for (; i < n; ++i) {
    o[i] = static_cast<int64_t>(static_cast<uint64_t>(x[i]) +
                                static_cast<uint64_t>(y[i]));
  }
}

__attribute__((target("avx2"))) void SubI64Avx2(const int64_t* x,
                                                const int64_t* y, int64_t* o,
                                                size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(o + i),
        _mm256_sub_epi64(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i)),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i))));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(o + i + 4),
        _mm256_sub_epi64(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i + 4)),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i + 4))));
  }
  for (; i < n; ++i) {
    o[i] = static_cast<int64_t>(static_cast<uint64_t>(x[i]) -
                                static_cast<uint64_t>(y[i]));
  }
}

// Per-predicate bit masks from the (lt, gt) pair; `ne` is lt|gt and `eq`
// its 4-bit complement, which is exactly the scalar runtime's three-way
// logic (NaN sets neither lt nor gt, so it lands on "equal").
__attribute__((target("avx2"))) inline int PredMask(CmpPred pred, int mlt,
                                                    int mgt) {
  switch (pred) {
    case CmpPred::kEq:
      return ~(mlt | mgt) & 15;
    case CmpPred::kNe:
      return mlt | mgt;
    case CmpPred::kLt:
      return mlt;
    case CmpPred::kLe:
      return ~mgt & 15;
    case CmpPred::kGt:
      return mgt;
    case CmpPred::kGe:
      return ~mlt & 15;
  }
  return 0;
}

__attribute__((target("avx2"))) void CmpF64Avx2(CmpPred pred, const double* x,
                                                const double* y, uint8_t* o,
                                                size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vx = _mm256_loadu_pd(x + i);
    const __m256d vy = _mm256_loadu_pd(y + i);
    const int mlt = _mm256_movemask_pd(_mm256_cmp_pd(vx, vy, _CMP_LT_OQ));
    const int mgt = _mm256_movemask_pd(_mm256_cmp_pd(vx, vy, _CMP_GT_OQ));
    const int m = PredMask(pred, mlt, mgt);
    o[i] = m & 1;
    o[i + 1] = (m >> 1) & 1;
    o[i + 2] = (m >> 2) & 1;
    o[i + 3] = (m >> 3) & 1;
  }
  if (i < n) CmpF64Scalar(pred, x + i, y + i, o + i, n - i);
}

__attribute__((target("avx2"))) void CmpI64Avx2(CmpPred pred,
                                                const int64_t* x,
                                                const int64_t* y, uint8_t* o,
                                                size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i vx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i vy =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i));
    const int mlt =
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(vy, vx)));
    const int mgt =
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(vx, vy)));
    const int m = PredMask(pred, mlt, mgt);
    o[i] = m & 1;
    o[i + 1] = (m >> 1) & 1;
    o[i + 2] = (m >> 2) & 1;
    o[i + 3] = (m >> 3) & 1;
  }
  if (i < n) CmpI64Scalar(pred, x + i, y + i, o + i, n - i);
}

__attribute__((target("avx2"))) void OrWordsAvx2(const uint64_t* a,
                                                 const uint64_t* b,
                                                 uint64_t* o, size_t words) {
  size_t i = 0;
  for (; i + 4 <= words; i += 4) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(o + i),
        _mm256_or_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i))));
  }
  for (; i < words; ++i) o[i] = a[i] | b[i];
}

bool CpuHasAvx2Fma() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

#endif  // MLFS_VMSIMD_X86

#if MLFS_VMSIMD_NEON

// NEON upgrades the arithmetic kernels (per-lane ops, trivially
// bit-identical); compares stay on the scalar reference pending aarch64
// hardware to measure on.

void AddF64Neon(const double* x, const double* y, double* o, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f64(o + i, vaddq_f64(vld1q_f64(x + i), vld1q_f64(y + i)));
    vst1q_f64(o + i + 2, vaddq_f64(vld1q_f64(x + i + 2), vld1q_f64(y + i + 2)));
  }
  for (; i < n; ++i) o[i] = x[i] + y[i];
}

void SubF64Neon(const double* x, const double* y, double* o, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f64(o + i, vsubq_f64(vld1q_f64(x + i), vld1q_f64(y + i)));
    vst1q_f64(o + i + 2, vsubq_f64(vld1q_f64(x + i + 2), vld1q_f64(y + i + 2)));
  }
  for (; i < n; ++i) o[i] = x[i] - y[i];
}

void MulF64Neon(const double* x, const double* y, double* o, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f64(o + i, vmulq_f64(vld1q_f64(x + i), vld1q_f64(y + i)));
    vst1q_f64(o + i + 2, vmulq_f64(vld1q_f64(x + i + 2), vld1q_f64(y + i + 2)));
  }
  for (; i < n; ++i) o[i] = x[i] * y[i];
}

void AddI64Neon(const int64_t* x, const int64_t* y, int64_t* o, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_s64(o + i, vaddq_s64(vld1q_s64(x + i), vld1q_s64(y + i)));
    vst1q_s64(o + i + 2, vaddq_s64(vld1q_s64(x + i + 2), vld1q_s64(y + i + 2)));
  }
  for (; i < n; ++i) {
    o[i] = static_cast<int64_t>(static_cast<uint64_t>(x[i]) +
                                static_cast<uint64_t>(y[i]));
  }
}

void SubI64Neon(const int64_t* x, const int64_t* y, int64_t* o, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_s64(o + i, vsubq_s64(vld1q_s64(x + i), vld1q_s64(y + i)));
    vst1q_s64(o + i + 2, vsubq_s64(vld1q_s64(x + i + 2), vld1q_s64(y + i + 2)));
  }
  for (; i < n; ++i) {
    o[i] = static_cast<int64_t>(static_cast<uint64_t>(x[i]) -
                                static_cast<uint64_t>(y[i]));
  }
}

void OrWordsNeon(const uint64_t* a, const uint64_t* b, uint64_t* o,
                 size_t words) {
  size_t i = 0;
  for (; i + 2 <= words; i += 2) {
    vst1q_u64(o + i, vorrq_u64(vld1q_u64(a + i), vld1q_u64(b + i)));
  }
  for (; i < words; ++i) o[i] = a[i] | b[i];
}

#endif  // MLFS_VMSIMD_NEON

std::string_view g_level = "scalar";

}  // namespace

BinF64Fn add_f64 = AddF64Scalar;
BinF64Fn sub_f64 = SubF64Scalar;
BinF64Fn mul_f64 = MulF64Scalar;
DivF64Fn div_f64 = DivF64Scalar;
BinI64Fn add_i64 = AddI64Scalar;
BinI64Fn sub_i64 = SubI64Scalar;
CmpF64Fn cmp_f64 = CmpF64Scalar;
CmpI64Fn cmp_i64 = CmpI64Scalar;
OrWordsFn or_words = OrWordsScalar;

namespace {

const bool g_dispatched = [] {
#if MLFS_VMSIMD_X86
  if (CpuHasAvx2Fma()) {
    add_f64 = AddF64Avx2;
    sub_f64 = SubF64Avx2;
    mul_f64 = MulF64Avx2;
    div_f64 = DivF64Avx2;
    add_i64 = AddI64Avx2;
    sub_i64 = SubI64Avx2;
    cmp_f64 = CmpF64Avx2;
    cmp_i64 = CmpI64Avx2;
    or_words = OrWordsAvx2;
    g_level = "avx2+fma";
  }
#elif MLFS_VMSIMD_NEON
  add_f64 = AddF64Neon;
  sub_f64 = SubF64Neon;
  mul_f64 = MulF64Neon;
  add_i64 = AddI64Neon;
  sub_i64 = SubI64Neon;
  or_words = OrWordsNeon;
  g_level = "neon";
#endif
  return true;
}();

}  // namespace

std::string_view LevelName() { return g_level; }

}  // namespace vmsimd
}  // namespace mlfs
