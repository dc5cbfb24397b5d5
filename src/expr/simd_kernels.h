#ifndef MLFS_EXPR_SIMD_KERNELS_H_
#define MLFS_EXPR_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace mlfs {
namespace vmsimd {

/// Comparison predicate for the vectorized compare kernels. The operand
/// order matches the VM's three-way compare: the predicate is applied to
/// sign(x <=> y), with NaN comparing "equal" (neither < nor >), exactly
/// like the scalar runtime.
enum class CmpPred : uint8_t { kEq = 0, kNe, kLt, kLe, kGt, kGe };

// Runtime-dispatched kernel pointers for the bytecode VM's hottest typed
// loops (expr/bytecode.cc) and the null-bitmap word ops in ColumnVector.
// Same pattern as embedding/distance.cc: the pointers are
// constant-initialized to the scalar reference kernels and upgraded once,
// at static-initialization time, to the best ISA available (AVX2+FMA on
// x86, NEON on aarch64). Every variant is bit-identical to its scalar
// reference — not merely close: arithmetic is per-lane and compares
// reproduce the NaN-compares-equal three-way logic.

/// o[i] = x[i] op y[i]; null handling is the caller's (bitmap OR).
using BinF64Fn = void (*)(const double* x, const double* y, double* o,
                          size_t n);
/// Wrapping two's-complement arithmetic (matches the scalar runtime).
using BinI64Fn = void (*)(const int64_t* x, const int64_t* y, int64_t* o,
                          size_t n);
/// SQL division: o[i] = x[i]/y[i], except y[i] == 0.0 yields o[i] = 0.0
/// and sets bit i of `null_words` (x/0 is NULL).
using DivF64Fn = void (*)(const double* x, const double* y, double* o,
                          uint64_t* null_words, size_t n);
/// o[i] = pred(sign(x[i] <=> y[i])) as 0/1 bytes; NaN compares "equal".
using CmpF64Fn = void (*)(CmpPred pred, const double* x, const double* y,
                          uint8_t* o, size_t n);
using CmpI64Fn = void (*)(CmpPred pred, const int64_t* x, const int64_t* y,
                          uint8_t* o, size_t n);
/// o[w] = a[w] | b[w] for `words` 64-bit bitmap words.
using OrWordsFn = void (*)(const uint64_t* a, const uint64_t* b, uint64_t* o,
                           size_t words);

extern BinF64Fn add_f64;
extern BinF64Fn sub_f64;
extern BinF64Fn mul_f64;
extern DivF64Fn div_f64;
extern BinI64Fn add_i64;
extern BinI64Fn sub_i64;
extern CmpF64Fn cmp_f64;
extern CmpI64Fn cmp_i64;
extern OrWordsFn or_words;

// Scalar reference kernels — the semantic ground truth the dispatched
// pointers must agree with bit-for-bit (differential tests and the
// SIMD-vs-scalar benchmarks call these directly).
void AddF64Scalar(const double* x, const double* y, double* o, size_t n);
void SubF64Scalar(const double* x, const double* y, double* o, size_t n);
void MulF64Scalar(const double* x, const double* y, double* o, size_t n);
void DivF64Scalar(const double* x, const double* y, double* o,
                  uint64_t* null_words, size_t n);
void AddI64Scalar(const int64_t* x, const int64_t* y, int64_t* o, size_t n);
void SubI64Scalar(const int64_t* x, const int64_t* y, int64_t* o, size_t n);
void CmpF64Scalar(CmpPred pred, const double* x, const double* y, uint8_t* o,
                  size_t n);
void CmpI64Scalar(CmpPred pred, const int64_t* x, const int64_t* y,
                  uint8_t* o, size_t n);
void OrWordsScalar(const uint64_t* a, const uint64_t* b, uint64_t* o,
                   size_t words);

/// Dispatch level the VM kernels run at: "scalar", "avx2+fma", or "neon".
std::string_view LevelName();

}  // namespace vmsimd
}  // namespace mlfs

#endif  // MLFS_EXPR_SIMD_KERNELS_H_
