#ifndef MLFS_EXPR_BYTECODE_H_
#define MLFS_EXPR_BYTECODE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/row.h"
#include "common/schema.h"
#include "common/status.h"
#include "expr/ast.h"
#include "expr/column_batch.h"

namespace mlfs {

namespace expr_internal {
struct FunctionSpec;
}  // namespace expr_internal

/// Shape of an instruction — what the VM's generic per-row kernel
/// dispatches on. Each shape re-applies the same shared runtime
/// (ApplyUnary/ApplyBinary/ApplyCall) the tree-walking interpreter uses,
/// which is what keeps the VM bit-identical with it.
enum class OpKind : uint8_t {
  kLoadCol,    // dst = row[aux]
  kLoadConst,  // dst = const_pool[aux]
  kCastF64,    // dst = double(a); NULL passes through (compiler-inserted)
  kUnary,      // dst = uop(a)
  kBinary,     // dst = bop(a, b)
  kCall,       // dst = fn(args)
};

/// Batch kernel resolved at compile time from operand register types —
/// what the vector path dispatches on. kGeneric is the always-correct
/// fallback (per-row Values through the shared runtime); everything else
/// is a tight loop over the typed payloads.
enum class VecKernel : uint8_t {
  kGeneric = 0,
  kNullFill,  // result is statically NULL for every row
  kLoadCol,
  kLoadConst,
  kCastI64F64,
  kCastBoolF64,
  kNegI64,
  kNegF64,
  kNotBool,
  kAddI64,  // also TIMESTAMP ± INT64 / TIMESTAMP - TIMESTAMP via out_type
  kSubI64,
  kMulI64,
  kAddF64,
  kSubF64,
  kMulF64,
  kDivF64,  // x/0 -> NULL
  kModI64,  // x%0 -> NULL
  kCmpF64,  // bop in [kEq..kGe]; all numeric comparisons go through double
  kCmpStr,
  kCmpTs,
  kEqEmb,     // embedding (in)equality, elementwise float ==
  kEqHetero,  // different type families: Eq false / Ne true, NULL-prop
  kAndBool,   // three-valued logic
  kOrBool,
  kAbsI64,
  kMathF64,   // aux = MathFn
  kPowF64,
  kMinMaxI64,  // aux: 0 min, 1 max
  kMinMaxF64,
  kClampF64,  // lo > hi errors (after NULL propagation)
  kCoalesce,  // args share one payload type
  kIfSelect,  // branches share one payload type
  kIsNull,
  kLenStr,
  kTsField,  // aux: 0 hour, 1 day
  kDimEmb,
  kNormEmb,
  kAtEmb,      // index out of range errors
  kDotCosEmb,  // aux: 0 dot, 1 cosine; dim mismatch errors
};

/// Unary double->double builtins fused into kMathF64 (aux).
enum class MathFn : uint8_t {
  kAbs = 0,
  kLog,
  kLog2,
  kExp,
  kSqrt,
  kFloor,
  kCeil,
  kRound,
};

/// One three-address instruction. dst registers are in SSA form: register
/// i is written exactly by instruction i (value numbering reuses an
/// earlier register instead of re-emitting, which is how repeated column
/// loads and common subexpressions evaluate once).
struct Instr {
  OpKind kind = OpKind::kLoadConst;
  VecKernel kernel = VecKernel::kGeneric;
  uint16_t dst = 0;
  uint16_t a = 0;  // unary/cast/binary lhs
  uint16_t b = 0;  // binary rhs
  // kLoadCol: schema column index; kLoadConst: const pool index; otherwise
  // kernel-specific immediate (MathFn, min/max, hour/day, dot/cosine,
  // eq/ne flags).
  uint32_t aux = 0;
  UnaryOp uop = UnaryOp::kNeg;
  BinaryOp bop = BinaryOp::kAdd;
  const expr_internal::FunctionSpec* fn = nullptr;  // kCall only
  uint32_t arg_begin = 0;  // kCall operands: args_pool[arg_begin, +arg_count)
  uint32_t arg_count = 0;
  // Register *runtime* tag: the dynamic type every non-NULL cell of the
  // register is guaranteed to have (kNull = every cell NULL). Kernels are
  // selected from these, so they differ from the static type where the
  // static type over-approximates (e.g. a folded `1/0` is tagged kNull
  // even though its static type is DOUBLE).
  FeatureType out_type = FeatureType::kNull;
  bool out_variant = false;  // per-row dynamic type; see ColumnVector
};

/// One failing row of an EvalBatch call: its index in the batch and its
/// first error in evaluation order.
struct RowError {
  size_t row = 0;
  Status status;
};

/// Reusable per-caller evaluation scratch: the VM registers, plus the
/// per-row errors of the last EvalBatch. Passing the same scratch to
/// repeated EvalBatch calls reuses every buffer allocation-free. A scratch
/// must not be shared across threads.
class ExprScratch {
 public:
  ExprScratch() = default;
  ExprScratch(const ExprScratch&) = delete;
  ExprScratch& operator=(const ExprScratch&) = delete;

  /// Forces string comparisons against dictionary-coded columns down the
  /// per-row path even when the once-per-distinct-code table would apply.
  /// Only benchmarks and differential tests set this.
  void set_disable_dict_fastpath(bool v) { disable_dict_fastpath_ = v; }

  /// Every row the last EvalBatch failed, ascending by row, each with that
  /// row's first error. Empty when every row evaluated (or a column load
  /// failed the whole call).
  const std::vector<RowError>& row_errors() const { return row_errors_; }

 private:
  friend class Program;
  const void* program_ = nullptr;
  std::vector<ColumnVector> regs_;
  std::vector<Value> call_args_;
  std::vector<uint8_t> dict_table_;  // code -> comparison result, reused
  std::vector<RowError> row_errors_;
  bool disable_dict_fastpath_ = false;
};

/// A type-checked expression lowered to flat register bytecode, executed a
/// column batch at a time (EvalBatch; a single row is a batch of one).
/// Lowering constant-folds literal-only subtrees (unless folding would
/// raise — those keep their runtime error) and value-numbers instructions
/// so repeated column loads and common subexpressions evaluate once.
class Program {
 public:
  /// Type-checks `expr` against `schema` (identical acceptance to
  /// InferType) and lowers it.
  static StatusOr<std::shared_ptr<const Program>> Lower(const Expr& expr,
                                                        SchemaPtr schema);

  FeatureType output_type() const { return output_type_; }
  const SchemaPtr& schema() const { return schema_; }
  const std::vector<Instr>& instrs() const { return instrs_; }
  const std::vector<Value>& const_pool() const { return const_pool_; }

  /// Evaluates every row of `src` in one pass over the bytecode. Rows fail
  /// independently: a failing row's result cell is NULL, and
  /// scratch->row_errors() lists every failing row with its first error
  /// (in evaluation order) — what evaluating that row alone reports. The
  /// return value is the lowest failing row's error, OK when none failed.
  /// Once the columns have loaded, `*out` points at the result column
  /// (owned by `scratch`, valid until its next use) whether or not rows
  /// failed; a column-load failure fails the whole call and leaves `*out`
  /// unset.
  Status EvalBatch(const BatchSource& src, ExprScratch* scratch,
                   const ColumnVector** out) const;

 private:
  friend class ProgramBuilder;
  Program() = default;

  std::vector<Instr> instrs_;
  std::vector<Value> const_pool_;
  std::vector<uint16_t> args_pool_;
  uint16_t out_reg_ = 0;
  FeatureType output_type_ = FeatureType::kNull;
  SchemaPtr schema_;
};

}  // namespace mlfs

#endif  // MLFS_EXPR_BYTECODE_H_
