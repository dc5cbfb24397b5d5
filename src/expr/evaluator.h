#ifndef MLFS_EXPR_EVALUATOR_H_
#define MLFS_EXPR_EVALUATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/row.h"
#include "common/schema.h"
#include "common/status.h"
#include "expr/ast.h"
#include "expr/bytecode.h"
#include "expr/column_batch.h"

namespace mlfs {

/// Static type of `expr` when evaluated against rows of `schema`.
/// Fails on unknown columns, unknown functions, arity errors, and type
/// mismatches — this is how the registry validates a feature definition at
/// publish time instead of at serving time.
///
/// Semantics summary:
///  - NULLs propagate through arithmetic, comparisons and most functions
///    (SQL-style); `and`/`or` use three-valued logic; `coalesce`, `if`
///    and `is_null` handle NULL explicitly.
///  - `+ - * %` on two INT64 yield INT64; any DOUBLE operand promotes the
///    result to DOUBLE; `/` always yields DOUBLE. `%` by zero yields NULL.
///  - Embeddings are first-class: `dot(a,b)`, `cosine(a,b)`, `norm(a)`,
///    `dim(a)`, `at(a,i)` operate on EMBEDDING values.
StatusOr<FeatureType> InferType(const Expr& expr, const Schema& schema);

/// Interprets `expr` against `row`, resolving columns by name. This is the
/// reference implementation (and the differential oracle for the compiled
/// engine); prefer CompiledExpr on hot paths.
StatusOr<Value> EvalExpr(const Expr& expr, const Row& row);

/// An expression type-checked against a schema and lowered to flat register
/// bytecode (expr/bytecode.h): column references are resolved to indices,
/// literal-only subtrees are constant-folded, and repeated column loads /
/// common subexpressions are deduplicated. EvalBatch evaluates a column
/// batch at a time — the one engine behind materialization, windowed
/// aggregation, slice monitoring, columnar scan pushdown and serving; Eval
/// is a batch of one.
class CompiledExpr {
 public:
  /// Type-checks `expr` against `schema` and lowers it to bytecode.
  static StatusOr<CompiledExpr> Compile(const Expr& expr, SchemaPtr schema);

  /// Convenience: parse + compile.
  static StatusOr<CompiledExpr> Compile(std::string_view source,
                                        SchemaPtr schema);

  /// Evaluates against a row of the bound schema, as a batch of one.
  StatusOr<Value> Eval(const Row& row) const;

  /// As above, with caller-owned scratch (avoids the thread-local).
  StatusOr<Value> Eval(const Row& row, ExprScratch* scratch) const;

  /// Evaluates every row of `src` in one vectorized pass; see
  /// Program::EvalBatch for the result/error contract.
  Status EvalBatch(const BatchSource& src, ExprScratch* scratch,
                   const ColumnVector** out) const {
    return program_->EvalBatch(src, scratch, out);
  }

  FeatureType output_type() const { return program_->output_type(); }
  const SchemaPtr& schema() const { return program_->schema(); }
  const std::shared_ptr<const Program>& program() const { return program_; }

 private:
  explicit CompiledExpr(std::shared_ptr<const Program> program)
      : program_(std::move(program)) {}

  std::shared_ptr<const Program> program_;
};

/// Names of all builtin functions (for documentation/introspection).
std::vector<std::string> BuiltinFunctionNames();

}  // namespace mlfs

#endif  // MLFS_EXPR_EVALUATOR_H_
