#include "expr/bytecode.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>

#include "common/string_util.h"
#include "common/timestamp.h"
#include "expr/evaluator.h"
#include "expr/fn_runtime.h"
#include "expr/simd_kernels.h"

namespace mlfs {

using expr_internal::ApplyBinary;
using expr_internal::ApplyCall;
using expr_internal::ApplyUnary;
using expr_internal::FunctionSpec;
using expr_internal::LookupFunction;

namespace {

// Wrapping signed arithmetic (matches the scalar runtime, which also wraps
// on overflow so both engines are defined and bit-identical everywhere).
inline int64_t WrapAdd(int64_t x, int64_t y) {
  return static_cast<int64_t>(static_cast<uint64_t>(x) +
                              static_cast<uint64_t>(y));
}
inline int64_t WrapSub(int64_t x, int64_t y) {
  return static_cast<int64_t>(static_cast<uint64_t>(x) -
                              static_cast<uint64_t>(y));
}
inline int64_t WrapMul(int64_t x, int64_t y) {
  return static_cast<int64_t>(static_cast<uint64_t>(x) *
                              static_cast<uint64_t>(y));
}
inline int64_t WrapNeg(int64_t x) {
  return static_cast<int64_t>(uint64_t{0} - static_cast<uint64_t>(x));
}

void AppendRaw(std::string* key, const void* p, size_t n) {
  key->append(reinterpret_cast<const char*>(p), n);
}

}  // namespace

// ---------------------------------------------------------------------------
// Lowering: AST -> flat SSA bytecode with constant folding + value numbering.
// ---------------------------------------------------------------------------

class ProgramBuilder {
 public:
  ProgramBuilder(const Expr& expr, SchemaPtr schema)
      : expr_(expr), schema_(std::move(schema)) {}

  StatusOr<std::shared_ptr<const Program>> Build() {
    // Acceptance is exactly InferType's: validate up front, then lowering
    // only has to handle well-typed trees.
    MLFS_ASSIGN_OR_RETURN(FeatureType out_type, InferType(expr_, *schema_));
    auto program = std::shared_ptr<Program>(new Program());
    p_ = program.get();
    p_->schema_ = schema_;
    p_->output_type_ = out_type;
    MLFS_ASSIGN_OR_RETURN(p_->out_reg_, LowerNode(expr_));
    return std::shared_ptr<const Program>(std::move(program));
  }

 private:
  FeatureType Tag(uint16_t r) const { return p_->instrs_[r].out_type; }
  bool Var(uint16_t r) const { return p_->instrs_[r].out_variant; }
  bool IsConst(uint16_t r) const {
    return p_->instrs_[r].kind == OpKind::kLoadConst;
  }
  const Value& ConstVal(uint16_t r) const {
    return p_->const_pool_[p_->instrs_[r].aux];
  }

  // Value-numbering key: every field that distinguishes an instruction's
  // result. Kernel/out_type are pure functions of these, so they can stay
  // out of the key.
  static std::string Key(const Instr& ins, std::span<const uint16_t> args) {
    std::string k;
    k.push_back(static_cast<char>(ins.kind));
    k.push_back(static_cast<char>(ins.uop));
    k.push_back(static_cast<char>(ins.bop));
    AppendRaw(&k, &ins.fn, sizeof(ins.fn));
    AppendRaw(&k, &ins.a, sizeof(ins.a));
    AppendRaw(&k, &ins.b, sizeof(ins.b));
    AppendRaw(&k, &ins.aux, sizeof(ins.aux));
    for (uint16_t r : args) AppendRaw(&k, &r, sizeof(r));
    return k;
  }

  StatusOr<uint16_t> Emit(Instr ins, std::span<const uint16_t> args = {}) {
    std::string key = Key(ins, args);
    auto it = cse_.find(key);
    if (it != cse_.end()) return it->second;
    if (p_->instrs_.size() >= UINT16_MAX) {
      return Status::InvalidArgument("expression too large to compile");
    }
    ins.dst = static_cast<uint16_t>(p_->instrs_.size());
    ins.arg_begin = static_cast<uint32_t>(p_->args_pool_.size());
    ins.arg_count = static_cast<uint32_t>(args.size());
    p_->args_pool_.insert(p_->args_pool_.end(), args.begin(), args.end());
    p_->instrs_.push_back(ins);
    cse_.emplace(std::move(key), ins.dst);
    return ins.dst;
  }

  // Pool dedup must be bit-exact, not Value::operator== — value equality
  // would intern +0.0 as an earlier -0.0 (and misses NaN), silently
  // changing folded results.
  static bool BitIdentical(const Value& a, const Value& b) {
    if (a.type() != b.type()) return false;
    switch (a.type()) {
      case FeatureType::kNull:
        return true;
      case FeatureType::kBool:
        return a.bool_value() == b.bool_value();
      case FeatureType::kInt64:
        return a.int64_value() == b.int64_value();
      case FeatureType::kTimestamp:
        return a.time_value() == b.time_value();
      case FeatureType::kDouble: {
        double x = a.double_value(), y = b.double_value();
        return std::memcmp(&x, &y, sizeof(x)) == 0;
      }
      case FeatureType::kString:
        return a.string_value() == b.string_value();
      case FeatureType::kEmbedding: {
        const auto& x = a.embedding_value();
        const auto& y = b.embedding_value();
        return x.size() == y.size() &&
               std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
      }
    }
    return false;
  }

  StatusOr<uint16_t> EmitConst(Value v) {
    uint32_t idx = 0;
    for (; idx < p_->const_pool_.size(); ++idx) {
      if (BitIdentical(p_->const_pool_[idx], v)) break;
    }
    if (idx == p_->const_pool_.size()) p_->const_pool_.push_back(std::move(v));
    Instr ins;
    ins.kind = OpKind::kLoadConst;
    ins.kernel = VecKernel::kLoadConst;
    ins.aux = idx;
    ins.out_type = p_->const_pool_[idx].type();
    return Emit(ins);
  }

  // Result register is NULL for every row; the row path still re-applies
  // the generic op so both paths stay trivially identical.
  Instr NullFill(Instr ins) {
    ins.kernel = VecKernel::kNullFill;
    ins.out_type = FeatureType::kNull;
    ins.out_variant = false;
    return ins;
  }

  StatusOr<uint16_t> EnsureF64(uint16_t r) {
    FeatureType t = Tag(r);
    if (t == FeatureType::kDouble) return r;
    if (IsConst(r)) {
      return EmitConst(Value::Double(ConstVal(r).AsDouble().value()));
    }
    Instr ins;
    ins.kind = OpKind::kCastF64;
    ins.kernel = t == FeatureType::kInt64 ? VecKernel::kCastI64F64
                                          : VecKernel::kCastBoolF64;
    ins.a = r;
    ins.out_type = FeatureType::kDouble;
    return Emit(ins);
  }

  StatusOr<uint16_t> LowerNode(const Expr& e) {
    switch (e.kind()) {
      case Expr::Kind::kLiteral:
        return EmitConst(e.literal());
      case Expr::Kind::kColumn: {
        int idx = schema_->FieldIndex(e.name());
        if (idx < 0) {
          return Status::NotFound("unknown column '" + e.name() + "'");
        }
        Instr ins;
        ins.kind = OpKind::kLoadCol;
        ins.kernel = VecKernel::kLoadCol;
        ins.aux = static_cast<uint32_t>(idx);
        ins.out_type = schema_->field(static_cast<size_t>(idx)).type;
        return Emit(ins);
      }
      case Expr::Kind::kUnary:
        return LowerUnary(e);
      case Expr::Kind::kBinary:
        return LowerBinary(e);
      case Expr::Kind::kCall:
        return LowerCall(e);
    }
    return Status::Internal("bad expr kind");
  }

  StatusOr<uint16_t> LowerUnary(const Expr& e) {
    MLFS_ASSIGN_OR_RETURN(uint16_t a, LowerNode(*e.args()[0]));
    UnaryOp op = e.unary_op();
    if (IsConst(a)) {
      auto folded = ApplyUnary(op, ConstVal(a));
      if (folded.ok()) return EmitConst(std::move(folded).value());
    }
    Instr ins;
    ins.kind = OpKind::kUnary;
    ins.uop = op;
    ins.a = a;
    if (Var(a)) {
      ins.out_variant = true;
      return Emit(ins);
    }
    FeatureType t = Tag(a);
    if (t == FeatureType::kNull) return Emit(NullFill(ins));
    if (op == UnaryOp::kNeg) {
      if (t == FeatureType::kInt64) {
        ins.kernel = VecKernel::kNegI64;
        ins.out_type = FeatureType::kInt64;
      } else if (t == FeatureType::kDouble) {
        ins.kernel = VecKernel::kNegF64;
        ins.out_type = FeatureType::kDouble;
      } else {
        // -BOOL type-checks but always errors at runtime; let the generic
        // kernel reproduce that.
        ins.out_variant = true;
      }
    } else {
      if (t == FeatureType::kBool) {
        ins.kernel = VecKernel::kNotBool;
        ins.out_type = FeatureType::kBool;
      } else {
        ins.out_variant = true;
      }
    }
    return Emit(ins);
  }

  StatusOr<uint16_t> LowerBinary(const Expr& e) {
    MLFS_ASSIGN_OR_RETURN(uint16_t a, LowerNode(*e.args()[0]));
    MLFS_ASSIGN_OR_RETURN(uint16_t b, LowerNode(*e.args()[1]));
    BinaryOp op = e.binary_op();
    if (IsConst(a) && IsConst(b)) {
      auto folded = ApplyBinary(op, ConstVal(a), ConstVal(b));
      if (folded.ok()) return EmitConst(std::move(folded).value());
    }
    Instr ins;
    ins.kind = OpKind::kBinary;
    ins.bop = op;
    ins.a = a;
    ins.b = b;
    if (Var(a) || Var(b)) {
      ins.out_variant = true;
      return Emit(ins);
    }
    const FeatureType ta = Tag(a), tb = Tag(b);
    const bool numeric = IsNumeric(ta) && IsNumeric(tb);
    switch (op) {
      case BinaryOp::kAdd:
      case BinaryOp::kSub:
      case BinaryOp::kMul: {
        if (ta == FeatureType::kNull || tb == FeatureType::kNull) {
          return Emit(NullFill(ins));
        }
        if (ta == FeatureType::kString) {  // string + string
          ins.out_type = FeatureType::kString;
          return Emit(ins);  // generic kernel
        }
        if (ta == FeatureType::kTimestamp || tb == FeatureType::kTimestamp) {
          // ts ± i64, i64 + ts, ts - ts: plain i64 lanes, retyped result.
          ins.kernel = op == BinaryOp::kAdd ? VecKernel::kAddI64
                                            : VecKernel::kSubI64;
          ins.out_type = (ta == FeatureType::kTimestamp &&
                          tb == FeatureType::kTimestamp)
                             ? FeatureType::kInt64
                             : FeatureType::kTimestamp;
          return Emit(ins);
        }
        if (ta == FeatureType::kInt64 && tb == FeatureType::kInt64) {
          ins.kernel = op == BinaryOp::kAdd   ? VecKernel::kAddI64
                       : op == BinaryOp::kSub ? VecKernel::kSubI64
                                              : VecKernel::kMulI64;
          ins.out_type = FeatureType::kInt64;
          return Emit(ins);
        }
        MLFS_ASSIGN_OR_RETURN(ins.a, EnsureF64(a));
        MLFS_ASSIGN_OR_RETURN(ins.b, EnsureF64(b));
        ins.kernel = op == BinaryOp::kAdd   ? VecKernel::kAddF64
                     : op == BinaryOp::kSub ? VecKernel::kSubF64
                                            : VecKernel::kMulF64;
        ins.out_type = FeatureType::kDouble;
        return Emit(ins);
      }
      case BinaryOp::kDiv: {
        if (ta == FeatureType::kNull || tb == FeatureType::kNull) {
          return Emit(NullFill(ins));
        }
        MLFS_ASSIGN_OR_RETURN(ins.a, EnsureF64(a));
        MLFS_ASSIGN_OR_RETURN(ins.b, EnsureF64(b));
        ins.kernel = VecKernel::kDivF64;
        ins.out_type = FeatureType::kDouble;
        return Emit(ins);
      }
      case BinaryOp::kMod: {
        if (ta == FeatureType::kNull || tb == FeatureType::kNull) {
          return Emit(NullFill(ins));
        }
        ins.kernel = VecKernel::kModI64;
        ins.out_type = FeatureType::kInt64;
        return Emit(ins);
      }
      case BinaryOp::kEq:
      case BinaryOp::kNe:
      case BinaryOp::kLt:
      case BinaryOp::kLe:
      case BinaryOp::kGt:
      case BinaryOp::kGe: {
        if (ta == FeatureType::kNull || tb == FeatureType::kNull) {
          return Emit(NullFill(ins));
        }
        ins.out_type = FeatureType::kBool;
        if (numeric) {
          MLFS_ASSIGN_OR_RETURN(ins.a, EnsureF64(a));
          MLFS_ASSIGN_OR_RETURN(ins.b, EnsureF64(b));
          ins.kernel = VecKernel::kCmpF64;
        } else if (ta == FeatureType::kString && tb == FeatureType::kString) {
          ins.kernel = VecKernel::kCmpStr;
        } else if (ta == FeatureType::kTimestamp &&
                   tb == FeatureType::kTimestamp) {
          ins.kernel = VecKernel::kCmpTs;
        } else if (ta == FeatureType::kEmbedding &&
                   tb == FeatureType::kEmbedding) {
          ins.kernel = VecKernel::kEqEmb;
          ins.aux = op == BinaryOp::kNe;
        } else {
          // Different type families: only Eq/Ne type-check, and they don't
          // look at the payload at all.
          ins.kernel = VecKernel::kEqHetero;
          ins.aux = op == BinaryOp::kNe;
        }
        return Emit(ins);
      }
      case BinaryOp::kAnd:
      case BinaryOp::kOr:
        ins.kernel =
            op == BinaryOp::kAnd ? VecKernel::kAndBool : VecKernel::kOrBool;
        ins.out_type = FeatureType::kBool;
        return Emit(ins);
    }
    return Status::Internal("bad binary op");
  }

  StatusOr<uint16_t> LowerCall(const Expr& e) {
    std::vector<uint16_t> args;
    args.reserve(e.args().size());
    for (const auto& arg : e.args()) {
      MLFS_ASSIGN_OR_RETURN(uint16_t r, LowerNode(*arg));
      args.push_back(r);
    }
    MLFS_ASSIGN_OR_RETURN(const FunctionSpec* spec,
                          LookupFunction(e.name(), args.size()));
    const std::string name = ToLower(e.name());

    bool any_variant = false, all_const = true;
    for (uint16_t r : args) {
      any_variant = any_variant || Var(r);
      all_const = all_const && IsConst(r);
    }
    if (!any_variant && all_const) {
      std::vector<Value> vals;
      vals.reserve(args.size());
      for (uint16_t r : args) vals.push_back(ConstVal(r));
      auto folded = ApplyCall(*spec, vals);
      if (folded.ok()) return EmitConst(std::move(folded).value());
    }

    Instr ins;
    ins.kind = OpKind::kCall;
    ins.fn = spec;

    if (name == "coalesce") {
      std::vector<uint16_t> kept;
      for (uint16_t r : args) {
        if (Var(r) || Tag(r) != FeatureType::kNull) kept.push_back(r);
      }
      if (kept.empty()) return Emit(NullFill(ins), args);
      if (kept.size() == 1) return kept[0];  // coalesce(x) == x
      bool kept_variant = false, same = true;
      for (uint16_t r : kept) {
        kept_variant = kept_variant || Var(r);
        same = same && Tag(r) == Tag(kept[0]);
      }
      if (kept_variant || !same) {
        ins.out_variant = true;  // mixed dynamic result type
        return Emit(ins, kept);
      }
      ins.kernel = VecKernel::kCoalesce;
      ins.out_type = Tag(kept[0]);
      return Emit(ins, kept);
    }

    if (name == "if") {
      const FeatureType tc = Tag(args[0]);
      const FeatureType t1 = Tag(args[1]), t2 = Tag(args[2]);
      if (!Var(args[0]) && tc == FeatureType::kNull) {
        return Emit(NullFill(ins), args);
      }
      if (Var(args[0]) || Var(args[1]) || Var(args[2])) {
        ins.out_variant = true;
        return Emit(ins, args);
      }
      if (t1 == FeatureType::kNull && t2 == FeatureType::kNull) {
        return Emit(NullFill(ins), args);
      }
      if (t1 == t2 || t1 == FeatureType::kNull || t2 == FeatureType::kNull) {
        ins.kernel = VecKernel::kIfSelect;
        ins.out_type = t1 == FeatureType::kNull ? t2 : t1;
        return Emit(ins, args);
      }
      ins.out_variant = true;  // mixed-type branches pick per row
      return Emit(ins, args);
    }

    if (name == "is_null") {
      if (Var(args[0])) {
        ins.out_type = FeatureType::kBool;  // generic, but always BOOL
        return Emit(ins, args);
      }
      if (Tag(args[0]) == FeatureType::kNull) return EmitConst(Value::Bool(true));
      ins.kernel = VecKernel::kIsNull;
      ins.out_type = FeatureType::kBool;
      return Emit(ins, args);
    }

    if (any_variant) {
      ins.out_variant = true;
      return Emit(ins, args);
    }
    // All remaining builtins propagate NULLs: a statically-NULL argument
    // makes the whole call statically NULL.
    for (uint16_t r : args) {
      if (Tag(r) == FeatureType::kNull) return Emit(NullFill(ins), args);
    }

    auto math1 = [&](MathFn fn) -> StatusOr<uint16_t> {
      MLFS_ASSIGN_OR_RETURN(args[0], EnsureF64(args[0]));
      ins.kernel = VecKernel::kMathF64;
      ins.aux = static_cast<uint32_t>(fn);
      ins.out_type = FeatureType::kDouble;
      return Emit(ins, args);
    };

    if (name == "abs") {
      if (Tag(args[0]) == FeatureType::kInt64) {
        ins.kernel = VecKernel::kAbsI64;
        ins.out_type = FeatureType::kInt64;
        return Emit(ins, args);
      }
      return math1(MathFn::kAbs);
    }
    if (name == "log") return math1(MathFn::kLog);
    if (name == "log2") return math1(MathFn::kLog2);
    if (name == "exp") return math1(MathFn::kExp);
    if (name == "sqrt") return math1(MathFn::kSqrt);
    if (name == "floor") return math1(MathFn::kFloor);
    if (name == "ceil") return math1(MathFn::kCeil);
    if (name == "round") return math1(MathFn::kRound);
    if (name == "pow") {
      MLFS_ASSIGN_OR_RETURN(args[0], EnsureF64(args[0]));
      MLFS_ASSIGN_OR_RETURN(args[1], EnsureF64(args[1]));
      ins.kernel = VecKernel::kPowF64;
      ins.out_type = FeatureType::kDouble;
      return Emit(ins, args);
    }
    if (name == "min" || name == "max") {
      ins.aux = name == "max";
      if (Tag(args[0]) == FeatureType::kInt64 &&
          Tag(args[1]) == FeatureType::kInt64) {
        ins.kernel = VecKernel::kMinMaxI64;
        ins.out_type = FeatureType::kInt64;
        return Emit(ins, args);
      }
      MLFS_ASSIGN_OR_RETURN(args[0], EnsureF64(args[0]));
      MLFS_ASSIGN_OR_RETURN(args[1], EnsureF64(args[1]));
      ins.kernel = VecKernel::kMinMaxF64;
      ins.out_type = FeatureType::kDouble;
      return Emit(ins, args);
    }
    if (name == "clamp") {
      for (size_t i = 0; i < 3; ++i) {
        MLFS_ASSIGN_OR_RETURN(args[i], EnsureF64(args[i]));
      }
      ins.kernel = VecKernel::kClampF64;
      ins.out_type = FeatureType::kDouble;
      return Emit(ins, args);
    }
    if (name == "len") {
      ins.kernel = VecKernel::kLenStr;
      ins.out_type = FeatureType::kInt64;
      return Emit(ins, args);
    }
    if (name == "hour" || name == "day") {
      ins.kernel = VecKernel::kTsField;
      ins.aux = name == "day";
      ins.out_type = FeatureType::kInt64;
      return Emit(ins, args);
    }
    if (name == "dim") {
      ins.kernel = VecKernel::kDimEmb;
      ins.out_type = FeatureType::kInt64;
      return Emit(ins, args);
    }
    if (name == "norm") {
      ins.kernel = VecKernel::kNormEmb;
      ins.out_type = FeatureType::kDouble;
      return Emit(ins, args);
    }
    if (name == "at") {
      ins.kernel = VecKernel::kAtEmb;
      ins.out_type = FeatureType::kDouble;
      return Emit(ins, args);
    }
    if (name == "dot" || name == "cosine") {
      ins.kernel = VecKernel::kDotCosEmb;
      ins.aux = name == "cosine";
      ins.out_type = FeatureType::kDouble;
      return Emit(ins, args);
    }
    // concat / lower / upper / hash: generic per-row kernel with a fixed
    // result type.
    ins.out_type = name == "hash" ? FeatureType::kInt64 : FeatureType::kString;
    return Emit(ins, args);
  }

  const Expr& expr_;
  SchemaPtr schema_;
  Program* p_ = nullptr;
  std::map<std::string, uint16_t> cse_;
};

StatusOr<std::shared_ptr<const Program>> Program::Lower(const Expr& expr,
                                                        SchemaPtr schema) {
  if (schema == nullptr) {
    return Status::InvalidArgument("CompiledExpr needs a schema");
  }
  return ProgramBuilder(expr, std::move(schema)).Build();
}

// ---------------------------------------------------------------------------
// Vector path.
// ---------------------------------------------------------------------------

namespace {

// Appends/sets a NULL cell for row `r` of `out` (typed columns only).
inline void NullCell(ColumnVector* out, size_t r) {
  if (out->type() == FeatureType::kString ||
      out->type() == FeatureType::kEmbedding) {
    out->AppendNullCell();
  } else {
    out->SetNull(r);
  }
}

inline vmsimd::CmpPred CmpPredOf(BinaryOp bop) {
  switch (bop) {
    case BinaryOp::kEq:
      return vmsimd::CmpPred::kEq;
    case BinaryOp::kNe:
      return vmsimd::CmpPred::kNe;
    case BinaryOp::kLt:
      return vmsimd::CmpPred::kLt;
    case BinaryOp::kLe:
      return vmsimd::CmpPred::kLe;
    case BinaryOp::kGt:
      return vmsimd::CmpPred::kGt;
    default:
      return vmsimd::CmpPred::kGe;
  }
}

// Copies the (non-NULL) payload of src[r] into out[r]; `t` is out's type.
inline void CopyCell(FeatureType t, const ColumnVector& src, size_t r,
                     ColumnVector* out) {
  switch (t) {
    case FeatureType::kNull:
      break;
    case FeatureType::kBool:
      out->b8()[r] = src.b8()[r];
      break;
    case FeatureType::kInt64:
    case FeatureType::kTimestamp:
      out->i64()[r] = src.i64()[r];
      break;
    case FeatureType::kDouble:
      out->f64()[r] = src.f64()[r];
      break;
    case FeatureType::kString:
      out->AppendString(src.StringAt(r));
      break;
    case FeatureType::kEmbedding:
      out->AppendEmbedding(src.EmbeddingAt(r));
      break;
  }
}

}  // namespace

Status Program::EvalBatch(const BatchSource& src, ExprScratch* scratch,
                          const ColumnVector** result) const {
  const size_t n = src.num_rows();
  if (scratch->program_ != this) {
    scratch->program_ = this;
    scratch->regs_.clear();
  }
  scratch->regs_.resize(instrs_.size());
  std::vector<ColumnVector>& regs = scratch->regs_;

  // Failures in instruction order (= evaluation order), rows ascending
  // within an instruction; a failing cell reads NULL downstream.
  std::vector<RowError>& errors = scratch->row_errors_;
  errors.clear();
  auto record = [&errors](size_t r, Status s) {
    errors.push_back({r, std::move(s)});
  };

  for (const Instr& ins : instrs_) {
    ColumnVector& out = regs[ins.dst];
    const ColumnVector& A = regs[ins.a];
    const ColumnVector& B = regs[ins.b];
    switch (ins.kernel) {
      case VecKernel::kLoadCol:
        if (Status s = src.LoadColumn(static_cast<int>(ins.aux), &out);
            !s.ok()) {
          errors.clear();
          return s;
        }
        break;
      case VecKernel::kLoadConst: {
        const Value& v = const_pool_[ins.aux];
        out.Reset(v.type(), n);
        switch (v.type()) {
          case FeatureType::kNull:
            break;
          case FeatureType::kBool:
            std::fill(out.b8(), out.b8() + n, uint8_t(v.bool_value()));
            break;
          case FeatureType::kInt64:
            std::fill(out.i64(), out.i64() + n, v.int64_value());
            break;
          case FeatureType::kTimestamp:
            std::fill(out.i64(), out.i64() + n, v.time_value());
            break;
          case FeatureType::kDouble:
            std::fill(out.f64(), out.f64() + n, v.double_value());
            break;
          case FeatureType::kString:
            out.ReserveBlob(n * v.string_value().size());
            for (size_t r = 0; r < n; ++r) out.AppendString(v.string_value());
            break;
          case FeatureType::kEmbedding:
            out.ReserveBlob(n * v.embedding_value().size() * sizeof(float));
            for (size_t r = 0; r < n; ++r) {
              out.AppendEmbedding(v.embedding_value());
            }
            break;
        }
        break;
      }
      case VecKernel::kNullFill:
        out.Reset(FeatureType::kNull, n);
        break;
      case VecKernel::kCastI64F64: {
        out.Reset(FeatureType::kDouble, n);
        out.CopyNullWords(A);
        const int64_t* x = A.i64();
        double* o = out.f64();
        for (size_t i = 0; i < n; ++i) o[i] = static_cast<double>(x[i]);
        break;
      }
      case VecKernel::kCastBoolF64: {
        out.Reset(FeatureType::kDouble, n);
        out.CopyNullWords(A);
        const uint8_t* x = A.b8();
        double* o = out.f64();
        for (size_t i = 0; i < n; ++i) o[i] = x[i] ? 1.0 : 0.0;
        break;
      }
      case VecKernel::kNegI64: {
        out.Reset(FeatureType::kInt64, n);
        out.CopyNullWords(A);
        const int64_t* x = A.i64();
        int64_t* o = out.i64();
        for (size_t i = 0; i < n; ++i) o[i] = WrapNeg(x[i]);
        break;
      }
      case VecKernel::kNegF64: {
        out.Reset(FeatureType::kDouble, n);
        out.CopyNullWords(A);
        const double* x = A.f64();
        double* o = out.f64();
        for (size_t i = 0; i < n; ++i) o[i] = -x[i];
        break;
      }
      case VecKernel::kNotBool: {
        out.Reset(FeatureType::kBool, n);
        out.CopyNullWords(A);
        const uint8_t* x = A.b8();
        uint8_t* o = out.b8();
        for (size_t i = 0; i < n; ++i) o[i] = x[i] ? 0 : 1;
        break;
      }
      case VecKernel::kAddI64:
      case VecKernel::kSubI64:
      case VecKernel::kMulI64: {
        out.Reset(ins.out_type, n);
        out.OrNullWords(A, B);
        const int64_t* x = A.i64();
        const int64_t* y = B.i64();
        int64_t* o = out.i64();
        if (ins.kernel == VecKernel::kAddI64) {
          vmsimd::add_i64(x, y, o, n);
        } else if (ins.kernel == VecKernel::kSubI64) {
          vmsimd::sub_i64(x, y, o, n);
        } else {
          // No 64-bit vector multiply below AVX-512; the scalar loop it is.
          for (size_t i = 0; i < n; ++i) o[i] = WrapMul(x[i], y[i]);
        }
        break;
      }
      case VecKernel::kAddF64:
      case VecKernel::kSubF64:
      case VecKernel::kMulF64: {
        out.Reset(FeatureType::kDouble, n);
        out.OrNullWords(A, B);
        const double* x = A.f64();
        const double* y = B.f64();
        double* o = out.f64();
        if (ins.kernel == VecKernel::kAddF64) {
          vmsimd::add_f64(x, y, o, n);
        } else if (ins.kernel == VecKernel::kSubF64) {
          vmsimd::sub_f64(x, y, o, n);
        } else {
          vmsimd::mul_f64(x, y, o, n);
        }
        break;
      }
      case VecKernel::kDivF64: {
        out.Reset(FeatureType::kDouble, n);
        out.OrNullWords(A, B);
        // SQL-style x/0 -> NULL: the kernel blends 0.0 into zero-divisor
        // lanes and sets their null bits directly.
        vmsimd::div_f64(A.f64(), B.f64(), out.f64(), out.null_words(), n);
        break;
      }
      case VecKernel::kModI64: {
        out.Reset(FeatureType::kInt64, n);
        out.OrNullWords(A, B);
        const int64_t* x = A.i64();
        const int64_t* y = B.i64();
        int64_t* o = out.i64();
        for (size_t i = 0; i < n; ++i) {
          if (y[i] == 0) {
            o[i] = 0;
            out.SetNull(i);  // x % 0 is NULL
          } else if (y[i] == -1) {
            o[i] = 0;  // avoids INT64_MIN % -1
          } else {
            o[i] = x[i] % y[i];
          }
        }
        break;
      }
      case VecKernel::kCmpF64:
      case VecKernel::kCmpTs: {
        out.Reset(FeatureType::kBool, n);
        out.OrNullWords(A, B);
        // The dispatched kernels reproduce the scalar runtime's three-way
        // compare, including NaN comparing "equal".
        const vmsimd::CmpPred pred = CmpPredOf(ins.bop);
        if (ins.kernel == VecKernel::kCmpF64) {
          vmsimd::cmp_f64(pred, A.f64(), B.f64(), out.b8(), n);
        } else {
          vmsimd::cmp_i64(pred, A.i64(), B.i64(), out.b8(), n);
        }
        break;
      }
      case VecKernel::kCmpStr: {
        out.Reset(FeatureType::kBool, n);
        out.OrNullWords(A, B);
        uint8_t* o = out.b8();
        auto cmp_byte = [&ins](int cr) -> uint8_t {
          const int c = (cr < 0) ? -1 : (cr > 0) ? 1 : 0;
          switch (ins.bop) {
            case BinaryOp::kEq: return c == 0;
            case BinaryOp::kNe: return c != 0;
            case BinaryOp::kLt: return c < 0;
            case BinaryOp::kLe: return c <= 0;
            case BinaryOp::kGt: return c > 0;
            case BinaryOp::kGe: return c >= 0;
            default: return 0;
          }
        };
        // Dictionary-aware fast path: when one operand is a dictionary
        // view (a sealed segment's string column) and the other a string
        // constant, decide the comparison once per distinct dictionary
        // code into a code->0/1 table and reduce per-row work to a table
        // gather. The table is rebuilt per EvalBatch call (dict_count
        // compares per <=1024-row batch) rather than cached across calls:
        // a freed segment's buffers can be reused at the same address, so
        // a pointer-keyed cache could silently go stale.
        const ColumnVector* dict = nullptr;
        bool dict_is_lhs = false;
        if (!scratch->disable_dict_fastpath_) {
          if (A.is_dictionary() && instrs_[ins.b].kind == OpKind::kLoadConst &&
              B.type() == FeatureType::kString && !B.is_variant()) {
            dict = &A;
            dict_is_lhs = true;
          } else if (B.is_dictionary() &&
                     instrs_[ins.a].kind == OpKind::kLoadConst &&
                     A.type() == FeatureType::kString && !A.is_variant()) {
            dict = &B;
          }
        }
        // An empty dictionary means every row is NULL (codes all 0 with no
        // table entry to index); the per-row path handles it via the
        // DictString bounds guard.
        if (dict != nullptr && dict->dict_count() > 0 && n > 0) {
          const std::string_view cv =
              dict_is_lhs ? B.StringAt(0) : A.StringAt(0);
          std::vector<uint8_t>& table = scratch->dict_table_;
          table.resize(dict->dict_count());
          for (uint32_t code = 0; code < dict->dict_count(); ++code) {
            const std::string_view ds = dict->DictString(code);
            table[code] =
                cmp_byte(dict_is_lhs ? ds.compare(cv) : cv.compare(ds));
          }
          const uint32_t* codes = dict->codes();
          for (size_t i = 0; i < n; ++i) o[i] = table[codes[i]];
          break;
        }
        for (size_t i = 0; i < n; ++i) {
          o[i] = cmp_byte(A.StringAt(i).compare(B.StringAt(i)));
        }
        break;
      }
      case VecKernel::kEqEmb: {
        out.Reset(FeatureType::kBool, n);
        out.OrNullWords(A, B);
        uint8_t* o = out.b8();
        for (size_t i = 0; i < n; ++i) {
          if (out.IsNull(i)) continue;
          auto x = A.EmbeddingAt(i);
          auto y = B.EmbeddingAt(i);
          bool eq =
              x.size() == y.size() && std::equal(x.begin(), x.end(), y.begin());
          o[i] = ins.aux ? !eq : eq;
        }
        break;
      }
      case VecKernel::kEqHetero: {
        out.Reset(FeatureType::kBool, n);
        out.OrNullWords(A, B);
        std::fill(out.b8(), out.b8() + n, uint8_t(ins.aux ? 1 : 0));
        break;
      }
      case VecKernel::kAndBool:
      case VecKernel::kOrBool: {
        out.Reset(FeatureType::kBool, n);
        const bool is_and = ins.kernel == VecKernel::kAndBool;
        uint8_t* o = out.b8();
        for (size_t i = 0; i < n; ++i) {
          int x = A.TriBool(i);
          int y = B.TriBool(i);
          if (is_and) {
            if (x == 0 || y == 0) {
              o[i] = 0;
            } else if (x == -1 || y == -1) {
              out.SetNull(i);
            } else {
              o[i] = 1;
            }
          } else {
            if (x == 1 || y == 1) {
              o[i] = 1;
            } else if (x == -1 || y == -1) {
              out.SetNull(i);
            } else {
              o[i] = 0;
            }
          }
        }
        break;
      }
      case VecKernel::kAbsI64: {
        const ColumnVector& X = regs[args_pool_[ins.arg_begin]];
        out.Reset(FeatureType::kInt64, n);
        out.CopyNullWords(X);
        const int64_t* x = X.i64();
        int64_t* o = out.i64();
        for (size_t i = 0; i < n; ++i) o[i] = x[i] < 0 ? WrapNeg(x[i]) : x[i];
        break;
      }
      case VecKernel::kMathF64: {
        const ColumnVector& X = regs[args_pool_[ins.arg_begin]];
        out.Reset(FeatureType::kDouble, n);
        out.CopyNullWords(X);
        const double* x = X.f64();
        double* o = out.f64();
        switch (static_cast<MathFn>(ins.aux)) {
          case MathFn::kAbs:
            for (size_t i = 0; i < n; ++i) o[i] = std::abs(x[i]);
            break;
          case MathFn::kLog:
            for (size_t i = 0; i < n; ++i) o[i] = std::log(x[i]);
            break;
          case MathFn::kLog2:
            for (size_t i = 0; i < n; ++i) o[i] = std::log2(x[i]);
            break;
          case MathFn::kExp:
            for (size_t i = 0; i < n; ++i) o[i] = std::exp(x[i]);
            break;
          case MathFn::kSqrt:
            for (size_t i = 0; i < n; ++i) o[i] = std::sqrt(x[i]);
            break;
          case MathFn::kFloor:
            for (size_t i = 0; i < n; ++i) o[i] = std::floor(x[i]);
            break;
          case MathFn::kCeil:
            for (size_t i = 0; i < n; ++i) o[i] = std::ceil(x[i]);
            break;
          case MathFn::kRound:
            for (size_t i = 0; i < n; ++i) o[i] = std::round(x[i]);
            break;
        }
        break;
      }
      case VecKernel::kPowF64: {
        const ColumnVector& X = regs[args_pool_[ins.arg_begin]];
        const ColumnVector& Y = regs[args_pool_[ins.arg_begin + 1]];
        out.Reset(FeatureType::kDouble, n);
        out.OrNullWords(X, Y);
        const double* x = X.f64();
        const double* y = Y.f64();
        double* o = out.f64();
        for (size_t i = 0; i < n; ++i) o[i] = std::pow(x[i], y[i]);
        break;
      }
      case VecKernel::kMinMaxI64: {
        const ColumnVector& X = regs[args_pool_[ins.arg_begin]];
        const ColumnVector& Y = regs[args_pool_[ins.arg_begin + 1]];
        out.Reset(FeatureType::kInt64, n);
        out.OrNullWords(X, Y);
        const int64_t* x = X.i64();
        const int64_t* y = Y.i64();
        int64_t* o = out.i64();
        if (ins.aux) {
          for (size_t i = 0; i < n; ++i) o[i] = std::max(x[i], y[i]);
        } else {
          for (size_t i = 0; i < n; ++i) o[i] = std::min(x[i], y[i]);
        }
        break;
      }
      case VecKernel::kMinMaxF64: {
        const ColumnVector& X = regs[args_pool_[ins.arg_begin]];
        const ColumnVector& Y = regs[args_pool_[ins.arg_begin + 1]];
        out.Reset(FeatureType::kDouble, n);
        out.OrNullWords(X, Y);
        const double* x = X.f64();
        const double* y = Y.f64();
        double* o = out.f64();
        if (ins.aux) {
          for (size_t i = 0; i < n; ++i) o[i] = std::max(x[i], y[i]);
        } else {
          for (size_t i = 0; i < n; ++i) o[i] = std::min(x[i], y[i]);
        }
        break;
      }
      case VecKernel::kClampF64: {
        const ColumnVector& X = regs[args_pool_[ins.arg_begin]];
        const ColumnVector& L = regs[args_pool_[ins.arg_begin + 1]];
        const ColumnVector& H = regs[args_pool_[ins.arg_begin + 2]];
        out.Reset(FeatureType::kDouble, n);
        double* o = out.f64();
        for (size_t i = 0; i < n; ++i) {
          if (X.IsNull(i) || L.IsNull(i) || H.IsNull(i)) {
            out.SetNull(i);
            continue;
          }
          double lo = L.f64()[i], hi = H.f64()[i];
          if (lo > hi) {
            record(i, Status::InvalidArgument("clamp: lo > hi"));
            out.SetNull(i);
            continue;
          }
          o[i] = std::clamp(X.f64()[i], lo, hi);
        }
        break;
      }
      case VecKernel::kCoalesce: {
        out.Reset(ins.out_type, n);
        for (size_t r = 0; r < n; ++r) {
          const ColumnVector* hit = nullptr;
          for (uint32_t i = 0; i < ins.arg_count; ++i) {
            const ColumnVector& arg = regs[args_pool_[ins.arg_begin + i]];
            if (!arg.IsNull(r)) {
              hit = &arg;
              break;
            }
          }
          if (hit == nullptr) {
            NullCell(&out, r);
          } else {
            CopyCell(ins.out_type, *hit, r, &out);
          }
        }
        break;
      }
      case VecKernel::kIfSelect: {
        const ColumnVector& C = regs[args_pool_[ins.arg_begin]];
        const ColumnVector& T = regs[args_pool_[ins.arg_begin + 1]];
        const ColumnVector& F = regs[args_pool_[ins.arg_begin + 2]];
        out.Reset(ins.out_type, n);
        for (size_t r = 0; r < n; ++r) {
          int c = C.TriBool(r);
          const ColumnVector& pick = c == 1 ? T : F;
          if (c == -1 || pick.IsNull(r)) {
            NullCell(&out, r);
          } else {
            CopyCell(ins.out_type, pick, r, &out);
          }
        }
        break;
      }
      case VecKernel::kIsNull: {
        const ColumnVector& X = regs[args_pool_[ins.arg_begin]];
        out.Reset(FeatureType::kBool, n);
        uint8_t* o = out.b8();
        for (size_t i = 0; i < n; ++i) o[i] = X.IsNull(i);
        break;
      }
      case VecKernel::kLenStr: {
        const ColumnVector& X = regs[args_pool_[ins.arg_begin]];
        out.Reset(FeatureType::kInt64, n);
        out.CopyNullWords(X);
        int64_t* o = out.i64();
        for (size_t i = 0; i < n; ++i) {
          o[i] = static_cast<int64_t>(X.StringAt(i).size());
        }
        break;
      }
      case VecKernel::kTsField: {
        const ColumnVector& X = regs[args_pool_[ins.arg_begin]];
        out.Reset(FeatureType::kInt64, n);
        out.CopyNullWords(X);
        const int64_t* x = X.i64();
        int64_t* o = out.i64();
        if (ins.aux) {
          for (size_t i = 0; i < n; ++i) o[i] = x[i] / kMicrosPerDay;
        } else {
          for (size_t i = 0; i < n; ++i) {
            o[i] = (x[i] % kMicrosPerDay) / kMicrosPerHour;
          }
        }
        break;
      }
      case VecKernel::kDimEmb: {
        const ColumnVector& X = regs[args_pool_[ins.arg_begin]];
        out.Reset(FeatureType::kInt64, n);
        out.CopyNullWords(X);
        int64_t* o = out.i64();
        for (size_t i = 0; i < n; ++i) {
          o[i] = static_cast<int64_t>(X.EmbeddingAt(i).size());
        }
        break;
      }
      case VecKernel::kNormEmb: {
        const ColumnVector& X = regs[args_pool_[ins.arg_begin]];
        out.Reset(FeatureType::kDouble, n);
        out.CopyNullWords(X);
        double* o = out.f64();
        for (size_t i = 0; i < n; ++i) {
          double s = 0;
          for (float f : X.EmbeddingAt(i)) s += double(f) * f;
          o[i] = std::sqrt(s);
        }
        break;
      }
      case VecKernel::kAtEmb: {
        const ColumnVector& E = regs[args_pool_[ins.arg_begin]];
        const ColumnVector& I = regs[args_pool_[ins.arg_begin + 1]];
        out.Reset(FeatureType::kDouble, n);
        out.OrNullWords(E, I);
        double* o = out.f64();
        for (size_t r = 0; r < n; ++r) {
          if (out.IsNull(r)) continue;
          auto e = E.EmbeddingAt(r);
          int64_t i = I.i64()[r];
          if (i < 0 || static_cast<size_t>(i) >= e.size()) {
            record(r, Status::OutOfRange(
                          "at(): index " + std::to_string(i) +
                          " out of range for dim " + std::to_string(e.size())));
            out.SetNull(r);
            continue;
          }
          o[r] = e[static_cast<size_t>(i)];
        }
        break;
      }
      case VecKernel::kDotCosEmb: {
        const ColumnVector& X = regs[args_pool_[ins.arg_begin]];
        const ColumnVector& Y = regs[args_pool_[ins.arg_begin + 1]];
        out.Reset(FeatureType::kDouble, n);
        out.OrNullWords(X, Y);
        double* o = out.f64();
        for (size_t r = 0; r < n; ++r) {
          if (out.IsNull(r)) continue;
          auto a = X.EmbeddingAt(r);
          auto b = Y.EmbeddingAt(r);
          if (a.size() != b.size()) {
            record(r, Status::InvalidArgument(
                          "embedding dims differ: " + std::to_string(a.size()) +
                          " vs " + std::to_string(b.size())));
            out.SetNull(r);
            continue;
          }
          if (ins.aux == 0) {
            double dot = 0;
            for (size_t i = 0; i < a.size(); ++i) dot += double(a[i]) * b[i];
            o[r] = dot;
          } else {
            double dot = 0, na = 0, nb = 0;
            for (size_t i = 0; i < a.size(); ++i) {
              dot += double(a[i]) * b[i];
              na += double(a[i]) * a[i];
              nb += double(b[i]) * b[i];
            }
            double denom = std::sqrt(na) * std::sqrt(nb);
            if (denom == 0) {
              out.SetNull(r);
            } else {
              o[r] = dot / denom;
            }
          }
        }
        break;
      }
      case VecKernel::kGeneric: {
        // Always-correct per-row fallback through the shared scalar
        // runtime (used for string builtins, mixed-type coalesce/if and
        // anything downstream of a variant register).
        if (ins.out_variant) {
          out.ResetVariant(n);
        } else {
          out.Reset(ins.out_type, n);
        }
        std::vector<Value>& argv = scratch->call_args_;
        for (size_t r = 0; r < n; ++r) {
          StatusOr<Value> res = Value::Null();
          switch (ins.kind) {
            case OpKind::kUnary:
              res = ApplyUnary(ins.uop, A.GetValue(r));
              break;
            case OpKind::kBinary:
              res = ApplyBinary(ins.bop, A.GetValue(r), B.GetValue(r));
              break;
            case OpKind::kCall: {
              argv.clear();
              for (uint32_t i = 0; i < ins.arg_count; ++i) {
                argv.push_back(
                    regs[args_pool_[ins.arg_begin + i]].GetValue(r));
              }
              res = ApplyCall(*ins.fn, argv);
              break;
            }
            default:
              res = Status::Internal("generic kernel on non-op instruction");
              break;
          }
          if (!res.ok()) {
            record(r, res.status());
            if (ins.out_variant) {
              out.values()[r] = Value::Null();
            } else {
              NullCell(&out, r);
            }
            continue;
          }
          Value v = std::move(res).value();
          if (ins.out_variant) {
            out.values()[r] = std::move(v);
          } else {
            expr_internal::LoadRowCell(v, ins.out_type, r, &out);
          }
        }
        break;
      }
    }
  }
  ColumnVector& out = regs[out_reg_];
  *result = &out;
  if (errors.empty()) return Status::OK();
  // Keep each row's first error; a failed row's result is NULL even where
  // a later instruction (coalesce, is_null, ...) replaced its NULL.
  std::stable_sort(errors.begin(), errors.end(),
                   [](const RowError& a, const RowError& b) {
                     return a.row < b.row;
                   });
  errors.erase(std::unique(errors.begin(), errors.end(),
                           [](const RowError& a, const RowError& b) {
                             return a.row == b.row;
                           }),
               errors.end());
  for (const RowError& e : errors) {
    if (out.is_variant()) {
      out.values()[e.row] = Value::Null();
    } else if (out.type() != FeatureType::kNull) {
      out.SetNull(e.row);
    }
  }
  return errors.front().status;
}

}  // namespace mlfs
