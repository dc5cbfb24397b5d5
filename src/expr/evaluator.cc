#include "expr/evaluator.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <map>

#include "common/hash.h"
#include "common/string_util.h"
#include "expr/fn_runtime.h"
#include "expr/parser.h"

namespace mlfs {
namespace expr_internal {
namespace {

bool IsNumericType(FeatureType t) { return IsNumeric(t); }

// Signed arithmetic wraps on overflow (two's complement, like the
// vectorized kernels) so results are defined — and identical across both
// engines — for every input.
int64_t WrapAdd(int64_t x, int64_t y) {
  return static_cast<int64_t>(static_cast<uint64_t>(x) +
                              static_cast<uint64_t>(y));
}
int64_t WrapSub(int64_t x, int64_t y) {
  return static_cast<int64_t>(static_cast<uint64_t>(x) -
                              static_cast<uint64_t>(y));
}
int64_t WrapMul(int64_t x, int64_t y) {
  return static_cast<int64_t>(static_cast<uint64_t>(x) *
                              static_cast<uint64_t>(y));
}
int64_t WrapNeg(int64_t x) {
  return static_cast<int64_t>(uint64_t{0} - static_cast<uint64_t>(x));
}

}  // namespace

// ---------------------------------------------------------------------------
// Runtime operator application — the single implementation shared by the
// tree-walking interpreter, the compiled row path and the VM's generic
// kernels.
// ---------------------------------------------------------------------------

StatusOr<Value> ApplyUnary(UnaryOp op, const Value& v) {
  switch (op) {
    case UnaryOp::kNeg:
      if (v.is_null()) return Value::Null();
      if (v.type() == FeatureType::kInt64) {
        return Value::Int64(WrapNeg(v.int64_value()));
      }
      if (v.type() == FeatureType::kDouble)
        return Value::Double(-v.double_value());
      return Status::InvalidArgument("operator '-' needs a numeric operand");
    case UnaryOp::kNot:
      if (v.is_null()) return Value::Null();
      if (v.type() == FeatureType::kBool) return Value::Bool(!v.bool_value());
      return Status::InvalidArgument("operator 'not' needs a BOOL operand");
  }
  return Status::Internal("bad unary op");
}

namespace {

StatusOr<Value> ApplyArithmetic(BinaryOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (!IsNumericType(a.type()) || !IsNumericType(b.type())) {
    // String concatenation via '+'.
    if (op == BinaryOp::kAdd && a.type() == FeatureType::kString &&
        b.type() == FeatureType::kString) {
      return Value::String(a.string_value() + b.string_value());
    }
    // Timestamp arithmetic: ts ± micros, micros + ts, ts - ts.
    if (a.type() == FeatureType::kTimestamp &&
        b.type() == FeatureType::kInt64 &&
        (op == BinaryOp::kAdd || op == BinaryOp::kSub)) {
      int64_t delta = b.int64_value();
      return Value::Time(op == BinaryOp::kAdd
                             ? WrapAdd(a.time_value(), delta)
                             : WrapSub(a.time_value(), delta));
    }
    if (a.type() == FeatureType::kInt64 &&
        b.type() == FeatureType::kTimestamp && op == BinaryOp::kAdd) {
      return Value::Time(WrapAdd(a.int64_value(), b.time_value()));
    }
    if (a.type() == FeatureType::kTimestamp &&
        b.type() == FeatureType::kTimestamp && op == BinaryOp::kSub) {
      return Value::Int64(WrapSub(a.time_value(), b.time_value()));
    }
    return Status::InvalidArgument(
        std::string("operator '") + std::string(BinaryOpToString(op)) +
        "' needs numeric operands, got " +
        std::string(FeatureTypeToString(a.type())) + " and " +
        std::string(FeatureTypeToString(b.type())));
  }
  const bool both_int = a.type() == FeatureType::kInt64 &&
                        b.type() == FeatureType::kInt64;
  if (op == BinaryOp::kDiv) {
    double da = a.AsDouble().value();
    double db = b.AsDouble().value();
    if (db == 0.0) return Value::Null();  // SQL-style: x/0 is NULL.
    return Value::Double(da / db);
  }
  if (op == BinaryOp::kMod) {
    if (!both_int) {
      return Status::InvalidArgument("operator '%' needs INT64 operands");
    }
    if (b.int64_value() == 0) return Value::Null();
    if (b.int64_value() == -1) return Value::Int64(0);  // INT64_MIN % -1
    return Value::Int64(a.int64_value() % b.int64_value());
  }
  if (both_int) {
    int64_t x = a.int64_value();
    int64_t y = b.int64_value();
    switch (op) {
      case BinaryOp::kAdd: return Value::Int64(WrapAdd(x, y));
      case BinaryOp::kSub: return Value::Int64(WrapSub(x, y));
      case BinaryOp::kMul: return Value::Int64(WrapMul(x, y));
      default: break;
    }
  }
  double x = a.AsDouble().value();
  double y = b.AsDouble().value();
  switch (op) {
    case BinaryOp::kAdd: return Value::Double(x + y);
    case BinaryOp::kSub: return Value::Double(x - y);
    case BinaryOp::kMul: return Value::Double(x * y);
    default: break;
  }
  return Status::Internal("bad arithmetic op");
}

StatusOr<Value> ApplyComparison(BinaryOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  int cmp = 0;
  if (IsNumericType(a.type()) && IsNumericType(b.type())) {
    double x = a.AsDouble().value();
    double y = b.AsDouble().value();
    cmp = (x < y) ? -1 : (x > y) ? 1 : 0;
  } else if (a.type() == FeatureType::kString &&
             b.type() == FeatureType::kString) {
    cmp = a.string_value().compare(b.string_value());
    cmp = (cmp < 0) ? -1 : (cmp > 0) ? 1 : 0;
  } else if (a.type() == FeatureType::kTimestamp &&
             b.type() == FeatureType::kTimestamp) {
    Timestamp x = a.time_value(), y = b.time_value();
    cmp = (x < y) ? -1 : (x > y) ? 1 : 0;
  } else if (a.type() == FeatureType::kBool &&
             b.type() == FeatureType::kBool) {
    cmp = static_cast<int>(a.bool_value()) - static_cast<int>(b.bool_value());
  } else if (op == BinaryOp::kEq || op == BinaryOp::kNe) {
    // Heterogeneous equality: values of different type families are unequal.
    bool eq = (a == b);
    return Value::Bool(op == BinaryOp::kEq ? eq : !eq);
  } else {
    return Status::InvalidArgument(
        "cannot order " + std::string(FeatureTypeToString(a.type())) +
        " against " + std::string(FeatureTypeToString(b.type())));
  }
  switch (op) {
    case BinaryOp::kEq: return Value::Bool(cmp == 0);
    case BinaryOp::kNe: return Value::Bool(cmp != 0);
    case BinaryOp::kLt: return Value::Bool(cmp < 0);
    case BinaryOp::kLe: return Value::Bool(cmp <= 0);
    case BinaryOp::kGt: return Value::Bool(cmp > 0);
    case BinaryOp::kGe: return Value::Bool(cmp >= 0);
    default: break;
  }
  return Status::Internal("bad comparison op");
}

// Three-valued logic for and/or.
StatusOr<Value> ApplyLogical(BinaryOp op, const Value& a, const Value& b) {
  auto as_tri = [](const Value& v) -> StatusOr<int> {
    if (v.is_null()) return -1;  // Unknown.
    if (v.type() != FeatureType::kBool) {
      return Status::InvalidArgument("'and'/'or' need BOOL operands");
    }
    return v.bool_value() ? 1 : 0;
  };
  MLFS_ASSIGN_OR_RETURN(int x, as_tri(a));
  MLFS_ASSIGN_OR_RETURN(int y, as_tri(b));
  if (op == BinaryOp::kAnd) {
    if (x == 0 || y == 0) return Value::Bool(false);
    if (x == -1 || y == -1) return Value::Null();
    return Value::Bool(true);
  }
  if (x == 1 || y == 1) return Value::Bool(true);
  if (x == -1 || y == -1) return Value::Null();
  return Value::Bool(false);
}

}  // namespace

StatusOr<Value> ApplyBinary(BinaryOp op, const Value& a, const Value& b) {
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
    case BinaryOp::kMod:
      return ApplyArithmetic(op, a, b);
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return ApplyComparison(op, a, b);
    case BinaryOp::kAnd:
    case BinaryOp::kOr:
      return ApplyLogical(op, a, b);
  }
  return Status::Internal("bad binary op");
}

// ---------------------------------------------------------------------------
// Builtin functions.
// ---------------------------------------------------------------------------

namespace {

Status NeedNumeric(const std::string& fn, FeatureType t) {
  if (!IsNumericType(t)) {
    return Status::InvalidArgument(fn + "() needs a numeric argument, got " +
                                   std::string(FeatureTypeToString(t)));
  }
  return Status::OK();
}

double UnaryMath(const std::string& name, double x) {
  if (name == "log") return std::log(x);
  if (name == "log2") return std::log2(x);
  if (name == "exp") return std::exp(x);
  if (name == "sqrt") return std::sqrt(x);
  if (name == "floor") return std::floor(x);
  if (name == "ceil") return std::ceil(x);
  if (name == "round") return std::round(x);
  return std::nan("");
}

const std::map<std::string, FunctionSpec>& FunctionTable() {
  static const auto* table = [] {
    auto* t = new std::map<std::string, FunctionSpec>();

    // --- Numeric ---------------------------------------------------------
    (*t)["abs"] = FunctionSpec{
        1, 1,
        [](const std::vector<FeatureType>& a) -> StatusOr<FeatureType> {
          MLFS_RETURN_IF_ERROR(NeedNumeric("abs", a[0]));
          return a[0] == FeatureType::kInt64 ? FeatureType::kInt64
                                             : FeatureType::kDouble;
        },
        [](const std::vector<Value>& v) -> StatusOr<Value> {
          if (v[0].type() == FeatureType::kInt64) {
            int64_t x = v[0].int64_value();
            return Value::Int64(x < 0 ? WrapNeg(x) : x);
          }
          return Value::Double(std::abs(v[0].AsDouble().value()));
        }};
    for (const char* name :
         {"log", "log2", "exp", "sqrt", "floor", "ceil", "round"}) {
      (*t)[name] = FunctionSpec{
          1, 1,
          [name](const std::vector<FeatureType>& a) -> StatusOr<FeatureType> {
            MLFS_RETURN_IF_ERROR(NeedNumeric(name, a[0]));
            return FeatureType::kDouble;
          },
          [name](const std::vector<Value>& v) -> StatusOr<Value> {
            return Value::Double(UnaryMath(name, v[0].AsDouble().value()));
          }};
    }
    (*t)["pow"] = FunctionSpec{
        2, 2,
        [](const std::vector<FeatureType>& a) -> StatusOr<FeatureType> {
          MLFS_RETURN_IF_ERROR(NeedNumeric("pow", a[0]));
          MLFS_RETURN_IF_ERROR(NeedNumeric("pow", a[1]));
          return FeatureType::kDouble;
        },
        [](const std::vector<Value>& v) -> StatusOr<Value> {
          return Value::Double(
              std::pow(v[0].AsDouble().value(), v[1].AsDouble().value()));
        }};
    for (const char* name : {"min", "max"}) {
      (*t)[name] = FunctionSpec{
          2, 2,
          [name](const std::vector<FeatureType>& a) -> StatusOr<FeatureType> {
            MLFS_RETURN_IF_ERROR(NeedNumeric(name, a[0]));
            MLFS_RETURN_IF_ERROR(NeedNumeric(name, a[1]));
            if (a[0] == FeatureType::kInt64 && a[1] == FeatureType::kInt64) {
              return FeatureType::kInt64;
            }
            return FeatureType::kDouble;
          },
          [name](const std::vector<Value>& v) -> StatusOr<Value> {
            bool want_min = std::string_view(name) == "min";
            if (v[0].type() == FeatureType::kInt64 &&
                v[1].type() == FeatureType::kInt64) {
              int64_t a = v[0].int64_value(), b = v[1].int64_value();
              return Value::Int64(want_min ? std::min(a, b) : std::max(a, b));
            }
            double a = v[0].AsDouble().value(), b = v[1].AsDouble().value();
            return Value::Double(want_min ? std::min(a, b) : std::max(a, b));
          }};
    }
    (*t)["clamp"] = FunctionSpec{
        3, 3,
        [](const std::vector<FeatureType>& a) -> StatusOr<FeatureType> {
          for (auto ty : a) MLFS_RETURN_IF_ERROR(NeedNumeric("clamp", ty));
          return FeatureType::kDouble;
        },
        [](const std::vector<Value>& v) -> StatusOr<Value> {
          double x = v[0].AsDouble().value();
          double lo = v[1].AsDouble().value();
          double hi = v[2].AsDouble().value();
          if (lo > hi) return Status::InvalidArgument("clamp: lo > hi");
          return Value::Double(std::clamp(x, lo, hi));
        }};

    // --- NULL handling ----------------------------------------------------
    (*t)["coalesce"] = FunctionSpec{
        1, SIZE_MAX,
        [](const std::vector<FeatureType>& a) -> StatusOr<FeatureType> {
          FeatureType out = FeatureType::kNull;
          for (auto ty : a) {
            MLFS_ASSIGN_OR_RETURN(out, CommonType(out, ty));
          }
          return out;
        },
        [](const std::vector<Value>& v) -> StatusOr<Value> {
          for (const auto& x : v) {
            if (!x.is_null()) return x;
          }
          return Value::Null();
        },
        /*propagate_nulls=*/false};
    (*t)["is_null"] = FunctionSpec{
        1, 1,
        [](const std::vector<FeatureType>&) -> StatusOr<FeatureType> {
          return FeatureType::kBool;
        },
        [](const std::vector<Value>& v) -> StatusOr<Value> {
          return Value::Bool(v[0].is_null());
        },
        /*propagate_nulls=*/false};
    (*t)["if"] = FunctionSpec{
        3, 3,
        [](const std::vector<FeatureType>& a) -> StatusOr<FeatureType> {
          if (a[0] != FeatureType::kBool && a[0] != FeatureType::kNull) {
            return Status::InvalidArgument("if() condition must be BOOL");
          }
          return CommonType(a[1], a[2]);
        },
        [](const std::vector<Value>& v) -> StatusOr<Value> {
          if (v[0].is_null()) return Value::Null();
          return v[0].bool_value() ? v[1] : v[2];
        },
        /*propagate_nulls=*/false};

    // --- Strings ----------------------------------------------------------
    (*t)["len"] = FunctionSpec{
        1, 1,
        [](const std::vector<FeatureType>& a) -> StatusOr<FeatureType> {
          if (a[0] != FeatureType::kString) {
            return Status::InvalidArgument("len() needs a STRING");
          }
          return FeatureType::kInt64;
        },
        [](const std::vector<Value>& v) -> StatusOr<Value> {
          return Value::Int64(static_cast<int64_t>(v[0].string_value().size()));
        }};
    (*t)["concat"] = FunctionSpec{
        2, SIZE_MAX,
        [](const std::vector<FeatureType>& a) -> StatusOr<FeatureType> {
          for (auto ty : a) {
            if (ty != FeatureType::kString) {
              return Status::InvalidArgument("concat() needs STRINGs");
            }
          }
          return FeatureType::kString;
        },
        [](const std::vector<Value>& v) -> StatusOr<Value> {
          std::string out;
          for (const auto& x : v) out += x.string_value();
          return Value::String(std::move(out));
        }};
    for (const char* name : {"lower", "upper"}) {
      (*t)[name] = FunctionSpec{
          1, 1,
          [name](const std::vector<FeatureType>& a) -> StatusOr<FeatureType> {
            if (a[0] != FeatureType::kString) {
              return Status::InvalidArgument(std::string(name) +
                                             "() needs a STRING");
            }
            return FeatureType::kString;
          },
          [name](const std::vector<Value>& v) -> StatusOr<Value> {
            std::string out = v[0].string_value();
            bool to_lower = std::string_view(name) == "lower";
            for (auto& c : out) {
              c = to_lower
                      ? static_cast<char>(std::tolower(
                            static_cast<unsigned char>(c)))
                      : static_cast<char>(std::toupper(
                            static_cast<unsigned char>(c)));
            }
            return Value::String(std::move(out));
          }};
    }

    // --- Timestamps -------------------------------------------------------
    for (const char* name : {"hour", "day"}) {
      (*t)[name] = FunctionSpec{
          1, 1,
          [name](const std::vector<FeatureType>& a) -> StatusOr<FeatureType> {
            if (a[0] != FeatureType::kTimestamp) {
              return Status::InvalidArgument(std::string(name) +
                                             "() needs a TIMESTAMP");
            }
            return FeatureType::kInt64;
          },
          [name](const std::vector<Value>& v) -> StatusOr<Value> {
            Timestamp ts = v[0].time_value();
            if (std::string_view(name) == "day") {
              return Value::Int64(ts / kMicrosPerDay);
            }
            return Value::Int64((ts % kMicrosPerDay) / kMicrosPerHour);
          }};
    }

    // --- Misc --------------------------------------------------------------
    (*t)["hash"] = FunctionSpec{
        1, 1,
        [](const std::vector<FeatureType>&) -> StatusOr<FeatureType> {
          return FeatureType::kInt64;
        },
        [](const std::vector<Value>& v) -> StatusOr<Value> {
          return Value::Int64(static_cast<int64_t>(HashValue(v[0])));
        }};

    // --- Embeddings (first-class citizens, paper §3) ------------------------
    (*t)["dim"] = FunctionSpec{
        1, 1,
        [](const std::vector<FeatureType>& a) -> StatusOr<FeatureType> {
          if (a[0] != FeatureType::kEmbedding) {
            return Status::InvalidArgument("dim() needs an EMBEDDING");
          }
          return FeatureType::kInt64;
        },
        [](const std::vector<Value>& v) -> StatusOr<Value> {
          return Value::Int64(
              static_cast<int64_t>(v[0].embedding_value().size()));
        }};
    (*t)["norm"] = FunctionSpec{
        1, 1,
        [](const std::vector<FeatureType>& a) -> StatusOr<FeatureType> {
          if (a[0] != FeatureType::kEmbedding) {
            return Status::InvalidArgument("norm() needs an EMBEDDING");
          }
          return FeatureType::kDouble;
        },
        [](const std::vector<Value>& v) -> StatusOr<Value> {
          double s = 0;
          for (float f : v[0].embedding_value()) s += double(f) * f;
          return Value::Double(std::sqrt(s));
        }};
    (*t)["at"] = FunctionSpec{
        2, 2,
        [](const std::vector<FeatureType>& a) -> StatusOr<FeatureType> {
          if (a[0] != FeatureType::kEmbedding ||
              a[1] != FeatureType::kInt64) {
            return Status::InvalidArgument("at() needs (EMBEDDING, INT64)");
          }
          return FeatureType::kDouble;
        },
        [](const std::vector<Value>& v) -> StatusOr<Value> {
          const auto& e = v[0].embedding_value();
          int64_t i = v[1].int64_value();
          if (i < 0 || static_cast<size_t>(i) >= e.size()) {
            return Status::OutOfRange("at(): index " + std::to_string(i) +
                                      " out of range for dim " +
                                      std::to_string(e.size()));
          }
          return Value::Double(e[static_cast<size_t>(i)]);
        }};
    for (const char* name : {"dot", "cosine"}) {
      (*t)[name] = FunctionSpec{
          2, 2,
          [name](const std::vector<FeatureType>& a) -> StatusOr<FeatureType> {
            if (a[0] != FeatureType::kEmbedding ||
                a[1] != FeatureType::kEmbedding) {
              return Status::InvalidArgument(std::string(name) +
                                             "() needs two EMBEDDINGs");
            }
            return FeatureType::kDouble;
          },
          [name](const std::vector<Value>& v) -> StatusOr<Value> {
            const auto& a = v[0].embedding_value();
            const auto& b = v[1].embedding_value();
            if (a.size() != b.size()) {
              return Status::InvalidArgument("embedding dims differ: " +
                                             std::to_string(a.size()) + " vs " +
                                             std::to_string(b.size()));
            }
            double dot = 0, na = 0, nb = 0;
            for (size_t i = 0; i < a.size(); ++i) {
              dot += double(a[i]) * b[i];
              na += double(a[i]) * a[i];
              nb += double(b[i]) * b[i];
            }
            if (std::string_view(name) == "dot") return Value::Double(dot);
            double denom = std::sqrt(na) * std::sqrt(nb);
            if (denom == 0) return Value::Null();
            return Value::Double(dot / denom);
          }};
    }
    return t;
  }();
  return *table;
}

}  // namespace

StatusOr<FeatureType> CommonType(FeatureType a, FeatureType b) {
  if (a == b) return a;
  if (a == FeatureType::kNull) return b;
  if (b == FeatureType::kNull) return a;
  if (IsNumericType(a) && IsNumericType(b)) return FeatureType::kDouble;
  return Status::InvalidArgument(
      "no common type between " + std::string(FeatureTypeToString(a)) +
      " and " + std::string(FeatureTypeToString(b)));
}

StatusOr<const FunctionSpec*> LookupFunction(const std::string& name,
                                             size_t num_args) {
  const auto& table = FunctionTable();
  auto it = table.find(ToLower(name));
  if (it == table.end()) {
    return Status::NotFound("unknown function '" + name + "'");
  }
  const FunctionSpec& spec = it->second;
  if (num_args < spec.min_args ||
      (spec.max_args != SIZE_MAX && num_args > spec.max_args)) {
    return Status::InvalidArgument(
        name + "() takes " + std::to_string(spec.min_args) +
        (spec.max_args == SIZE_MAX
             ? "+ arguments"
             : (spec.max_args == spec.min_args
                    ? " argument(s)"
                    : ".." + std::to_string(spec.max_args) + " arguments")) +
        ", got " + std::to_string(num_args));
  }
  return &spec;
}

StatusOr<Value> ApplyCall(const FunctionSpec& spec,
                          const std::vector<Value>& args) {
  if (spec.propagate_nulls) {
    for (const auto& a : args) {
      if (a.is_null()) return Value::Null();
    }
  }
  // Re-check argument types at runtime: the interpreter path has no static
  // type checking, and apply() implementations assume validated inputs.
  std::vector<FeatureType> types;
  types.reserve(args.size());
  for (const auto& a : args) types.push_back(a.type());
  MLFS_RETURN_IF_ERROR(spec.infer(types).status());
  return spec.apply(args);
}

// ---------------------------------------------------------------------------
// Type inference.
// ---------------------------------------------------------------------------

StatusOr<FeatureType> InferNodeType(const Expr& expr,
                                    const std::vector<FeatureType>& child_types,
                                    FeatureType column_type) {
  switch (expr.kind()) {
    case Expr::Kind::kLiteral:
      return expr.literal().type();
    case Expr::Kind::kColumn:
      return column_type;
    case Expr::Kind::kUnary: {
      FeatureType t = child_types[0];
      if (expr.unary_op() == UnaryOp::kNeg) {
        if (t == FeatureType::kNull) return FeatureType::kNull;
        if (!IsNumericType(t)) {
          return Status::InvalidArgument("operator '-' needs numeric operand");
        }
        return t == FeatureType::kInt64 ? FeatureType::kInt64
                                        : FeatureType::kDouble;
      }
      if (t != FeatureType::kBool && t != FeatureType::kNull) {
        return Status::InvalidArgument("operator 'not' needs BOOL operand");
      }
      return FeatureType::kBool;
    }
    case Expr::Kind::kBinary: {
      FeatureType a = child_types[0];
      FeatureType b = child_types[1];
      BinaryOp op = expr.binary_op();
      auto numeric_or_null = [](FeatureType t) {
        return IsNumericType(t) || t == FeatureType::kNull;
      };
      switch (op) {
        case BinaryOp::kAdd:
          if (a == FeatureType::kString && b == FeatureType::kString) {
            return FeatureType::kString;
          }
          if ((a == FeatureType::kTimestamp && b == FeatureType::kInt64) ||
              (a == FeatureType::kInt64 && b == FeatureType::kTimestamp)) {
            return FeatureType::kTimestamp;
          }
          [[fallthrough]];
        case BinaryOp::kSub:
          if (op == BinaryOp::kSub) {
            if (a == FeatureType::kTimestamp && b == FeatureType::kInt64) {
              return FeatureType::kTimestamp;
            }
            if (a == FeatureType::kTimestamp &&
                b == FeatureType::kTimestamp) {
              return FeatureType::kInt64;
            }
          }
          [[fallthrough]];
        case BinaryOp::kMul:
          if (!numeric_or_null(a) || !numeric_or_null(b)) {
            return Status::InvalidArgument(
                std::string("operator '") +
                std::string(BinaryOpToString(op)) +
                "' needs numeric operands");
          }
          if (a == FeatureType::kInt64 && b == FeatureType::kInt64) {
            return FeatureType::kInt64;
          }
          return FeatureType::kDouble;
        case BinaryOp::kDiv:
          if (!numeric_or_null(a) || !numeric_or_null(b)) {
            return Status::InvalidArgument("operator '/' needs numeric");
          }
          return FeatureType::kDouble;
        case BinaryOp::kMod:
          if ((a != FeatureType::kInt64 && a != FeatureType::kNull) ||
              (b != FeatureType::kInt64 && b != FeatureType::kNull)) {
            return Status::InvalidArgument("operator '%' needs INT64");
          }
          return FeatureType::kInt64;
        case BinaryOp::kEq:
        case BinaryOp::kNe:
          return FeatureType::kBool;
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe: {
          bool orderable =
              (numeric_or_null(a) && numeric_or_null(b)) ||
              a == b || a == FeatureType::kNull || b == FeatureType::kNull;
          bool not_orderable_type = a == FeatureType::kEmbedding ||
                                    b == FeatureType::kEmbedding;
          if (!orderable || not_orderable_type) {
            return Status::InvalidArgument(
                "cannot order " + std::string(FeatureTypeToString(a)) +
                " against " + std::string(FeatureTypeToString(b)));
          }
          return FeatureType::kBool;
        }
        case BinaryOp::kAnd:
        case BinaryOp::kOr:
          if ((a != FeatureType::kBool && a != FeatureType::kNull) ||
              (b != FeatureType::kBool && b != FeatureType::kNull)) {
            return Status::InvalidArgument("'and'/'or' need BOOL operands");
          }
          return FeatureType::kBool;
      }
      return Status::Internal("bad binary op");
    }
    case Expr::Kind::kCall: {
      MLFS_ASSIGN_OR_RETURN(const FunctionSpec* spec,
                            LookupFunction(expr.name(), child_types.size()));
      return spec->infer(child_types);
    }
  }
  return Status::Internal("bad expr kind");
}

}  // namespace expr_internal

namespace {

StatusOr<FeatureType> InferTypeImpl(const Expr& expr, const Schema& schema) {
  FeatureType column_type = FeatureType::kNull;
  if (expr.kind() == Expr::Kind::kColumn) {
    int idx = schema.FieldIndex(expr.name());
    if (idx < 0) {
      return Status::NotFound("unknown column '" + expr.name() + "'");
    }
    column_type = schema.field(static_cast<size_t>(idx)).type;
  }
  std::vector<FeatureType> child_types;
  child_types.reserve(expr.args().size());
  for (const auto& arg : expr.args()) {
    MLFS_ASSIGN_OR_RETURN(FeatureType t, InferTypeImpl(*arg, schema));
    child_types.push_back(t);
  }
  return expr_internal::InferNodeType(expr, child_types, column_type);
}

}  // namespace

StatusOr<FeatureType> InferType(const Expr& expr, const Schema& schema) {
  return InferTypeImpl(expr, schema);
}

StatusOr<Value> EvalExpr(const Expr& expr, const Row& row) {
  switch (expr.kind()) {
    case Expr::Kind::kLiteral:
      return expr.literal();
    case Expr::Kind::kColumn:
      return row.ValueByName(expr.name());
    case Expr::Kind::kUnary: {
      MLFS_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr.args()[0], row));
      return expr_internal::ApplyUnary(expr.unary_op(), v);
    }
    case Expr::Kind::kBinary: {
      MLFS_ASSIGN_OR_RETURN(Value a, EvalExpr(*expr.args()[0], row));
      MLFS_ASSIGN_OR_RETURN(Value b, EvalExpr(*expr.args()[1], row));
      return expr_internal::ApplyBinary(expr.binary_op(), a, b);
    }
    case Expr::Kind::kCall: {
      std::vector<Value> args;
      args.reserve(expr.args().size());
      for (const auto& arg : expr.args()) {
        MLFS_ASSIGN_OR_RETURN(Value v, EvalExpr(*arg, row));
        args.push_back(std::move(v));
      }
      MLFS_ASSIGN_OR_RETURN(const expr_internal::FunctionSpec* spec,
                            expr_internal::LookupFunction(expr.name(),
                                                          args.size()));
      return expr_internal::ApplyCall(*spec, args);
    }
  }
  return Status::Internal("bad expr kind");
}

StatusOr<CompiledExpr> CompiledExpr::Compile(const Expr& expr,
                                             SchemaPtr schema) {
  MLFS_ASSIGN_OR_RETURN(auto program, Program::Lower(expr, std::move(schema)));
  return CompiledExpr(std::move(program));
}

StatusOr<CompiledExpr> CompiledExpr::Compile(std::string_view source,
                                             SchemaPtr schema) {
  MLFS_ASSIGN_OR_RETURN(ExprPtr expr, ParseExpr(source));
  return Compile(*expr, std::move(schema));
}

StatusOr<Value> CompiledExpr::Eval(const Row& row) const {
  thread_local ExprScratch scratch;
  return Eval(row, &scratch);
}

StatusOr<Value> CompiledExpr::Eval(const Row& row,
                                   ExprScratch* scratch) const {
  const Row* rows[] = {&row};
  const ColumnVector* out = nullptr;
  MLFS_RETURN_IF_ERROR(
      EvalBatch(RowPtrBatchSource(schema(), rows), scratch, &out));
  return out->GetValue(0);
}

std::vector<std::string> BuiltinFunctionNames() {
  std::vector<std::string> names;
  for (const auto& [name, spec] : expr_internal::FunctionTable()) {
    names.push_back(name);
  }
  return names;
}

}  // namespace mlfs
