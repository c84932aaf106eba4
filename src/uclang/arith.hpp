// One definition of each UC operator (docs/LANGUAGE.md "Operators").
//
// Sema's constant evaluator, the AST constant folder, the affine
// linearizer, the lane-kernel optimiser's constant fold, the tree walk and
// the bytecode executor's typed loops all compute operator values here, so
// an expression means the same wherever it is evaluated.  The native
// emitter prints the same rules as C text; the independent references
// (seqref, the tests' eval_ref, cm/ops.cpp for the C* DSL) keep their own.
//
// Each operator is a functor type with static `on` overloads:
//   on(i64, i64)        the int64 result: + - *, negation, abs, ++/-- and
//                       << wrap in two's complement (support/wrap.hpp);
//   on(double, double)  the result on doubles (comparisons, ! and the
//                       logical operators give an int 0/1);
// and two flags:
//   kTruncates  both operands convert to int64 first (%, the bit
//               operations, the shifts, ~), so there is no double overload;
//   kDivides    an int divisor of zero has no result: apply() returns
//               nullopt and each caller raises its own error or declines
//               to fold.
// The operand rule: an operator that does not truncate runs on doubles
// when either operand is float, else on int64.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>

#include "support/wrap.hpp"
#include "uclang/symbols.hpp"

namespace uc::lang::arith {

using i64 = std::int64_t;

struct Op {
  static constexpr bool kTruncates = false;
  static constexpr bool kDivides = false;
};
struct IntOp : Op {
  static constexpr bool kTruncates = true;
};

// ---- binary operators (and the min/max builtins) ----

struct Add : Op {
  static i64 on(i64 a, i64 b) { return support::wrap_add(a, b); }
  static double on(double a, double b) { return a + b; }
};
struct Sub : Op {
  static i64 on(i64 a, i64 b) { return support::wrap_sub(a, b); }
  static double on(double a, double b) { return a - b; }
};
struct Mul : Op {
  static i64 on(i64 a, i64 b) { return support::wrap_mul(a, b); }
  static double on(double a, double b) { return a * b; }
};
struct Div : Op {
  static constexpr bool kDivides = true;
  static i64 on(i64 a, i64 b) { return support::wrap_div(a, b); }
  static double on(double a, double b) { return a / b; }
};
struct Mod : IntOp {
  static constexpr bool kDivides = true;
  static i64 on(i64 a, i64 b) { return support::wrap_mod(a, b); }
};
struct Eq : Op {
  static i64 on(i64 a, i64 b) { return a == b; }
  static i64 on(double a, double b) { return a == b; }
};
struct Ne : Op {
  static i64 on(i64 a, i64 b) { return a != b; }
  static i64 on(double a, double b) { return a != b; }
};
struct Lt : Op {
  static i64 on(i64 a, i64 b) { return a < b; }
  static i64 on(double a, double b) { return a < b; }
};
struct Gt : Op {
  static i64 on(i64 a, i64 b) { return a > b; }
  static i64 on(double a, double b) { return a > b; }
};
struct Le : Op {
  static i64 on(i64 a, i64 b) { return a <= b; }
  static i64 on(double a, double b) { return a <= b; }
};
struct Ge : Op {
  static i64 on(i64 a, i64 b) { return a >= b; }
  static i64 on(double a, double b) { return a >= b; }
};
// Both operands already evaluated; the walk short-circuits && and || itself.
struct LogAnd : Op {
  static i64 on(i64 a, i64 b) { return a != 0 && b != 0; }
  static i64 on(double a, double b) { return a != 0.0 && b != 0.0; }
};
struct LogOr : Op {
  static i64 on(i64 a, i64 b) { return a != 0 || b != 0; }
  static i64 on(double a, double b) { return a != 0.0 || b != 0.0; }
};
struct BitAnd : IntOp {
  static i64 on(i64 a, i64 b) { return a & b; }
};
struct BitOr : IntOp {
  static i64 on(i64 a, i64 b) { return a | b; }
};
struct BitXor : IntOp {
  static i64 on(i64 a, i64 b) { return a ^ b; }
};
// The shift count is taken mod 64; >> is arithmetic.
struct Shl : IntOp {
  static i64 on(i64 a, i64 b) {
    return static_cast<i64>(static_cast<std::uint64_t>(a) << (b & 63));
  }
};
struct Shr : IntOp {
  static i64 on(i64 a, i64 b) { return a >> (b & 63); }
};
struct Min : Op {
  static i64 on(i64 a, i64 b) { return std::min(a, b); }
  static double on(double a, double b) { return std::min(a, b); }
};
struct Max : Op {
  static i64 on(i64 a, i64 b) { return std::max(a, b); }
  static double on(double a, double b) { return std::max(a, b); }
};
// The `$,` reduction keeps its first operand: folding keeps the
// accumulator, and each caller stores the first operand itself.
struct Arb : Op {
  static i64 on(i64 a, i64) { return a; }
  static double on(double a, double) { return a; }
};

// ---- unary operators (and abs, ++, --) ----

struct Neg : Op {
  static i64 on(i64 a) { return support::wrap_neg(a); }
  static double on(double a) { return -a; }
};
struct Not : Op {
  static i64 on(i64 a) { return a == 0; }
  static i64 on(double a) { return a == 0.0; }
};
struct BitNot : IntOp {
  static i64 on(i64 a) { return ~a; }
};
struct Plus : Op {
  static i64 on(i64 a) { return a; }
  static double on(double a) { return a; }
};
struct Abs : Op {
  static i64 on(i64 a) { return a < 0 ? support::wrap_neg(a) : a; }
  static double on(double a) { return std::fabs(a); }
};
struct Inc : Op {
  static i64 on(i64 a) { return support::wrap_add(a, 1); }
  static double on(double a) { return a + 1.0; }
};
struct Dec : Op {
  static i64 on(i64 a) { return support::wrap_sub(a, 1); }
  static double on(double a) { return a - 1.0; }
};

// ---- the one switch per operator enum: f(functor) ----

template <class F>
decltype(auto) visit(BinaryOp op, F&& f) {
  switch (op) {
    case BinaryOp::kAdd: return f(Add{});
    case BinaryOp::kSub: return f(Sub{});
    case BinaryOp::kMul: return f(Mul{});
    case BinaryOp::kDiv: return f(Div{});
    case BinaryOp::kMod: return f(Mod{});
    case BinaryOp::kEq: return f(Eq{});
    case BinaryOp::kNe: return f(Ne{});
    case BinaryOp::kLt: return f(Lt{});
    case BinaryOp::kGt: return f(Gt{});
    case BinaryOp::kLe: return f(Le{});
    case BinaryOp::kGe: return f(Ge{});
    case BinaryOp::kLogAnd: return f(LogAnd{});
    case BinaryOp::kLogOr: return f(LogOr{});
    case BinaryOp::kBitAnd: return f(BitAnd{});
    case BinaryOp::kBitOr: return f(BitOr{});
    case BinaryOp::kBitXor: return f(BitXor{});
    case BinaryOp::kShl: return f(Shl{});
    case BinaryOp::kShr:
    default: return f(Shr{});
  }
}

template <class F>
decltype(auto) visit(UnaryOp op, F&& f) {
  switch (op) {
    case UnaryOp::kNeg: return f(Neg{});
    case UnaryOp::kNot: return f(Not{});
    case UnaryOp::kBitNot: return f(BitNot{});
    case UnaryOp::kPlus:
    default: return f(Plus{});
  }
}

// A reduction folds its accumulator with the binary operator of the same
// meaning: $&& and $|| fold truth values, $^ truncates to int64.
template <class F>
decltype(auto) visit(ReduceKind op, F&& f) {
  switch (op) {
    case ReduceKind::kAdd: return f(Add{});
    case ReduceKind::kMul: return f(Mul{});
    case ReduceKind::kAnd: return f(LogAnd{});
    case ReduceKind::kOr: return f(LogOr{});
    case ReduceKind::kXor: return f(BitXor{});
    case ReduceKind::kMax: return f(Max{});
    case ReduceKind::kMin: return f(Min{});
    case ReduceKind::kArb:
    default: return f(Arb{});
  }
}

// The operator `a op= b` applies (kAssign applies none; kAdd stands in).
inline BinaryOp compound_op(AssignOp op) {
  switch (op) {
    case AssignOp::kSub: return BinaryOp::kSub;
    case AssignOp::kMul: return BinaryOp::kMul;
    case AssignOp::kDiv: return BinaryOp::kDiv;
    case AssignOp::kMod: return BinaryOp::kMod;
    default: return BinaryOp::kAdd;
  }
}

// ---- values ----
//
// The value-level forms take any V shaped like vm::Value: fields
// is_float, i, f; as_int() / as_float(); V::of_int / V::of_float.  Num is
// that shape for callers without a value type of their own.

struct Num {
  bool is_float = false;
  i64 i = 0;
  double f = 0.0;

  static Num of_int(i64 v) {
    Num n;
    n.i = v;
    return n;
  }
  static Num of_float(double v) {
    Num n;
    n.is_float = true;
    n.f = v;
    return n;
  }
  i64 as_int() const { return is_float ? static_cast<i64>(f) : i; }
  double as_float() const { return is_float ? f : static_cast<double>(i); }
};

template <class V>
V make(i64 v) {
  return V::of_int(v);
}
template <class V>
V make(double v) {
  return V::of_float(v);
}

// o(a, b) by the operand rule; nullopt for a zero int divisor.
template <class O, class V>
std::optional<V> apply(O, const V& a, const V& b) {
  if constexpr (!O::kTruncates) {
    if (a.is_float || b.is_float) {
      return make<V>(O::on(a.as_float(), b.as_float()));
    }
  }
  const i64 y = b.as_int();
  if (O::kDivides && y == 0) return std::nullopt;
  return make<V>(O::on(a.as_int(), y));
}

template <class O, class V>
V apply(O, const V& a) {
  if constexpr (!O::kTruncates) {
    if (a.is_float) return make<V>(O::on(a.f));
  }
  return make<V>(O::on(a.as_int()));
}

template <class V>
std::optional<V> binary(BinaryOp op, const V& a, const V& b) {
  return visit(op, [&](auto o) { return apply(o, a, b); });
}

template <class V>
V unary(UnaryOp op, const V& a) {
  return visit(op, [&](auto o) { return apply(o, a); });
}

// One fold step of a reduction (kArb keeps the accumulator).
template <class V>
V reduce_fold(ReduceKind op, const V& acc, const V& v) {
  return *visit(op, [&](auto o) { return apply(o, acc, v); });
}

// The accumulator a reduction starts from: float for a float reduction,
// except $&&, $||, $^ and $, which start from an int.
template <class V>
V reduce_identity(ReduceKind op, bool flt) {
  i64 id = 0;
  switch (op) {
    case ReduceKind::kMul:
    case ReduceKind::kAnd: id = 1; break;
    case ReduceKind::kMax: id = -kUcInf; break;
    case ReduceKind::kMin: id = kUcInf; break;
    default: break;
  }
  const bool int_acc = op == ReduceKind::kAnd || op == ReduceKind::kOr ||
                       op == ReduceKind::kXor || op == ReduceKind::kArb;
  return flt && !int_acc ? V::of_float(static_cast<double>(id))
                         : V::of_int(id);
}

}  // namespace uc::lang::arith
