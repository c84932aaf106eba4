#include "xform/affine.hpp"

#include "uclang/arith.hpp"
#include "uclang/symbols.hpp"

namespace uc::xform {

using namespace lang;

namespace {

LinearForm inexact() { return LinearForm{}; }

LinearForm constant_form(std::int64_t c) {
  LinearForm f;
  f.exact = true;
  f.constant = c;
  return f;
}

void add_term(LinearForm& f, const Symbol* sym, std::int64_t coeff) {
  if (coeff == 0) return;
  for (auto& t : f.terms) {
    if (t.sym == sym) {
      t.coeff = arith::Add::on(t.coeff, coeff);
      if (t.coeff == 0) {
        t = f.terms.back();
        f.terms.pop_back();
      }
      return;
    }
  }
  f.terms.push_back(LinearTerm{sym, coeff});
}

LinearForm combine(const LinearForm& a, const LinearForm& b,
                   std::int64_t b_sign) {
  if (!a.exact || !b.exact) return inexact();
  LinearForm f = a;
  f.constant = arith::Add::on(f.constant, arith::Mul::on(b_sign, b.constant));
  for (const auto& t : b.terms) {
    add_term(f, t.sym, arith::Mul::on(b_sign, t.coeff));
  }
  return f;
}

LinearForm scale(const LinearForm& a, std::int64_t k) {
  if (!a.exact) return inexact();
  LinearForm f;
  f.exact = true;
  f.constant = arith::Mul::on(a.constant, k);
  for (const auto& t : a.terms) {
    add_term(f, t.sym, arith::Mul::on(t.coeff, k));
  }
  return f;
}

}  // namespace

LinearForm linear_add(const LinearForm& a, const LinearForm& b) {
  return combine(a, b, 1);
}

LinearForm linear_sub(const LinearForm& a, const LinearForm& b) {
  return combine(a, b, -1);
}

LinearForm linear_scale(const LinearForm& a, std::int64_t k) {
  return scale(a, k);
}

std::int64_t LinearForm::coeff_of(const Symbol* sym) const {
  for (const auto& t : terms) {
    if (t.sym == sym) return t.coeff;
  }
  return 0;
}

bool LinearForm::is_unit_in(const Symbol* sym) const {
  return exact && terms.size() == 1 && terms[0].sym == sym &&
         terms[0].coeff == 1;
}

LinearForm linearize(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kIntLit:
      return constant_form(static_cast<const IntLitExpr&>(e).value);
    case ExprKind::kIdent: {
      const auto& id = static_cast<const IdentExpr&>(e);
      if (id.symbol == nullptr) return inexact();
      if (id.symbol->has_const_value) {
        return constant_form(id.symbol->const_value);
      }
      LinearForm f;
      f.exact = true;
      f.terms.push_back(LinearTerm{id.symbol, 1});
      return f;
    }
    case ExprKind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(e);
      LinearForm v = linearize(*u.operand);
      switch (u.op) {
        case UnaryOp::kNeg:
          return scale(v, -1);
        case UnaryOp::kPlus:
          return v;
        default:
          return inexact();
      }
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      LinearForm l = linearize(*b.lhs);
      LinearForm r = linearize(*b.rhs);
      switch (b.op) {
        case BinaryOp::kAdd:
          return combine(l, r, 1);
        case BinaryOp::kSub:
          return combine(l, r, -1);
        case BinaryOp::kMul:
          if (l.is_constant()) return scale(r, l.constant);
          if (r.is_constant()) return scale(l, r.constant);
          return inexact();
        case BinaryOp::kDiv:
        case BinaryOp::kMod:
          if (l.is_constant() && r.is_constant()) {
            if (auto q = arith::binary(b.op, arith::Num::of_int(l.constant),
                                       arith::Num::of_int(r.constant))) {
              return constant_form(q->i);
            }
          }
          return inexact();
        default:
          return inexact();
      }
    }
    default:
      return inexact();
  }
}

std::optional<std::int64_t> affine_offset(const Expr& e, const Symbol* elem) {
  LinearForm f = linearize(e);
  if (f.is_unit_in(elem)) return f.constant;
  return std::nullopt;
}

}  // namespace uc::xform
