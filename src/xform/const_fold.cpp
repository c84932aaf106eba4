#include "xform/const_fold.hpp"

#include <cmath>
#include <optional>

#include "uclang/arith.hpp"
#include "uclang/symbols.hpp"

namespace uc::xform {

using namespace lang;

namespace {

struct Folder {
  std::size_t replaced = 0;

  using Const = arith::Num;

  std::optional<Const> constant_of(const Expr& e) {
    if (e.kind == ExprKind::kIntLit) {
      return Const::of_int(static_cast<const IntLitExpr&>(e).value);
    }
    if (e.kind == ExprKind::kFloatLit) {
      return Const::of_float(static_cast<const FloatLitExpr&>(e).value);
    }
    return std::nullopt;
  }

  // Replaces e by the literal v.  A non-finite float (a division by zero,
  // a NaN) is left unfolded: its literal would not print back through
  // codegen/pretty.
  void replace_with(ExprPtr& e, const Const& v) {
    if (v.is_float && !std::isfinite(v.f)) return;
    ExprPtr lit;
    if (v.is_float) {
      auto fl = std::make_unique<FloatLitExpr>();
      fl->value = v.f;
      lit = std::move(fl);
    } else {
      auto il = std::make_unique<IntLitExpr>();
      il->value = v.i;
      lit = std::move(il);
    }
    lit->range = e->range;
    e = std::move(lit);
    ++replaced;
  }

  void fold(ExprPtr& e) {
    switch (e->kind) {
      case ExprKind::kIdent: {
        auto& id = static_cast<IdentExpr&>(*e);
        if (id.symbol != nullptr && id.symbol->has_const_value) {
          replace_with(e, Const::of_int(id.symbol->const_value));
        }
        return;
      }
      case ExprKind::kSubscript: {
        auto& s = static_cast<SubscriptExpr&>(*e);
        for (auto& idx : s.indices) fold(idx);
        return;
      }
      case ExprKind::kCall: {
        auto& c = static_cast<CallExpr&>(*e);
        for (auto& a : c.args) fold(a);
        return;
      }
      case ExprKind::kUnary: {
        auto& u = static_cast<UnaryExpr&>(*e);
        fold(u.operand);
        if (auto v = constant_of(*u.operand)) {
          replace_with(e, arith::unary(u.op, *v));
        }
        return;
      }
      case ExprKind::kBinary: {
        auto& b = static_cast<BinaryExpr&>(*e);
        fold(b.lhs);
        fold(b.rhs);
        auto l = constant_of(*b.lhs);
        auto r = constant_of(*b.rhs);
        if (!l || !r) return;
        // A zero int divisor keeps its runtime error.
        if (auto v = arith::binary(b.op, *l, *r)) replace_with(e, *v);
        return;
      }
      case ExprKind::kAssign: {
        auto& a = static_cast<AssignExpr&>(*e);
        // Fold subscripts on the left, the full right side.
        if (a.lhs->kind == ExprKind::kSubscript) fold(a.lhs);
        fold(a.rhs);
        return;
      }
      case ExprKind::kTernary: {
        auto& t = static_cast<TernaryExpr&>(*e);
        fold(t.cond);
        fold(t.then_expr);
        fold(t.else_expr);
        auto c = constant_of(*t.cond);
        if (!c) return;
        // The surviving arm replaces the ternary only with the ternary's
        // type (the usual arithmetic conversions): a literal converts, and
        // any other arm must already have it.
        ExprPtr& arm = c->as_float() != 0.0 ? t.then_expr : t.else_expr;
        const bool flt = t.type.is_float();
        if (auto v = constant_of(*arm)) {
          replace_with(e, flt ? Const::of_float(v->as_float())
                              : Const::of_int(v->as_int()));
          return;
        }
        if (arm->type.is_float() != flt) return;
        // Detach the surviving arm before the ternary node (and with it
        // the other arm) is destroyed by the assignment to e.
        ExprPtr taken = std::move(arm);
        e = std::move(taken);
        ++replaced;
        return;
      }
      case ExprKind::kReduce: {
        auto& r = static_cast<ReduceExpr&>(*e);
        for (auto& arm : r.arms) {
          if (arm.pred) fold(arm.pred);
          fold(arm.value);
        }
        if (r.others) fold(r.others);
        return;
      }
      case ExprKind::kIncDec:
        return;  // operand is an lvalue; nothing to fold
      default:
        return;
    }
  }

  void fold_stmt(Stmt& s) {
    switch (s.kind) {
      case StmtKind::kExpr:
        fold(static_cast<ExprStmt&>(s).expr);
        return;
      case StmtKind::kCompound:
        for (auto& child : static_cast<CompoundStmt&>(s).body) {
          fold_stmt(*child);
        }
        return;
      case StmtKind::kIf: {
        auto& i = static_cast<IfStmt&>(s);
        fold(i.cond);
        fold_stmt(*i.then_stmt);
        if (i.else_stmt) fold_stmt(*i.else_stmt);
        return;
      }
      case StmtKind::kWhile: {
        auto& w = static_cast<WhileStmt&>(s);
        fold(w.cond);
        fold_stmt(*w.body);
        return;
      }
      case StmtKind::kFor: {
        auto& f = static_cast<ForStmt&>(s);
        if (f.init) fold_stmt(*f.init);
        if (f.cond) fold(f.cond);
        if (f.step) fold(f.step);
        fold_stmt(*f.body);
        return;
      }
      case StmtKind::kReturn: {
        auto& r = static_cast<ReturnStmt&>(s);
        if (r.value) fold(r.value);
        return;
      }
      case StmtKind::kVarDecl: {
        auto& d = static_cast<VarDeclStmt&>(s);
        for (auto& dec : d.declarators) {
          for (auto& dim : dec.dim_exprs) fold(dim);
          if (dec.init) fold(dec.init);
        }
        return;
      }
      case StmtKind::kUcConstruct: {
        auto& u = static_cast<UcConstructStmt&>(s);
        for (auto& block : u.blocks) {
          if (block.pred) fold(block.pred);
          fold_stmt(*block.body);
        }
        if (u.others) fold_stmt(*u.others);
        return;
      }
      case StmtKind::kIndexSetDecl: {
        auto& d = static_cast<IndexSetDeclStmt&>(s);
        for (auto& def : d.defs) {
          if (def.range_lo) fold(def.range_lo);
          if (def.range_hi) fold(def.range_hi);
          for (auto& v : def.listed) fold(v);
        }
        return;
      }
      case StmtKind::kMapSection: {
        auto& m = static_cast<MapSectionStmt&>(s);
        for (auto& mapping : m.mappings) {
          for (auto& sub : mapping.target_subscripts) fold(sub);
          for (auto& sub : mapping.source_subscripts) fold(sub);
        }
        return;
      }
      default:
        return;
    }
  }
};

}  // namespace

std::size_t fold_expr(ExprPtr& e) {
  Folder folder;
  folder.fold(e);
  return folder.replaced;
}

std::size_t fold_constants(Program& program) {
  Folder folder;
  for (auto& item : program.items) {
    if (item.decl) folder.fold_stmt(*item.decl);
    if (item.func && item.func->body) folder.fold_stmt(*item.func->body);
  }
  return folder.replaced;
}

}  // namespace uc::xform
