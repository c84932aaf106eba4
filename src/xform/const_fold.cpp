#include "xform/const_fold.hpp"

#include <optional>

#include "support/wrap.hpp"
#include "uclang/symbols.hpp"

namespace uc::xform {

using namespace lang;

namespace {

struct Folder {
  std::size_t replaced = 0;

  // A known scalar constant, either int or float.
  struct Const {
    bool is_float = false;
    std::int64_t i = 0;
    double f = 0.0;
    double as_f() const { return is_float ? f : static_cast<double>(i); }
  };

  std::optional<Const> constant_of(const Expr& e) {
    if (e.kind == ExprKind::kIntLit) {
      return Const{false, static_cast<const IntLitExpr&>(e).value, 0.0};
    }
    if (e.kind == ExprKind::kFloatLit) {
      return Const{true, 0, static_cast<const FloatLitExpr&>(e).value};
    }
    return std::nullopt;
  }

  void replace_with_int(ExprPtr& e, std::int64_t v) {
    auto lit = std::make_unique<IntLitExpr>();
    lit->value = v;
    lit->range = e->range;
    e = std::move(lit);
    ++replaced;
  }

  void replace_with_float(ExprPtr& e, double v) {
    auto lit = std::make_unique<FloatLitExpr>();
    lit->value = v;
    lit->range = e->range;
    e = std::move(lit);
    ++replaced;
  }

  void fold(ExprPtr& e) {
    switch (e->kind) {
      case ExprKind::kIdent: {
        auto& id = static_cast<IdentExpr&>(*e);
        if (id.symbol != nullptr && id.symbol->has_const_value) {
          replace_with_int(e, id.symbol->const_value);
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
        auto v = constant_of(*u.operand);
        if (!v) return;
        switch (u.op) {
          case UnaryOp::kNeg:
            if (v->is_float) {
              replace_with_float(e, -v->f);
            } else {
              replace_with_int(e, support::wrap_neg(v->i));
            }
            return;
          case UnaryOp::kNot:
            replace_with_int(e, v->as_f() == 0.0 ? 1 : 0);
            return;
          case UnaryOp::kBitNot:
            if (!v->is_float) replace_with_int(e, ~v->i);
            return;
          case UnaryOp::kPlus:
            if (v->is_float) {
              replace_with_float(e, v->f);
            } else {
              replace_with_int(e, v->i);
            }
            return;
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
        const bool flt = l->is_float || r->is_float;
        switch (b.op) {
          case BinaryOp::kAdd:
            flt ? replace_with_float(e, l->as_f() + r->as_f())
                : replace_with_int(e, support::wrap_add(l->i, r->i));
            return;
          case BinaryOp::kSub:
            flt ? replace_with_float(e, l->as_f() - r->as_f())
                : replace_with_int(e, support::wrap_sub(l->i, r->i));
            return;
          case BinaryOp::kMul:
            flt ? replace_with_float(e, l->as_f() * r->as_f())
                : replace_with_int(e, support::wrap_mul(l->i, r->i));
            return;
          case BinaryOp::kDiv:
            if (flt) {
              if (r->as_f() != 0.0) replace_with_float(e, l->as_f() / r->as_f());
            } else if (r->i != 0) {
              replace_with_int(e, support::wrap_div(l->i, r->i));
            }
            return;
          case BinaryOp::kMod:
            if (!flt && r->i != 0) {
              replace_with_int(e, support::wrap_mod(l->i, r->i));
            }
            return;
          case BinaryOp::kEq:
            replace_with_int(e, l->as_f() == r->as_f() ? 1 : 0);
            return;
          case BinaryOp::kNe:
            replace_with_int(e, l->as_f() != r->as_f() ? 1 : 0);
            return;
          case BinaryOp::kLt:
            replace_with_int(e, l->as_f() < r->as_f() ? 1 : 0);
            return;
          case BinaryOp::kGt:
            replace_with_int(e, l->as_f() > r->as_f() ? 1 : 0);
            return;
          case BinaryOp::kLe:
            replace_with_int(e, l->as_f() <= r->as_f() ? 1 : 0);
            return;
          case BinaryOp::kGe:
            replace_with_int(e, l->as_f() >= r->as_f() ? 1 : 0);
            return;
          case BinaryOp::kLogAnd:
            replace_with_int(e, l->as_f() != 0.0 && r->as_f() != 0.0 ? 1 : 0);
            return;
          case BinaryOp::kLogOr:
            replace_with_int(e, l->as_f() != 0.0 || r->as_f() != 0.0 ? 1 : 0);
            return;
          case BinaryOp::kBitAnd:
            if (!flt) replace_with_int(e, l->i & r->i);
            return;
          case BinaryOp::kBitOr:
            if (!flt) replace_with_int(e, l->i | r->i);
            return;
          case BinaryOp::kBitXor:
            if (!flt) replace_with_int(e, l->i ^ r->i);
            return;
          case BinaryOp::kShl:
            if (!flt) replace_with_int(e, l->i << (r->i & 63));
            return;
          case BinaryOp::kShr:
            if (!flt) replace_with_int(e, l->i >> (r->i & 63));
            return;
        }
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
        ExprPtr& arm = c->as_f() != 0.0 ? t.then_expr : t.else_expr;
        const bool flt = t.type.is_float();
        if (auto v = constant_of(*arm)) {
          flt ? replace_with_float(e, v->as_f()) : replace_with_int(e, v->i);
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
