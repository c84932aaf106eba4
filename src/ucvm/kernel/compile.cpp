// Lowering from sema'd expression trees to lane-kernel bytecode.
//
// The lowering mirrors Impl::eval in interp_expr.cpp operation for
// operation: the same evaluation order, the same classification points,
// the same coercions and the same error sites, so a compiled statement is
// observationally identical to the tree walk.  Anything the lowering does
// not cover is rejected by can_compile_expr and runs on the walk engine.
#include <bit>
#include <vector>

#include "ucvm/kernel/bytecode.hpp"

#include "uclang/arith.hpp"
#include "uclang/symbols.hpp"

namespace uc::vm::detail::kernel {

using lang::AssignOp;
using lang::BinaryOp;
using lang::BuiltinId;
using lang::Expr;
using lang::ExprKind;
using lang::Symbol;
using lang::SymbolKind;

namespace {

bool is_scalar_var(const Symbol* sym) {
  if (sym == nullptr) return false;
  if (sym->kind != SymbolKind::kGlobalVar &&
      sym->kind != SymbolKind::kLocalVar && sym->kind != SymbolKind::kParam) {
    return false;
  }
  return !sym->type.is_array();
}

// An assignable / subscriptable site the lowering understands.  The walk
// raises errors for anything else ("expression is not assignable", arrays
// used as scalars); rejecting here routes those statements to the walk so
// the error text and timing stay identical.
bool is_array_base(const Expr& e) {
  if (e.kind != ExprKind::kIdent) return false;
  const auto* sym = static_cast<const lang::IdentExpr&>(e).symbol;
  return sym != nullptr && (sym->kind == SymbolKind::kGlobalVar ||
                            sym->kind == SymbolKind::kLocalVar ||
                            sym->kind == SymbolKind::kParam);
}

bool can_compile(const Expr& e, bool in_reduce) {
  switch (e.kind) {
    case ExprKind::kIntLit:
    case ExprKind::kFloatLit:
      return true;
    case ExprKind::kStringLit:
      return false;  // meaningful only inside print(), which we reject
    case ExprKind::kIdent: {
      const auto* sym = static_cast<const lang::IdentExpr&>(e).symbol;
      if (sym == nullptr) return false;
      if (sym->has_const_value) return true;
      if (sym->kind == SymbolKind::kIndexElem) return true;
      return is_scalar_var(sym);
    }
    case ExprKind::kSubscript: {
      const auto& s = static_cast<const lang::SubscriptExpr&>(e);
      if (!is_array_base(*s.base)) return false;
      if (s.indices.size() > kMaxSubscripts) return false;
      for (const auto& idx : s.indices) {
        if (!can_compile(*idx, in_reduce)) return false;
      }
      return true;
    }
    case ExprKind::kCall: {
      const auto& c = static_cast<const lang::CallExpr&>(e);
      if (c.symbol == nullptr || c.symbol->kind != SymbolKind::kBuiltin) {
        return false;  // user functions keep the full walk machinery
      }
      std::size_t want_args = 0;
      switch (static_cast<BuiltinId>(c.symbol->builtin_id)) {
        case BuiltinId::kPower2:
        case BuiltinId::kAbs:
          want_args = 1;
          break;
        case BuiltinId::kRand:
          want_args = 0;
          break;
        case BuiltinId::kMin2:
        case BuiltinId::kMax2:
          want_args = 2;
          break;
        case BuiltinId::kSrand:   // front-end global state
        case BuiltinId::kSwap:    // double-lvalue side effect
        case BuiltinId::kPrint:   // per-lane output buffers
          return false;
      }
      if (c.args.size() != want_args) return false;
      for (const auto& a : c.args) {
        if (!can_compile(*a, in_reduce)) return false;
      }
      return true;
    }
    case ExprKind::kUnary:
      return can_compile(*static_cast<const lang::UnaryExpr&>(e).operand,
                         in_reduce);
    case ExprKind::kBinary: {
      const auto& b = static_cast<const lang::BinaryExpr&>(e);
      return can_compile(*b.lhs, in_reduce) && can_compile(*b.rhs, in_reduce);
    }
    case ExprKind::kAssign: {
      const auto& a = static_cast<const lang::AssignExpr&>(e);
      const bool lhs_ok =
          (a.lhs->kind == ExprKind::kIdent &&
           is_scalar_var(static_cast<const lang::IdentExpr&>(*a.lhs).symbol)) ||
          (a.lhs->kind == ExprKind::kSubscript &&
           can_compile(*a.lhs, in_reduce));
      return lhs_ok && can_compile(*a.rhs, in_reduce);
    }
    case ExprKind::kTernary: {
      const auto& t = static_cast<const lang::TernaryExpr&>(e);
      return can_compile(*t.cond, in_reduce) &&
             can_compile(*t.then_expr, in_reduce) &&
             can_compile(*t.else_expr, in_reduce);
    }
    case ExprKind::kReduce: {
      if (in_reduce) return false;  // nested reductions stay on the walk
      const auto& r = static_cast<const lang::ReduceExpr&>(e);
      if (r.index_set_syms.size() != r.index_sets.size()) return false;
      if (r.index_set_syms.empty() ||
          r.index_set_syms.size() > kMaxReduceSets) {
        return false;
      }
      for (const Symbol* s : r.index_set_syms) {
        if (s == nullptr || s->index_set == nullptr ||
            s->index_set->elem == nullptr) {
          return false;
        }
      }
      for (const auto& arm : r.arms) {
        if (arm.pred && !can_compile(*arm.pred, /*in_reduce=*/true)) {
          return false;
        }
        if (!can_compile(*arm.value, /*in_reduce=*/true)) return false;
      }
      if (r.others && !can_compile(*r.others, /*in_reduce=*/true)) {
        return false;
      }
      return true;
    }
    case ExprKind::kIncDec: {
      const auto& i = static_cast<const lang::IncDecExpr&>(e);
      if (i.operand->kind == ExprKind::kIdent) {
        return is_scalar_var(
            static_cast<const lang::IdentExpr&>(*i.operand).symbol);
      }
      if (i.operand->kind == ExprKind::kSubscript) {
        return can_compile(*i.operand, in_reduce);
      }
      return false;
    }
  }
  return false;
}

// A right operand of && or || that the lowering evaluates on every lane
// (docs/VM.md "Selection blocks"): literals, index elements and scalar
// variables under unary and binary operators other than / and %.  It
// classifies no access, raises no error, draws no random number and
// writes nothing, so running it where the walk's short circuit skips it
// changes no output, error or cost.  (Sema gives the operators that
// truncate to int int operands only, so none meets a NaN.)
bool pure_total(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kIntLit:
    case ExprKind::kFloatLit:
      return true;
    case ExprKind::kIdent: {
      const auto* sym = static_cast<const lang::IdentExpr&>(e).symbol;
      return sym != nullptr &&
             (sym->has_const_value || sym->kind == SymbolKind::kIndexElem ||
              is_scalar_var(sym));
    }
    case ExprKind::kUnary:
      return pure_total(*static_cast<const lang::UnaryExpr&>(e).operand);
    case ExprKind::kBinary: {
      const auto& b = static_cast<const lang::BinaryExpr&>(e);
      return b.op != BinaryOp::kDiv && b.op != BinaryOp::kMod &&
             pure_total(*b.lhs) && pure_total(*b.rhs);
    }
    default:
      return false;
  }
}

class Lowerer {
 public:
  explicit Lowerer(Kernel& k) : k_(k) {}

  // Lowers one statement, or several consecutive ones into one kernel.
  // Members 1..n-1 are preceded by a kMemberBoundary (a = member index) so
  // the executor can switch its stats slot and reseed the lane RNG; only
  // the last member's value is returned.  With `select`, member 0 is a
  // selection block's guard: a kSelect on its value sends the lanes it
  // disables straight to the kRet.
  void lower(const Expr* const* stmts, std::size_t n, bool select) {
    std::uint16_t r = 0;
    std::size_t exit = 0;
    for (std::size_t m = 0; m < n; ++m) {
      if (m != 0) {
        emit(Op::kMemberBoundary, 0, 0, static_cast<std::uint16_t>(m));
      }
      r = expr(*stmts[m]);
      if (m == 0 && select) exit = emit(Op::kSelect, 0, 0, r);
    }
    if (select) patch(exit);
    emit(Op::kRet, 0, 0, r);
    k_.num_members = static_cast<std::uint32_t>(n);
    k_.num_regs = next_reg_;
  }

 private:
  Kernel& k_;
  std::uint32_t next_reg_ = 0;
  const lang::ReduceExpr* cur_reduce_ = nullptr;
  std::int32_t cur_reduce_slot_ = -1;

  std::uint16_t alloc() { return static_cast<std::uint16_t>(next_reg_++); }

  std::size_t emit(Op op, std::uint8_t arg = 0, std::uint16_t dst = 0,
                   std::uint16_t a = 0, std::uint16_t b = 0,
                   std::uint16_t c = 0, const Expr* where = nullptr) {
    Inst i;
    i.op = op;
    i.arg = arg;
    i.dst = dst;
    i.a = a;
    i.b = b;
    i.c = c;
    i.where = where;
    k_.code.push_back(i);
    return k_.code.size() - 1;
  }

  // Points the jump of instruction `at` just past the current end.
  void patch(std::size_t at) {
    k_.code[at].jump = static_cast<std::int32_t>(k_.code.size());
  }

  std::uint16_t pool_const(const Value& v) {
    return kernel::pool_const(k_, v);
  }

  std::uint16_t elem_slot(const Symbol* sym) {
    for (std::size_t i = 0; i < k_.elems.size(); ++i) {
      if (k_.elems[i].sym == sym) return static_cast<std::uint16_t>(i);
    }
    k_.elems.push_back(ElemRef{sym});
    return static_cast<std::uint16_t>(k_.elems.size() - 1);
  }

  std::uint16_t scalar_slot(const Symbol* sym) {
    for (std::size_t i = 0; i < k_.scalars.size(); ++i) {
      if (k_.scalars[i].sym == sym) return static_cast<std::uint16_t>(i);
    }
    k_.scalars.push_back(ScalarRef{sym});
    return static_cast<std::uint16_t>(k_.scalars.size() - 1);
  }

  std::uint16_t array_slot(const Symbol* sym) {
    for (std::size_t i = 0; i < k_.arrays.size(); ++i) {
      if (k_.arrays[i].sym == sym && k_.arrays[i].reduce == cur_reduce_slot_) {
        return static_cast<std::uint16_t>(i);
      }
    }
    k_.arrays.push_back(ArrayRef{sym, cur_reduce_slot_});
    return static_cast<std::uint16_t>(k_.arrays.size() - 1);
  }

  struct Addr {
    std::uint16_t site = 0;
    std::uint16_t flat = 0;
  };

  // Lowers `e` into the caller-chosen register when it is a leaf (no kMove
  // needed); compound index expressions evaluate into their own register
  // and move.  Evaluation order is unchanged either way.
  void expr_into(const Expr& e, std::uint16_t dst) {
    switch (e.kind) {
      case ExprKind::kIntLit:
        emit(Op::kConst, 0, dst,
             pool_const(Value::of_int(
                 static_cast<const lang::IntLitExpr&>(e).value)));
        return;
      case ExprKind::kFloatLit:
        emit(Op::kConst, 0, dst,
             pool_const(Value::of_float(
                 static_cast<const lang::FloatLitExpr&>(e).value)));
        return;
      case ExprKind::kIdent: {
        const auto& id = static_cast<const lang::IdentExpr&>(e);
        const Symbol* sym = id.symbol;
        if (sym->has_const_value) {
          emit(Op::kConst, 0, dst, pool_const(Value::of_int(sym->const_value)));
          return;
        }
        if (sym->kind == SymbolKind::kIndexElem) {
          // A reduction's own elements shadow outer bindings (innermost
          // wins, matching LaneSpace::elem_value's reverse scan).
          if (cur_reduce_ != nullptr) {
            const auto& sets = cur_reduce_->index_set_syms;
            for (std::size_t k = sets.size(); k-- > 0;) {
              if (sets[k]->index_set->elem == sym) {
                emit(Op::kLoadReduceElem, 0, dst, 0,
                     static_cast<std::uint16_t>(k));
                return;
              }
            }
          }
          emit(Op::kLoadElem, 0, dst, elem_slot(sym));
          return;
        }
        emit(Op::kLoadScalar, 0, dst, scalar_slot(sym));
        return;
      }
      default:
        break;
    }
    const std::uint16_t r = expr(e);
    emit(Op::kMove, 0, dst, r);
  }

  // Evaluates the subscripts in order into a contiguous register block.
  // Returns the block start; the caller emits the indexing instruction
  // (kArrIndex or fused kArrGet, both with the walk's "array subscript out
  // of range" bounds check).
  std::uint16_t subscript_block(const lang::SubscriptExpr& sub) {
    const auto n = static_cast<std::uint16_t>(sub.indices.size());
    const auto block = static_cast<std::uint16_t>(next_reg_);
    next_reg_ += n;
    for (std::uint16_t k = 0; k < n; ++k) {
      expr_into(*sub.indices[k], static_cast<std::uint16_t>(block + k));
    }
    return block;
  }

  Addr subscript_addr(const lang::SubscriptExpr& sub) {
    const auto& id = static_cast<const lang::IdentExpr&>(*sub.base);
    const std::uint16_t site = array_slot(id.symbol);
    const std::uint16_t block = subscript_block(sub);
    const std::uint16_t flat = alloc();
    emit(Op::kArrIndex, 0, flat, site, block,
         static_cast<std::uint16_t>(sub.indices.size()), &sub);
    return Addr{site, flat};
  }

  std::uint16_t expr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kIntLit:
      case ExprKind::kFloatLit:
      case ExprKind::kIdent: {
        const std::uint16_t r = alloc();
        expr_into(e, r);
        return r;
      }
      case ExprKind::kSubscript: {
        // Rvalue read: one fused index+classify+load instruction (same
        // order and error site as the unfused walk sequence).
        const auto& sub = static_cast<const lang::SubscriptExpr&>(e);
        const auto& id = static_cast<const lang::IdentExpr&>(*sub.base);
        const std::uint16_t site = array_slot(id.symbol);
        const std::uint16_t block = subscript_block(sub);
        const std::uint16_t r = alloc();
        emit(Op::kArrGet, 0, r, site, block,
             static_cast<std::uint16_t>(sub.indices.size()), &sub);
        return r;
      }
      case ExprKind::kCall:
        return call(static_cast<const lang::CallExpr&>(e));
      case ExprKind::kUnary: {
        const auto& u = static_cast<const lang::UnaryExpr&>(e);
        const std::uint16_t v = expr(*u.operand);
        const std::uint16_t r = alloc();
        emit(Op::kUnary, static_cast<std::uint8_t>(u.op), r, v);
        return r;
      }
      case ExprKind::kBinary: {
        const auto& b = static_cast<const lang::BinaryExpr&>(e);
        // A pure and total right operand runs on every lane: one
        // kBinary instead of a split of the block (pure_total).
        if ((b.op == BinaryOp::kLogAnd || b.op == BinaryOp::kLogOr) &&
            !pure_total(*b.rhs)) {
          const bool is_and = b.op == BinaryOp::kLogAnd;
          const std::uint16_t dst = alloc();
          const std::uint16_t l = expr(*b.lhs);
          const std::size_t shortcut =
              emit(is_and ? Op::kJumpIfFalse : Op::kJumpIfTrue, 0, 0, l);
          const std::uint16_t r = expr(*b.rhs);
          emit(Op::kBool, 0, dst, r);
          const std::size_t done = emit(Op::kJump);
          patch(shortcut);
          emit(Op::kConst, 0, dst, pool_const(Value::of_bool(!is_and)));
          patch(done);
          return dst;
        }
        const std::uint16_t l = expr(*b.lhs);
        const std::uint16_t r = expr(*b.rhs);
        const std::uint16_t dst = alloc();
        emit(Op::kBinary, static_cast<std::uint8_t>(b.op), dst, l, r, 0, &e);
        return dst;
      }
      case ExprKind::kAssign:
        return assign(static_cast<const lang::AssignExpr&>(e));
      case ExprKind::kTernary: {
        const auto& t = static_cast<const lang::TernaryExpr&>(e);
        const std::uint16_t dst = alloc();
        const std::uint16_t c = expr(*t.cond);
        const std::size_t to_else = emit(Op::kJumpIfFalse, 0, 0, c);
        arm_into(*t.then_expr, t.type, dst);
        const std::size_t done = emit(Op::kJump);
        patch(to_else);
        arm_into(*t.else_expr, t.type, dst);
        patch(done);
        return dst;
      }
      case ExprKind::kReduce:
        return reduce(static_cast<const lang::ReduceExpr&>(e));
      case ExprKind::kIncDec:
        return incdec(static_cast<const lang::IncDecExpr&>(e));
      case ExprKind::kStringLit:
        break;  // unreachable: can_compile rejected it
    }
    const std::uint16_t r = alloc();
    emit(Op::kConst, 0, r, pool_const(Value::of_int(0)));
    return r;
  }

  // A ?: arm into the ternary's register, converted to the ternary's
  // type (the walk's coercion) when its own type differs.
  void arm_into(const Expr& arm, const lang::Type& type, std::uint16_t dst) {
    const std::uint16_t v = expr(arm);
    if (arm.type.is_float() == type.is_float()) {
      emit(Op::kMove, 0, dst, v);
    } else {
      emit(Op::kCoerce, static_cast<std::uint8_t>(type.scalar), dst, v);
    }
  }

  std::uint16_t assign(const lang::AssignExpr& a) {
    // Walk order: rhs first, then lhs resolution (subscripts + bounds),
    // then compound read/classify/combine, coercion to the lhs type,
    // write-side classification (+ broadcast for replicated arrays), and
    // finally the buffered store.
    std::uint16_t result = expr(*a.rhs);
    const BinaryOp op = lang::arith::compound_op(a.op);
    const bool compound = a.op != AssignOp::kAssign;
    const auto scalar = static_cast<std::uint8_t>(a.lhs->type.scalar);
    if (a.lhs->kind == ExprKind::kIdent) {
      const auto& id = static_cast<const lang::IdentExpr&>(*a.lhs);
      const std::uint16_t slot = scalar_slot(id.symbol);
      if (compound) {
        const std::uint16_t old = alloc();
        emit(Op::kLoadScalar, 0, old, slot);
        const std::uint16_t tmp = alloc();
        emit(Op::kBinary, static_cast<std::uint8_t>(op), tmp, old, result, 0,
             &a);
        result = tmp;
      }
      const std::uint16_t coerced = alloc();
      emit(Op::kCoerce, scalar, coerced, result);
      emit(Op::kStoreScalar, 0, 0, slot, coerced, 0, &a);
      return coerced;
    }
    const auto& sub = static_cast<const lang::SubscriptExpr&>(*a.lhs);
    const Addr addr = subscript_addr(sub);
    if (compound) {
      const std::uint16_t old = alloc();
      emit(Op::kArrLoad, 0, old, addr.site, addr.flat);
      emit(Op::kClassify, 0, 0, addr.site, addr.flat);
      const std::uint16_t tmp = alloc();
      emit(Op::kBinary, static_cast<std::uint8_t>(op), tmp, old, result, 0,
           &a);
      result = tmp;
    }
    const std::uint16_t coerced = alloc();
    emit(Op::kCoerce, scalar, coerced, result);
    // Fused classify + broadcast check (arg bit0) + buffered store.
    emit(Op::kArrPut, 1, 0, addr.site, addr.flat, coerced, &a);
    return coerced;
  }

  std::uint16_t incdec(const lang::IncDecExpr& i) {
    // Walk order: resolve, read (no classification), bump without
    // coercion, classify array targets, buffered store.
    const std::uint8_t arg = i.is_increment ? 1 : 0;
    if (i.operand->kind == ExprKind::kIdent) {
      const auto& id = static_cast<const lang::IdentExpr&>(*i.operand);
      const std::uint16_t slot = scalar_slot(id.symbol);
      const std::uint16_t old = alloc();
      emit(Op::kLoadScalar, 0, old, slot);
      const std::uint16_t next = alloc();
      emit(Op::kIncDec, arg, next, old);
      emit(Op::kStoreScalar, 0, 0, slot, next, 0, &i);
      return i.is_prefix ? next : old;
    }
    const auto& sub = static_cast<const lang::SubscriptExpr&>(*i.operand);
    const Addr addr = subscript_addr(sub);
    const std::uint16_t old = alloc();
    emit(Op::kArrLoad, 0, old, addr.site, addr.flat);
    const std::uint16_t next = alloc();
    emit(Op::kIncDec, arg, next, old);
    // Fused classify + buffered store (no broadcast check: the walk's
    // inc/dec path does not broadcast).
    emit(Op::kArrPut, 0, 0, addr.site, addr.flat, next, &i);
    return i.is_prefix ? next : old;
  }

  std::uint16_t call(const lang::CallExpr& c) {
    switch (static_cast<BuiltinId>(c.symbol->builtin_id)) {
      case BuiltinId::kPower2: {
        const std::uint16_t v = expr(*c.args[0]);
        const std::uint16_t r = alloc();
        emit(Op::kPower2, 0, r, v, 0, 0, &c);
        return r;
      }
      case BuiltinId::kRand: {
        const std::uint16_t r = alloc();
        emit(Op::kRand, 0, r);
        k_.uses_rand = true;
        return r;
      }
      case BuiltinId::kAbs: {
        const std::uint16_t v = expr(*c.args[0]);
        const std::uint16_t r = alloc();
        emit(Op::kAbs, 0, r, v);
        return r;
      }
      case BuiltinId::kMin2:
      case BuiltinId::kMax2: {
        const std::uint16_t x = expr(*c.args[0]);
        const std::uint16_t y = expr(*c.args[1]);
        const std::uint16_t r = alloc();
        const bool is_min =
            static_cast<BuiltinId>(c.symbol->builtin_id) == BuiltinId::kMin2;
        emit(Op::kMinMax, is_min ? 1 : 0, r, x, y);
        return r;
      }
      case BuiltinId::kSrand:
      case BuiltinId::kSwap:
      case BuiltinId::kPrint:
        break;  // unreachable: can_compile rejected them
    }
    const std::uint16_t r = alloc();
    emit(Op::kConst, 0, r, pool_const(Value::of_int(0)));
    return r;
  }

  // Lowers an arm predicate as a chain of test-and-exit branches: every
  // kLogAnd conjunct is evaluated in order and a false conjunct jumps to
  // the (caller-patched) fold-skip point.  Leaves other than && lower
  // normally, so || keeps its materialised short-circuit form.
  void pred_exits(const Expr& e, std::vector<std::size_t>& exits) {
    if (e.kind == ExprKind::kBinary) {
      const auto& b = static_cast<const lang::BinaryExpr&>(e);
      if (b.op == BinaryOp::kLogAnd) {
        pred_exits(*b.lhs, exits);
        pred_exits(*b.rhs, exits);
        return;
      }
    }
    const std::uint16_t p = expr(e);
    exits.push_back(emit(Op::kJumpIfFalse, 0, 0, p));
  }

  std::uint16_t reduce(const lang::ReduceExpr& red) {
    k_.reduces.push_back(ReduceRef{&red});
    const auto slot = static_cast<std::uint16_t>(k_.reduces.size() - 1);
    const std::uint16_t dst = alloc();

    const auto* saved_reduce = cur_reduce_;
    const auto saved_slot = cur_reduce_slot_;
    cur_reduce_ = &red;
    cur_reduce_slot_ = static_cast<std::int32_t>(slot);

    // kReduceBegin's jump exits straight to kReduceEnd when the tuple
    // product is empty (the walk then returns the identity).
    const std::size_t begin = emit(Op::kReduceBegin, 0, 0, slot);
    const auto loop_start = static_cast<std::int32_t>(k_.code.size());
    for (const auto& arm : red.arms) {
      if (arm.pred) {
        // Branch-chain lowering: each && conjunct tests-and-exits directly
        // instead of materialising the boolean, so the predicate and the
        // value form one extended basic block and the optimiser's value
        // numbering reaches across them.  Evaluation order and
        // short-circuiting are unchanged.
        std::vector<std::size_t> exits;
        pred_exits(*arm.pred, exits);
        const std::uint16_t v = expr(*arm.value);
        emit(Op::kReduceFold, 0, 0, v);
        for (const std::size_t at : exits) patch(at);
      } else {
        const std::uint16_t v = expr(*arm.value);
        emit(Op::kReduceFold, 0, 0, v);
      }
    }
    if (red.others) {
      const std::size_t skip = emit(Op::kReduceSkipOthers);
      const std::uint16_t v = expr(*red.others);
      emit(Op::kReduceFold, 0, 0, v);
      patch(skip);
    }
    const std::size_t next = emit(Op::kReduceNext);
    k_.code[next].jump = loop_start;
    patch(begin);
    emit(Op::kReduceEnd, 0, dst, slot);

    cur_reduce_ = saved_reduce;
    cur_reduce_slot_ = saved_slot;
    return dst;
  }
};

// Kernel-static facts the executor and the native emitter read: register
// types and the per-lane write bound (finite unless a store sits in a
// reduction's tuple loop).  False when the registers do not type.
bool finish(Kernel& k) {
  if (!type_kernel(k, k.types)) return false;
  bool in_reduce = false;
  for (const Inst& i : k.code) {
    switch (i.op) {
      case Op::kReduceBegin:
        in_reduce = i.arg == 0;  // an unrolled reduction is straight-line
        break;
      case Op::kReduceEnd:
        in_reduce = false;
        break;
      case Op::kStoreScalar:
      case Op::kArrStore:
      case Op::kArrPut:
        if (in_reduce) {
          k.writes_per_lane = -1;
          return true;
        }
        ++k.writes_per_lane;
        break;
      default:
        break;
    }
  }
  return true;
}

}  // namespace

// Bit-identical Value comparison (Value::operator== compares across
// representations, which would merge of_int(1) with of_float(1.0)).
std::uint16_t pool_const(Kernel& k, const Value& v) {
  for (std::size_t i = 0; i < k.pool.size(); ++i) {
    const Value& p = k.pool[i];
    const auto bits = [](double f) { return std::bit_cast<std::uint64_t>(f); };
    if (p.is_float == v.is_float && p.i == v.i && bits(p.f) == bits(v.f)) {
      return static_cast<std::uint16_t>(i);
    }
  }
  k.pool.push_back(v);
  return static_cast<std::uint16_t>(k.pool.size() - 1);
}

bool can_compile_expr(const Expr& e) { return can_compile(e, false); }

namespace {

std::unique_ptr<Kernel> compile(const Expr* const* stmts, std::size_t n,
                                bool select) {
  if (n == 0) return nullptr;
  for (std::size_t m = 0; m < n; ++m) {
    if (stmts[m] == nullptr || !can_compile_expr(*stmts[m])) return nullptr;
  }
  auto kernel = std::make_unique<Kernel>();
  Lowerer(*kernel).lower(stmts, n, select);
  // Registers are never reused, so a pathological fusion could overflow
  // the 16-bit register file; decline and let the members run unfused.
  if (kernel->num_regs > kMaxKernelRegs) return nullptr;
  if (!optimize_kernel(*kernel) || !finish(*kernel)) return nullptr;
  return kernel;
}

}  // namespace

std::unique_ptr<Kernel> compile_fused(const Expr* const* stmts,
                                      std::size_t n) {
  return compile(stmts, n, /*select=*/false);
}

std::unique_ptr<Kernel> compile_expr(const Expr& e) {
  const Expr* one[1] = {&e};
  return compile_fused(one, 1);
}

std::unique_ptr<Kernel> compile_selection(const Expr& guard,
                                          const Expr* const* body,
                                          std::size_t n) {
  std::vector<const Expr*> stmts{&guard};
  stmts.insert(stmts.end(), body, body + n);
  auto kernel = compile(stmts.data(), stmts.size(), /*select=*/true);
  if (kernel == nullptr) return nullptr;
  for (const Inst& i : kernel->code) {
    if (i.op == Op::kSelect) break;
    if (i.op == Op::kStoreScalar || i.op == Op::kArrStore ||
        i.op == Op::kArrPut) {
      return nullptr;  // the guard has a side effect
    }
  }
  return kernel;
}

}  // namespace uc::vm::detail::kernel
