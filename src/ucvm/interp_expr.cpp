// Per-lane expression evaluation, lvalue resolution, builtin functions,
// access classification and static cost charging.
#include <algorithm>

#include "support/error.hpp"
#include "support/str.hpp"
#include "uclang/arith.hpp"
#include "ucvm/interp_detail.hpp"
#include "ucvm/kernel/bytecode.hpp"

namespace uc::vm {

std::string Value::to_string() const {
  if (is_float) {
    return support::format("%g", f);
  }
  return std::to_string(i);
}

namespace detail {

using lang::AssignOp;
using lang::BinaryOp;
using lang::BuiltinId;
using lang::ExprKind;
using lang::ReduceKind;
using lang::ScalarKind;
using lang::SymbolKind;
namespace arith = lang::arith;

namespace {

// a op b, raising the engines' shared error for a zero int divisor.
Value binary_or_raise(Impl& vm, BinaryOp op, const Value& a, const Value& b,
                      const Expr& where) {
  if (auto v = arith::binary(op, a, b)) return *v;
  vm.runtime_error(&where, op == BinaryOp::kDiv ? "integer division by zero"
                                                : "modulo by zero");
}

}  // namespace

// ---------------------------------------------------------------------------
// Arrays & access classification
// ---------------------------------------------------------------------------

ArrayPtr Impl::array_of(const Symbol& sym, const EvalCtx& ctx) {
  const FrameSlot* slot = nullptr;
  if (sym.kind == SymbolKind::kGlobalVar) {
    slot = &globals[static_cast<std::size_t>(sym.slot)];
  } else if (ctx.frame != nullptr &&
             static_cast<std::size_t>(sym.slot) < ctx.frame->slots.size()) {
    slot = &ctx.frame->slots[static_cast<std::size_t>(sym.slot)];
  }
  if (slot == nullptr || slot->kind != FrameSlot::Kind::kArray ||
      slot->array == nullptr) {
    throw support::UcRuntimeError("array '" + sym.name +
                                  "' used before its declaration executed");
  }
  return slot->array;
}

void Impl::classify_access(const ArrayObj& arr, std::int64_t flat,
                           EvalCtx& ctx) {
  if (ctx.stats == nullptr || ctx.suppress_comm > 0) return;
  if (ctx.is_frontend()) {
    ++ctx.stats->frontend;
    return;
  }
  if (arr.replicated()) {
    ++ctx.stats->local;  // every VP holds a copy (copy mapping)
    return;
  }
  // The table-reading reference (docs/VM.md "Read classification"); a
  // slice's owners live in its parent's geometry.
  const auto& dims = ctx.space->dims;
  const bool grid =
      !arr.is_slice() && dims.size() <= 8 && dims == arr.dims();
  const std::int64_t* lane_coords =
      dims.empty() ? nullptr
                   : &ctx.space->coords[static_cast<std::size_t>(ctx.lane) *
                                        dims.size()];
  ctx.stats->count(cm::owner_access(
      arr.owner(flat), ctx.space->vps[ctx.lane],
      grid ? arr.coord_table() : nullptr, lane_coords, dims.size(),
      machine.cost_model()));
}

// ---------------------------------------------------------------------------
// Lvalues, reads and writes
// ---------------------------------------------------------------------------

std::optional<WriteTarget> Impl::resolve_lvalue(const Expr& e, EvalCtx& ctx) {
  if (e.kind == ExprKind::kIdent) {
    const auto& id = static_cast<const lang::IdentExpr&>(e);
    const Symbol* sym = id.symbol;
    if (sym == nullptr) runtime_error(&e, "unresolved identifier");
    WriteTarget t;
    if (sym->kind == SymbolKind::kGlobalVar) {
      t.kind = WriteTarget::Kind::kGlobal;
      t.index = sym->slot;
      return t;
    }
    // Local: per-lane storage if any ancestor space declared it.
    std::int64_t owner_lane = 0;
    LaneSpace* owner =
        ctx.space->find_local(sym->slot, ctx.lane, &owner_lane);
    if (owner != nullptr) {
      t.kind = WriteTarget::Kind::kLaneLocal;
      t.obj = owner;
      t.index = sym->slot;
      t.lane = owner_lane;
      return t;
    }
    t.kind = WriteTarget::Kind::kFrame;
    t.obj = ctx.frame;
    t.index = sym->slot;
    return t;
  }
  if (e.kind == ExprKind::kSubscript) {
    const auto& sub = static_cast<const lang::SubscriptExpr&>(e);
    const auto& id = static_cast<const lang::IdentExpr&>(*sub.base);
    ArrayPtr arr = array_of(*id.symbol, ctx);
    std::int64_t idx[8];
    const std::size_t n = std::min<std::size_t>(sub.indices.size(), 8);
    for (std::size_t k = 0; k < n; ++k) {
      idx[k] = eval(*sub.indices[k], ctx).as_int();
      if (ctx.undef) return std::nullopt;
    }
    std::int64_t flat = arr->flatten(idx, n);
    if (flat < 0) {
      std::string what = "array subscript out of range: ";
      what += support::element_name(arr->name(), {idx, n});
      runtime_error(&e, what);
    }
    WriteTarget t;
    t.kind = WriteTarget::Kind::kArray;
    t.obj = arr.get();
    t.index = flat;
    return t;
  }
  runtime_error(&e, "expression is not assignable");
}

Value Impl::read_target(const WriteTarget& t, const EvalCtx& ctx) {
  switch (t.kind) {
    case WriteTarget::Kind::kArray:
      return static_cast<ArrayObj*>(t.obj)->load(t.index);
    case WriteTarget::Kind::kGlobal:
      return globals[static_cast<std::size_t>(t.index)].scalar;
    case WriteTarget::Kind::kFrame:
      return static_cast<Frame*>(t.obj)
          ->slots[static_cast<std::size_t>(t.index)]
          .scalar;
    case WriteTarget::Kind::kLaneLocal: {
      auto* space = static_cast<LaneSpace*>(t.obj);
      return space->locals[static_cast<std::int32_t>(t.index)]
                         [static_cast<std::size_t>(t.lane)];
    }
  }
  (void)ctx;
  return Value::of_int(0);
}

void Impl::write_value(const WriteTarget& t, Value v, const Expr& where,
                       EvalCtx& ctx) {
  if (ctx.writes != nullptr) {
    // Function-call frames entered during this lane's evaluation are
    // private to the call: their locals, arrays included, must update
    // immediately or loops inside the function would never see their own
    // increments.
    if (t.kind == WriteTarget::Kind::kArray) {
      auto* view = static_cast<ArrayObj*>(t.obj);
      if (!view->call_local()) {
        // Buffer against the root array: a slice view made for a
        // per-lane call dies with the call, before the commit.
        WriteTarget root = t;
        root.obj = &view->root();
        root.index += view->root_offset();
        ctx.writes->push_back(Write{root, v, &where});
        return;
      }
    } else if (t.kind != WriteTarget::Kind::kFrame || t.obj != ctx.frame ||
               ctx.frame == ctx.statement_frame) {
      ctx.writes->push_back(Write{t, v, &where});
      return;
    }
  }
  apply_write(t, v);
}

void Impl::apply_write(const WriteTarget& t, const Value& v) {
  switch (t.kind) {
    case WriteTarget::Kind::kArray:
      static_cast<ArrayObj*>(t.obj)->store(t.index, v);
      return;
    case WriteTarget::Kind::kGlobal: {
      auto& slot = globals[static_cast<std::size_t>(t.index)];
      slot.kind = FrameSlot::Kind::kScalar;
      slot.scalar = v;
      return;
    }
    case WriteTarget::Kind::kFrame: {
      auto& slot = static_cast<Frame*>(t.obj)
                       ->slots[static_cast<std::size_t>(t.index)];
      slot.kind = FrameSlot::Kind::kScalar;
      slot.scalar = v;
      return;
    }
    case WriteTarget::Kind::kLaneLocal: {
      auto* space = static_cast<LaneSpace*>(t.obj);
      space->locals[static_cast<std::int32_t>(t.index)]
                   [static_cast<std::size_t>(t.lane)] = v;
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Expression evaluation
// ---------------------------------------------------------------------------

Value Impl::eval(const Expr& e, EvalCtx& ctx) {
  switch (e.kind) {
    case ExprKind::kIntLit:
      return Value::of_int(static_cast<const lang::IntLitExpr&>(e).value);
    case ExprKind::kFloatLit:
      return Value::of_float(static_cast<const lang::FloatLitExpr&>(e).value);
    case ExprKind::kStringLit:
      return Value::of_int(0);  // only meaningful inside print()
    case ExprKind::kIdent: {
      const auto& id = static_cast<const lang::IdentExpr&>(e);
      const Symbol* sym = id.symbol;
      if (sym == nullptr) runtime_error(&e, "unresolved identifier");
      if (sym->has_const_value) return Value::of_int(sym->const_value);
      if (sym->kind == SymbolKind::kIndexElem) {
        auto v = ctx.space->elem_value(sym, ctx.lane);
        if (!v) {
          runtime_error(&e, "index element '" + sym->name +
                                "' is not bound here");
        }
        return Value::of_int(*v);
      }
      auto target = resolve_lvalue(e, ctx);
      if (!target) return Value::of_int(0);
      if (target->kind == WriteTarget::Kind::kArray) {
        runtime_error(&e, "array '" + sym->name + "' used as a scalar");
      }
      return read_target(*target, ctx);
    }
    case ExprKind::kSubscript: {
      auto target = resolve_lvalue(e, ctx);
      if (!target) {
        ctx.undef = true;
        return Value::of_int(0);
      }
      auto* arr = static_cast<ArrayObj*>(target->obj);
      if (ctx.solve_targets != nullptr && ctx.solve_targets->contains(arr) &&
          !arr->is_defined(target->index)) {
        ctx.undef = true;
        return Value::of_int(0);
      }
      // A read the statement's kernel elided is not classified, on any
      // engine (docs/COSTMODEL.md "What an engine may not change").  A
      // forwarded one reads this lane's buffered write from an earlier
      // member of the group, as the kernel's register copy does.
      const kernel::ElidedRead* elided =
          ctx.kernel != nullptr ? ctx.kernel->elided(&e) : nullptr;
      if (elided == nullptr) {
        classify_access(*arr, target->index, ctx);
      } else if (elided->from != nullptr && ctx.writes != nullptr) {
        for (auto w = ctx.writes->rbegin(); w != ctx.writes->rend(); ++w) {
          if (w->where == elided->from) return w->value;
        }
      }
      return read_target(*target, ctx);
    }
    case ExprKind::kCall:
      return eval_call(static_cast<const lang::CallExpr&>(e), ctx);
    case ExprKind::kUnary: {
      const auto& u = static_cast<const lang::UnaryExpr&>(e);
      Value v = eval(*u.operand, ctx);
      if (ctx.undef) return v;
      return arith::unary(u.op, v);
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const lang::BinaryExpr&>(e);
      if (b.op == BinaryOp::kLogAnd) {
        Value l = eval(*b.lhs, ctx);
        if (ctx.undef) return l;
        if (!l.truthy()) return Value::of_bool(false);
        Value r = eval(*b.rhs, ctx);
        return Value::of_bool(r.truthy());
      }
      if (b.op == BinaryOp::kLogOr) {
        Value l = eval(*b.lhs, ctx);
        if (ctx.undef) return l;
        if (l.truthy()) return Value::of_bool(true);
        Value r = eval(*b.rhs, ctx);
        return Value::of_bool(r.truthy());
      }
      Value l = eval(*b.lhs, ctx);
      if (ctx.undef) return l;
      Value r = eval(*b.rhs, ctx);
      if (ctx.undef) return r;
      return binary_or_raise(*this, b.op, l, r, e);
    }
    case ExprKind::kAssign: {
      const auto& a = static_cast<const lang::AssignExpr&>(e);
      Value rhs = eval(*a.rhs, ctx);
      if (ctx.undef) return rhs;
      auto target = resolve_lvalue(*a.lhs, ctx);
      if (!target || ctx.undef) {
        ctx.undef = true;
        return rhs;
      }
      Value result = rhs;
      if (a.op != AssignOp::kAssign) {
        Value old = read_target(*target, ctx);
        if (target->kind == WriteTarget::Kind::kArray) {
          classify_access(*static_cast<ArrayObj*>(target->obj),
                          target->index, ctx);
        }
        result =
            binary_or_raise(*this, arith::compound_op(a.op), old, rhs, e);
      }
      result = result.coerce(a.lhs->type.scalar);
      if (target->kind == WriteTarget::Kind::kArray) {
        auto* arr = static_cast<ArrayObj*>(target->obj);
        classify_access(*arr, target->index, ctx);
        if (arr->replicated() && ctx.stats != nullptr) {
          ++ctx.stats->broadcast;  // writes to a copied array broadcast
        }
      }
      write_value(*target, result, e, ctx);
      return result;
    }
    case ExprKind::kTernary: {
      const auto& t = static_cast<const lang::TernaryExpr&>(e);
      Value c = eval(*t.cond, ctx);
      if (ctx.undef) return c;
      // The arm taken converts to the ternary's type (the usual
      // arithmetic conversions), whichever arm it is.
      return eval(c.truthy() ? *t.then_expr : *t.else_expr, ctx)
          .coerce(t.type.scalar);
    }
    case ExprKind::kReduce:
      return eval_reduce(static_cast<const lang::ReduceExpr&>(e), ctx);
    case ExprKind::kIncDec: {
      const auto& i = static_cast<const lang::IncDecExpr&>(e);
      auto target = resolve_lvalue(*i.operand, ctx);
      if (!target || ctx.undef) {
        ctx.undef = true;
        return Value::of_int(0);
      }
      Value old = read_target(*target, ctx);
      Value next = i.is_increment ? arith::apply(arith::Inc{}, old)
                                  : arith::apply(arith::Dec{}, old);
      if (target->kind == WriteTarget::Kind::kArray) {
        classify_access(*static_cast<ArrayObj*>(target->obj), target->index,
                        ctx);
      }
      write_value(*target, next, e, ctx);
      return i.is_prefix ? next : old;
    }
  }
  return Value::of_int(0);
}

Value Impl::eval_reduce(const lang::ReduceExpr& e, EvalCtx& ctx) {
  // Iterate the Cartesian product of the sets, binding their elements in a
  // child space of the current lane (so inner bindings shadow outer ones,
  // paper §3.4).
  const auto& sets = e.index_set_syms;
  std::vector<const std::vector<std::int64_t>*> values;
  values.reserve(sets.size());
  std::int64_t prod = 1;
  for (const Symbol* s : sets) {
    values.push_back(&s->index_set->values);
    prod *= static_cast<std::int64_t>(s->index_set->values.size());
  }
  const bool flt = e.type.is_float();
  Value acc = arith::reduce_identity<Value>(e.op, flt);
  bool any = false;

  // A one-lane child space per tuple.  Like a par expansion, the reduction
  // occupies a VP set of (outer lanes x product of its sets): the child's
  // geometry gains one dimension per set, so array accesses inside the
  // reduction are classified against the expanded shape (a d[i][k] read
  // from the O(N^3) relaxation is general-router traffic, exactly as on
  // the real machine).
  LaneSpace child;
  child.parent = ctx.space;
  child.frontend = ctx.space->frontend;
  child.parent_lane = {ctx.lane};
  child.dims = ctx.space->frontend ? std::vector<std::int64_t>{}
                                   : ctx.space->dims;
  const std::size_t base_dims = child.dims.size();
  for (const Symbol* s : sets) {
    child.dims.push_back(
        static_cast<std::int64_t>(s->index_set->values.size()));
  }
  child.geom_size = (ctx.space->frontend ? 1 : ctx.space->geom_size) * prod;
  child.vps = {0};
  child.coords.assign(child.dims.size(), 0);
  if (base_dims > 0) {
    std::copy(ctx.space->coords.begin() +
                  static_cast<std::ptrdiff_t>(ctx.lane *
                                              static_cast<std::int64_t>(
                                                  base_dims)),
              ctx.space->coords.begin() +
                  static_cast<std::ptrdiff_t>((ctx.lane + 1) *
                                              static_cast<std::int64_t>(
                                                  base_dims)),
              child.coords.begin());
  }
  const std::int64_t parent_vp =
      ctx.space->frontend
          ? 0
          : ctx.space->vps[static_cast<std::size_t>(ctx.lane)];
  for (const Symbol* s : sets) {
    child.elems.push_back(s->index_set->elem);
  }
  child.elem_vals.assign(sets.size(), 0);

  EvalCtx inner = ctx;
  inner.space = &child;
  inner.lane = 0;
  if (e.partition_optimized == 1) ++inner.suppress_comm;

  std::vector<std::size_t> pos(sets.size(), 0);
  for (std::int64_t tuple = 0; tuple < prod; ++tuple) {
    std::int64_t tuple_flat = 0;
    for (std::size_t k = 0; k < sets.size(); ++k) {
      child.elem_vals[k] = (*values[k])[pos[k]];
      child.coords[base_dims + k] = static_cast<std::int64_t>(pos[k]);
      tuple_flat =
          tuple_flat * static_cast<std::int64_t>(values[k]->size()) +
          static_cast<std::int64_t>(pos[k]);
    }
    child.vps[0] = parent_vp * prod + tuple_flat;
    // Evaluate every arm this tuple is enabled for; an element enabled for
    // several arms contributes once per arm (paper §3.2).
    bool enabled_any = false;
    for (const auto& arm : e.arms) {
      bool enabled = true;
      if (arm.pred) {
        inner.undef = false;
        Value p = eval(*arm.pred, inner);
        if (inner.undef) {
          ctx.undef = true;
          return acc;
        }
        enabled = p.truthy();
      }
      if (!enabled) continue;
      enabled_any = true;
      inner.undef = false;
      Value v = eval(*arm.value, inner);
      if (inner.undef) {
        ctx.undef = true;
        return acc;
      }
      if (e.op == lang::ReduceKind::kArb) {
        if (!any) acc = v;
      } else {
        acc = arith::reduce_fold(e.op, acc, v);
      }
      any = true;
    }
    if (!enabled_any && e.others) {
      inner.undef = false;
      Value v = eval(*e.others, inner);
      if (inner.undef) {
        ctx.undef = true;
        return acc;
      }
      if (e.op == lang::ReduceKind::kArb) {
        if (!any) acc = v;
      } else {
        acc = arith::reduce_fold(e.op, acc, v);
      }
      any = true;
    }
    // Advance the tuple odometer.
    for (std::size_t k = sets.size(); k-- > 0;) {
      if (++pos[k] < values[k]->size()) break;
      pos[k] = 0;
    }
  }
  // Merge comm stats gathered in the child context back (same object —
  // inner shares ctx.stats pointer, nothing to do).
  return flt ? Value::of_float(acc.as_float()) : acc;
}

Value Impl::eval_call(const lang::CallExpr& e, EvalCtx& ctx) {
  const Symbol* sym = e.symbol;
  if (sym == nullptr) runtime_error(&e, "unresolved call");

  if (sym->kind == SymbolKind::kBuiltin) {
    switch (static_cast<BuiltinId>(sym->builtin_id)) {
      case BuiltinId::kPower2: {
        auto k = eval(*e.args[0], ctx).as_int();
        if (ctx.undef) return Value::of_int(0);
        if (k < 0 || k > 62) {
          runtime_error(&e, "power2 argument out of range: " +
                                std::to_string(k));
        }
        return Value::of_int(std::int64_t{1} << k);
      }
      case BuiltinId::kRand:
        return Value::of_int(static_cast<std::int64_t>(
            lane_rng(ctx).next() >> 33));  // non-negative 31-bit, like rand()
      case BuiltinId::kSrand: {
        auto seed = eval(*e.args[0], ctx).as_int();
        if (!ctx.is_frontend()) {
          runtime_error(&e, "srand may only be called on the front end");
        }
        fe_rng.seed(static_cast<std::uint64_t>(seed));
        base_seed = static_cast<std::uint64_t>(seed);
        return Value::of_int(0);
      }
      case BuiltinId::kAbs: {
        Value v = eval(*e.args[0], ctx);
        if (ctx.undef) return v;
        return arith::apply(arith::Abs{}, v);
      }
      case BuiltinId::kMin2:
      case BuiltinId::kMax2: {
        Value a = eval(*e.args[0], ctx);
        Value b = eval(*e.args[1], ctx);
        if (ctx.undef) return a;
        return static_cast<BuiltinId>(sym->builtin_id) == BuiltinId::kMin2
                   ? *arith::apply(arith::Min{}, a, b)
                   : *arith::apply(arith::Max{}, a, b);
      }
      case BuiltinId::kSwap: {
        auto ta = resolve_lvalue(*e.args[0], ctx);
        auto tb = resolve_lvalue(*e.args[1], ctx);
        if (!ta || !tb || ctx.undef) return Value::of_int(0);
        Value va = read_target(*ta, ctx);
        Value vb = read_target(*tb, ctx);
        if (ta->kind == WriteTarget::Kind::kArray) {
          classify_access(*static_cast<ArrayObj*>(ta->obj), ta->index, ctx);
        }
        if (tb->kind == WriteTarget::Kind::kArray) {
          classify_access(*static_cast<ArrayObj*>(tb->obj), tb->index, ctx);
        }
        // Each operand takes the other's value converted to its own
        // type, as assignment converts.
        write_value(*ta, vb.coerce(e.args[0]->type.scalar), e, ctx);
        write_value(*tb, va.coerce(e.args[1]->type.scalar), e, ctx);
        return Value::of_int(0);
      }
      case BuiltinId::kPrint: {
        std::string line;
        for (std::size_t k = 0; k < e.args.size(); ++k) {
          if (k != 0) line += ' ';
          if (e.args[k]->kind == ExprKind::kStringLit) {
            line += static_cast<const lang::StringLitExpr&>(*e.args[k]).value;
          } else {
            line += eval(*e.args[k], ctx).to_string();
          }
        }
        line += '\n';
        if (ctx.print_out != nullptr) {
          *ctx.print_out += line;
        } else {
          output += line;
        }
        return Value::of_int(0);
      }
    }
    return Value::of_int(0);
  }

  // User function.
  const FuncDecl* fn = sym->func;
  std::vector<Value> scalar_args;
  std::vector<ArrayPtr> array_args;
  std::vector<bool> is_array;
  for (std::size_t k = 0; k < e.args.size(); ++k) {
    const bool arr_param =
        k < fn->params.size() && fn->params[k].is_array;
    is_array.push_back(arr_param);
    if (arr_param) {
      if (e.args[k]->kind == ExprKind::kSubscript) {
        // Array slice (paper §3): fix the leading subscripts, view the
        // trailing dimensions.
        const auto& sub =
            static_cast<const lang::SubscriptExpr&>(*e.args[k]);
        const auto& id = static_cast<const lang::IdentExpr&>(*sub.base);
        ArrayPtr base = array_of(*id.symbol, ctx);
        std::int64_t offset = 0;
        for (std::size_t d = 0; d < sub.indices.size(); ++d) {
          const auto idx = eval(*sub.indices[d], ctx).as_int();
          if (ctx.undef) return Value::of_int(0);
          if (idx < 0 || idx >= base->dims()[d]) {
            runtime_error(e.args[k].get(),
                          "array slice subscript out of range for '" +
                              base->name() + "'");
          }
          std::int64_t stride = 1;
          for (std::size_t m = d + 1; m < base->dims().size(); ++m) {
            stride *= base->dims()[m];
          }
          offset += idx * stride;
        }
        std::vector<std::int64_t> view_dims(
            base->dims().begin() +
                static_cast<std::ptrdiff_t>(sub.indices.size()),
            base->dims().end());
        array_args.push_back(
            ArrayObj::make_slice(base, offset, std::move(view_dims)));
        continue;
      }
      const auto& id = static_cast<const lang::IdentExpr&>(*e.args[k]);
      array_args.push_back(array_of(*id.symbol, ctx));
    } else {
      scalar_args.push_back(eval(*e.args[k], ctx));
      if (ctx.undef) return Value::of_int(0);
    }
  }
  return call_function(*fn, std::move(scalar_args), std::move(array_args),
                       is_array, ctx);
}

// ---------------------------------------------------------------------------
// Static charging
// ---------------------------------------------------------------------------

std::uint64_t Impl::expr_weight(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kIntLit:
    case ExprKind::kFloatLit:
    case ExprKind::kStringLit:
    case ExprKind::kIdent:
      return 1;
    case ExprKind::kSubscript: {
      const auto& s = static_cast<const lang::SubscriptExpr&>(e);
      std::uint64_t w = 1;
      for (const auto& idx : s.indices) w += expr_weight(*idx);
      return w;
    }
    case ExprKind::kCall: {
      const auto& c = static_cast<const lang::CallExpr&>(e);
      std::uint64_t w = 2;
      for (const auto& a : c.args) w += expr_weight(*a);
      if (c.symbol != nullptr && c.symbol->func != nullptr) w += 8;
      return w;
    }
    case ExprKind::kUnary:
      return 1 + expr_weight(*static_cast<const lang::UnaryExpr&>(e).operand);
    case ExprKind::kBinary: {
      const auto& b = static_cast<const lang::BinaryExpr&>(e);
      return 1 + expr_weight(*b.lhs) + expr_weight(*b.rhs);
    }
    case ExprKind::kAssign: {
      const auto& a = static_cast<const lang::AssignExpr&>(e);
      return 1 + expr_weight(*a.lhs) + expr_weight(*a.rhs);
    }
    case ExprKind::kTernary: {
      const auto& t = static_cast<const lang::TernaryExpr&>(e);
      return 1 + expr_weight(*t.cond) +
             std::max(expr_weight(*t.then_expr), expr_weight(*t.else_expr));
    }
    case ExprKind::kReduce:
      return 0;  // charged separately (charge_expr)
    case ExprKind::kIncDec:
      return 2;
  }
  return 1;
}

namespace {

// ---- Common-subexpression weighting (paper §4 code optimisation) ----
//
// A subexpression is pure when re-evaluating it cannot change anything:
// no assignments, no ++/--, no calls (rand() and user functions may have
// effects), no reductions (charged separately anyway).  Pure subtrees are
// fingerprinted structurally; the second occurrence of a fingerprint in
// the same statement costs nothing.

bool is_pure_expr(const lang::Expr& e) {
  switch (e.kind) {
    case ExprKind::kIntLit:
    case ExprKind::kFloatLit:
    case ExprKind::kIdent:
      return true;
    case ExprKind::kSubscript: {
      const auto& s = static_cast<const lang::SubscriptExpr&>(e);
      for (const auto& idx : s.indices) {
        if (!is_pure_expr(*idx)) return false;
      }
      return true;
    }
    case ExprKind::kUnary:
      return is_pure_expr(*static_cast<const lang::UnaryExpr&>(e).operand);
    case ExprKind::kBinary: {
      const auto& b = static_cast<const lang::BinaryExpr&>(e);
      return is_pure_expr(*b.lhs) && is_pure_expr(*b.rhs);
    }
    case ExprKind::kTernary: {
      const auto& t = static_cast<const lang::TernaryExpr&>(e);
      return is_pure_expr(*t.cond) && is_pure_expr(*t.then_expr) &&
             is_pure_expr(*t.else_expr);
    }
    default:
      return false;
  }
}

void fingerprint(const lang::Expr& e, std::string& out) {
  switch (e.kind) {
    case ExprKind::kIntLit:
      out += 'i';
      out += std::to_string(static_cast<const lang::IntLitExpr&>(e).value);
      return;
    case ExprKind::kFloatLit:
      out += 'f';
      out += std::to_string(static_cast<const lang::FloatLitExpr&>(e).value);
      return;
    case ExprKind::kIdent:
      out += 'n';
      out += static_cast<const lang::IdentExpr&>(e).name;
      return;
    case ExprKind::kSubscript: {
      const auto& s = static_cast<const lang::SubscriptExpr&>(e);
      out += '[';
      fingerprint(*s.base, out);
      for (const auto& idx : s.indices) {
        out += ',';
        fingerprint(*idx, out);
      }
      out += ']';
      return;
    }
    case ExprKind::kUnary: {
      const auto& u = static_cast<const lang::UnaryExpr&>(e);
      out += 'u';
      out += lang::unary_op_spelling(u.op);
      fingerprint(*u.operand, out);
      return;
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const lang::BinaryExpr&>(e);
      out += '(';
      fingerprint(*b.lhs, out);
      out += lang::binary_op_spelling(b.op);
      fingerprint(*b.rhs, out);
      out += ')';
      return;
    }
    case ExprKind::kTernary: {
      const auto& t = static_cast<const lang::TernaryExpr&>(e);
      out += '?';
      fingerprint(*t.cond, out);
      out += ':';
      fingerprint(*t.then_expr, out);
      out += ';';
      fingerprint(*t.else_expr, out);
      return;
    }
    default:
      out += '!';  // impure / unsupported: never deduplicated
      return;
  }
}

std::uint64_t weight_with_cse(const lang::Expr& e,
                              std::unordered_set<std::string>& seen) {
  if (is_pure_expr(e)) {
    std::string fp;
    fingerprint(e, fp);
    if (!seen.insert(std::move(fp)).second) return 0;  // already computed
  }
  switch (e.kind) {
    case ExprKind::kIntLit:
    case ExprKind::kFloatLit:
    case ExprKind::kStringLit:
    case ExprKind::kIdent:
      return 1;
    case ExprKind::kSubscript: {
      const auto& s = static_cast<const lang::SubscriptExpr&>(e);
      std::uint64_t w = 1;
      for (const auto& idx : s.indices) w += weight_with_cse(*idx, seen);
      return w;
    }
    case ExprKind::kCall: {
      const auto& c = static_cast<const lang::CallExpr&>(e);
      std::uint64_t w = 2;
      for (const auto& a : c.args) w += weight_with_cse(*a, seen);
      if (c.symbol != nullptr && c.symbol->func != nullptr) w += 8;
      return w;
    }
    case ExprKind::kUnary:
      return 1 + weight_with_cse(
                     *static_cast<const lang::UnaryExpr&>(e).operand, seen);
    case ExprKind::kBinary: {
      const auto& b = static_cast<const lang::BinaryExpr&>(e);
      return 1 + weight_with_cse(*b.lhs, seen) +
             weight_with_cse(*b.rhs, seen);
    }
    case ExprKind::kAssign: {
      const auto& a = static_cast<const lang::AssignExpr&>(e);
      return 1 + weight_with_cse(*a.lhs, seen) +
             weight_with_cse(*a.rhs, seen);
    }
    case ExprKind::kTernary: {
      const auto& t = static_cast<const lang::TernaryExpr&>(e);
      return 1 + weight_with_cse(*t.cond, seen) +
             std::max(weight_with_cse(*t.then_expr, seen),
                      weight_with_cse(*t.else_expr, seen));
    }
    case ExprKind::kReduce:
      return 0;  // charged separately
    case ExprKind::kIncDec:
      return 2;
  }
  return 1;
}

}  // namespace

std::uint64_t Impl::expr_weight_cse(const Expr& e) {
  std::unordered_set<std::string> seen;
  return weight_with_cse(e, seen);
}

namespace {

// Calls fn on every ReduceExpr in the tree (pre-order), not descending
// into one.
void for_each_reduce(const Expr& e,
                     const std::function<void(const lang::ReduceExpr&)>& fn) {
  if (e.kind == ExprKind::kReduce) {
    fn(static_cast<const lang::ReduceExpr&>(e));
    return;
  }
  lang::for_each_child(e, [&fn](const Expr& child) {
    for_each_reduce(child, fn);
  });
}

// True when the expression mentions only the given elements (and constants,
// arrays subscripted by them, arithmetic, ...) — helper for the processor
// optimisation's partition test.
bool mentions_only_elems(const Expr& e,
                         const std::vector<const Symbol*>& allowed,
                         bool* uses_one) {
  switch (e.kind) {
    case ExprKind::kIdent: {
      const auto& id = static_cast<const lang::IdentExpr&>(e);
      if (id.symbol != nullptr && id.symbol->kind == SymbolKind::kIndexElem) {
        for (const auto* a : allowed) {
          if (a == id.symbol) {
            *uses_one = true;
            return true;
          }
        }
        return false;
      }
      return true;
    }
    case ExprKind::kSubscript: {
      const auto& s = static_cast<const lang::SubscriptExpr&>(e);
      for (const auto& idx : s.indices) {
        if (!mentions_only_elems(*idx, allowed, uses_one)) return false;
      }
      return true;
    }
    case ExprKind::kUnary:
      return mentions_only_elems(
          *static_cast<const lang::UnaryExpr&>(e).operand, allowed, uses_one);
    case ExprKind::kBinary: {
      const auto& b = static_cast<const lang::BinaryExpr&>(e);
      return mentions_only_elems(*b.lhs, allowed, uses_one) &&
             mentions_only_elems(*b.rhs, allowed, uses_one);
    }
    case ExprKind::kCall: {
      const auto& c = static_cast<const lang::CallExpr&>(e);
      for (const auto& a : c.args) {
        if (!mentions_only_elems(*a, allowed, uses_one)) return false;
      }
      return true;
    }
    case ExprKind::kIntLit:
    case ExprKind::kFloatLit:
      return true;
    default:
      return false;
  }
}

}  // namespace

bool reduction_partitions(const lang::ReduceExpr& e,
                          const LaneSpace& outer_space) {
  // Outer elements: everything bound by the enclosing spaces.
  std::vector<const Symbol*> outer_elems;
  for (const LaneSpace* s = &outer_space; s != nullptr; s = s->parent) {
    for (const auto* el : s->elems) outer_elems.push_back(el);
  }
  if (outer_elems.empty()) return false;
  std::vector<const Symbol*> inner_elems;
  for (const Symbol* s : e.index_set_syms) {
    inner_elems.push_back(s->index_set->elem);
  }
  // Every arm must carry a predicate of the shape f(inner) == g(outer).
  if (e.arms.empty() || e.others != nullptr) return false;
  for (const auto& arm : e.arms) {
    if (!arm.pred || arm.pred->kind != ExprKind::kBinary) return false;
    const auto& p = static_cast<const lang::BinaryExpr&>(*arm.pred);
    if (p.op != BinaryOp::kEq) return false;
    bool uses_inner_l = false, uses_outer_l = false;
    bool uses_inner_r = false, uses_outer_r = false;
    bool l_inner_ok = mentions_only_elems(*p.lhs, inner_elems, &uses_inner_l);
    bool l_outer_ok = mentions_only_elems(*p.lhs, outer_elems, &uses_outer_l);
    bool r_inner_ok = mentions_only_elems(*p.rhs, inner_elems, &uses_inner_r);
    bool r_outer_ok = mentions_only_elems(*p.rhs, outer_elems, &uses_outer_r);
    bool lhs_inner_rhs_outer =
        l_inner_ok && uses_inner_l && r_outer_ok && uses_outer_r;
    bool lhs_outer_rhs_inner =
        l_outer_ok && uses_outer_l && r_inner_ok && uses_inner_r;
    if (!lhs_inner_rhs_outer && !lhs_outer_rhs_inner) return false;
    // The value itself must not mix in outer elements beyond the pred.
    bool dummy = false;
    if (!mentions_only_elems(*arm.value, inner_elems, &dummy)) return false;
  }
  return true;
}

void Impl::charge_expr(const Expr& e, std::int64_t geom_size, bool frontend,
                       const LaneSpace* outer_space, cm::Plan* record,
                       bool planned) {
  // Charge helpers that also append to the plan being recorded (if any):
  // the recorded recipe must replay the exact same machine charges.
  auto fe_charge = [&](std::uint64_t n) {
    machine.charge_frontend(n);
    if (record != nullptr) {
      record->charges.push_back({cm::PlanCharge::Kind::kFrontend,
                                 static_cast<std::int64_t>(n), 1});
    }
  };
  auto vec_charge = [&](std::int64_t n, std::uint64_t m) {
    machine.charge_vector_op(n, m, planned);
    if (record != nullptr) {
      record->charges.push_back({cm::PlanCharge::Kind::kVectorOp, n,
                                 static_cast<std::int64_t>(m)});
    }
  };
  auto router_charge = [&](std::int64_t n, std::uint64_t m) {
    machine.charge_router(n, m);
    if (record != nullptr) {
      record->charges.push_back({cm::PlanCharge::Kind::kRouter, n,
                                 static_cast<std::int64_t>(m)});
    }
  };
  auto reduce_charge = [&](std::int64_t n, std::int64_t m) {
    machine.charge_reduce(n, m, planned);
    if (record != nullptr) {
      record->charges.push_back({cm::PlanCharge::Kind::kReduce, n, m});
    }
  };

  const std::uint64_t w = opts.common_subexpression_elimination
                              ? expr_weight_cse(e)
                              : expr_weight(e);
  if (frontend) {
    fe_charge(w);
  } else {
    vec_charge(geom_size, w);
  }
  for_each_reduce(e, [&](const lang::ReduceExpr& red) {
    std::int64_t prod = 1;
    for (const Symbol* s : red.index_set_syms) {
      prod *= static_cast<std::int64_t>(s->index_set->values.size());
    }
    std::uint64_t arm_w = 0;
    for (const auto& arm : red.arms) {
      if (arm.pred) arm_w += expr_weight(*arm.pred);
      arm_w += expr_weight(*arm.value);
    }
    if (red.others) arm_w += expr_weight(*red.others);
    if (arm_w == 0) arm_w = 1;

    std::int64_t red_geom = frontend ? prod : geom_size * prod;
    // Processor optimisation (paper §4): a reduction whose predicates
    // partition its inputs across the outer lanes needs only `prod` VPs —
    // each input element computes its destination and issues one
    // send-with-combine — instead of lanes x prod VPs each re-reading the
    // inputs.  The annotation also tells the evaluator not to double-count
    // the (now nonexistent) per-lane remote reads.
    const bool optimised =
        !frontend && partition_decision(red, outer_space);
    const_cast<lang::ReduceExpr&>(red).partition_optimized =
        optimised ? 1 : 0;
    if (record != nullptr) {
      record->annotations.push_back({&red, optimised});
    }
    if (optimised) {
      vec_charge(prod, arm_w);
      router_charge(prod, static_cast<std::uint64_t>(prod));
      return;  // send-with-combine replaces the log-depth scan
    }
    vec_charge(red_geom, arm_w);
    reduce_charge(red_geom, prod);
    // Nested reductions inside the arms are charged at the expanded size.
    for (const auto& arm : red.arms) {
      if (arm.pred) {
        for_each_reduce(*arm.pred, [&](const lang::ReduceExpr& inner) {
          std::int64_t iprod = 1;
          for (const Symbol* s : inner.index_set_syms) {
            iprod *= static_cast<std::int64_t>(s->index_set->values.size());
          }
          vec_charge(red_geom * iprod, 1);
          reduce_charge(red_geom * iprod, iprod);
        });
      }
      for_each_reduce(*arm.value, [&](const lang::ReduceExpr& inner) {
        std::int64_t iprod = 1;
        for (const Symbol* s : inner.index_set_syms) {
          iprod *= static_cast<std::int64_t>(s->index_set->values.size());
        }
        vec_charge(red_geom * iprod, 1);
        reduce_charge(red_geom * iprod, iprod);
      });
    }
  });
}

std::uint64_t Impl::plan_key(const Expr& e, const LaneSpace& space) const {
  // Signature: statement site + declaration/mapping epoch + geometry +
  // enclosing element structure + every reduce index-set size + the cost
  // flags the recipe was recorded under.  Element *values* are deliberately
  // excluded: a seq loop rebinding its tuple each iteration must still hit.
  // Sites and element symbols enter as stable node ids rather than raw
  // pointers, so keys survive durable-snapshot serialization across
  // processes (docs/ROBUSTNESS.md "Durable checkpoints & resume").
  std::uint64_t h = 0x243f6a8885a308d3ull;
  h = cm::PlanCache::mix(h, node_id(&e));
  h = cm::PlanCache::mix(h, plan_epoch_);
  h = cm::PlanCache::mix(h, (opts.common_subexpression_elimination ? 1u : 0u) |
                                (opts.processor_optimization ? 2u : 0u));
  h = cm::PlanCache::mix(h, static_cast<std::uint64_t>(space.geom_size));
  for (const LaneSpace* s = &space; s != nullptr; s = s->parent) {
    for (std::int64_t d : s->dims) {
      h = cm::PlanCache::mix(h, static_cast<std::uint64_t>(d));
    }
    for (const Symbol* el : s->elems) {
      h = cm::PlanCache::mix(h, node_id(el));
    }
  }
  auto mix_sets = [&h](const lang::ReduceExpr& red) {
    for (const Symbol* s : red.index_set_syms) {
      h = cm::PlanCache::mix(h, s->index_set->values.size());
    }
  };
  for_each_reduce(e, [&](const lang::ReduceExpr& red) {
    mix_sets(red);
    for (const auto& arm : red.arms) {
      if (arm.pred) for_each_reduce(*arm.pred, mix_sets);
      for_each_reduce(*arm.value, mix_sets);
    }
  });
  return h;
}

namespace {

// Re-applies a plan's recorded partition decisions, so the evaluator
// classifies accesses exactly as it did when recording.
void apply_annotations(const cm::Plan& plan) {
  for (const auto& a : plan.annotations) {
    const_cast<lang::ReduceExpr*>(static_cast<const lang::ReduceExpr*>(a.site))
        ->partition_optimized = a.optimized ? 1 : 0;
  }
}

}  // namespace

bool Impl::partition_decision(const lang::ReduceExpr& red,
                              const LaneSpace* outer_space) const {
  return opts.processor_optimization && outer_space != nullptr &&
         reduction_partitions(red, *outer_space);
}

void Impl::annotate_partitions(const Expr& e, const LaneSpace& space) {
  if (const cm::Plan* plan = plan_cache_.find(plan_key(e, space))) {
    apply_annotations(*plan);
    return;
  }
  for_each_reduce(e, [&](const lang::ReduceExpr& red) {
    const_cast<lang::ReduceExpr&>(red).partition_optimized =
        partition_decision(red, &space) ? 1 : 0;
  });
}

void Impl::charge_expr_planned(const Expr& e, LaneSpace& space, bool rider) {
  const std::uint64_t key = plan_key(e, space);
  if (cm::Plan* plan = plan_cache_.find(key)) {
    apply_annotations(*plan);
    cm::PlanCache::replay(machine, *plan);
    return;
  }
  // Miss: charge normally while recording, then cache the recipe.  Rider
  // members of a fused group share their group's front-end issue even on
  // first execution, so they charge at the planned overhead while
  // recording the same overhead-independent recipe.  A TransientFault
  // mid-recording simply abandons the local plan; the retry re-records.
  cm::Plan plan;
  charge_expr(e, space.geom_size, /*frontend=*/false, &space, &plan, rider);
  plan_cache_.insert(key, std::move(plan));
}

}  // namespace detail
}  // namespace uc::vm
