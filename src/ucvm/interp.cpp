// VM driver: run(), globals materialisation, scalar statement execution
// (front end + function bodies) and function calls.
#include "ucvm/interp.hpp"

#include <algorithm>
#include <csignal>

#include "support/error.hpp"
#include "support/str.hpp"
#include "ucvm/checkpoint.hpp"
#include "ucvm/durable.hpp"
#include "ucvm/interp_detail.hpp"
#include "ucvm/kernel/kernel.hpp"

namespace uc::vm {

using namespace detail;
using lang::ScalarKind;
using lang::StmtKind;
using lang::SymbolKind;

namespace detail {

std::optional<std::int64_t> LaneSpace::elem_value(const Symbol* elem,
                                                  std::int64_t lane) const {
  const LaneSpace* s = this;
  std::int64_t l = lane;
  while (s != nullptr) {
    // Innermost binding wins: scan this space's own elems (reverse, so a
    // duplicate binding in one space resolves to the later set).
    for (std::size_t k = s->elems.size(); k-- > 0;) {
      if (s->elems[k] == elem) {
        return s->elem_vals[static_cast<std::size_t>(l) * s->elems.size() + k];
      }
    }
    if (s->parent == nullptr) return std::nullopt;
    l = s->parent_lane[static_cast<std::size_t>(l)];
    s = s->parent;
  }
  return std::nullopt;
}

LaneSpace* LaneSpace::find_local(std::int32_t slot, std::int64_t lane,
                                 std::int64_t* out_lane) {
  LaneSpace* s = this;
  std::int64_t l = lane;
  while (s != nullptr) {
    if (s->locals.contains(slot)) {
      *out_lane = l;
      return s;
    }
    if (s->parent == nullptr) return nullptr;
    l = s->parent_lane[static_cast<std::size_t>(l)];
    s = s->parent;
  }
  return nullptr;
}

Impl::Impl(const lang::CompilationUnit& u, cm::Machine& m, ExecOptions o)
    : unit(u), machine(m), opts(o), prof(o.profiler) {
  base_seed = machine.options().seed;
  fe_rng.seed(base_seed);
  root.frontend = true;
  root.build = new_build();
  root.vps = {0};
  root.parent_lane = {0};
  root.geom_size = 1;
  ckpt = std::make_unique<CheckpointManager>(*this);
  build_node_ids();
  build_lane_plan();
  if (!opts.checkpoint_dir.empty()) {
    if (opts.checkpoint_every == 0) {
      throw support::ApiError(
          "ExecOptions: checkpoint_dir requires checkpoint_every > 0 "
          "(durable snapshots are persisted at in-memory captures, "
          "docs/ROBUSTNESS.md)");
    }
    durable = std::make_unique<DurableCheckpoints>(*this);
  }
}

void Impl::maybe_die() {
  if (opts.die_at_statement == 0) return;
  if (ckpt->statements() >= opts.die_at_statement) {
    // SIGKILL, not exit(): the point is to model a process that gets no
    // chance to flush or unwind — exactly what the durable layer's atomic
    // writes must survive (tools/soak.sh).
    std::raise(SIGKILL);
  }
}

void Impl::build_node_ids() {
  // Deterministic pre-order walk over the analysed program, numbering
  // every expression and resolved symbol.  The order depends only on the
  // AST, so two processes compiling the same source agree on every id.
  struct Walker {
    std::unordered_map<const void*, std::uint64_t>& ids;
    std::vector<const void*>& by_id;

    void reg(const void* node) {
      if (node == nullptr) return;
      auto [it, inserted] = ids.try_emplace(node, by_id.size());
      if (inserted) by_id.push_back(node);
    }
    void reg_symbol(const Symbol* s) {
      if (s == nullptr) return;
      reg(s);
      if (s->index_set != nullptr) reg(s->index_set->elem);
    }
    void walk(const Expr* e) {
      if (e == nullptr) return;
      reg(e);
      switch (e->kind) {
        case lang::ExprKind::kIntLit:
        case lang::ExprKind::kFloatLit:
        case lang::ExprKind::kStringLit:
          return;
        case lang::ExprKind::kIdent:
          reg_symbol(static_cast<const lang::IdentExpr*>(e)->symbol);
          return;
        case lang::ExprKind::kSubscript: {
          const auto* s = static_cast<const lang::SubscriptExpr*>(e);
          walk(s->base.get());
          for (const auto& i : s->indices) walk(i.get());
          return;
        }
        case lang::ExprKind::kCall: {
          const auto* c = static_cast<const lang::CallExpr*>(e);
          reg_symbol(c->symbol);
          for (const auto& a : c->args) walk(a.get());
          return;
        }
        case lang::ExprKind::kUnary:
          walk(static_cast<const lang::UnaryExpr*>(e)->operand.get());
          return;
        case lang::ExprKind::kBinary: {
          const auto* b = static_cast<const lang::BinaryExpr*>(e);
          walk(b->lhs.get());
          walk(b->rhs.get());
          return;
        }
        case lang::ExprKind::kAssign: {
          const auto* a = static_cast<const lang::AssignExpr*>(e);
          walk(a->lhs.get());
          walk(a->rhs.get());
          return;
        }
        case lang::ExprKind::kTernary: {
          const auto* t = static_cast<const lang::TernaryExpr*>(e);
          walk(t->cond.get());
          walk(t->then_expr.get());
          walk(t->else_expr.get());
          return;
        }
        case lang::ExprKind::kReduce: {
          const auto* r = static_cast<const lang::ReduceExpr*>(e);
          for (const Symbol* s : r->index_set_syms) reg_symbol(s);
          for (const auto& arm : r->arms) {
            walk(arm.pred.get());
            walk(arm.value.get());
          }
          walk(r->others.get());
          return;
        }
        case lang::ExprKind::kIncDec:
          walk(static_cast<const lang::IncDecExpr*>(e)->operand.get());
          return;
      }
    }
    void walk(const Stmt* s) {
      if (s == nullptr) return;
      switch (s->kind) {
        case StmtKind::kExpr:
          walk(static_cast<const lang::ExprStmt*>(s)->expr.get());
          return;
        case StmtKind::kCompound:
          for (const auto& c : static_cast<const lang::CompoundStmt*>(s)->body) {
            walk(c.get());
          }
          return;
        case StmtKind::kIf: {
          const auto* i = static_cast<const lang::IfStmt*>(s);
          walk(i->cond.get());
          walk(i->then_stmt.get());
          walk(i->else_stmt.get());
          return;
        }
        case StmtKind::kWhile: {
          const auto* w = static_cast<const lang::WhileStmt*>(s);
          walk(w->cond.get());
          walk(w->body.get());
          return;
        }
        case StmtKind::kFor: {
          const auto* f = static_cast<const lang::ForStmt*>(s);
          walk(f->init.get());
          walk(f->cond.get());
          walk(f->step.get());
          walk(f->body.get());
          return;
        }
        case StmtKind::kReturn:
          walk(static_cast<const lang::ReturnStmt*>(s)->value.get());
          return;
        case StmtKind::kBreak:
        case StmtKind::kContinue:
        case StmtKind::kEmpty:
          return;
        case StmtKind::kVarDecl:
          for (const auto& d :
               static_cast<const lang::VarDeclStmt*>(s)->declarators) {
            reg_symbol(d.symbol);
            for (const auto& dim : d.dim_exprs) walk(dim.get());
            walk(d.init.get());
          }
          return;
        case StmtKind::kIndexSetDecl:
          for (const auto& def :
               static_cast<const lang::IndexSetDeclStmt*>(s)->defs) {
            reg_symbol(def.symbol);
            walk(def.range_lo.get());
            walk(def.range_hi.get());
            for (const auto& l : def.listed) walk(l.get());
          }
          return;
        case StmtKind::kUcConstruct: {
          const auto* u = static_cast<const lang::UcConstructStmt*>(s);
          for (const Symbol* sym : u->index_set_syms) reg_symbol(sym);
          for (const auto& block : u->blocks) {
            walk(block.pred.get());
            walk(block.body.get());
          }
          walk(u->others.get());
          return;
        }
        case StmtKind::kMapSection:
          for (const auto& m :
               static_cast<const lang::MapSectionStmt*>(s)->mappings) {
            for (const Symbol* sym : m.index_set_syms) reg_symbol(sym);
            reg_symbol(m.target_symbol);
            reg_symbol(m.source_symbol);
            for (const auto& t : m.target_subscripts) walk(t.get());
            for (const auto& src : m.source_subscripts) walk(src.get());
          }
          return;
      }
    }
  };
  Walker w{node_ids_, node_by_id_};
  for (const auto& item : unit.program->items) {
    if (item.decl) w.walk(item.decl.get());
    if (item.func) {
      w.reg_symbol(item.func->symbol);
      for (const auto& p : item.func->params) w.reg_symbol(p.symbol);
      w.walk(item.func->body.get());
    }
  }
}

void Impl::check_deadline(const Stmt* where) {
  if (!has_deadline) return;
  if (std::chrono::steady_clock::now() < deadline) return;
  // Plain UcRuntimeError, never TransientFault: recovery must not catch a
  // timeout and retry its way past the watchdog.
  runtime_error(where,
                support::format("execution exceeded the %.3gs wall-clock "
                                "timeout (--timeout)",
                                opts.timeout_seconds));
}

void Impl::fatal_fault(const support::TransientFault& tf, const Stmt* where) {
  std::string msg = tf.what();
  if (opts.checkpoint_every == 0) {
    msg += "; checkpointing is off (enable recovery with --checkpoint-every)";
  } else {
    msg += support::format(
        "; replay budget exhausted after %llu checkpoint replays "
        "(--max-replays)",
        static_cast<unsigned long long>(ckpt->replays()));
  }
  // EscalatedFault (a UcRuntimeError) rather than runtime_error: a driver
  // holding durable on-disk snapshots can tell this apart from ordinary
  // failures and restore-and-retry instead of aborting.
  const std::string at = where != nullptr ? locate(where->range) + ": " : "";
  throw support::EscalatedFault(at + msg);
}

std::string Impl::locate(support::SourceRange range) const {
  auto lc = unit.file->line_col(range.begin);
  return unit.file->name() + ":" + std::to_string(lc.line) + ":" +
         std::to_string(lc.col);
}

void Impl::runtime_error(const Expr* where, const std::string& msg) {
  std::string at = where != nullptr ? locate(where->range) + ": " : "";
  throw support::UcRuntimeError(at + msg);
}

void Impl::runtime_error(const Stmt* where, const std::string& msg) {
  std::string at = where != nullptr ? locate(where->range) + ": " : "";
  throw support::UcRuntimeError(at + msg);
}

support::SplitMix64& Impl::lane_rng(EvalCtx& ctx) {
  if (ctx.is_frontend()) return fe_rng;
  if (!ctx.rng_seeded) {
    // Deterministic for any host thread count: depends only on the base
    // seed, the statement instance and the lane's VP.
    const auto vp = static_cast<std::uint64_t>(ctx.space->vps[ctx.lane]);
    ctx.rng.seed(base_seed ^ (stmt_counter * 0x9e3779b97f4a7c15ull) ^
                 (vp + 0x5851f42d4c957f2dull));
    ctx.rng_seeded = true;
  }
  return ctx.rng;
}

RunResult Impl::run() {
  // Stats accumulate on the machine (callers wanting a clean slate use a
  // fresh machine or reset_stats()); the result snapshots the total.
  // Root attribution scope: cost not claimed by a narrower site (global
  // initialisers, front-end control flow) lands on the program itself, so
  // per-site self cycles always sum to the aggregate.
  ProfScope prof_scope(*this, unit.program.get(), "program",
                       support::SourceRange{});
  if (opts.timeout_seconds > 0.0) {
    // A limit past the clock's range (inf, 1e300 s) is no deadline at all;
    // converting it would overflow.
    using Clock = std::chrono::steady_clock;
    const std::chrono::duration<double> limit(opts.timeout_seconds);
    const auto now = Clock::now();
    if (limit < Clock::time_point::max() - now) {
      has_deadline = true;
      deadline = now + std::chrono::duration_cast<Clock::duration>(limit);
    }
  }
  // Materialise globals and run top-level declarations in program order.
  globals.assign(static_cast<std::size_t>(unit.sema.global_slots) + 1,
                 FrameSlot{});
  Frame dummy_frame;
  EvalCtx fe;
  fe.vm = this;
  fe.space = &root;
  fe.lane = 0;
  fe.frame = &dummy_frame;
  fe.statement_frame = &dummy_frame;

  for (const auto& item : unit.program->items) {
    if (!item.decl) continue;
    switch (item.decl->kind) {
      case StmtKind::kVarDecl: {
        const auto& decl = static_cast<const lang::VarDeclStmt&>(*item.decl);
        for (const auto& d : decl.declarators) {
          if (d.symbol == nullptr || d.symbol->slot < 0) continue;
          auto& slot = globals[static_cast<std::size_t>(d.symbol->slot)];
          if (d.symbol->type.is_array()) {
            slot.kind = FrameSlot::Kind::kArray;
            slot.array = std::make_shared<ArrayObj>(
                machine, d.name, d.symbol->type.scalar, d.symbol->type.dims);
            ++plan_epoch_;  // new layout: cached plans must not match
          } else {
            slot.kind = FrameSlot::Kind::kScalar;
            slot.scalar = Value::of_int(0).coerce(d.symbol->type.scalar);
            if (d.init) {
              slot.scalar = eval(*d.init, fe).coerce(d.symbol->type.scalar);
            }
          }
        }
        break;
      }
      case StmtKind::kIndexSetDecl:
        break;  // fully resolved by sema
      case StmtKind::kMapSection:
        if (opts.apply_mappings) {
          apply_map_section(static_cast<const lang::MapSectionStmt&>(
                                *item.decl),
                            fe);
        }
        break;
      default:
        break;
    }
  }

  const FuncDecl* main_fn = unit.program->find_function("main");
  if (main_fn == nullptr) {
    throw support::UcRuntimeError("program has no main() function");
  }
  if (!main_fn->params.empty()) {
    throw support::UcRuntimeError("main() must take no parameters");
  }
  // Outermost recovery net: snapshot after global initialisation so a
  // transient fault that unwinds past every construct can still replay
  // main() from the top instead of aborting the run.
  RecoveryScope top(*this);
  top.safe_point(&root, &dummy_frame);
  for (;;) {
    try {
      call_function(*main_fn, {}, {}, {}, fe);
      break;
    } catch (const support::TransientFault& tf) {
      if (!top.try_recover()) fatal_fault(tf, nullptr);
    }
  }

  // The storage reused from round to round is dead now; free it before
  // the result below copies every array.
  spaces_.clear();
  lane_lists_.clear();
  lane_tables_.clear();
  value_lists_.clear();
  ckpt->clear_spares();

  if (durable != nullptr && durable->resume_pending() && opts.log) {
    opts.log("--resume: the snapshot's recovery scope was never reached; "
             "the run completed from scratch");
  }

  RunResult result;
  result.output_ = output;
  result.stats_ = machine.stats();
  if (kernel_engine_ != nullptr) {
    if (const auto* nb = kernel_engine_->native_backend()) {
      result.native_kernels_compiled_ = nb->kernels_compiled();
      result.native_cache_hits_ = nb->cache_hits();
      result.native_dispatches_ = nb->dispatches();
    }
    result.native_fallbacks_ = kernel_engine_->native_fallbacks();
  }
  for (const Symbol* g : unit.sema.globals) {
    const auto& slot = globals[static_cast<std::size_t>(g->slot)];
    if (slot.kind == FrameSlot::Kind::kScalar) {
      result.scalars_[g->name] = slot.scalar;
    } else if (slot.kind == FrameSlot::Kind::kArray) {
      ArraySnapshot snap;
      snap.dims = slot.array->dims();
      snap.data.reserve(static_cast<std::size_t>(slot.array->size()));
      for (std::int64_t e = 0; e < slot.array->size(); ++e) {
        snap.data.push_back(slot.array->load(e));
      }
      result.arrays_[g->name] = std::move(snap);
    }
  }
  return result;
}

Value Impl::call_function(const FuncDecl& fn, std::vector<Value> scalar_args,
                          std::vector<ArrayPtr> array_args,
                          const std::vector<bool>& is_array_arg,
                          EvalCtx& caller) {
  if (!caller.is_frontend() && fn.has_parallel_construct) {
    runtime_error(static_cast<const Stmt*>(nullptr),
                  "function '" + fn.name +
                      "' contains a parallel construct and was called from "
                      "a parallel context");
  }
  Frame frame;
  frame.fn = &fn;
  frame.slots.assign(fn.frame_slots + 1, FrameSlot{});
  std::size_t si = 0, ai = 0;
  for (std::size_t k = 0; k < fn.params.size(); ++k) {
    const auto& p = fn.params[k];
    auto& slot = frame.slots[static_cast<std::size_t>(p.symbol->slot)];
    if (k < is_array_arg.size() && is_array_arg[k]) {
      slot.kind = FrameSlot::Kind::kArray;
      slot.array = array_args[ai++];
    } else {
      slot.kind = FrameSlot::Kind::kScalar;
      slot.scalar = scalar_args[si++].coerce(p.scalar);
    }
  }

  EvalCtx ctx = caller;       // same lane/space/stats/writes context
  ctx.frame = &frame;
  if (fn.body != nullptr) {
    for (const auto& stmt : fn.body->body) {
      if (exec_scalar_stmt(*stmt, ctx) == Flow::kReturn) break;
    }
  }
  return frame.return_value.coerce(fn.return_scalar == ScalarKind::kVoid
                                       ? ScalarKind::kInt
                                       : fn.return_scalar);
}

Flow Impl::exec_scalar_stmt(const Stmt& stmt, EvalCtx& ctx) {
  switch (stmt.kind) {
    case StmtKind::kEmpty:
      return Flow::kNormal;
    case StmtKind::kExpr: {
      const auto& s = static_cast<const lang::ExprStmt&>(stmt);
      if (ctx.is_frontend()) {
        // Scoped on the front end only: inside a parallel context this
        // path runs on pool workers, where profiling hooks must not fire
        // (charging happens via merged cm::AccessStats on the issuing thread).
        ProfScope prof_scope(*this, &stmt, "fe", stmt.range);
        ++stmt_counter;
        charge_expr(*s.expr, 1, /*frontend=*/true);
        (void)eval(*s.expr, ctx);
        return Flow::kNormal;
      }
      (void)eval(*s.expr, ctx);
      return Flow::kNormal;
    }
    case StmtKind::kCompound: {
      const auto& s = static_cast<const lang::CompoundStmt&>(stmt);
      for (const auto& child : s.body) {
        Flow f = exec_scalar_stmt(*child, ctx);
        if (f != Flow::kNormal) return f;
      }
      return Flow::kNormal;
    }
    case StmtKind::kIf: {
      const auto& s = static_cast<const lang::IfStmt&>(stmt);
      if (ctx.is_frontend()) charge_expr(*s.cond, 1, true);
      if (eval(*s.cond, ctx).truthy()) {
        return exec_scalar_stmt(*s.then_stmt, ctx);
      }
      if (s.else_stmt) return exec_scalar_stmt(*s.else_stmt, ctx);
      return Flow::kNormal;
    }
    case StmtKind::kWhile: {
      const auto& s = static_cast<const lang::WhileStmt&>(stmt);
      for (;;) {
        check_deadline(&stmt);
        if (ctx.is_frontend()) charge_expr(*s.cond, 1, true);
        if (!eval(*s.cond, ctx).truthy()) return Flow::kNormal;
        Flow f = exec_scalar_stmt(*s.body, ctx);
        if (f == Flow::kReturn) return f;
        if (f == Flow::kBreak) return Flow::kNormal;
      }
    }
    case StmtKind::kFor: {
      const auto& s = static_cast<const lang::ForStmt&>(stmt);
      if (s.init) {
        Flow f = exec_scalar_stmt(*s.init, ctx);
        if (f != Flow::kNormal) return f;
      }
      for (;;) {
        check_deadline(&stmt);
        if (s.cond) {
          if (ctx.is_frontend()) charge_expr(*s.cond, 1, true);
          if (!eval(*s.cond, ctx).truthy()) return Flow::kNormal;
        }
        Flow f = exec_scalar_stmt(*s.body, ctx);
        if (f == Flow::kReturn) return f;
        if (f == Flow::kBreak) return Flow::kNormal;
        if (s.step) {
          if (ctx.is_frontend()) charge_expr(*s.step, 1, true);
          (void)eval(*s.step, ctx);
        }
      }
    }
    case StmtKind::kReturn: {
      const auto& s = static_cast<const lang::ReturnStmt&>(stmt);
      ctx.frame->return_value =
          s.value ? eval(*s.value, ctx) : Value::of_int(0);
      return Flow::kReturn;
    }
    case StmtKind::kBreak:
      return Flow::kBreak;
    case StmtKind::kContinue:
      return Flow::kContinue;
    case StmtKind::kVarDecl: {
      const auto& s = static_cast<const lang::VarDeclStmt&>(stmt);
      for (const auto& d : s.declarators) {
        if (d.symbol == nullptr || d.symbol->slot < 0 ||
            ctx.frame == nullptr) {
          continue;
        }
        auto& slot =
            ctx.frame->slots[static_cast<std::size_t>(d.symbol->slot)];
        if (d.symbol->type.is_array()) {
          slot.kind = FrameSlot::Kind::kArray;
          slot.array = std::make_shared<ArrayObj>(
              machine, d.name, d.symbol->type.scalar, d.symbol->type.dims);
          if (ctx.writes != nullptr && ctx.frame != ctx.statement_frame) {
            slot.array->set_call_local();
          }
          ++plan_epoch_;  // new layout: cached plans must not match
        } else {
          slot.kind = FrameSlot::Kind::kScalar;
          slot.scalar = Value::of_int(0).coerce(d.symbol->type.scalar);
          if (d.init) {
            slot.scalar = eval(*d.init, ctx).coerce(d.symbol->type.scalar);
          }
        }
      }
      return Flow::kNormal;
    }
    case StmtKind::kIndexSetDecl:
      return Flow::kNormal;  // resolved at compile time
    case StmtKind::kMapSection:
      if (!ctx.is_frontend()) {
        runtime_error(&stmt, "map sections cannot run in a parallel context");
      }
      if (opts.apply_mappings) {
        apply_map_section(static_cast<const lang::MapSectionStmt&>(stmt),
                          ctx);
      }
      return Flow::kNormal;
    case StmtKind::kUcConstruct: {
      const auto& s = static_cast<const lang::UcConstructStmt&>(stmt);
      if (!ctx.is_frontend()) {
        runtime_error(&stmt,
                      "parallel construct executed while already inside a "
                      "parallel context via a function call");
      }
      // Front-end spaces hold exactly one lane.
      exec_nested_construct(s, *ctx.space, ctx.space->all_lanes(), ctx.frame);
      return Flow::kNormal;
    }
  }
  return Flow::kNormal;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Public wrappers
// ---------------------------------------------------------------------------

Interp::Interp(const lang::CompilationUnit& unit, cm::Machine& machine,
               ExecOptions options) {
  if (!unit.ok()) {
    throw support::UcCompileError(unit.diags.render_all());
  }
  impl_ = std::make_unique<detail::Impl>(unit, machine, options);
}

Interp::~Interp() = default;

RunResult Interp::run() { return impl_->run(); }

Value RunResult::global_scalar(const std::string& name) const {
  auto it = scalars_.find(name);
  if (it == scalars_.end()) {
    throw support::ApiError("no global scalar named '" + name + "'");
  }
  return it->second;
}

Value RunResult::global_element(
    const std::string& name,
    std::initializer_list<std::int64_t> indices) const {
  auto it = arrays_.find(name);
  if (it == arrays_.end()) {
    throw support::ApiError("no global array named '" + name + "'");
  }
  const auto& snap = it->second;
  if (indices.size() != snap.dims.size()) {
    throw support::ApiError("wrong index count for array '" + name + "'");
  }
  std::int64_t flat = 0;
  std::size_t k = 0;
  for (auto idx : indices) {
    if (idx < 0 || idx >= snap.dims[k]) {
      throw support::ApiError("indices out of range for array '" + name +
                              "'");
    }
    flat = flat * snap.dims[k] + idx;
    ++k;
  }
  return snap.data[static_cast<std::size_t>(flat)];
}

std::vector<Value> RunResult::global_array(const std::string& name) const {
  auto it = arrays_.find(name);
  if (it == arrays_.end()) {
    throw support::ApiError("no global array named '" + name + "'");
  }
  return it->second.data;
}

RunResult run_uc(const std::string& source, cm::MachineOptions mopts,
                 ExecOptions eopts) {
  auto unit = lang::compile("program.uc", source);
  if (!unit->ok()) {
    throw support::UcCompileError(unit->diags.render_all());
  }
  cm::Machine machine(mopts);
  Interp interp(*unit, machine, eopts);
  return interp.run();
}

}  // namespace uc::vm
