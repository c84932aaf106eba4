// The solve construct (paper §3.6).
//
// `solve` executes a proper set of assignments in dependency order using
// the paper's general method: every target element starts "undefined"
// (the impossible value), and the body is iterated like a *par in which an
// assignment fires only when it has not fired yet and every value it reads
// is defined.  A fixed point with unfired assignments means the set was
// not proper (circular), which is reported.  Its guards run once, at
// entry, through the block runner's guard step; each round runs an
// equation's pending lanes through the one lane loop and commit, on the
// walk (docs/VM.md "The block runner").
//
// `*solve` repeats its body until no referenced variable changes value,
// paying the cost of saving and comparing the previous state each round —
// exactly why the paper calls hand-refined *par more efficient (E6).
#include "support/error.hpp"
#include "support/str.hpp"
#include "ucvm/checkpoint.hpp"
#include "ucvm/interp_detail.hpp"

namespace uc::vm::detail {

using lang::ExprKind;
using lang::StmtKind;
using lang::UcConstructStmt;

namespace {

// One assignment statement of a solve body, with the sc-block it came from
// (the block count for the `others` arm).
struct SolveAssign {
  const lang::AssignExpr* assign = nullptr;
  std::size_t block = 0;
};

void collect_assigns(const Stmt& stmt, std::size_t block,
                     std::vector<SolveAssign>& out) {
  switch (stmt.kind) {
    case StmtKind::kExpr: {
      const auto& es = static_cast<const lang::ExprStmt&>(stmt);
      if (es.expr->kind == ExprKind::kAssign) {
        out.push_back(SolveAssign{
            static_cast<const lang::AssignExpr*>(es.expr.get()), block});
      }
      return;
    }
    case StmtKind::kCompound:
      for (const auto& s : static_cast<const lang::CompoundStmt&>(stmt).body) {
        collect_assigns(*s, block, out);
      }
      return;
    default:
      return;
  }
}

// The assignments of a solve's blocks and `others` arm, in order.
std::vector<SolveAssign> solve_assigns(const UcConstructStmt& stmt) {
  std::vector<SolveAssign> assigns;
  for (std::size_t b = 0; b < stmt.blocks.size(); ++b) {
    collect_assigns(*stmt.blocks[b].body, b, assigns);
  }
  if (stmt.others) collect_assigns(*stmt.others, stmt.blocks.size(), assigns);
  return assigns;
}

}  // namespace

void Impl::exec_solve(const UcConstructStmt& stmt, LaneSpace& space,
                      Frame* frame) {
  const std::vector<SolveAssign> assigns = solve_assigns(stmt);
  if (assigns.empty()) return;

  // Entry, against the pre-solve state: the guard step evaluates each
  // block's guard once (solve guards select which equations exist, so they
  // see the state as of entry -- docs/LANGUAGE.md), and the `others`
  // equations exist on the lanes no guard enabled.
  BlockLanes lanes(*this, stmt, space);
  run_guards(stmt, space, frame, lanes);
  LaneList rest(lane_lists_);
  if (stmt.others) lanes.others(stmt.blocks.size(), *rest);

  // Each equation claims the target element of every lane it exists on.
  // Only those exact elements receive the paper's "impossible value";
  // elements the solve never assigns (e.g. boundary cells written before
  // the solve) stay defined and readable.
  struct Equation {
    const lang::AssignExpr* assign = nullptr;
    bool declares = false;  // calls_array_declarer(rhs)
    bool exists = false;    // on some lane at entry: charged every round
    std::vector<std::int64_t> lanes;    // not yet fired
    std::vector<WriteTarget> targets;   // each lane's claimed element
  };
  std::vector<Equation> eqs(assigns.size());
  std::unordered_set<ArrayObj*> targets;
  std::unordered_map<WriteTarget, const Expr*, WriteTargetHash> claimed;
  for (std::size_t a = 0; a < assigns.size(); ++a) {
    const SolveAssign& sa = assigns[a];
    const bool others = sa.block == stmt.blocks.size();
    if (others || !stmt.blocks[sa.block].pred) {
      charge_expr(*sa.assign->lhs, space.geom_size, /*frontend=*/false,
                  &space);
    }
    Equation& eq = eqs[a];
    eq.assign = sa.assign;
    eq.declares = calls_array_declarer(*sa.assign->rhs);
    for (const std::int64_t l : others ? *rest : lanes[sa.block]) {
      EvalCtx ctx;
      ctx.vm = this;
      ctx.space = &space;
      ctx.lane = l;
      ctx.frame = frame;
      ctx.statement_frame = frame;
      auto target = resolve_lvalue(*sa.assign->lhs, ctx);
      if (!target) continue;
      if (!claimed.try_emplace(*target, sa.assign).second) {
        runtime_error(sa.assign,
                      "solve assigns the same element from more than one "
                      "equation (not a proper set, paper §3.6)");
      }
      eq.lanes.push_back(l);
      eq.targets.push_back(*target);
      targets.insert(static_cast<ArrayObj*>(target->obj));
    }
    eq.exists = !eq.lanes.empty();
  }
  for (const auto& [target, where] : claimed) {
    static_cast<ArrayObj*>(target.obj)->clear_defined_at(target.index);
  }

  // Rounds: each equation runs its pending lanes like one *par statement.
  // An entry has fired once its claimed element is defined again: only its
  // own equation writes that element.
  std::int64_t rounds = 0;
  for (;;) {
    check_deadline(&stmt);
    bool progress = false;
    bool all_done = true;
    for (Equation& eq : eqs) {
      const std::uint64_t stmt_id = begin_statement();
      if (!eq.exists) continue;
      // Attribute each equation's rounds to its own assignment site.
      ProfScope prof_scope(*this, eq.assign, "solve-eq", eq.assign->range);
      const Expr* const stmts[1] = {eq.assign};
      LaneRun run;
      run_lanes(stmts, 1, /*kern=*/nullptr, eq.declares, space, eq.lanes,
                frame, stmt_id, /*results=*/nullptr, run, &targets);
      if (prof != nullptr) prof->note_engine(run.tier);
      charge_expr(*eq.assign, space.geom_size, /*frontend=*/false, &space);
      machine.charge_access(space.geom_size, run.member_stats[0]);
      commit_lanes(run);

      std::size_t pending = 0;
      for (std::size_t k = 0; k < eq.lanes.size(); ++k) {
        const WriteTarget& t = eq.targets[k];
        if (static_cast<ArrayObj*>(t.obj)->is_defined(t.index)) continue;
        eq.lanes[pending] = eq.lanes[k];
        eq.targets[pending++] = t;
      }
      progress = progress || pending < eq.lanes.size();
      all_done = all_done && pending == 0;
      eq.lanes.resize(pending);
      eq.targets.resize(pending);
    }
    machine.charge_global_or();
    if (all_done) return;
    if (!progress) {
      runtime_error(&stmt,
                    "solve could not order its assignments: the equation "
                    "set is circular or reads values that are never "
                    "assigned (not a proper set, paper §3.6)");
    }
    count_round(stmt, rounds, "solve");
  }
}

void Impl::exec_star_solve(const UcConstructStmt& stmt, LaneSpace& space,
                           Frame* frame, RecoveryScope& rscope) {
  // Arrays written anywhere in the body are the fixed-point state.
  std::vector<ArrayObj*> targets;
  {
    std::unordered_set<ArrayObj*> seen;
    for (const auto& a : solve_assigns(stmt)) {
      const auto& sub =
          static_cast<const lang::SubscriptExpr&>(*a.assign->lhs);
      const auto& id = static_cast<const lang::IdentExpr&>(*sub.base);
      EvalCtx tmp;
      tmp.vm = this;
      tmp.space = &space;
      tmp.lane = 0;
      tmp.frame = frame;
      ArrayObj* arr = array_of(*id.symbol, tmp).get();
      if (seen.insert(arr).second) targets.push_back(arr);
    }
  }

  // The previous round's state (the compiler-inserted temporaries the paper
  // mentions).  Each round copies into the storage of the round before.
  std::vector<std::vector<cm::Bits>> snapshot(targets.size());
  std::int64_t rounds = 0;
  for (;;) {
    check_deadline(&stmt);
    // Round top: like *par's sweep top, the fixed-point round carries no
    // loop state, so it is a valid redo point for checkpoint recovery.
    rscope.safe_point(&space, frame);
    // One vector copy instruction per target array.
    for (std::size_t t = 0; t < targets.size(); ++t) {
      machine.charge_vector_op(targets[t]->size(), 1);
      snapshot[t] = targets[t]->field().raw();
    }

    run_blocks(stmt, space, frame);

    bool changed = false;
    for (std::size_t t = 0; t < targets.size(); ++t) {
      machine.charge_vector_op(targets[t]->size(), 1);  // compare
      changed = changed || targets[t]->field().raw() != snapshot[t];
    }
    machine.charge_global_or();
    if (!changed) return;
    if (opts.max_iterations > 0 && ++rounds > opts.max_iterations) {
      runtime_error(&stmt,
                    support::format("*solve exceeded the iteration limit "
                                    "(%lld): the computation may not reach "
                                    "a fixed point (raise or disable the "
                                    "limit with --max-iterations)",
                                    static_cast<long long>(
                                        opts.max_iterations)));
    }
  }
}

void Impl::apply_map_section(const lang::MapSectionStmt& section,
                             EvalCtx& ctx) {
  ProfScope prof_scope(*this, &section, "map", section.range);
  ++plan_epoch_;  // remapping invalidates cached communication plans
  for (const auto& m : section.mappings) {
    if (m.target_symbol == nullptr) continue;
    ArrayPtr target = array_of(*m.target_symbol, ctx);

    if (m.kind == lang::MapKind::kCopy) {
      std::int64_t copies = 1;
      for (const Symbol* s : m.index_set_syms) {
        copies *= static_cast<std::int64_t>(s->index_set->values.size());
      }
      target->set_replicated(copies);
      // Replication moves size × copies words through the router once.
      retry_transient(*this, [&] {
        machine.charge_router(
            target->size() * copies,
            static_cast<std::uint64_t>(target->size() * copies));
      });
      continue;
    }

    ArrayPtr source = m.source_symbol != nullptr
                          ? array_of(*m.source_symbol, ctx)
                          : target;
    // Evaluate both subscript tuples over the mapping's index sets using a
    // one-lane-per-tuple expansion of the front end.
    support::FreeList<LaneSpace>::Lease space(spaces_);
    expand(*space, root, root.all_lanes(), m.index_set_syms);
    // Snapshot the source owners first: fold maps an array relative to its
    // own (pre-fold) placement.
    std::vector<cm::VpIndex> source_owner(
        static_cast<std::size_t>(source->size()));
    for (std::int64_t e = 0; e < source->size(); ++e) {
      source_owner[static_cast<std::size_t>(e)] = source->owner(e);
    }

    for (std::int64_t lane = 0; lane < space->lane_count(); ++lane) {
      EvalCtx mctx;
      mctx.vm = this;
      mctx.space = &*space;
      mctx.lane = lane;
      mctx.frame = ctx.frame;
      mctx.statement_frame = ctx.frame;
      std::int64_t tgt_idx[8], src_idx[8];
      bool ok = true;
      for (std::size_t k = 0; k < m.target_subscripts.size() && k < 8; ++k) {
        tgt_idx[k] = eval(*m.target_subscripts[k], mctx).as_int();
      }
      for (std::size_t k = 0; k < m.source_subscripts.size() && k < 8; ++k) {
        src_idx[k] = eval(*m.source_subscripts[k], mctx).as_int();
      }
      auto tgt_flat =
          target->flatten(tgt_idx, m.target_subscripts.size());
      auto src_flat =
          source->flatten(src_idx, m.source_subscripts.size());
      ok = tgt_flat >= 0 && src_flat >= 0;
      if (!ok) continue;  // subscripts that fall outside are simply unmapped
      target->set_owner(tgt_flat,
                        source_owner[static_cast<std::size_t>(src_flat)]);
    }
    // Re-mapping physically relocates the array: one router sweep.
    retry_transient(*this, [&] {
      machine.charge_router(target->size(),
                            static_cast<std::uint64_t>(target->size()));
    });
  }
}

}  // namespace uc::vm::detail
