// The solve construct (paper §3.6).
//
// `solve` executes a proper set of assignments in dependency order using
// the paper's general method: every target array starts "undefined"
// (the impossible value), and the body is iterated like a *par in which an
// assignment fires only when it has not fired yet and every value it reads
// is defined.  A fixed point with unfired assignments means the set was
// not proper (circular), which is reported.
//
// `*solve` repeats its body until no referenced variable changes value,
// paying the cost of saving and comparing the previous state each round —
// exactly why the paper calls hand-refined *par more efficient (E6).
#include <algorithm>

#include "support/error.hpp"
#include "support/str.hpp"
#include "ucvm/checkpoint.hpp"
#include "ucvm/interp_detail.hpp"

namespace uc::vm::detail {

using lang::ExprKind;
using lang::StmtKind;
using lang::UcConstructStmt;

namespace {

// One assignment statement of a solve body, with the predicate of the
// sc-block it came from.
struct SolveAssign {
  const Expr* pred = nullptr;  // block predicate (may be null)
  // Null for a block with no assignment: only its guard matters.
  const lang::AssignExpr* assign = nullptr;
  bool declares = false;  // calls_array_declarer(rhs)
  bool others = false;    // from the `others` arm
};

void collect_assigns(const Stmt& stmt, const Expr* pred, bool others,
                     std::vector<SolveAssign>& out) {
  switch (stmt.kind) {
    case StmtKind::kExpr: {
      const auto& es = static_cast<const lang::ExprStmt&>(stmt);
      if (es.expr->kind == ExprKind::kAssign) {
        const auto* a = static_cast<const lang::AssignExpr*>(es.expr.get());
        out.push_back(
            SolveAssign{pred, a, calls_array_declarer(*a->rhs), others});
      }
      return;
    }
    case StmtKind::kCompound:
      for (const auto& s : static_cast<const lang::CompoundStmt&>(stmt).body) {
        collect_assigns(*s, pred, others, out);
      }
      return;
    default:
      return;
  }
}

// The assignments of a solve's blocks and `others` arm, in order.  When
// `others` has an assignment, a block with none still gives one entry
// with a null `assign`: its guard decides which lanes `others` gets.
std::vector<SolveAssign> solve_assigns(const UcConstructStmt& stmt) {
  std::vector<SolveAssign> assigns;
  for (const auto& block : stmt.blocks) {
    const std::size_t before = assigns.size();
    collect_assigns(*block.body, block.pred.get(), false, assigns);
    if (assigns.size() == before) {
      assigns.push_back(SolveAssign{block.pred.get()});
    }
  }
  const std::size_t blocks_end = assigns.size();
  if (stmt.others) collect_assigns(*stmt.others, nullptr, true, assigns);
  if (assigns.size() == blocks_end) {
    std::erase_if(assigns, [](const SolveAssign& a) { return !a.assign; });
  }
  return assigns;
}

}  // namespace

void Impl::exec_solve(const UcConstructStmt& stmt, LaneSpace& space,
                      Frame* frame) {
  const std::vector<SolveAssign> assigns = solve_assigns(stmt);
  if (assigns.empty()) return;

  const auto lane_count = space.lane_count();

  // Pre-pass, against the pre-solve state: evaluate each block predicate
  // (solve predicates select which equations exist, so they see the state
  // as of entry — docs/LANGUAGE.md) and resolve each enabled lane's target
  // address.  Only those exact elements receive the paper's "impossible
  // value"; elements the solve never assigns (e.g. boundary cells written
  // before the solve) stay defined and readable.  The `others` equations,
  // collected last, exist on the lanes no block's guard enabled.  A block
  // with no equation has its guard evaluated and charged once, as one
  // equation's guard is, for those lanes alone.
  struct LaneTarget {
    std::int64_t lane;
    WriteTarget target;
  };
  std::vector<std::vector<LaneTarget>> enabled(assigns.size());
  std::unordered_set<ArrayObj*> targets;
  std::unordered_map<WriteTarget, const Expr*, WriteTargetHash> claimed;
  LaneList guarded(lane_lists_);  // lanes a guard enabled, for `others`
  guarded->assign(stmt.others ? static_cast<std::size_t>(lane_count) : 0, 0);
  for (std::size_t a = 0; a < assigns.size(); ++a) {
    if (assigns[a].pred != nullptr || assigns[a].assign != nullptr) {
      charge_expr(assigns[a].pred != nullptr ? *assigns[a].pred
                                             : *assigns[a].assign->lhs,
                  space.geom_size, /*frontend=*/false, &space);
    }
    for (std::int64_t l = 0; l < lane_count; ++l) {
      EvalCtx ctx;
      ctx.vm = this;
      ctx.space = &space;
      ctx.lane = l;
      ctx.frame = frame;
      ctx.statement_frame = frame;
      const auto lane = static_cast<std::size_t>(l);
      if (assigns[a].others ? (*guarded)[lane] != 0
                            : assigns[a].pred != nullptr &&
                                  !eval(*assigns[a].pred, ctx).truthy()) {
        continue;
      }
      if (stmt.others && !assigns[a].others) (*guarded)[lane] = 1;
      if (assigns[a].assign == nullptr) continue;
      auto target = resolve_lvalue(*assigns[a].assign->lhs, ctx);
      if (!target) continue;
      auto [it, inserted] =
          claimed.try_emplace(*target, assigns[a].assign);
      if (!inserted) {
        runtime_error(assigns[a].assign,
                      "solve assigns the same element from more than one "
                      "equation (not a proper set, paper §3.6)");
      }
      enabled[a].push_back(LaneTarget{l, *target});
      targets.insert(static_cast<ArrayObj*>(target->obj));
    }
  }
  for (const auto& [target, where] : claimed) {
    static_cast<ArrayObj*>(target.obj)->clear_defined_at(target.index);
  }

  // done[a][k]: entry k of enabled[a] has fired.
  std::vector<std::vector<std::uint8_t>> done(assigns.size());
  for (std::size_t a = 0; a < assigns.size(); ++a) {
    done[a].assign(enabled[a].size(), 0);
  }

  std::int64_t rounds = 0;
  for (;;) {
    check_deadline(&stmt);
    bool progress = false;
    bool all_done = true;
    for (std::size_t a = 0; a < assigns.size(); ++a) {
      if (assigns[a].assign == nullptr) continue;
      ckpt->note_statement();
      maybe_die();  // deterministic pre-equation kill point (tools/soak.sh)
      ++stmt_counter;
      const std::uint64_t stmt_id = stmt_counter;
      const auto n = static_cast<std::int64_t>(enabled[a].size());
      if (n == 0) continue;
      // Attribute each equation's rounds to its own assignment site.
      ProfScope prof_scope(*this, assigns[a].assign, "solve-eq",
                           assigns[a].assign->range);
      std::vector<std::vector<Write>> writes(static_cast<std::size_t>(n));
      std::vector<cm::AccessStats> stats(static_cast<std::size_t>(n));
      std::vector<std::uint8_t> fired(static_cast<std::size_t>(n), 0);
      machine.pool().parallel_for(
          0, n,
          [&](std::int64_t b, std::int64_t e_) {
            for (std::int64_t k = b; k < e_; ++k) {
              if (done[a][static_cast<std::size_t>(k)] != 0) continue;
              const auto& lt = enabled[a][static_cast<std::size_t>(k)];
              EvalCtx ctx;
              ctx.vm = this;
              ctx.space = &space;
              ctx.lane = lt.lane;
              ctx.frame = frame;
              ctx.statement_frame = frame;
              ctx.writes = &writes[static_cast<std::size_t>(k)];
              ctx.stats = &stats[static_cast<std::size_t>(k)];
              ctx.solve_mode = true;
              ctx.solve_targets = &targets;
              const auto vp = static_cast<std::uint64_t>(space.vps[lt.lane]);
              ctx.rng.seed(base_seed ^ (stmt_id * 0x9e3779b97f4a7c15ull) ^
                           (vp + 0x5851f42d4c957f2dull));
              ctx.rng_seeded = true;
              ctx.undef = false;
              Value v = eval(*assigns[a].assign->rhs, ctx);
              if (ctx.undef) {
                writes[static_cast<std::size_t>(k)].clear();  // not ready
              } else {
                writes[static_cast<std::size_t>(k)].push_back(Write{
                    lt.target, v.coerce(assigns[a].assign->lhs->type.scalar),
                    assigns[a].assign});
                fired[static_cast<std::size_t>(k)] = 1;
              }
            }
          },
          // A grain of n runs every lane on the issuing thread.
          assigns[a].declares ? n : 64);

      // Charge one *par-style round for this assignment.
      charge_expr(*assigns[a].assign, space.geom_size, /*frontend=*/false,
                  &space);
      cm::AccessStats total;
      for (const auto& s : stats) total.merge(s);
      machine.charge_access(space.geom_size, total);

      commit_writes(writes);
      for (std::int64_t k = 0; k < n; ++k) {
        if (fired[static_cast<std::size_t>(k)] != 0) {
          done[a][static_cast<std::size_t>(k)] = 1;
          progress = true;
        }
        all_done = all_done && done[a][static_cast<std::size_t>(k)] != 0;
      }
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
      if (a.assign == nullptr) continue;
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
