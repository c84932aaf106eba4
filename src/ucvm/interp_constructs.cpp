// Parallel execution: lane-space expansion, synchronous statement
// execution with conflict-checked commits, the block runner, and the
// par / seq / oneof constructs (solve lives in interp_solve.cpp).
#include <algorithm>
#include <optional>

#include "support/error.hpp"
#include "support/str.hpp"
#include "uclang/access.hpp"
#include "ucvm/checkpoint.hpp"
#include "ucvm/interp_detail.hpp"
#include "ucvm/kernel/kernel.hpp"
#include "xform/affine.hpp"

namespace uc::vm::detail {

using lang::ScBlock;
using lang::StmtKind;
using lang::UcConstructStmt;
using lang::UcOp;

// ---------------------------------------------------------------------------
// Expansion
// ---------------------------------------------------------------------------

void Impl::expand(LaneSpace& child, LaneSpace& parent,
                  const std::vector<std::int64_t>& active,
                  const std::vector<Symbol*>& sets) {
  // `child` may be a recycled space: every field is rewritten, and the
  // per-lane vectors keep their capacity (a same-sized refill allocates
  // nothing).  The geometry depends only on the parent's geometry, the
  // sets and the lanes, so a child last built from exactly those is kept.
  child.parent = &parent;
  child.locals.clear();
  if (parent.build != 0 && child.built_from == parent.build &&
      std::ranges::equal(child.built_sets, sets) &&
      child.built_active == active) {
    return;
  }
  child.build = new_build();
  child.built_from = parent.build;
  child.built_sets.assign(sets.begin(), sets.end());
  child.built_active.assign(active.begin(), active.end());
  child.frontend = false;
  child.elems.clear();
  // Geometry: the parent's dims extended by the set sizes (the front end
  // contributes no dims).
  child.dims.clear();
  if (!parent.frontend) {
    child.dims.assign(parent.dims.begin(), parent.dims.end());
  }
  std::int64_t prod = 1;
  for (const Symbol* s : sets) {
    const auto size = static_cast<std::int64_t>(s->index_set->values.size());
    child.elems.push_back(s->index_set->elem);
    child.dims.push_back(size);
    prod *= size;
  }
  child.geom_size = (parent.frontend ? 1 : parent.geom_size) * prod;
  const auto values = [&sets](std::size_t k) -> const auto& {
    return sets[k]->index_set->values;
  };

  const std::size_t k_sets = sets.size();
  const std::size_t n_dims = child.dims.size();
  const auto lanes = static_cast<std::int64_t>(active.size()) * prod;
  child.elem_vals.resize(static_cast<std::size_t>(lanes) * k_sets);
  child.parent_lane.resize(static_cast<std::size_t>(lanes));
  child.vps.resize(static_cast<std::size_t>(lanes));
  child.coords.resize(static_cast<std::size_t>(lanes) * n_dims);

  std::int64_t out = 0;
  std::vector<std::size_t> pos(k_sets, 0);
  for (std::int64_t pl : active) {
    std::fill(pos.begin(), pos.end(), 0);
    const std::int64_t parent_vp = parent.frontend ? 0 : parent.vps[pl];
    const std::size_t parent_dims = parent.frontend ? 0 : parent.dims.size();
    for (std::int64_t t = 0; t < prod; ++t, ++out) {
      child.parent_lane[static_cast<std::size_t>(out)] = pl;
      // Element values + tuple flat position.
      std::int64_t tuple_flat = 0;
      for (std::size_t k = 0; k < k_sets; ++k) {
        child.elem_vals[static_cast<std::size_t>(out) * k_sets + k] =
            values(k)[pos[k]];
        tuple_flat =
            tuple_flat * static_cast<std::int64_t>(values(k).size()) +
            static_cast<std::int64_t>(pos[k]);
      }
      child.vps[static_cast<std::size_t>(out)] = parent_vp * prod + tuple_flat;
      // Coordinates: parent coords ++ tuple positions.
      auto* dst = &child.coords[static_cast<std::size_t>(out) * n_dims];
      for (std::size_t d = 0; d < parent_dims; ++d) {
        dst[d] = parent.coords[static_cast<std::size_t>(pl) * parent_dims + d];
      }
      for (std::size_t k = 0; k < k_sets; ++k) {
        dst[parent_dims + k] = static_cast<std::int64_t>(pos[k]);
      }
      for (std::size_t k = k_sets; k-- > 0;) {
        if (++pos[k] < values(k).size()) break;
        pos[k] = 0;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Synchronous evaluation over lanes
// ---------------------------------------------------------------------------

bool calls_array_declarer(const Expr& e) {
  if (e.kind == lang::ExprKind::kCall) {
    const Symbol* callee = static_cast<const lang::CallExpr&>(e).symbol;
    if (callee != nullptr && callee->func != nullptr &&
        callee->func->declares_array) {
      return true;
    }
  }
  bool declares = false;
  lang::for_each_child(e, [&declares](const Expr& child) {
    declares = declares || calls_array_declarer(child);
  });
  return declares;
}

std::uint64_t Impl::begin_statement() {
  check_deadline(nullptr);
  ckpt->note_statement();
  maybe_die();  // deterministic pre-statement kill point (tools/soak.sh)
  return ++stmt_counter;
}

void Impl::eval_lanes(const Expr& expr, LaneSpace& space,
                      const std::vector<std::int64_t>& active, Frame* frame,
                      std::vector<Value>* values, const LaneRun* ran) {
  const std::uint64_t stmt_id = begin_statement();

  // Statement-level attribution scope.  Every engine executes inside it,
  // so the per-site deltas are engine-independent wherever the charges
  // are.
  ProfScope prof_scope(*this, &expr, "stmt", expr.range);
  const LaneSite& site = lane_site(expr, space);

  if (values != nullptr) values->resize(active.size());
  Value* const results = values != nullptr ? values->data() : nullptr;

  LaneRun own;
  const LaneRun& run = ran != nullptr ? *ran : own;
  retry_transient(*this, [&]() {
    // Charge the static cost first: this also annotates reductions with the
    // processor-optimisation decision the evaluator consults.  The charge
    // goes through the communication-plan cache: a repeat execution of the
    // same statement signature replays the recorded recipe instead of
    // re-deriving it.
    charge_expr_planned(expr, space, /*rider=*/false);

    // The statement's planned kernel, linked per execution, fixes which
    // reads are classified; statements the lowering or the link does not
    // cover run on the walk on every engine.
    if (ran == nullptr) {
      const Expr* const stmts[1] = {&expr};
      const kernel::Kernel* kern =
          kernel_engine().prepare(site.kernel, space, frame);
      run_lanes(stmts, 1, kern, site.declares, space, active, frame, stmt_id,
                results, own);
    }
    if (prof != nullptr) prof->note_engine(run.tier);
    machine.charge_access(space.geom_size, run.member_stats[0]);
    commit_lanes(run);
  });
}

void Impl::run_lanes(const Expr* const* stmts, std::size_t count,
                     const kernel::Kernel* kern, bool declares,
                     LaneSpace& space,
                     const std::vector<std::int64_t>& active, Frame* frame,
                     std::uint64_t first_stmt_id, Value* results,
                     LaneRun& run,
                     const std::unordered_set<ArrayObj*>* solve_targets) {
  if (kern != nullptr && opts.engine != ExecEngine::kWalk) {
    const bool native = kernel_engine().run(*kern, space, active, frame,
                                            first_stmt_id, results,
                                            run.member_stats);
    run.tier = native ? prof::Tier::kNative : prof::Tier::kBytecode;
    return;
  }
  run.tier = prof::Tier::kWalk;
  const auto n = static_cast<std::int64_t>(active.size());
  run.writes.assign(static_cast<std::size_t>(n), {});
  run.prints.assign(static_cast<std::size_t>(n), {});
  // Per (lane, member), merged per member below.
  std::vector<cm::AccessStats> stats(static_cast<std::size_t>(n) * count);

  const auto run_range = [&](std::int64_t b, std::int64_t e_) {
    for (std::int64_t k = b; k < e_; ++k) {
      const auto lane = static_cast<std::size_t>(k);
      EvalCtx ctx;
      ctx.vm = this;
      ctx.space = &space;
      ctx.lane = active[lane];
      ctx.frame = frame;
      ctx.statement_frame = frame;
      ctx.writes = &run.writes[lane];
      ctx.print_out = &run.prints[lane];
      ctx.kernel = kern;
      ctx.solve_targets = solve_targets;
      const auto vp = static_cast<std::uint64_t>(space.vps[ctx.lane]);
      for (std::size_t m = 0; m < count; ++m) {
        ctx.stats = &stats[lane * count + m];
        // Per-lane RNG seeded from the member's statement id, so all lanes
        // of one statement share one instance id (as the kernels do).
        ctx.rng.seed(base_seed ^
                     ((first_stmt_id + m) * 0x9e3779b97f4a7c15ull) ^
                     (vp + 0x5851f42d4c957f2dull));
        ctx.rng_seeded = true;
        const Value v = eval(*stmts[m], ctx);
        if (results != nullptr && m + 1 == count) results[k] = v;
      }
      if (ctx.undef) run.writes[lane].clear();  // a solve lane not ready
    }
  };
  // A grain of n runs every lane on the issuing thread.
  machine.pool().parallel_for(0, n, run_range, declares ? n : 64);

  run.member_stats.assign(count, cm::AccessStats{});
  for (std::size_t k = 0; k < stats.size(); ++k) {
    run.member_stats[k % count].merge(stats[k]);
  }
}

void Impl::commit_lanes(const LaneRun& run) {
  if (run.tier != prof::Tier::kWalk) {
    kernel_engine().commit();
    return;
  }
  commit_runs_.assign(run.writes.begin(), run.writes.end());
  commit(commit_runs_, /*unique=*/false);
  for (const auto& p : run.prints) output += p;
}

// ---------------------------------------------------------------------------
// The lane plan and statement fusion (docs/VM.md "Lane plan", "Fusion")
// ---------------------------------------------------------------------------

namespace {

// Exact per-dimension affine equality — the shape of cross-statement
// dependence the fused engine's store-load forwarding can satisfy.
bool forms_equal(const xform::LinearForm& a, const xform::LinearForm& b) {
  if (!a.exact || !b.exact || a.constant != b.constant) return false;
  for (const auto& t : a.terms) {
    if (b.coeff_of(t.sym) != t.coeff) return false;
  }
  for (const auto& t : b.terms) {
    if (a.coeff_of(t.sym) != t.coeff) return false;
  }
  return true;
}

bool same_affine_subscript(const lang::SubscriptExpr* a,
                           const lang::SubscriptExpr* b) {
  if (a == nullptr || b == nullptr) return false;
  if (a->indices.size() != b->indices.size()) return false;
  for (std::size_t d = 0; d < a->indices.size(); ++d) {
    if (!forms_equal(xform::linearize(*a->indices[d]),
                     xform::linearize(*b->indices[d]))) {
      return false;
    }
  }
  return true;
}

// Whether a statement can join a fused group at all.
bool member_fusable(const lang::AccessSet& s) {
  if (s.has_user_call) return false;  // opaque effects
  for (const auto& a : s.accesses) {
    if (a.is_write && a.reduce != nullptr) return false;
  }
  return true;
}

// Whether member j (executing after member i in the unfused order) can
// share a kernel with i.  Conservative where it must be: the bytecode
// optimizer's forwarding check is the final authority, so a pair admitted
// here that turns out unsafe at the register level still compiles to
// nothing and runs unfused.
//   - i-written scalar touched by j at all: j would see a stale value (reads
//     are pre-group) or trip the merged commit's conflict check (writes).
//   - write-write on an array: sequential overwrite is legal unfused but a
//     conflict under the single merged commit.
//   - i-written array read by j: only when every such read uses the exact
//     same affine subscript as an i-write, so per-lane forwarding covers it
//     (a read under a reduction gathers other lanes' elements — blocked).
bool pair_fusable(const lang::AccessSet& i, const lang::AccessSet& j) {
  for (const auto& wi : i.accesses) {
    if (!wi.is_write) continue;
    for (const auto& aj : j.accesses) {
      if (aj.base != wi.base) continue;
      if (wi.subscript == nullptr) return false;  // scalar hazard
      if (aj.is_write) return false;              // array write-write
      if (aj.reduce != nullptr) return false;     // gathered read
      if (!same_affine_subscript(wi.subscript, aj.subscript)) return false;
    }
  }
  return true;
}

// Partition of a compound body into maximal runs of consecutive fusable
// expression statements (the AST-level gate of docs/VM.md "Fusion").
std::vector<Impl::FusionSeg> fusion_segments(const lang::CompoundStmt& s) {
  const std::size_t n = s.body.size();
  std::vector<lang::AccessSet> acc(n);
  std::vector<bool> ok(n, false);
  for (std::size_t k = 0; k < n; ++k) {
    if (s.body[k]->kind != StmtKind::kExpr) continue;
    lang::collect_accesses(*s.body[k], acc[k]);
    ok[k] = member_fusable(acc[k]);
  }

  std::vector<Impl::FusionSeg> segs;
  std::size_t k = 0;
  while (k < n) {
    // Greedy: extend while the next statement is safe against every member
    // already in the group.
    std::size_t end = k + 1;
    while (ok[k] && end < n && ok[end]) {
      bool safe = true;
      for (std::size_t i = k; i < end && safe; ++i) {
        safe = pair_fusable(acc[i], acc[end]);
      }
      if (!safe) break;
      ++end;
    }
    Impl::FusionSeg& seg = segs.emplace_back();
    seg.begin = k;
    seg.count = end - k;
    for (std::size_t m = k; seg.count >= 2 && m < end; ++m) {
      seg.members.push_back(
          static_cast<const lang::ExprStmt&>(*s.body[m]).expr.get());
    }
    k = end;
  }
  return segs;
}

}  // namespace

bool Impl::exec_fused_group(const FusionSeg& seg, LaneSpace& space,
                            const std::vector<std::int64_t>& active,
                            Frame* frame, const LaneRun* ran) {
  const std::size_t count = seg.count;
  const std::vector<const Expr*>& stmts = seg.members;
  // Link.  Touches no interpreter state on failure, so declining here falls
  // back cleanly to statement-at-a-time execution.
  const kernel::Kernel* kern = nullptr;
  if (ran == nullptr) {
    kern = kernel_engine().prepare(seg.group.kernel, space, frame);
    if (kern == nullptr) return false;
  }

  check_deadline(nullptr);
  // The group is one transactional unit but still `count` statements for
  // checkpoint pacing and id assignment.
  for (std::size_t k = 0; k < count; ++k) ckpt->note_statement();
  maybe_die();  // deterministic pre-group kill point (tools/soak.sh)
  const std::uint64_t first_stmt_id = stmt_counter + 1;
  stmt_counter += count;

  LaneRun own;
  const LaneRun& run = ran != nullptr ? *ran : own;
  retry_transient(*this, [&]() {
    // Static charges, one per member under its own profiler scope so
    // per-site cycles keep summing to the aggregate.  Member 0 pays (or
    // plan-caches) the full front-end issue; riders share it and charge at
    // the planned issue overhead from their first execution.
    for (std::size_t k = 0; k < count; ++k) {
      ProfScope prof_scope(*this, stmts[k], "stmt", stmts[k]->range);
      charge_expr_planned(*stmts[k], space, /*rider=*/k != 0);
    }
    // One lane run for the whole group; host time lands on member 0.
    {
      ProfScope prof_scope(*this, stmts[0], "stmt", stmts[0]->range);
      if (ran == nullptr) {
        run_lanes(stmts.data(), count, kern, seg.group.declares, space,
                  active, frame, first_stmt_id, /*results=*/nullptr, own);
      }
    }
    for (std::size_t k = 0; k < count; ++k) {
      ProfScope prof_scope(*this, stmts[k], "stmt", stmts[k]->range);
      machine.charge_access(space.geom_size, run.member_stats[k]);
      if (prof != nullptr) {
        prof->note_engine(run.tier);
        prof->note_fused();
      }
    }
    // All faultable charges are behind us: apply the buffered writes of
    // every member in one conflict-checked commit, booked like the lane
    // run to member 0.
    ProfScope prof_scope(*this, stmts[0], "stmt", stmts[0]->range);
    commit_lanes(run);
  });
  return true;
}

namespace {

// Whether `u`'s sc-blocks run guard then body, block by block: par, seq,
// *solve and a one-block *par.  A multi-block *par, oneof and plain solve
// evaluate every guard before any body.
bool guards_in_turn(const UcConstructStmt& u) {
  switch (u.op) {
    case UcOp::kOneof: return false;
    case UcOp::kPar: return !u.starred || u.blocks.size() == 1;
    case UcOp::kSolve: return u.starred;
    default: return true;
  }
}

// Whether the kernel engines may run a guarded block of `u` as one kernel
// (docs/VM.md "Selection blocks"): its guards run in turn, no `others`
// needs the lanes it enabled, and it runs on an expanded lane space (a seq
// binds on its parent's).
bool merges_blocks(const UcConstructStmt& u) {
  return guards_in_turn(u) && !u.others && u.op != UcOp::kSeq;
}

// Where a statement runs: in a function body outside every construct (on
// the front end, not through eval_lanes), on the front end's lane space (a
// seq binds on its parent's space), or on a space a construct expanded.
enum class Where : std::uint8_t { kScalar, kFrontend, kExpanded };

// The walk behind Impl::build_lane_plan, the one place that decides each
// lane site's kernel.  It follows exec_scalar_stmt, exec_parallel_stmt
// and exec_nested_construct, which then only look their sites up.
struct Planner {
  Impl::LanePlan& plan;
  bool select = false;   // merge selection blocks (the kernel engines)
  std::size_t dims = 0;  // lane coordinates of the space being planned

  // Whether the link declines `k` on every space of `dims` coordinates: a
  // reduction whose expanded coordinates overflow the link's buffer.
  bool link_declines(const kernel::Kernel& k) const {
    return std::ranges::any_of(k.reduces, [this](const auto& r) {
      return dims + r.expr->index_set_syms.size() > kernel::kMaxLaneCoords;
    });
  }
  const kernel::Kernel* keep(std::unique_ptr<kernel::Kernel> k,
                             bool expanded) {
    if (k == nullptr || link_declines(*k)) return nullptr;
    const kernel::Kernel* kept = plan.kernels.emplace_back(std::move(k)).get();
    if (expanded) plan.expanded.push_back(kept);
    return kept;
  }

  Impl::LaneSite compile(const Expr* const* stmts, std::size_t n, Where w,
                         bool grouped) {
    Impl::LaneSite site;
    site.expanded = w == Where::kExpanded;
    for (std::size_t m = 0; m < n; ++m) {
      site.declares = site.declares || calls_array_declarer(*stmts[m]);
    }
    site.kernel =
        keep(kernel::compile_fused(stmts, n), site.expanded && !grouped);
    return site;
  }
  void add(const Expr* e, Where w, bool grouped = false) {
    if (e != nullptr && w != Where::kScalar) {
      plan.stmts.emplace(e, compile(&e, 1, w, grouped));
    }
  }

  void stmt(const Stmt& s, Where w) {
    switch (s.kind) {
      case StmtKind::kExpr:
        add(static_cast<const lang::ExprStmt&>(s).expr.get(), w);
        return;
      case StmtKind::kCompound: {
        const auto& c = static_cast<const lang::CompoundStmt&>(s);
        if (w == Where::kScalar) {
          for (const auto& child : c.body) stmt(*child, w);
          return;
        }
        // Every member of a group gets its own kernel too: it runs alone
        // when the group's link declines.
        std::vector<Impl::FusionSeg> segs = fusion_segments(c);
        for (Impl::FusionSeg& seg : segs) {
          if (seg.count == 1) {
            stmt(*c.body[seg.begin], w);
            continue;
          }
          seg.group = compile(seg.members.data(), seg.count, w, false);
          for (const Expr* e : seg.members) {
            add(e, w, seg.group.kernel != nullptr);
          }
        }
        plan.bodies.emplace(&c, std::move(segs));
        return;
      }
      case StmtKind::kVarDecl:
        for (const auto& d : static_cast<const lang::VarDeclStmt&>(s)
                                 .declarators) {
          if (d.symbol != nullptr) add(d.init.get(), w);
        }
        return;
      case StmtKind::kIf: {
        const auto& i = static_cast<const lang::IfStmt&>(s);
        add(i.cond.get(), w);
        stmt(*i.then_stmt, w);
        if (i.else_stmt) stmt(*i.else_stmt, w);
        return;
      }
      case StmtKind::kWhile: {
        const auto& wh = static_cast<const lang::WhileStmt&>(s);
        add(wh.cond.get(), w);
        stmt(*wh.body, w);
        return;
      }
      case StmtKind::kFor: {
        const auto& f = static_cast<const lang::ForStmt&>(s);
        if (f.init) stmt(*f.init, w);
        add(f.cond.get(), w);
        add(f.step.get(), w);
        stmt(*f.body, w);
        return;
      }
      case StmtKind::kUcConstruct: {
        const auto& u = static_cast<const UcConstructStmt&>(s);
        // A plain solve's guards are sites; its equations run on the walk.
        const bool equations = u.op != UcOp::kSolve || u.starred;
        const std::size_t outer_dims = dims;
        if (u.op != UcOp::kSeq) {
          w = Where::kExpanded;
          dims += u.index_set_syms.size();
        } else if (w == Where::kScalar) {
          w = Where::kFrontend;
        }
        const bool merges = select && merges_blocks(u);
        for (const auto& block : u.blocks) {
          add(block.pred.get(), w);
          if (equations) stmt(*block.body, w);
          if (merges && block.pred) selection(block);
        }
        if (u.others && equations) stmt(*u.others, w);
        dims = outer_dims;
        return;
      }
      default:
        return;
    }
  }

  // Plans `block` as one kernel when its guard and body both compiled and
  // the body is one expression statement or one fused group.  The merged
  // kernel replaces theirs in the native batch; theirs stay in the plan
  // for the runs it declines.
  void selection(const lang::ScBlock& block) {
    Impl::SelectionBlock sel;
    const kernel::Kernel* body = nullptr;
    if (block.body->kind == StmtKind::kExpr) {
      sel.body = static_cast<const lang::ExprStmt&>(*block.body).expr.get();
      body = plan.stmts.at(sel.body).kernel;
    } else if (block.body->kind == StmtKind::kCompound) {
      const auto& segs = plan.bodies.at(
          static_cast<const lang::CompoundStmt*>(block.body.get()));
      if (segs.size() != 1) return;
      sel.group = &segs[0];
      body = sel.group->group.kernel;
    }
    const kernel::Kernel* guard = plan.stmts.at(block.pred.get()).kernel;
    if (guard == nullptr || body == nullptr) return;
    const auto members = sel.members();
    sel.kernel = keep(kernel::compile_selection(*block.pred, members.data(),
                                                members.size()),
                      /*expanded=*/true);
    if (sel.kernel == nullptr) return;
    std::erase(plan.expanded, guard);
    std::erase(plan.expanded, body);
    plan.selections.emplace(&block, sel);
  }
};

}  // namespace

void Impl::build_lane_plan() {
  Planner planner{lane_plan_, opts.engine != ExecEngine::kWalk};
  for (const auto& item : unit.program->items) {
    if (item.func && item.func->body) {
      planner.stmt(*item.func->body, Where::kScalar);
    }
  }
}

const Impl::LaneSite& Impl::lane_site(const Expr& e, const LaneSpace& space) {
  auto it = lane_plan_.stmts.find(&e);
  if (it == lane_plan_.stmts.end() ||
      it->second.expanded == space.frontend) {
    runtime_error(&e, "internal error: the lane plan has no entry for this "
                      "statement on this lane space");
  }
  return it->second;
}

Impl::CommitArray& Impl::open_commit_array(ArrayObj& root) {
  WriteMarks& wm = root.write_marks();
  const auto n = static_cast<std::size_t>(root.size());
  if (wm.marks.size() != n) {
    wm.marks.assign(n, WriteMarks::Mark{});
    wm.stamp = 0;
  }
  if (++wm.stamp == 0) {  // stamp wrapped: no stale mark may read as live
    std::fill(wm.marks.begin(), wm.marks.end(), WriteMarks::Mark{});
    wm.stamp = 1;
  }
  wm.commit = commit_ordinal_;
  wm.slot = static_cast<std::uint32_t>(commit_arrays_.size());
  cm::Field& field = root.field();
  return commit_arrays_.emplace_back(
      CommitArray{&root, wm.marks.data(), field.raw().data(),
                  field.defined_raw().data(), n, wm.stamp, root.is_float()});
}

void Impl::commit_conflict(const Write& first, const Write& w) {
  std::string what = "conflicting parallel assignment";
  if (w.target.kind == WriteTarget::Kind::kArray) {
    auto* view = static_cast<ArrayObj*>(w.target.obj);
    ArrayObj& arr = view->root();
    std::int64_t coords[8];
    arr.unflatten(w.target.index + view->root_offset(), coords);
    what += " to ";
    what += support::element_name(arr.name(), {coords, arr.dims().size()});
  }
  what += ": values ";
  what += first.value.to_string();
  what += " and ";
  what += w.value.to_string();
  what += " (each variable may be assigned at most one value, paper §3.4)";
  runtime_error(w.where, what);
}

void Impl::commit(std::span<const WriteRun> runs, bool unique) {
  ++commit_ordinal_;
  commit_arrays_.clear();
  commit_seen_.begin();

  // Calls array(w, entry, element) for each array write in lane order, and
  // other(w) for each scalar write.  Consecutive writes usually hit the
  // same array, so its commit entry is looked up once per change, and an
  // array this commit has seen already (a lane writing two arrays in turn)
  // finds its entry through its marks without a call.
  const auto each_write = [&](auto&& array, auto&& other) {
    const void* last = nullptr;
    CommitArray* ca = nullptr;
    std::int64_t offset = 0;
    for (const WriteRun& run : runs) {
      for (const Write& w : run) {
        if (w.target.kind != WriteTarget::Kind::kArray) {
          other(w);
          continue;
        }
        if (w.target.obj != last) {
          auto* view = static_cast<ArrayObj*>(w.target.obj);
          const WriteMarks& wm = view->write_marks();
          ca = wm.commit == commit_ordinal_ ? &commit_arrays_[wm.slot]
                                            : &open_commit_array(view->root());
          offset = view->root_offset();
          last = view;
        }
        const auto e = static_cast<std::uint64_t>(w.target.index + offset);
        if (e >= ca->size) {
          throw support::ApiError("Field '" + ca->root->field().name() +
                                  "': VP index out of range");
        }
        array(w, *ca, e);
      }
    }
  };

  // Pass 1: conflict check in lane order, unless no two writes can share
  // a target.
  if (!unique) {
    each_write(
        [&](const Write& w, CommitArray& ca, std::uint64_t e) {
          WriteMarks::Mark& mark = ca.marks[e];
          if (mark.stamp != ca.stamp) {
            mark.first = &w;
            mark.stamp = ca.stamp;
          } else if (!(mark.first->value == w.value)) {
            commit_conflict(*mark.first, w);
          }
        },
        [&](const Write& w) {
          const Write* first = commit_seen_.check_insert(w);
          if (first != nullptr && !(first->value == w.value)) {
            commit_conflict(*first, w);
          }
        });
  }

  // Pass 2: apply in the same order, storing array elements straight into
  // the root field with the coercion ArrayObj::store would apply.
  each_write(
      [](const Write& w, CommitArray& ca, std::uint64_t e) {
        ca.data[e] = ca.flt ? cm::from_float(w.value.as_float())
                            : cm::from_int(w.value.as_int());
        ca.defined[e] = 1;
      },
      [&](const Write& w) { apply_write(w.target, w.value); });
}

namespace {

// The candidates whose predicate value is true, in order.
void keep_truthy(const std::vector<Value>& vals,
                 const std::vector<std::int64_t>& candidates,
                 std::vector<std::int64_t>& enabled) {
  enabled.clear();
  enabled.reserve(candidates.size());
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    if (vals[k].truthy()) enabled.push_back(candidates[k]);
  }
}

}  // namespace

void Impl::filter_lanes(const Expr& pred, LaneSpace& space,
                        const std::vector<std::int64_t>& candidates,
                        Frame* frame, std::vector<std::int64_t>& enabled) {
  ValueList vals(value_lists_);
  eval_lanes(pred, space, candidates, frame, &*vals);
  keep_truthy(*vals, candidates, enabled);
}

// ---------------------------------------------------------------------------
// Parallel statement execution
// ---------------------------------------------------------------------------

void Impl::exec_parallel_stmt(const Stmt& stmt, LaneSpace& space,
                              const std::vector<std::int64_t>& active,
                              Frame* frame) {
  if (active.empty()) return;
  switch (stmt.kind) {
    case StmtKind::kEmpty:
    case StmtKind::kIndexSetDecl:
      return;
    case StmtKind::kExpr: {
      const auto& s = static_cast<const lang::ExprStmt&>(stmt);
      eval_lanes(*s.expr, space, active, frame);
      return;
    }
    case StmtKind::kCompound: {
      const auto& s = static_cast<const lang::CompoundStmt&>(stmt);
      // Fusion (docs/VM.md): the plan's compiled groups run as one; a
      // group whose link declines runs its members one at a time.
      const auto it = lane_plan_.bodies.find(&s);
      if (it == lane_plan_.bodies.end()) {
        runtime_error(&stmt, "internal error: the lane plan has no entry "
                             "for this compound statement");
      }
      for (const FusionSeg& seg : it->second) {
        if (seg.group.kernel != nullptr &&
            exec_fused_group(seg, space, active, frame)) {
          continue;
        }
        for (std::size_t k = 0; k < seg.count; ++k) {
          exec_parallel_stmt(*s.body[seg.begin + k], space, active, frame);
        }
      }
      return;
    }
    case StmtKind::kVarDecl: {
      const auto& s = static_cast<const lang::VarDeclStmt&>(stmt);
      for (const auto& d : s.declarators) {
        if (d.symbol == nullptr) continue;
        auto& store = space.locals[d.symbol->slot];
        store.assign(static_cast<std::size_t>(space.lane_count()),
                     Value::of_int(0).coerce(d.symbol->type.scalar));
        if (d.init) {
          ValueList vals(value_lists_);
          eval_lanes(*d.init, space, active, frame, &*vals);
          for (std::size_t k = 0; k < active.size(); ++k) {
            store[static_cast<std::size_t>(active[k])] =
                (*vals)[k].coerce(d.symbol->type.scalar);
          }
        }
      }
      return;
    }
    case StmtKind::kIf: {
      const auto& s = static_cast<const lang::IfStmt&>(stmt);
      ValueList vals(value_lists_);
      eval_lanes(*s.cond, space, active, frame, &*vals);
      LaneList then_lanes(lane_lists_), else_lanes(lane_lists_);
      then_lanes->clear();
      else_lanes->clear();
      for (std::size_t k = 0; k < active.size(); ++k) {
        ((*vals)[k].truthy() ? *then_lanes : *else_lanes).push_back(active[k]);
      }
      if (!then_lanes->empty()) {
        exec_parallel_stmt(*s.then_stmt, space, *then_lanes, frame);
      }
      if (s.else_stmt && !else_lanes->empty()) {
        exec_parallel_stmt(*s.else_stmt, space, *else_lanes, frame);
      }
      return;
    }
    case StmtKind::kWhile: {
      const auto& s = static_cast<const lang::WhileStmt&>(stmt);
      // Data-parallel while: the active set narrows monotonically.
      LaneList live(lane_lists_), next(lane_lists_);
      live->assign(active.begin(), active.end());
      std::int64_t guard = 0;
      for (;;) {
        check_deadline(&stmt);
        filter_lanes(*s.cond, space, *live, frame, *next);
        std::swap(*live, *next);
        machine.charge_global_or();
        if (live->empty()) return;
        exec_parallel_stmt(*s.body, space, *live, frame);
        count_round(stmt, guard, "while loop inside a parallel construct");
      }
    }
    case StmtKind::kFor: {
      const auto& s = static_cast<const lang::ForStmt&>(stmt);
      if (s.init) exec_parallel_stmt(*s.init, space, active, frame);
      LaneList live(lane_lists_), next(lane_lists_);
      live->assign(active.begin(), active.end());
      std::int64_t guard = 0;
      for (;;) {
        check_deadline(&stmt);
        if (s.cond) {
          filter_lanes(*s.cond, space, *live, frame, *next);
          std::swap(*live, *next);
          machine.charge_global_or();
          if (live->empty()) return;
        }
        exec_parallel_stmt(*s.body, space, *live, frame);
        if (s.step) eval_lanes(*s.step, space, *live, frame);
        count_round(stmt, guard, "for loop inside a parallel construct");
        if (!s.cond) {
          runtime_error(&stmt,
                        "for loop without a condition inside a parallel "
                        "construct never terminates");
        }
      }
    }
    case StmtKind::kUcConstruct: {
      const auto& s = static_cast<const UcConstructStmt&>(stmt);
      exec_nested_construct(s, space, active, frame);
      return;
    }
    case StmtKind::kReturn:
    case StmtKind::kBreak:
    case StmtKind::kContinue:
      runtime_error(&stmt,
                    "return/break/continue cannot appear directly inside a "
                    "parallel construct body");
    case StmtKind::kMapSection:
      runtime_error(&stmt, "map sections cannot run in a parallel context");
  }
}

// ---------------------------------------------------------------------------
// The constructs
// ---------------------------------------------------------------------------

void Impl::exec_nested_construct(const UcConstructStmt& stmt,
                                 LaneSpace& parent,
                                 const std::vector<std::int64_t>& active,
                                 Frame* frame) {
  if (stmt.index_set_syms.size() != stmt.index_sets.size()) {
    runtime_error(&stmt, "construct has unresolved index sets");
  }
  const char* kind = "par";
  switch (stmt.op) {
    case UcOp::kSeq: kind = "seq"; break;
    case UcOp::kPar: kind = stmt.starred ? "*par" : "par"; break;
    case UcOp::kOneof: kind = stmt.starred ? "*oneof" : "oneof"; break;
    case UcOp::kSolve: kind = stmt.starred ? "*solve" : "solve"; break;
  }
  ProfScope prof_scope(*this, &stmt, kind, stmt.range);
  check_deadline(&stmt);

  // The expanded lane space is leased, so each execution of this construct
  // (every round of an enclosing seq or *solve) refills the storage of the
  // one before.  Expansion is hoisted out of the replay loop: it is
  // deterministic and chargeless (it can never fault), and a restored
  // checkpoint's lane-local snapshots point into this space, which must
  // stay alive across replays.
  std::optional<support::FreeList<LaneSpace>::Lease> lease;
  LaneSpace* child = nullptr;
  if (stmt.op != UcOp::kSeq) {
    child = &*lease.emplace(spaces_);
    expand(*child, parent, active, stmt.index_set_syms);
  }

  // Construct-level recovery anchor (docs/ROBUSTNESS.md).  solve must
  // capture at entry: its rounds carry pending-lane bookkeeping and cleared
  // defined bits that only an entry snapshot can rewind (its guards retry
  // as statements, but its equation rounds bypass the eval_lanes
  // statement-retry net).
  RecoveryScope rscope(*this);
  rscope.safe_point(child != nullptr ? child : &parent, frame,
                    /*mandatory=*/stmt.op == UcOp::kSolve && !stmt.starred);

  for (;;) {
    try {
      switch (stmt.op) {
        case UcOp::kSeq: {
          exec_seq(stmt, parent, active, frame, rscope);
          return;
        }
        case UcOp::kPar:
        case UcOp::kOneof: {
          if (!stmt.starred) {
            (void)run_blocks(stmt, *child, frame);
            return;
          }
          std::int64_t rounds = 0;
          for (;;) {
            check_deadline(&stmt);
            // Sweep top: a valid redo point — the fixed-point loop carries
            // no state besides the machine itself, so restoring here and
            // re-dispatching from construct entry resumes this sweep.
            rscope.safe_point(child, frame);
            machine.charge_global_or();
            if (!run_blocks(stmt, *child, frame)) return;
            count_round(stmt, rounds, kind);
          }
        }
        case UcOp::kSolve: {
          if (stmt.starred) {
            exec_star_solve(stmt, *child, frame, rscope);
          } else {
            exec_solve(stmt, *child, frame);
          }
          return;
        }
      }
      return;
    } catch (const support::TransientFault&) {
      // Innermost scope with a snapshot wins; otherwise let the fault
      // unwind to an enclosing construct or the top-level net in run().
      if (!rscope.try_recover()) throw;
    }
  }
}

void Impl::exec_seq(const UcConstructStmt& stmt, LaneSpace& parent,
                    const std::vector<std::int64_t>& active, Frame* frame,
                    RecoveryScope& rscope) {
  // seq iterates the Cartesian product in declaration order, binding the
  // elements for the *same* lanes (no VP expansion, paper §3.5).  So the
  // binding space is built once: each tuple rewrites only its element
  // values and starts with no lane locals.
  LaneSpace bind;
  bind.build = new_build();
  bind.parent = &parent;
  bind.frontend = parent.frontend;
  bind.dims = parent.dims;
  bind.geom_size = parent.geom_size;
  std::int64_t prod = 1;
  for (const Symbol* s : stmt.index_set_syms) {
    bind.elems.push_back(s->index_set->elem);
    prod *= static_cast<std::int64_t>(s->index_set->values.size());
  }
  const auto values = [&stmt](std::size_t s) -> const auto& {
    return stmt.index_set_syms[s]->index_set->values;
  };
  const std::size_t k_sets = bind.elems.size();
  const std::size_t n_dims = bind.dims.size();
  bind.parent_lane = active;
  bind.vps.resize(active.size());
  bind.coords.resize(active.size() * n_dims);
  bind.elem_vals.resize(active.size() * k_sets);
  for (std::size_t k = 0; k < active.size(); ++k) {
    const auto pl = static_cast<std::size_t>(active[k]);
    bind.vps[k] = parent.vps[pl];
    for (std::size_t d = 0; d < n_dims; ++d) {
      bind.coords[k * n_dims + d] = parent.coords[pl * n_dims + d];
    }
  }

  std::int64_t rounds = 0;
  for (;;) {  // once for plain seq; repeated for *seq
    check_deadline(&stmt);
    // *seq sweep top: the tuple loop rebinds every element from scratch
    // each sweep, so this is a valid redo point.
    if (stmt.starred) rscope.safe_point(&parent, frame);
    bool any_enabled_this_sweep = false;
    std::vector<std::size_t> pos(k_sets, 0);
    for (std::int64_t t = 0; t < prod; ++t) {
      bind.locals.clear();
      for (std::size_t k = 0; k < active.size(); ++k) {
        for (std::size_t s = 0; s < k_sets; ++s) {
          bind.elem_vals[k * k_sets + s] = values(s)[pos[s]];
        }
      }

      if (run_blocks(stmt, bind, frame)) any_enabled_this_sweep = true;

      for (std::size_t k = k_sets; k-- > 0;) {
        if (++pos[k] < values(k).size()) break;
        pos[k] = 0;
      }
    }
    if (!stmt.starred) return;
    machine.charge_global_or();
    if (!any_enabled_this_sweep) return;
    if (stmt.blocks.size() == 1 && !stmt.blocks[0].pred) {
      runtime_error(&stmt, "*seq without a predicate never terminates");
    }
    count_round(stmt, rounds, "*seq");
  }
}

const Impl::SelectionBlock* Impl::selection(const ScBlock& block) const {
  const auto it = lane_plan_.selections.find(&block);
  return it != lane_plan_.selections.end() ? &it->second : nullptr;
}

bool Impl::exec_selection(const ScBlock& block, const SelectionBlock& sel,
                          LaneSpace& space, Frame* frame) {
  const Expr& guard = *block.pred;
  const std::vector<std::int64_t>& all = space.all_lanes();
  // The guard's statement, as eval_lanes makes it, with the merged
  // kernel's lane run for its own.
  const std::uint64_t guard_id = begin_statement();
  LaneRun run;
  bool merged = false;
  ValueList vals(value_lists_);
  {
    ProfScope prof_scope(*this, &guard, "stmt", guard.range);
    bool ran = false;
    retry_transient(*this, [&]() {
      charge_expr_planned(guard, space, /*rider=*/false);
      // Lane runs charge nothing, so a retry charges again without
      // running the lanes again.
      if (!ran) {
        ran = true;
        merged = run_selection(sel, space, frame, guard_id, run);
        if (!merged) {
          const Expr* const stmts[1] = {&guard};
          const LaneSite& site = lane_site(guard, space);
          vals->resize(all.size());
          run_lanes(stmts, 1,
                    kernel_engine().prepare(site.kernel, space, frame),
                    site.declares, space, all, frame, guard_id, vals->data(),
                    run);
        }
      }
      if (prof != nullptr) prof->note_engine(run.tier);
      machine.charge_access(space.geom_size, run.member_stats[0]);
      if (!merged) commit_lanes(run);
    });
  }
  if (!merged) {
    // The unmerged block: the body over the lanes the guard enabled.
    LaneList enabled(lane_lists_);
    keep_truthy(*vals, all, *enabled);
    if (enabled->empty()) return false;
    exec_parallel_stmt(*block.body, space, *enabled, frame);
    return true;
  }
  if (kernel_engine().enabled_lanes() == 0) return false;
  // The body's statements charge and commit the merged run.
  run.member_stats.erase(run.member_stats.begin());
  if (sel.group != nullptr) {
    exec_fused_group(*sel.group, space, all, frame, &run);
  } else {
    eval_lanes(*sel.body, space, all, frame, /*values=*/nullptr, &run);
  }
  return true;
}

bool Impl::run_selection(const SelectionBlock& sel, LaneSpace& space,
                         Frame* frame, std::uint64_t guard_id, LaneRun& run) {
  // The link and the run read the body's partition decisions, which its
  // charges set only after the run.
  for (const Expr* m : sel.members()) annotate_partitions(*m, space);
  const kernel::Kernel* kern = kernel_engine().prepare(sel.kernel, space, frame);
  if (kern == nullptr) return false;
  try {
    const bool native =
        kernel_engine().run(*kern, space, space.all_lanes(), frame, guard_id,
                            /*results=*/nullptr, run.member_stats);
    run.tier = native ? prof::Tier::kNative : prof::Tier::kBytecode;
    return true;
  } catch (const support::UcRuntimeError&) {
    // Run unmerged, the block raises the same error from the same lane,
    // or a later lane's guard error before an earlier lane's body error.
    return false;
  }
}

Impl::BlockLanes::BlockLanes(Impl& vm, const UcConstructStmt& stmt,
                             LaneSpace& space)
    : stmt(stmt), all(space.all_lanes()), table(vm.lane_tables_) {
  table->resize(stmt.blocks.size());
}

const std::vector<std::int64_t>& Impl::BlockLanes::operator[](
    std::size_t b) const {
  return stmt.blocks[b].pred ? (*table)[b] : all;
}

void Impl::BlockLanes::others(std::size_t ran,
                              std::vector<std::int64_t>& rest) const {
  // Mark each enabled lane, then compact the unmarked positions, which are
  // their own lane numbers, in place.
  const std::size_t n = stmt.blocks.size();
  rest.assign(all.size(), 0);
  for (std::size_t b = 0; b < n; ++b) {
    if (ran != n && b != ran) continue;
    for (const std::int64_t l : (*this)[b]) {
      rest[static_cast<std::size_t>(l)] = 1;
    }
  }
  std::size_t kept = 0;
  for (std::size_t k = 0; k < rest.size(); ++k) {
    if (rest[k] == 0) rest[kept++] = static_cast<std::int64_t>(k);
  }
  rest.resize(kept);
}

bool Impl::run_guards(const UcConstructStmt& stmt, LaneSpace& space,
                      Frame* frame, BlockLanes& lanes) {
  const bool in_turn = guards_in_turn(stmt);
  bool any = false;
  for (std::size_t b = 0; b < stmt.blocks.size(); ++b) {
    const ScBlock& block = stmt.blocks[b];
    if (const SelectionBlock* sel = selection(block)) {
      if (exec_selection(block, *sel, space, frame)) any = true;
      continue;
    }
    if (block.pred) {
      filter_lanes(*block.pred, space, lanes.all, frame, (*lanes.table)[b]);
    }
    if (lanes[b].empty()) continue;
    any = true;
    if (in_turn) exec_parallel_stmt(*block.body, space, lanes[b], frame);
  }
  return any;
}

bool Impl::run_blocks(const UcConstructStmt& stmt, LaneSpace& space,
                      Frame* frame) {
  BlockLanes lanes(*this, stmt, space);
  const bool any = run_guards(stmt, space, frame, lanes);
  // A *par or oneof round that enabled no lane runs no `others`.
  if (!any && (stmt.op == UcOp::kOneof ||
               (stmt.op == UcOp::kPar && stmt.starred))) {
    return false;
  }
  const std::size_t n = stmt.blocks.size();
  std::size_t ran = n;  // oneof: the block it ran
  if (stmt.op == UcOp::kOneof) {
    // Non-deterministic but reproducible choice (no fairness guarantee,
    // paper §3.7): the machine's seeded RNG picks an enabled block.
    std::size_t enabled = 0;
    for (std::size_t b = 0; b < n; ++b) enabled += lanes[b].empty() ? 0 : 1;
    std::size_t pick = machine.rng().next_below(enabled);
    for (ran = 0;; ++ran) {
      if (!lanes[ran].empty() && pick-- == 0) break;
    }
    exec_parallel_stmt(*stmt.blocks[ran].body, space, lanes[ran], frame);
  } else if (!guards_in_turn(stmt)) {
    for (std::size_t b = 0; b < n; ++b) {
      if (!lanes[b].empty()) {
        exec_parallel_stmt(*stmt.blocks[b].body, space, lanes[b], frame);
      }
    }
  }
  if (!stmt.others) return any;
  LaneList rest(lane_lists_);
  lanes.others(ran, *rest);
  if (!rest->empty()) exec_parallel_stmt(*stmt.others, space, *rest, frame);
  return any;
}

void Impl::count_round(const Stmt& stmt, std::int64_t& rounds,
                       const char* what) {
  if (opts.max_iterations > 0 && ++rounds > opts.max_iterations) {
    runtime_error(&stmt,
                  support::format("%s exceeded the iteration limit (%lld); "
                                  "raise or disable it with --max-iterations",
                                  what,
                                  static_cast<long long>(opts.max_iterations)));
  }
}

}  // namespace uc::vm::detail
