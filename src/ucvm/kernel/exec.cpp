// Bytecode executor for the lane-kernel engine: link, per-lane switch
// dispatch, stat merging and the lane-ordered write commit.  Every
// observable effect (values, buffered-write order, comm classification,
// error messages, RNG draws) matches the tree walk in interp_expr.cpp —
// the engine_parity test suite holds the two engines to byte identity.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "ucvm/kernel/kernel.hpp"

#include "uclang/symbols.hpp"
#include "ucvm/durable.hpp"  // complete type for ~Impl's unique_ptr member

namespace uc::vm::detail::kernel {

using lang::BinaryOp;
using lang::ReduceKind;
using lang::ScalarKind;
using lang::SymbolKind;
using lang::UnaryOp;

Engine::Engine(Impl& vm) : vm_(vm) {
  arenas_.resize(vm_.machine.pool().thread_count());
}

const Kernel* Engine::compile_cached(const Expr& expr) {
  auto it = cache_.find(&expr);
  if (it == cache_.end()) {
    it = cache_.emplace(&expr, compile_expr(expr)).first;
  }
  return it->second.get();
}

const Kernel* Engine::compile_optimized_cached(const Expr& expr) {
  auto it = opt_cache_.find(&expr);
  if (it == opt_cache_.end()) {
    const Expr* one[1] = {&expr};
    it = opt_cache_.emplace(&expr, compile_fused(one, 1)).first;
  }
  return it->second.get();
}

namespace {

// Equality of the lane geometry against an array's shape, where the lane
// geometry is (outer dims ++ reduce set sizes) for in-reduce sites.
bool geom_equals(const std::vector<std::int64_t>& base, std::size_t base_dims,
                 const std::int64_t* extra, std::size_t n_extra,
                 const std::vector<std::int64_t>& arr_dims) {
  if (arr_dims.size() != base_dims + n_extra) return false;
  for (std::size_t d = 0; d < base_dims; ++d) {
    if (arr_dims[d] != base[d]) return false;
  }
  for (std::size_t k = 0; k < n_extra; ++k) {
    if (arr_dims[base_dims + k] != extra[k]) return false;
  }
  return true;
}

}  // namespace

bool Engine::link(const Kernel& k, LaneSpace& space, Frame* frame) {
  // Ancestor chain (depth_spaces_[0] is the statement space).
  depth_spaces_.clear();
  depth_spaces_.push_back(&space);
  max_depth_ = 0;

  auto space_at = [&](std::int32_t depth) -> LaneSpace* {
    while (static_cast<std::int32_t>(depth_spaces_.size()) <= depth) {
      LaneSpace* parent = depth_spaces_.back()->parent;
      if (parent == nullptr) return nullptr;
      depth_spaces_.push_back(parent);
    }
    return depth_spaces_[static_cast<std::size_t>(depth)];
  };

  elems_.resize(k.elems.size());
  for (std::size_t i = 0; i < k.elems.size(); ++i) {
    const Symbol* sym = k.elems[i].sym;
    bool found = false;
    for (std::int32_t depth = 0; depth < kMaxDepth; ++depth) {
      LaneSpace* s = space_at(depth);
      if (s == nullptr) break;
      // Innermost binding wins, matching LaneSpace::elem_value.
      for (std::size_t kk = s->elems.size(); kk-- > 0;) {
        if (s->elems[kk] == sym) {
          elems_[i].vals = s->elem_vals.data();
          elems_[i].depth = depth;
          elems_[i].k = static_cast<std::uint16_t>(kk);
          elems_[i].width = static_cast<std::uint16_t>(s->elems.size());
          max_depth_ = std::max(max_depth_, depth);
          found = true;
          break;
        }
      }
      if (found) break;
    }
    if (!found) return false;  // walk raises "not bound here"
  }

  scalars_.resize(k.scalars.size());
  for (std::size_t i = 0; i < k.scalars.size(); ++i) {
    const Symbol* sym = k.scalars[i].sym;
    LinkedScalar& ls = scalars_[i];
    if (sym->kind == SymbolKind::kGlobalVar) {
      ls.home = ScalarHome::kGlobal;
      ls.slot = sym->slot;
      ls.value = &vm_.globals[static_cast<std::size_t>(sym->slot)].scalar;
      continue;
    }
    // Per-lane storage if any ancestor space declared the slot, matching
    // LaneSpace::find_local; otherwise it is a frame scalar.
    bool lane_local = false;
    for (std::int32_t depth = 0; depth < kMaxDepth; ++depth) {
      LaneSpace* s = space_at(depth);
      if (s == nullptr) break;
      auto it = s->locals.find(sym->slot);
      if (it != s->locals.end()) {
        ls.home = ScalarHome::kLaneLocal;
        ls.slot = sym->slot;
        ls.depth = depth;
        ls.owner = s;
        ls.store = &it->second;
        max_depth_ = std::max(max_depth_, depth);
        lane_local = true;
        break;
      }
    }
    if (lane_local) continue;
    if (frame == nullptr ||
        static_cast<std::size_t>(sym->slot) >= frame->slots.size()) {
      return false;
    }
    ls.home = ScalarHome::kFrame;
    ls.slot = sym->slot;
    ls.depth = 0;
    ls.owner = nullptr;
    ls.store = nullptr;
    ls.value = &frame->slots[static_cast<std::size_t>(sym->slot)].scalar;
  }

  reduces_.resize(k.reduces.size());
  for (std::size_t i = 0; i < k.reduces.size(); ++i) {
    const auto* expr = k.reduces[i].expr;
    LinkedReduce& lr = reduces_[i];
    lr.expr = expr;
    lr.n_sets = expr->index_set_syms.size();
    lr.prod = 1;
    for (std::size_t s = 0; s < lr.n_sets; ++s) {
      const auto* info = expr->index_set_syms[s]->index_set;
      lr.values[s] = &info->values;
      lr.sizes[s] = static_cast<std::int64_t>(info->values.size());
      lr.prod *= lr.sizes[s];
    }
    lr.flt = expr->type.is_float();
    lr.op = expr->op;
    lr.base_dims = space.frontend ? 0 : space.dims.size();
    lr.n_dims = lr.base_dims + lr.n_sets;
    if (lr.n_dims > 8) return false;  // coords buffer; fall back to the walk
  }

  arrays_.resize(k.arrays.size());
  for (std::size_t i = 0; i < k.arrays.size(); ++i) {
    const Symbol* sym = k.arrays[i].sym;
    LinkedArray& la = arrays_[i];
    la.reduce = k.arrays[i].reduce;
    const FrameSlot* slot = nullptr;
    if (sym->kind == SymbolKind::kGlobalVar) {
      slot = &vm_.globals[static_cast<std::size_t>(sym->slot)];
    } else if (frame != nullptr &&
               static_cast<std::size_t>(sym->slot) < frame->slots.size()) {
      slot = &frame->slots[static_cast<std::size_t>(sym->slot)];
    }
    if (slot == nullptr || slot->kind != FrameSlot::Kind::kArray ||
        slot->array == nullptr) {
      return false;  // walk raises "used before its declaration executed"
    }
    la.keepalive = slot->array;
    la.arr = la.keepalive.get();
    la.data = la.arr->raw_data();
    la.owners = la.arr->owner_data();
    la.adims = la.arr->dims().data();
    la.astrides = la.arr->strides().data();
    la.rank = static_cast<std::uint32_t>(la.arr->dims().size());
    la.flt = la.arr->is_float();
    la.slice = la.arr->is_slice();
    // The access mode is a per-statement invariant: mappings only change
    // between statements (map sections are front-end-only).
    if (space.frontend) {
      la.mode = AccMode::kFrontend;
      continue;
    }
    if (la.arr->replicated()) {
      la.mode = AccMode::kLocalReplicated;
      continue;
    }
    la.mode = AccMode::kRemote;
    if (la.reduce >= 0) {
      const LinkedReduce& lr = reduces_[static_cast<std::size_t>(la.reduce)];
      la.geom_matches =
          geom_equals(space.dims, lr.base_dims, lr.sizes, lr.n_sets,
                      la.arr->dims());
    } else {
      la.geom_matches =
          space.dims.size() <= 8 && space.dims == la.arr->dims();
    }
    if (la.geom_matches) la.vp_coords = la.arr->coord_table();
  }

  return max_depth_ < kMaxDepth;
}

void Engine::classify_site(const LinkedArray& la, std::int64_t flat,
                           std::int64_t lane_vp,
                           const std::int64_t* lane_coords,
                           const ReduceState& rs, AccessStats& stats) const {
  // Inside a partition-optimised reduction accesses are already paid for
  // by the send-with-combine charge (walk: suppress_comm).
  if (la.reduce >= 0 && rs.suppress) return;
  switch (la.mode) {
    case AccMode::kFrontend:
      ++stats.frontend;
      return;
    case AccMode::kLocalReplicated:
      ++stats.local;
      return;
    case AccMode::kRemote: {
      std::int64_t vp;
      const std::int64_t* coords;
      if (la.reduce >= 0) {
        vp = rs.vp;
        coords = rs.coords;
      } else {
        vp = lane_vp;
        coords = lane_coords;
      }
      // Inlined classify_remote_access over the linked caches (identical
      // decision order: local, slice->router, NEWS when the geometry
      // matches, router otherwise).
      const cm::VpIndex owner = la.owners[flat];
      if (owner == vp) {
        ++stats.local;
        return;
      }
      if (la.slice) {
        ++stats.router;
        return;
      }
      if (la.geom_matches) {
        // geom_matches implies the lane geometry equals the array shape,
        // so la.rank coordinates cover both; the precomputed coord table
        // replaces the per-access unflatten division.
        const std::int64_t* oc =
            la.vp_coords + static_cast<std::size_t>(owner) * la.rank;
        int diff_axes = 0;
        std::int64_t hops = 0;
        for (std::uint32_t d = 0; d < la.rank; ++d) {
          if (oc[d] != coords[d]) {
            ++diff_axes;
            hops = oc[d] < coords[d] ? coords[d] - oc[d] : oc[d] - coords[d];
          }
        }
        if (diff_axes == 1) {
          const cm::CostModel& cost = vm_.machine.cost_model();
          if (static_cast<std::uint64_t>(hops) * cost.news_op <=
              cost.router_op) {
            ++stats.news;
            stats.news_max_hops = std::max(
                stats.news_max_hops, static_cast<std::uint64_t>(hops));
            return;
          }
        }
      }
      ++stats.router;
      return;
    }
  }
}

void Engine::run_lane(const Kernel& k, LaneSpace& space, std::int64_t lane,
                      std::int64_t result_slot, Frame* frame,
                      std::uint64_t stmt_id, Arena& arena,
                      Value* results) {
  Value* regs = arena.regs.data();
  const LinkedElem* elems = elems_.data();
  const LinkedScalar* scalars = scalars_.data();
  const LinkedArray* arrays = arrays_.data();
  const LinkedReduce* reduces = reduces_.data();

  // Translate this lane into every ancestor space the kernel touches.
  std::int64_t lanes[kMaxDepth];
  lanes[0] = lane;
  for (std::int32_t d = 1; d <= max_depth_; ++d) {
    lanes[d] = depth_spaces_[static_cast<std::size_t>(d) - 1]
                   ->parent_lane[static_cast<std::size_t>(lanes[d - 1])];
  }

  // Per-lane VP and coordinates, computed once (classification and
  // reductions reuse them instead of re-indexing the space per access).
  const std::int64_t lane_vp =
      space.frontend ? 0 : space.vps[static_cast<std::size_t>(lane)];
  const std::size_t n_dims = space.dims.size();
  const std::int64_t* lane_coords =
      n_dims > 0 ? &space.coords[static_cast<std::size_t>(lane) * n_dims]
                 : nullptr;

  // Same per-lane RNG stream as the walk's eval_lanes seeding.
  const bool use_fe_rng = space.frontend;
  support::SplitMix64 rng{0};
  if (k.uses_rand && !use_fe_rng) {
    rng.seed(vm_.base_seed ^ (stmt_id * 0x9e3779b97f4a7c15ull) ^
             (static_cast<std::uint64_t>(lane_vp) + 0x5851f42d4c957f2dull));
  }

  // Fused kernels switch this at kMemberBoundary so each member's
  // communication is attributed (and charged) separately.
  AccessStats* stats_cur = arena.stats.data();
  ReduceState& rs = arena.rs;
  const Inst* code = k.code.data();
  std::size_t ip = 0;
  for (;;) {
    const Inst& I = code[ip];
    switch (I.op) {
      case Op::kConst:
        regs[I.dst] = k.pool[I.a];
        break;
      case Op::kMove:
        regs[I.dst] = regs[I.a];
        break;
      case Op::kBool:
        regs[I.dst] = Value::of_bool(regs[I.a].truthy());
        break;
      case Op::kLoadElem: {
        const LinkedElem& le = elems[I.a];
        regs[I.dst] = Value::of_int(
            le.vals[static_cast<std::size_t>(lanes[le.depth]) * le.width +
                    le.k]);
        break;
      }
      case Op::kLoadReduceElem:
        regs[I.dst] = Value::of_int(rs.elem_vals[I.b]);
        break;
      case Op::kLoadScalar: {
        const LinkedScalar& ls = scalars[I.a];
        regs[I.dst] =
            ls.home == ScalarHome::kLaneLocal
                ? (*ls.store)[static_cast<std::size_t>(lanes[ls.depth])]
                : *ls.value;
        break;
      }
      case Op::kStoreScalar: {
        const LinkedScalar& ls = scalars[I.a];
        WriteTarget t;
        switch (ls.home) {
          case ScalarHome::kGlobal:
            t.kind = WriteTarget::Kind::kGlobal;
            t.index = ls.slot;
            break;
          case ScalarHome::kFrame:
            t.kind = WriteTarget::Kind::kFrame;
            t.obj = frame;
            t.index = ls.slot;
            break;
          case ScalarHome::kLaneLocal:
            t.kind = WriteTarget::Kind::kLaneLocal;
            t.obj = ls.owner;
            t.index = ls.slot;
            t.lane = lanes[ls.depth];
            break;
        }
        arena.writes.push_back(Write{t, regs[I.b], I.where});
        break;
      }
      case Op::kArrIndex: {
        const LinkedArray& la = arrays[I.a];
        // Inlined ArrayObj::flatten over the linked dim/stride caches.
        std::int64_t flat = I.c == la.rank ? 0 : -1;
        for (std::uint16_t j = 0; flat >= 0 && j < I.c; ++j) {
          const std::int64_t ix = regs[I.b + j].as_int();
          if (ix < 0 || ix >= la.adims[j]) {
            flat = -1;
            break;
          }
          flat += ix * la.astrides[j];
        }
        if (flat < 0) {
          std::string what = la.arr->name();
          for (std::uint16_t j = 0; j < I.c; ++j) {
            what += "[" + std::to_string(regs[I.b + j].as_int()) + "]";
          }
          vm_.runtime_error(I.where,
                            "array subscript out of range: " + what);
        }
        regs[I.dst] = Value::of_int(flat);
        break;
      }
      case Op::kArrLoad: {
        const LinkedArray& la = arrays[I.a];
        regs[I.dst] = Value::from_bits(la.data[regs[I.b].i], la.flt);
        break;
      }
      case Op::kArrGet: {
        // Fused kArrIndex + kClassify + kArrLoad for rvalue reads: one
        // dispatch, and the flat index stays in a local instead of a
        // register round-trip.  Order (bounds check, classify, load) and
        // the error site match the unfused sequence exactly.
        const LinkedArray& la = arrays[I.a];
        std::int64_t flat = I.c == la.rank ? 0 : -1;
        for (std::uint16_t j = 0; flat >= 0 && j < I.c; ++j) {
          const std::int64_t ix = regs[I.b + j].as_int();
          if (ix < 0 || ix >= la.adims[j]) {
            flat = -1;
            break;
          }
          flat += ix * la.astrides[j];
        }
        if (flat < 0) {
          std::string what = la.arr->name();
          for (std::uint16_t j = 0; j < I.c; ++j) {
            what += "[" + std::to_string(regs[I.b + j].as_int()) + "]";
          }
          vm_.runtime_error(I.where,
                            "array subscript out of range: " + what);
        }
        classify_site(la, flat, lane_vp, lane_coords, rs, *stats_cur);
        regs[I.dst] = Value::from_bits(la.data[flat], la.flt);
        break;
      }
      case Op::kClassify:
        classify_site(arrays[I.a], regs[I.b].i, lane_vp, lane_coords, rs,
                      *stats_cur);
        break;
      case Op::kBroadcastCheck:
        // Walk: writes to a replicated array broadcast, independent of the
        // suppress/frontend classification short-circuit.
        if (arrays[I.a].arr->replicated()) ++stats_cur->broadcast;
        break;
      case Op::kArrStore: {
        WriteTarget t;
        t.kind = WriteTarget::Kind::kArray;
        t.obj = arrays[I.a].arr;
        t.index = regs[I.b].i;
        arena.writes.push_back(Write{t, regs[I.c], I.where});
        break;
      }
      case Op::kArrPut: {
        // Fused kClassify (+ kBroadcastCheck when arg bit0) + kArrStore.
        const LinkedArray& la = arrays[I.a];
        const std::int64_t flat = regs[I.b].i;
        classify_site(la, flat, lane_vp, lane_coords, rs, *stats_cur);
        if ((I.arg & 1) != 0 && la.arr->replicated()) ++stats_cur->broadcast;
        WriteTarget t;
        t.kind = WriteTarget::Kind::kArray;
        t.obj = la.arr;
        t.index = flat;
        arena.writes.push_back(Write{t, regs[I.c], I.where});
        break;
      }
      case Op::kUnary: {
        const Value& v = regs[I.a];
        switch (static_cast<UnaryOp>(I.arg)) {
          case UnaryOp::kNeg:
            regs[I.dst] =
                v.is_float ? Value::of_float(-v.f) : Value::of_int(-v.i);
            break;
          case UnaryOp::kNot:
            regs[I.dst] = Value::of_bool(!v.truthy());
            break;
          case UnaryOp::kBitNot:
            regs[I.dst] = Value::of_int(~v.as_int());
            break;
          case UnaryOp::kPlus:
            regs[I.dst] = v;
            break;
        }
        break;
      }
      case Op::kBinary: {
        const Value& a = regs[I.a];
        const Value& b = regs[I.b];
        const auto op = static_cast<BinaryOp>(I.arg);
        // Int fast paths for the common arithmetic/comparisons; floats and
        // the checked ops (div/mod) share eval_binary_op with the walk.
        if (!a.is_float && !b.is_float) {
          switch (op) {
            case BinaryOp::kAdd:
              regs[I.dst] = Value::of_int(a.i + b.i);
              ++ip;
              continue;
            case BinaryOp::kSub:
              regs[I.dst] = Value::of_int(a.i - b.i);
              ++ip;
              continue;
            case BinaryOp::kMul:
              regs[I.dst] = Value::of_int(a.i * b.i);
              ++ip;
              continue;
            case BinaryOp::kEq:
              regs[I.dst] = Value::of_bool(a.i == b.i);
              ++ip;
              continue;
            case BinaryOp::kNe:
              regs[I.dst] = Value::of_bool(a.i != b.i);
              ++ip;
              continue;
            case BinaryOp::kLt:
              regs[I.dst] = Value::of_bool(a.i < b.i);
              ++ip;
              continue;
            case BinaryOp::kGt:
              regs[I.dst] = Value::of_bool(a.i > b.i);
              ++ip;
              continue;
            case BinaryOp::kLe:
              regs[I.dst] = Value::of_bool(a.i <= b.i);
              ++ip;
              continue;
            case BinaryOp::kGe:
              regs[I.dst] = Value::of_bool(a.i >= b.i);
              ++ip;
              continue;
            default:
              break;
          }
        }
        regs[I.dst] = eval_binary_op(vm_, op, a, b, *I.where);
        break;
      }
      case Op::kIncDec: {
        const Value& old = regs[I.a];
        const std::int64_t delta = (I.arg & 1) != 0 ? 1 : -1;
        regs[I.dst] = old.is_float
                          ? Value::of_float(old.f + static_cast<double>(delta))
                          : Value::of_int(old.i + delta);
        break;
      }
      case Op::kCoerce:
        regs[I.dst] = regs[I.a].coerce(static_cast<ScalarKind>(I.arg));
        break;
      case Op::kJump:
        ip = static_cast<std::size_t>(I.jump);
        continue;
      case Op::kJumpIfFalse:
        if (!regs[I.a].truthy()) {
          ip = static_cast<std::size_t>(I.jump);
          continue;
        }
        break;
      case Op::kJumpIfTrue:
        if (regs[I.a].truthy()) {
          ip = static_cast<std::size_t>(I.jump);
          continue;
        }
        break;
      case Op::kAbs: {
        const Value& v = regs[I.a];
        regs[I.dst] = v.is_float ? Value::of_float(std::fabs(v.f))
                                 : Value::of_int(v.i < 0 ? -v.i : v.i);
        break;
      }
      case Op::kMinMax: {
        const Value& a = regs[I.a];
        const Value& b = regs[I.b];
        const bool take_min = (I.arg & 1) != 0;
        if (a.is_float || b.is_float) {
          regs[I.dst] = Value::of_float(
              take_min ? std::min(a.as_float(), b.as_float())
                       : std::max(a.as_float(), b.as_float()));
        } else {
          regs[I.dst] = Value::of_int(take_min ? std::min(a.i, b.i)
                                               : std::max(a.i, b.i));
        }
        break;
      }
      case Op::kPower2: {
        const std::int64_t kk = regs[I.a].as_int();
        if (kk < 0 || kk > 62) {
          vm_.runtime_error(I.where, "power2 argument out of range: " +
                                         std::to_string(kk));
        }
        regs[I.dst] = Value::of_int(std::int64_t{1} << kk);
        break;
      }
      case Op::kRand: {
        const std::uint64_t x = use_fe_rng ? vm_.fe_rng.next() : rng.next();
        regs[I.dst] = Value::of_int(static_cast<std::int64_t>(x >> 33));
        break;
      }
      case Op::kReduceBegin: {
        const LinkedReduce& R = reduces[I.a];
        rs.info = &R;
        rs.acc = reduce_identity_value(R.op, R.flt);
        rs.any = false;
        rs.enabled_any = false;
        rs.tuple = 0;
        rs.suppress = R.expr->partition_optimized == 1;
        rs.parent_vp = lane_vp;
        if (R.prod == 0) {
          ip = static_cast<std::size_t>(I.jump);  // straight to kReduceEnd
          continue;
        }
        // base_dims == n_dims for non-frontend spaces (and 0 on the
        // frontend), so the lane coordinate pointer covers the copy.
        for (std::size_t d = 0; d < R.base_dims; ++d) {
          rs.coords[d] = lane_coords[d];
        }
        for (std::size_t s = 0; s < R.n_sets; ++s) {
          rs.pos[s] = 0;
          rs.elem_vals[s] = (*R.values[s])[0];
          rs.coords[R.base_dims + s] = 0;
        }
        rs.vp = rs.parent_vp * R.prod;
        break;
      }
      case Op::kReduceFold: {
        const Value& v = regs[I.a];
        const ReduceKind op = rs.info->op;
        if (op == ReduceKind::kArb) {
          if (!rs.any) rs.acc = v;
        } else if (!rs.acc.is_float && !v.is_float &&
                   (op == ReduceKind::kMin || op == ReduceKind::kMax ||
                    op == ReduceKind::kAdd)) {
          // Int fast paths for the hot folds; everything else shares
          // fold_reduce_value with the walk.
          rs.acc = Value::of_int(op == ReduceKind::kAdd
                                     ? rs.acc.i + v.i
                                     : (op == ReduceKind::kMin
                                            ? std::min(rs.acc.i, v.i)
                                            : std::max(rs.acc.i, v.i)));
        } else {
          rs.acc = fold_reduce_value(op, rs.acc, v);
        }
        rs.any = true;
        rs.enabled_any = true;
        break;
      }
      case Op::kReduceSkipOthers:
        if (rs.enabled_any) {
          ip = static_cast<std::size_t>(I.jump);
          continue;
        }
        break;
      case Op::kReduceNext: {
        const LinkedReduce& R = *rs.info;
        rs.enabled_any = false;
        if (++rs.tuple >= R.prod) break;  // falls through to kReduceEnd
        for (std::size_t s = R.n_sets; s-- > 0;) {
          if (++rs.pos[s] < static_cast<std::size_t>(R.sizes[s])) break;
          rs.pos[s] = 0;
        }
        std::int64_t tuple_flat = 0;
        for (std::size_t s = 0; s < R.n_sets; ++s) {
          rs.elem_vals[s] = (*R.values[s])[rs.pos[s]];
          rs.coords[R.base_dims + s] = static_cast<std::int64_t>(rs.pos[s]);
          tuple_flat =
              tuple_flat * R.sizes[s] + static_cast<std::int64_t>(rs.pos[s]);
        }
        rs.vp = rs.parent_vp * R.prod + tuple_flat;
        ip = static_cast<std::size_t>(I.jump);
        continue;
      }
      case Op::kReduceEnd:
        regs[I.dst] = rs.info->flt ? Value::of_float(rs.acc.as_float())
                                   : rs.acc;
        break;
      case Op::kMemberBoundary:
        // Entering member I.a of a fused group: its stats land in their
        // own slot, and the lane RNG is reseeded with the member's own
        // statement id so rand() draws match the unfused execution.
        stats_cur = arena.stats.data() + I.a;
        if (k.uses_rand && !use_fe_rng) {
          rng.seed(vm_.base_seed ^
                   ((stmt_id + I.a) * 0x9e3779b97f4a7c15ull) ^
                   (static_cast<std::uint64_t>(lane_vp) +
                    0x5851f42d4c957f2dull));
        }
        break;
      case Op::kRet:
        if (results != nullptr) results[result_slot] = regs[I.a];
        return;
    }
    ++ip;
  }
}

void Engine::reset_arenas(const Kernel& k) {
  for (auto& a : arenas_) {
    a.writes.clear();
    a.spans.clear();
    a.stats.assign(k.num_members, AccessStats{});
    if (a.regs.size() < k.num_regs) a.regs.resize(k.num_regs);
  }
}

void Engine::run_lanes_pooled(const Kernel& k, LaneSpace& space,
                              const std::vector<std::int64_t>& active,
                              Frame* frame, std::uint64_t stmt_id,
                              Value* results) {
  // Native tier: both the plain try_run path and fused groups funnel
  // through here, so one hook covers every dispatch.  A false return
  // (emitter declined, toolchain missing, assumption mismatch, runtime
  // error flagged) leaves the arenas reset and falls through to bytecode.
  if (vm_.opts.engine == ExecEngine::kNative &&
      run_lanes_native(k, space, active, frame, stmt_id, results)) {
    return;
  }
  const auto n = static_cast<std::int64_t>(active.size());
  const std::function<void(unsigned, std::int64_t, std::int64_t)> body =
      [&](unsigned worker, std::int64_t b, std::int64_t e) {
        Arena& arena = arenas_[worker];
        const auto span_start = static_cast<std::uint32_t>(arena.writes.size());
        for (std::int64_t kk = b; kk < e; ++kk) {
          run_lane(k, space, active[static_cast<std::size_t>(kk)], kk, frame,
                   stmt_id, arena, results);
        }
        const auto count =
            static_cast<std::uint32_t>(arena.writes.size()) - span_start;
        if (count > 0) arena.spans.push_back(ChunkSpan{b, span_start, count});
      };
  vm_.machine.pool().parallel_for_indexed(0, n, body, /*min_grain=*/64);
}

void Engine::commit_buffered() {
  // Chunks are disjoint ascending lane ranges, so sorting the spans by
  // their first active-lane position recovers the walk's lane order for
  // conflict detection (first-seen value wins the error message).
  span_order_.clear();
  for (const auto& a : arenas_) {
    for (const auto& s : a.spans) {
      span_order_.emplace_back(s.begin_k,
                               WriteRun(a.writes.data() + s.offset, s.count));
    }
  }
  std::sort(span_order_.begin(), span_order_.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  runs_.clear();
  for (const auto& [begin_k, run] : span_order_) runs_.push_back(run);
  vm_.commit(runs_);
}

bool Engine::try_run(const Expr& expr, LaneSpace& space,
                     const std::vector<std::int64_t>& active, Frame* frame,
                     std::uint64_t stmt_id, Value* results, bool optimize) {
  const Kernel* kern =
      optimize ? compile_optimized_cached(expr) : compile_cached(expr);
  if (kern == nullptr) {
    ++fallback_statements_;
    return false;
  }
  if (!link(*kern, space, frame)) {
    ++fallback_statements_;
    return false;
  }
  ++compiled_statements_;

  reset_arenas(*kern);
  run_lanes_pooled(*kern, space, active, frame, stmt_id, results);

  AccessStats total;
  for (const auto& a : arenas_) total.merge(a.stats[0]);
  vm_.charge_dynamic_stats(total, space.geom_size);

  commit_buffered();
  return true;
}

bool Engine::prepare_group(const Expr* const* stmts, std::size_t n,
                           LaneSpace& space, Frame* frame) {
  if (n < 2) return false;
  auto it = fused_cache_.find(stmts[0]);
  if (it == fused_cache_.end()) {
    it = fused_cache_.emplace(stmts[0], compile_fused(stmts, n)).first;
  }
  const Kernel* kern = it->second.get();
  if (kern == nullptr || kern->num_members != n) return false;
  if (!link(*kern, space, frame)) return false;
  group_kernel_ = kern;
  return true;
}

void Engine::run_group(LaneSpace& space,
                       const std::vector<std::int64_t>& active, Frame* frame,
                       std::uint64_t first_stmt_id,
                       std::vector<AccessStats>& member_stats) {
  const Kernel& kern = *group_kernel_;
  compiled_statements_ += kern.num_members;
  ++fused_groups_;
  reset_arenas(kern);
  run_lanes_pooled(kern, space, active, frame, first_stmt_id,
                   /*results=*/nullptr);
  member_stats.assign(kern.num_members, AccessStats{});
  for (const auto& a : arenas_) {
    for (std::uint32_t m = 0; m < kern.num_members; ++m) {
      member_stats[m].merge(a.stats[m]);
    }
  }
}

void Engine::commit_group() { commit_buffered(); }

}  // namespace uc::vm::detail::kernel

namespace uc::vm::detail {

Impl::~Impl() {
  if (kernel_engine_ != nullptr && std::getenv("UC_KERNEL_STATS") != nullptr) {
    std::fprintf(stderr,
                 "kernel: %llu compiled, %llu fallback, %zu cached\n",
                 static_cast<unsigned long long>(
                     kernel_engine_->compiled_statements()),
                 static_cast<unsigned long long>(
                     kernel_engine_->fallback_statements()),
                 kernel_engine_->cache_size());
  }
}

kernel::Engine& Impl::kernel_engine() {
  if (kernel_engine_ == nullptr) {
    kernel_engine_ = std::make_unique<kernel::Engine>(*this);
  }
  return *kernel_engine_;
}

}  // namespace uc::vm::detail
