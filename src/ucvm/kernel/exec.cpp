// Bytecode executor for the lane-kernel engine: link, the lane-block
// executor, stat merging and the lane-ordered write commit.  Each
// instruction runs as one loop over a block of up to kBlock lanes, over
// register columns typed by the kernel's typing pass.  Every observable
// effect (values, buffered-write order, comm classification, error
// messages, RNG draws) matches the tree walk in interp_expr.cpp — the
// engine_parity test suite holds the engines to byte identity.
#include <algorithm>
#include <bit>
#include <type_traits>
#include <vector>

#include "ucvm/kernel/kernel.hpp"

#include "support/error.hpp"
#include "support/str.hpp"
#include "uclang/arith.hpp"
#include "uclang/symbols.hpp"
#include "ucvm/durable.hpp"  // complete type for ~Impl's unique_ptr member

namespace uc::vm::detail::kernel {

using lang::BinaryOp;
using lang::ReduceKind;
using lang::ScalarKind;
using lang::SymbolKind;
using lang::UnaryOp;
namespace arith = lang::arith;

Engine::Engine(Impl& vm) : vm_(vm) {
  arenas_.resize(vm_.machine.pool().thread_count());
}

const Kernel* Engine::prepare(const Kernel* k, LaneSpace& space,
                              Frame* frame) {
  return k != nullptr && link(*k, space, frame) ? k : nullptr;
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

// The lanes of a block an instruction runs over: the range [lo, hi) when
// the lane mask is contiguous, else its ascending lane list.
struct Sel {
  int n = 0;
  int lo = 0;
  int hi = 0;
  bool dense = true;
  std::uint8_t idx[kBlock];

  void set(std::uint64_t mask) {
    n = std::popcount(mask);
    lo = std::countr_zero(mask);
    hi = kBlock - std::countl_zero(mask);
    dense = hi - lo == n;
    if (dense) return;
    int j = 0;
    for (std::uint64_t m = mask; m != 0; m &= m - 1) {
      idx[j++] = static_cast<std::uint8_t>(std::countr_zero(m));
    }
  }
};

// Calls f(l) for every lane of s in lane order.
template <class F>
inline void each(const Sel& s, F&& f) {
  if (s.dense) {
    for (int l = s.lo; l < s.hi; ++l) f(l);
  } else {
    for (int j = 0; j < s.n; ++j) f(static_cast<int>(s.idx[j]));
  }
}

// Raises the walk's error for the first lane of `s` whose subscripts
// sub(l, 0) .. sub(l, I.c-1) fall outside `la`.  Out of line and cold:
// run_block inlines its subscript check at every array access, and this
// keeps the error path out of all those copies.
template <class LinkedArray, class Sub>
[[gnu::cold, gnu::noinline]] void raise_out_of_range(Impl& vm, const Inst& I,
                                                    const LinkedArray& la,
                                                    const Sel& s,
                                                    const Sub& sub) {
  each(s, [&](int l) {
    bool out = I.c != la.rank;
    for (std::uint16_t j = 0; !out && j < I.c; ++j) {
      const std::int64_t ix = sub(l, j);
      out = ix < 0 || ix >= la.adims[j];
    }
    if (!out) return;
    std::vector<std::int64_t> index(I.c);
    for (std::uint16_t j = 0; j < I.c; ++j) index[j] = sub(l, j);
    std::string what = "array subscript out of range: ";
    what += support::element_name(la.arr->name(), index);
    vm.runtime_error(I.where, what);
  });
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
    // The coords buffer; the lane plan compiles no kernel this declines.
    if (lr.n_dims > kMaxLaneCoords) return false;
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
    la.identity = la.arr->identity_owners();
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
    la.vp_coords =
        la.geom_matches && !la.slice ? la.arr->coord_table() : nullptr;
  }

  sites_.assign(k.code.size(), LinkedSite{});
  for (const LaneRelativeSite& rel : k.lane_relative) {
    sites_[rel.ip] = link_site(k, rel);
  }
  unique_stores_ = stores_unique(k, space);
  return max_depth_ < kMaxDepth;
}

std::int64_t Engine::lane_axis(const LinkedElem& le) const {
  // The element's space must add one lane axis per element it binds,
  // after its parent's, as expand builds it: element k is then on axis
  // parent_dims + k, and a lane's coordinate there is its position in the
  // element's set.  Every space below keeps its parent's coordinates as a
  // prefix, so the same holds in the statement space.  A seq binding
  // space binds elements but adds no axis.
  const LaneSpace& s = *depth_spaces_[static_cast<std::size_t>(le.depth)];
  const LaneSpace* p = s.parent;
  const std::size_t parent_dims =
      p == nullptr || p->frontend ? 0 : p->dims.size();
  if (s.dims.size() != parent_dims + s.elems.size()) return -1;
  return static_cast<std::int64_t>(parent_dims + le.k);
}

bool Engine::stores_unique(const Kernel& k, const LaneSpace& space) const {
  // Distinct lanes of a space have distinct coordinates.  A put whose
  // subscripts are element + constant on every axis, each axis once, is
  // then one-to-one from lanes to elements (each element's set is a run of
  // distinct ints), and a lane runs each put at most once when no store
  // sits in a reduction loop.  Puts to different roots cannot meet.
  const std::size_t n_dims = space.dims.size();
  if (space.frontend || k.writes_per_lane < 0 || n_dims == 0 ||
      n_dims >= 64) {
    return false;
  }
  std::size_t puts = 0;
  for (const Inst& i : k.code) {
    if (i.op == Op::kStoreScalar || i.op == Op::kArrStore) return false;
    if (i.op == Op::kArrPut) ++puts;
  }
  const auto& rels = k.lane_relative;
  for (auto r = rels.begin(); r != rels.end(); ++r) {
    const Inst& put = k.code[r->ip];
    if (put.op != Op::kArrPut) continue;
    std::uint64_t axes = 0;
    for (std::uint16_t j = 0; j < r->rank; ++j) {
      const std::int64_t a = lane_axis(elems_[r->elem[j]]);
      if (a < 0 || static_cast<std::size_t>(a) >= n_dims) return false;
      const std::uint64_t bit = std::uint64_t{1} << a;
      if ((axes & bit) != 0) return false;  // an axis used twice
      axes |= bit;
    }
    if (axes != (std::uint64_t{1} << n_dims) - 1) return false;
    const ArrayObj* root = &arrays_[put.a].arr->root();
    for (auto q = rels.begin(); q != r; ++q) {
      const Inst& other = k.code[q->ip];
      if (other.op == Op::kArrPut && &arrays_[other.a].arr->root() == root) {
        return false;
      }
    }
    --puts;
  }
  return puts == 0;
}

Engine::LinkedSite Engine::link_site(const Kernel& k,
                                     const LaneRelativeSite& rel) const {
  // The closed form's preconditions (docs/VM.md "Read classification"):
  // the owner of an element is its own flat index, and array axis j is
  // lane axis j, so the lane's coordinate on it is its position in the
  // element's set.
  const LinkedArray& la = arrays_[k.code[rel.ip].a];
  if (la.mode != AccMode::kRemote || !la.identity || la.reduce >= 0 ||
      rel.rank != la.rank) {
    return std::nullopt;
  }
  std::int64_t delta[kMaxSubscripts];
  for (std::uint16_t j = 0; j < rel.rank; ++j) {
    if (lane_axis(elems_[rel.elem[j]]) != j) return std::nullopt;
    // Position t binds v0 + t (the set is a consecutive run), so the lane
    // reads v0 + t + off[j] at coordinate t.
    const lang::Symbol* set = k.elems[rel.elem[j]].sym->elem_of_set;
    delta[j] = arith::Add::on(set->index_set->values.front(), rel.off[j]);
  }
  const std::vector<std::int64_t>& lane_dims = depth_spaces_[0]->dims;
  return cm::lane_relative_access(delta, la.adims, rel.rank,
                                  lane_dims.data(), lane_dims.size(),
                                  vm_.machine.cost_model());
}

std::size_t Engine::static_sites() const {
  return static_cast<std::size_t>(std::ranges::count_if(
      sites_, [](const auto& s) { return s.has_value(); }));
}

void Engine::run_block(const Kernel& k, LaneSpace& space,
                       const std::vector<std::int64_t>& active,
                       std::int64_t k0, int n, Frame* frame,
                       std::uint64_t stmt_id, Arena& arena, Value* results) {
  const RegType* T = k.types.regs.data();
  Slot* const regs = arena.regs.data();
  BlockLanes& bl = arena.lanes;
  ReduceTuple& rt = arena.rt;
  const LinkedElem* elems = elems_.data();
  const LinkedScalar* scalars = scalars_.data();
  const LinkedArray* arrays = arrays_.data();
  const LinkedReduce* reduces = reduces_.data();
  const LinkedSite* sites = sites_.data();

  // --- register access ---
  const auto col = [&](std::uint16_t r) {
    return regs + static_cast<std::size_t>(r) * kBlock;
  };
  const auto get = [&](std::uint16_t r, int l) {
    const Slot s = col(r)[l];
    return T[r] == kFloat ? Value::of_float(s.f) : Value::of_int(s.i);
  };
  const auto put = [&](std::uint16_t r, int l, const Value& v) {
    if (T[r] == kFloat) {
      col(r)[l].f = v.as_float();
    } else {
      col(r)[l].i = v.as_int();
    }
  };
  const auto as_int = [&](std::uint16_t r, int l) {
    return get(r, l).as_int();
  };

  // --- block lanes: ancestor chain, VP, coordinates, RNG ---
  std::int64_t* anc = arena.anc.data();
  for (int l = 0; l < n; ++l) anc[l] = active[static_cast<std::size_t>(k0 + l)];
  for (std::int32_t d = 1; d <= max_depth_; ++d) {
    const std::int64_t* up =
        depth_spaces_[static_cast<std::size_t>(d) - 1]->parent_lane.data();
    const std::int64_t* below = anc + static_cast<std::size_t>(d - 1) * kBlock;
    std::int64_t* here = anc + static_cast<std::size_t>(d) * kBlock;
    for (int l = 0; l < n; ++l) here[l] = up[below[l]];
  }
  const std::size_t n_dims = space.dims.size();
  for (int l = 0; l < n; ++l) {
    const auto lane = static_cast<std::size_t>(anc[l]);
    bl.vp[l] = space.frontend ? 0 : space.vps[lane];
    bl.coords[l] = n_dims > 0 ? &space.coords[lane * n_dims] : nullptr;
  }
  // Same per-lane RNG streams as the walk's eval_lanes seeding; fused
  // kernels reseed at each member boundary with the member's statement id.
  const bool use_fe_rng = space.frontend;
  const auto seed_rng = [&](std::uint64_t id, int l) {
    bl.rng[l].seed(vm_.base_seed ^ (id * 0x9e3779b97f4a7c15ull) ^
                   (static_cast<std::uint64_t>(bl.vp[l]) +
                    0x5851f42d4c957f2dull));
  };
  if (k.uses_rand && !use_fe_rng) {
    for (int l = 0; l < n; ++l) seed_rng(stmt_id, l);
  }

  // --- the running sub-block and the diverged ones waiting for it ---
  std::uint64_t mask = n == kBlock ? ~0ull : (std::uint64_t{1} << n) - 1;
  Sel S;
  S.set(mask);
  std::vector<SubBlock>& pending = arena.pending;
  pending.clear();
  const auto park = [&](std::int32_t at, std::uint64_t lanes) {
    auto it = pending.begin();
    while (it != pending.end() && it->ip > at) ++it;
    if (it != pending.end() && it->ip == at) {
      it->mask |= lanes;
    } else {
      pending.insert(it, SubBlock{at, lanes});
    }
  };
  // A conditional jump taken by the lanes in `taken`: all of them jump,
  // none do, or the block splits and the jumping lanes wait at `target`.
  const auto branch = [&](std::uint64_t taken, std::int32_t target,
                          std::int32_t& next) {
    if (taken == 0) return;
    if (taken == mask) {
      next = target;
      return;
    }
    park(target, taken);
    mask &= ~taken;
    S.set(mask);
  };
  const auto lanes_where = [&](std::uint16_t r, bool want) {
    std::uint64_t m = 0;
    const Slot* c = col(r);
    if (T[r] == kFloat) {
      each(S, [&](int l) {
        m |= static_cast<std::uint64_t>((c[l].f != 0.0) == want) << l;
      });
    } else {
      each(S, [&](int l) {
        m |= static_cast<std::uint64_t>((c[l].i != 0) == want) << l;
      });
    }
    return m;
  };

  // --- writes: lane l's j-th write goes to slot base[l] + j of the space
  // reserved at the log's tail, base[l] = l * W, so the block's writes
  // come out lane-major however the instructions interleave them.  kSelect
  // renumbers the bases over the lanes it enables, so the lanes a guard
  // disables leave no gaps for kRet to close.  A kernel whose lanes have
  // no bound W runs one-lane blocks that append in order. ---
  const std::int32_t W = k.writes_per_lane;
  Write* slots = W > 0 ? arena.writes.reserve_tail(
                             static_cast<std::size_t>(n) *
                             static_cast<std::size_t>(W))
                       : nullptr;
  std::int32_t base[kBlock];
  std::int32_t written[kBlock];
  for (int l = 0; l < n; ++l) {
    base[l] = l * W;
    written[l] = 0;
  }
  const auto push_write = [&](int l, const WriteTarget& t, const Value& v,
                              const Expr* where) {
    if (slots == nullptr) {
      arena.writes.push_back(Write{t, v, where});
    } else {
      slots[base[l] + written[l]++] = Write{t, v, where};
    }
  };

  // --- shared instruction bodies ---
  cm::AccessStats* st = arena.stats.data();
  std::int64_t flat[kBlock];
  // Flat element of la at subscripts r[I.b .. I.b+I.c) for every lane; a
  // lane out of range raises the walk's error.
  const auto index = [&](const Inst& I, const LinkedArray& la) {
    bool bad = I.c != la.rank;
    if (!bad) {
      each(S, [&](int l) { flat[l] = 0; });
      for (std::uint16_t j = 0; j < I.c; ++j) {
        const auto r = static_cast<std::uint16_t>(I.b + j);
        const std::int64_t dim = la.adims[j];
        const auto stride = static_cast<std::uint64_t>(la.astrides[j]);
        // Unsigned: a negative subscript compares as out of range, and
        // an out-of-range one cannot overflow the (discarded) flat index.
        const auto udim = static_cast<std::uint64_t>(dim);
        bool out = false;
        const auto step = [&](int l, std::int64_t ix) {
          const auto u = static_cast<std::uint64_t>(ix);
          out |= u >= udim;
          flat[l] = static_cast<std::int64_t>(
              static_cast<std::uint64_t>(flat[l]) + u * stride);
        };
        if (T[r] == kInt) {
          const Slot* x = col(r);
          each(S, [&](int l) { step(l, x[l].i); });
        } else {
          each(S, [&](int l) { step(l, as_int(r, l)); });
        }
        bad |= out;
      }
    }
    if (!bad) return;
    raise_out_of_range(vm_, I, la, S, [&](int l, std::uint16_t j) {
      return as_int(static_cast<std::uint16_t>(I.b + j), l);
    });
  };
  const auto flat_from = [&](std::uint16_t r) {
    const Slot* c = col(r);
    each(S, [&](int l) { flat[l] = c[l].i; });
  };
  // Closed-form classification of a read at subscripts r[I.b .. I.b+I.c)
  // (docs/VM.md "Read classification").  Under the default layout, with
  // the lane geometry equal to the array shape, the owner's coordinates are
  // the subscripts and the lane's VP is its own coordinates flattened, so
  // the owner is the lane exactly when every subscript equals the lane's
  // coordinate; one differing axis is a NEWS candidate.  No table loads.
  const auto classify_closed = [&](const Inst& I, const LinkedArray& la,
                                   cm::AccessStats& acc) {
    const std::int64_t* lc[kBlock];
    int diff[kBlock];
    std::uint64_t hops[kBlock];
    each(S, [&](int l) {
      lc[l] = la.reduce >= 0 ? bl.rs_coords[l] : bl.coords[l];
      diff[l] = 0;
      hops[l] = 0;
    });
    for (std::uint16_t j = 0; j < I.c; ++j) {
      const auto r = static_cast<std::uint16_t>(I.b + j);
      const auto axis = [&](int l, std::int64_t ix) {
        const std::int64_t c = lc[l][j];
        if (ix != c) {
          ++diff[l];
          hops[l] = static_cast<std::uint64_t>(ix < c ? c - ix : ix - c);
        }
      };
      if (T[r] == kInt) {
        const Slot* x = col(r);
        each(S, [&](int l) { axis(l, x[l].i); });
      } else {
        each(S, [&](int l) { axis(l, as_int(r, l)); });
      }
    }
    const cm::CostModel& cost = vm_.machine.cost_model();
    each(S, [&](int l) { acc.count(cm::access_class(diff[l], hops[l], cost)); });
  };
  // `read` is the kArrGet whose subscripts allow the geometry-matched
  // closed form; flat-only sites pass null.  `site` is the instruction's
  // linked class: a lane-relative site counts all its lanes at once.
  const auto classify = [&](const LinkedArray& la, const Inst* read,
                            const LinkedSite& site) {
    // Inside a partition-optimised reduction accesses are already paid for
    // by the send-with-combine charge (walk: suppress_comm).
    if (la.reduce >= 0 && rt.suppress) return;
    const auto lanes = static_cast<std::uint64_t>(S.n);
    if (site) {
      st->count(*site, lanes);
      return;
    }
    switch (la.mode) {
      case AccMode::kFrontend:
        st->frontend += lanes;
        return;
      case AccMode::kLocalReplicated:
        st->local += lanes;
        return;
      case AccMode::kRemote: {
        cm::AccessStats acc;
        if (read != nullptr && la.identity && la.geom_matches) {
          classify_closed(*read, la, acc);
        } else {
          // The walk's per-lane rule over the owner and coordinate tables.
          const cm::CostModel& cost = vm_.machine.cost_model();
          const auto per_lane = [&](const std::int64_t* vp, auto coords) {
            each(S, [&](int l) {
              acc.count(cm::owner_access(
                  la.identity ? flat[l] : la.owners[flat[l]], vp[l],
                  la.vp_coords, coords[l], la.rank, cost));
            });
          };
          if (la.reduce >= 0) {
            per_lane(bl.rs_vp, bl.rs_coords);
          } else {
            per_lane(bl.vp, bl.coords);
          }
        }
        st->merge(acc);
        return;
      }
    }
  };
  const auto load = [&](const Inst& I, const LinkedArray& la) {
    Slot* d = col(I.dst);
    const cm::Bits* data = la.data;
    if (la.flt) {
      each(S, [&](int l) { d[l].f = cm::as_float(data[flat[l]]); });
    } else {
      each(S, [&](int l) { d[l].i = cm::as_int(data[flat[l]]); });
    }
  };
  const auto store = [&](const Inst& I, const LinkedArray& la,
                         std::uint16_t value) {
    WriteTarget t;
    t.kind = WriteTarget::Kind::kArray;
    t.obj = la.arr;
    const Slot* v = col(value);
    if (T[value] == kFloat) {
      each(S, [&](int l) {
        t.index = flat[l];
        push_write(l, t, Value::of_float(v[l].f), I.where);
      });
    } else {
      each(S, [&](int l) {
        t.index = flat[l];
        push_write(l, t, Value::of_int(v[l].i), I.where);
      });
    }
  };
  // Column c of register type t as doubles, or truncated to int64: c
  // itself when t already is that, else converted into scratch `which`.
  const auto dcol = [&](const Slot* c, RegType t, int which) -> const Slot* {
    if (t == kFloat) return c;
    Slot* out = bl.scratch[which];
    each(S, [&](int l) { out[l].f = static_cast<double>(c[l].i); });
    return out;
  };
  const auto icol = [&](const Slot* c, RegType t, int which) -> const Slot* {
    if (t != kFloat) return c;
    Slot* out = bl.scratch[which];
    each(S, [&](int l) { out[l].i = static_cast<std::int64_t>(c[l].f); });
    return out;
  };
  const auto set = [](Slot& d, auto v) {
    if constexpr (std::is_same_v<decltype(v), double>) {
      d.f = v;
    } else {
      d.i = v;
    }
  };
  // The typed loops: the instruction picks operator o (uclang/arith.hpp)
  // once, and one loop applies it to every lane by the operand rule.  A
  // zero int divisor in any lane raises the walk's error before any lane
  // runs.
  const auto binary_loop = [&](auto o, Slot* d, const Slot* a, RegType ta,
                               const Slot* b, RegType tb, const Inst& I) {
    using O = decltype(o);
    if constexpr (!O::kTruncates) {
      if (ta == kFloat || tb == kFloat) {
        a = dcol(a, ta, 0);
        b = dcol(b, tb, 1);
        each(S, [&](int l) { set(d[l], O::on(a[l].f, b[l].f)); });
        return;
      }
    }
    a = icol(a, ta, 0);
    b = icol(b, tb, 1);
    if constexpr (O::kDivides) {
      bool zero = false;
      each(S, [&](int l) { zero |= b[l].i == 0; });
      if (zero) {
        vm_.runtime_error(I.where, std::is_same_v<O, arith::Div>
                                       ? "integer division by zero"
                                       : "modulo by zero");
      }
    }
    each(S, [&](int l) { set(d[l], O::on(a[l].i, b[l].i)); });
  };
  const auto unary_loop = [&](auto o, const Inst& I) {
    using O = decltype(o);
    Slot* d = col(I.dst);
    const Slot* a = col(I.a);
    if constexpr (!O::kTruncates) {
      if (T[I.a] == kFloat) {
        each(S, [&](int l) { set(d[l], O::on(a[l].f)); });
        return;
      }
    }
    a = icol(a, T[I.a], 0);
    each(S, [&](int l) { set(d[l], O::on(a[l].i)); });
  };
  const auto binary_inst = [&](auto o, const Inst& I) {
    binary_loop(o, col(I.dst), col(I.a), T[I.a], col(I.b), T[I.b], I);
  };

  const Inst* code = k.code.data();
  std::int32_t ip = 0;
  for (;;) {
    const Inst& I = code[ip];
    std::int32_t next = ip + 1;
    switch (I.op) {
      case Op::kConst: {
        const Value& v = k.pool[I.a];
        Slot s;
        if (v.is_float) {
          s.f = v.f;
        } else {
          s.i = v.i;
        }
        Slot* d = col(I.dst);
        each(S, [&](int l) { d[l] = s; });
        break;
      }
      case Op::kMove: {
        Slot* d = col(I.dst);
        const Slot* a = col(I.a);
        each(S, [&](int l) { d[l] = a[l]; });
        break;
      }
      case Op::kBool: {
        Slot* d = col(I.dst);
        const Slot* a = col(I.a);
        if (T[I.a] == kFloat) {
          each(S, [&](int l) { d[l].i = a[l].f != 0.0 ? 1 : 0; });
        } else {
          each(S, [&](int l) { d[l].i = a[l].i != 0 ? 1 : 0; });
        }
        break;
      }
      case Op::kLoadElem: {
        const LinkedElem& le = elems[I.a];
        const std::int64_t* L =
            anc + static_cast<std::size_t>(le.depth) * kBlock;
        Slot* d = col(I.dst);
        each(S, [&](int l) {
          d[l].i = le.vals[static_cast<std::size_t>(L[l]) * le.width + le.k];
        });
        break;
      }
      case Op::kLoadReduceElem: {
        const std::int64_t v = rt.elem_vals[I.b];
        Slot* d = col(I.dst);
        each(S, [&](int l) { d[l].i = v; });
        break;
      }
      case Op::kLoadScalar: {
        const LinkedScalar& ls = scalars[I.a];
        Slot* d = col(I.dst);
        if (ls.home == ScalarHome::kLaneLocal) {
          const Value* src = ls.store->data();
          const std::int64_t* L =
              anc + static_cast<std::size_t>(ls.depth) * kBlock;
          if (T[I.dst] == kFloat) {
            each(S, [&](int l) { d[l].f = src[L[l]].f; });
          } else {
            each(S, [&](int l) { d[l].i = src[L[l]].i; });
          }
        } else {
          const Value v = *ls.value;
          each(S, [&](int l) { put(I.dst, l, v); });
        }
        break;
      }
      case Op::kStoreScalar: {
        const LinkedScalar& ls = scalars[I.a];
        WriteTarget t;
        t.index = ls.slot;
        const std::int64_t* L = nullptr;
        switch (ls.home) {
          case ScalarHome::kGlobal:
            t.kind = WriteTarget::Kind::kGlobal;
            break;
          case ScalarHome::kFrame:
            t.kind = WriteTarget::Kind::kFrame;
            t.obj = frame;
            break;
          case ScalarHome::kLaneLocal:
            t.kind = WriteTarget::Kind::kLaneLocal;
            t.obj = ls.owner;
            L = anc + static_cast<std::size_t>(ls.depth) * kBlock;
            break;
        }
        each(S, [&](int l) {
          if (L != nullptr) t.lane = L[l];
          push_write(l, t, get(I.b, l), I.where);
        });
        break;
      }
      case Op::kArrIndex: {
        index(I, arrays[I.a]);
        Slot* d = col(I.dst);
        each(S, [&](int l) { d[l].i = flat[l]; });
        break;
      }
      case Op::kArrLoad:
        flat_from(I.b);
        load(I, arrays[I.a]);
        break;
      case Op::kArrGet: {
        // Fused kArrIndex + kClassify + kArrLoad for rvalue reads: order
        // (bounds check, classify, load) and the error site match the
        // unfused sequence exactly.
        const LinkedArray& la = arrays[I.a];
        index(I, la);
        classify(la, &I, sites[ip]);
        load(I, la);
        break;
      }
      case Op::kClassify:
        flat_from(I.b);
        classify(arrays[I.a], nullptr, sites[ip]);
        break;
      case Op::kBroadcastCheck:
        // Walk: writes to a replicated array broadcast, independent of the
        // suppress/frontend classification short-circuit.
        if (arrays[I.a].arr->replicated()) {
          st->broadcast += static_cast<std::uint64_t>(S.n);
        }
        break;
      case Op::kArrStore:
        flat_from(I.b);
        store(I, arrays[I.a], I.c);
        break;
      case Op::kArrPut: {
        // Fused kClassify (+ kBroadcastCheck when arg bit0) + kArrStore.
        const LinkedArray& la = arrays[I.a];
        flat_from(I.b);
        classify(la, nullptr, sites[ip]);
        if ((I.arg & 1) != 0 && la.arr->replicated()) {
          st->broadcast += static_cast<std::uint64_t>(S.n);
        }
        store(I, la, I.c);
        break;
      }
      case Op::kUnary:
        arith::visit(static_cast<UnaryOp>(I.arg),
                     [&](auto o) { unary_loop(o, I); });
        break;
      case Op::kBinary:
        arith::visit(static_cast<BinaryOp>(I.arg),
                     [&](auto o) { binary_inst(o, I); });
        break;
      case Op::kIncDec:
        if ((I.arg & 1) != 0) {
          unary_loop(arith::Inc{}, I);
        } else {
          unary_loop(arith::Dec{}, I);
        }
        break;
      case Op::kCoerce: {
        const auto kind = static_cast<ScalarKind>(I.arg);
        const bool to_float = kind == ScalarKind::kFloat;
        Slot* d = col(I.dst);
        const Slot* a = col(I.a);
        if (to_float == (T[I.a] == kFloat)) {
          each(S, [&](int l) { d[l] = a[l]; });
        } else if (to_float) {
          each(S, [&](int l) { d[l].f = static_cast<double>(a[l].i); });
        } else {
          each(S, [&](int l) { d[l].i = static_cast<std::int64_t>(a[l].f); });
        }
        break;
      }
      case Op::kJump:
        next = I.jump;
        break;
      case Op::kJumpIfFalse:
        branch(lanes_where(I.a, false), I.jump, next);
        break;
      case Op::kJumpIfTrue:
        branch(lanes_where(I.a, true), I.jump, next);
        break;
      case Op::kSelect: {
        // Every lane of the block is here: the guard stores nothing and
        // its branches rejoin at this instruction.
        const std::uint64_t off = lanes_where(I.a, false);
        std::int32_t at = 0;
        for (std::uint64_t on = mask & ~off; on != 0; on &= on - 1) {
          base[std::countr_zero(on)] = at;
          at += W;
          ++arena.enabled;
        }
        branch(off, I.jump, next);
        break;
      }
      case Op::kAbs:
        unary_loop(arith::Abs{}, I);
        break;
      case Op::kMinMax:
        if ((I.arg & 1) != 0) {
          binary_inst(arith::Min{}, I);
        } else {
          binary_inst(arith::Max{}, I);
        }
        break;
      case Op::kPower2: {
        Slot* d = col(I.dst);
        each(S, [&](int l) {
          const std::int64_t kk = as_int(I.a, l);
          if (kk < 0 || kk > 62) {
            vm_.runtime_error(I.where, "power2 argument out of range: " +
                                           std::to_string(kk));
          }
          d[l].i = std::int64_t{1} << kk;
        });
        break;
      }
      case Op::kRand: {
        Slot* d = col(I.dst);
        each(S, [&](int l) {
          const std::uint64_t x =
              use_fe_rng ? vm_.fe_rng.next() : bl.rng[l].next();
          d[l].i = static_cast<std::int64_t>(x >> 33);
        });
        break;
      }
      case Op::kReduceBegin: {
        const LinkedReduce& R = reduces[I.a];
        rt.info = &R;
        rt.acc = k.types.acc[I.a];
        rt.tuple = 0;
        rt.suppress = R.expr->partition_optimized == 1;
        const Value id = arith::reduce_identity<Value>(R.op, R.flt);
        Slot* acc = bl.acc;
        if (rt.acc == kFloat) {
          const double f = id.as_float();
          each(S, [&](int l) { acc[l].f = f; });
        } else {
          each(S, [&](int l) { acc[l].i = id.i; });
        }
        each(S, [&](int l) {
          bl.any[l] = 0;
          bl.enabled_any[l] = 0;
        });
        if (R.prod == 0) {
          next = I.jump;  // straight to kReduceEnd
          break;
        }
        for (std::size_t s = 0; s < R.n_sets; ++s) {
          rt.pos[s] = 0;
          rt.elem_vals[s] = (*R.values[s])[0];
        }
        // base_dims == n_dims for non-frontend spaces (and 0 on the
        // frontend), so the lane coordinates cover the copy.
        each(S, [&](int l) {
          std::int64_t* c = bl.rs_coords[l];
          for (std::size_t dd = 0; dd < R.base_dims; ++dd) {
            c[dd] = bl.coords[l][dd];
          }
          for (std::size_t s = 0; s < R.n_sets; ++s) c[R.base_dims + s] = 0;
          bl.rs_vp[l] = bl.vp[l] * R.prod;
        });
        break;
      }
      case Op::kReduceFold: {
        // Typing guarantees the accumulator's static type: float for a
        // float reduction, whose int arms convert; int otherwise, where only
        // and/or (whose result is a truth value) may fold a float arm.
        const ReduceKind op = rt.info->op;
        Slot* acc = bl.acc;
        if (op == ReduceKind::kArb) {  // keep the first enabled operand
          const Slot* v = rt.acc == kFloat ? dcol(col(I.a), T[I.a], 0)
                                           : col(I.a);
          each(S, [&](int l) {
            if (bl.any[l] == 0) acc[l] = v[l];
          });
        } else {
          arith::visit(op, [&](auto o) {
            binary_loop(o, acc, acc, rt.acc, col(I.a), T[I.a], I);
          });
        }
        each(S, [&](int l) {
          bl.any[l] = 1;
          bl.enabled_any[l] = 1;
        });
        break;
      }
      case Op::kReduceSkipOthers: {
        std::uint64_t taken = 0;
        each(S, [&](int l) {
          taken |= static_cast<std::uint64_t>(bl.enabled_any[l]) << l;
        });
        branch(taken, I.jump, next);
        break;
      }
      case Op::kReduceNext: {
        // Every lane of the reduction is here: the loop body only branches
        // forward to this instruction, and the lowest-ip lanes always run
        // first, so diverged lanes have merged again.
        const LinkedReduce& R = *rt.info;
        each(S, [&](int l) { bl.enabled_any[l] = 0; });
        if (++rt.tuple >= R.prod) break;  // falls through to kReduceEnd
        for (std::size_t s = R.n_sets; s-- > 0;) {
          if (++rt.pos[s] < static_cast<std::size_t>(R.sizes[s])) break;
          rt.pos[s] = 0;
        }
        std::int64_t tuple_flat = 0;
        for (std::size_t s = 0; s < R.n_sets; ++s) {
          rt.elem_vals[s] = (*R.values[s])[rt.pos[s]];
          tuple_flat =
              tuple_flat * R.sizes[s] + static_cast<std::int64_t>(rt.pos[s]);
        }
        each(S, [&](int l) {
          for (std::size_t s = 0; s < R.n_sets; ++s) {
            bl.rs_coords[l][R.base_dims + s] =
                static_cast<std::int64_t>(rt.pos[s]);
          }
          bl.rs_vp[l] = bl.vp[l] * R.prod + tuple_flat;
        });
        next = I.jump;
        break;
      }
      case Op::kReduceTuple: {
        // Entering tuple I.b of an unrolled reduction: the per-lane state
        // kReduceNext sets, for a tuple fixed at lowering.  The copy's set
        // elements are constants, so the odometer has nothing to do.
        const LinkedReduce& R = *rt.info;
        std::int64_t pos[kMaxReduceSets];
        std::int64_t t = I.b;
        for (std::size_t s = R.n_sets; s-- > 0;) {
          pos[s] = t % R.sizes[s];
          t /= R.sizes[s];
        }
        each(S, [&](int l) {
          bl.enabled_any[l] = 0;
          for (std::size_t s = 0; s < R.n_sets; ++s) {
            bl.rs_coords[l][R.base_dims + s] = pos[s];
          }
          bl.rs_vp[l] = bl.vp[l] * R.prod + I.b;
        });
        break;
      }
      case Op::kReduceEnd: {
        // The result has the accumulator's representation (typing), so the
        // payloads copy as they are.
        Slot* d = col(I.dst);
        const Slot* acc = bl.acc;
        each(S, [&](int l) { d[l] = acc[l]; });
        break;
      }
      case Op::kMemberBoundary:
        // Entering member I.a of a fused group: its stats land in their
        // own slot, and the lane RNG is reseeded with the member's own
        // statement id so rand() draws match the unfused execution.
        st = arena.stats.data() + I.a;
        if (k.uses_rand && !use_fe_rng) {
          each(S, [&](int l) { seed_rng(stmt_id + I.a, l); });
        }
        break;
      case Op::kRet: {
        // A null results array means the caller discards the values.
        if (results != nullptr) {
          each(S, [&](int l) { results[k0 + l] = get(I.a, l); });
        }
        if (slots != nullptr) {
          // Close the gaps lanes left by skipping stores.
          std::size_t kept = 0;
          for (int l = 0; l < n; ++l) {
            const Write* from = slots + base[l];
            if (from != slots + kept) {
              std::copy(from, from + written[l], slots + kept);
            }
            kept += static_cast<std::size_t>(written[l]);
          }
          arena.writes.append_reserved(kept);
        }
        return;
      }
    }
    ip = next;
    // Reconverge: the lowest-ip lanes always run next, and lanes reaching
    // the same ip run together again.
    while (!pending.empty() && pending.back().ip <= ip) {
      const SubBlock low = pending.back();
      pending.pop_back();
      if (low.ip == ip) {
        mask |= low.mask;
      } else {
        park(ip, mask);
        ip = low.ip;
        mask = low.mask;
      }
      S.set(mask);
    }
  }
}

void Engine::run_block_or_replay(const Kernel& k, LaneSpace& space,
                                 const std::vector<std::int64_t>& active,
                                 std::int64_t k0, int n, Frame* frame,
                                 std::uint64_t stmt_id, Arena& arena,
                                 Value* results) {
  try {
    run_block(k, space, active, k0, n, frame, stmt_id, arena, results);
  } catch (const support::UcRuntimeError&) {
    if (n == 1) throw;
    // Instruction-major order can reach a later lane's error before an
    // earlier lane's error at a later instruction.  The block's writes
    // were never appended (a block of several lanes only appends its
    // reserved slots when it finishes), so rerun it one lane at a time:
    // the first lane in lane order then raises its own error, exactly as
    // a lane-at-a-time run would.  A statement that raises is never
    // charged, so the partial block's stats do not matter.
    for (int l = 0; l < n; ++l) {
      run_block(k, space, active, k0 + l, 1, frame, stmt_id, arena, results);
    }
  }
}

void Engine::reset_arenas(const Kernel& k) {
  for (auto& a : arenas_) {
    a.writes.clear();
    a.spans.clear();
    a.stats.assign(k.num_members, cm::AccessStats{});
    a.enabled = 0;
  }
}

std::int64_t Engine::enabled_lanes() const {
  std::int64_t n = 0;
  for (const auto& a : arenas_) n += a.enabled;
  return n;
}

bool Engine::run_lanes_pooled(const Kernel& k, LaneSpace& space,
                              const std::vector<std::int64_t>& active,
                              Frame* frame, std::uint64_t stmt_id,
                              Value* results) {
  // Native tier: statements and fused groups both funnel through here, so
  // one hook covers every dispatch.  A false return (emitter declined,
  // toolchain missing, runtime error flagged) leaves
  // the arenas reset and falls through to bytecode.
  if (vm_.opts.engine == ExecEngine::kNative &&
      run_lanes_native(k, space, active, frame, stmt_id, results)) {
    return true;
  }
  // Register columns and ancestor rows, grown to the high-water mark.
  const std::size_t cols = static_cast<std::size_t>(k.num_regs) * kBlock;
  const std::size_t rows = static_cast<std::size_t>(max_depth_ + 1) * kBlock;
  for (auto& a : arenas_) {
    if (a.regs.size() < cols) a.regs.resize(cols);
    if (a.anc.size() < rows) a.anc.resize(rows);
  }
  // One-lane blocks where instruction-major order would be visible: the
  // frontend's lanes share one RNG stream, and a kernel with a store in a
  // reduction loop has no per-lane bound on its write slots.
  const std::int64_t block =
      space.frontend || k.writes_per_lane < 0 ? 1 : kBlock;
  const auto n = static_cast<std::int64_t>(active.size());
  const std::function<void(unsigned, std::int64_t, std::int64_t)> body =
      [&](unsigned worker, std::int64_t b, std::int64_t e) {
        Arena& arena = arenas_[worker];
        const auto span_start = static_cast<std::uint32_t>(arena.writes.size());
        for (std::int64_t kk = b; kk < e; kk += block) {
          run_block_or_replay(k, space, active, kk,
                              static_cast<int>(std::min(block, e - kk)), frame,
                              stmt_id, arena, results);
        }
        const auto count =
            static_cast<std::uint32_t>(arena.writes.size()) - span_start;
        if (count > 0) arena.spans.push_back(ChunkSpan{b, span_start, count});
      };
  vm_.machine.pool().parallel_for_indexed(0, n, body, /*min_grain=*/64);
  return false;
}

bool Engine::run(const Kernel& k, LaneSpace& space,
                 const std::vector<std::int64_t>& active, Frame* frame,
                 std::uint64_t stmt_id, Value* results,
                 std::vector<cm::AccessStats>& member_stats) {
  reset_arenas(k);
  const bool native =
      run_lanes_pooled(k, space, active, frame, stmt_id, results);
  member_stats.assign(k.num_members, cm::AccessStats{});
  for (const auto& a : arenas_) {
    for (std::uint32_t m = 0; m < k.num_members; ++m) {
      member_stats[m].merge(a.stats[m]);
    }
  }
  return native;
}

void Engine::commit() {
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
  vm_.commit(runs_, unique_stores_);
}

}  // namespace uc::vm::detail::kernel

namespace uc::vm::detail {

Impl::~Impl() = default;

kernel::Engine& Impl::kernel_engine() {
  if (kernel_engine_ == nullptr) {
    kernel_engine_ = std::make_unique<kernel::Engine>(*this);
  }
  return *kernel_engine_;
}

}  // namespace uc::vm::detail
