// Native-tier dispatch: builds NativeArgs from the engine's linked operand
// state and runs lane chunks through the compiled entry point, with the
// same chunking and buffered-write spans as the pooled bytecode path so
// commit order and stats attribution are identical (docs/VM.md "Native
// tier").
#include <atomic>

#include "ucvm/kernel/kernel.hpp"

namespace uc::vm::detail::kernel {

bool Engine::run_lanes_native(const Kernel& k, LaneSpace& space,
                              const std::vector<std::int64_t>& active,
                              Frame* frame, std::uint64_t stmt_id,
                              Value* results) {
  // The frontend space shares one RNG stream across its single lane and
  // the emitted kernels only model the per-lane streams; frontend
  // statements are cheap scalar code anyway.
  if (space.frontend) return false;

  if (native_ == nullptr) {
    native::BackendOptions bopts;
    bopts.cache_dir = vm_.opts.native_cache_dir;
    bopts.cc = vm_.opts.native_cc;
    bopts.log = vm_.opts.log;
    native_ = std::make_unique<native::Backend>(std::move(bopts));
    // Build the whole plan's lane kernels at once; a group member that runs
    // because its group's link declined is prepared alone below.
    native_->prepare(vm_.lane_plan_.expanded);
  }
  const native::Prepared* prep = native_->prepare(k);
  if (prep == nullptr) {
    ++native_fallbacks_;
    return false;
  }
  // The emitted L[] ancestor chain is sized for the engine's depth cap.
  if (max_depth_ + 1 >= kMaxDepth) {
    ++native_fallbacks_;
    return false;
  }

  // Link-dependent dispatch tables, mirrored field by field from the
  // engine's linked operand state into member vectors whose capacity
  // persists across statements.
  nelems_.resize(elems_.size());
  for (std::size_t i = 0; i < elems_.size(); ++i) {
    nelems_[i].vals = elems_[i].vals;
    nelems_[i].k = elems_[i].k;
    nelems_[i].width = elems_[i].width;
    nelems_[i].depth = elems_[i].depth;
  }
  nscalars_.resize(scalars_.size());
  for (std::size_t i = 0; i < scalars_.size(); ++i) {
    const LinkedScalar& ls = scalars_[i];
    native::NScalar& ns = nscalars_[i];
    ns.slot = ls.slot;
    ns.depth = ls.depth;
    switch (ls.home) {
      case ScalarHome::kGlobal:
        ns.home = 0;
        ns.i = ls.value->i;
        ns.f = ls.value->f;
        break;
      case ScalarHome::kFrame:
        ns.home = 1;
        ns.i = ls.value->i;
        ns.f = ls.value->f;
        break;
      case ScalarHome::kLaneLocal:
        ns.home = 2;
        ns.store = ls.store->data();
        ns.owner = ls.owner;
        break;
    }
  }
  narrays_.resize(arrays_.size());
  for (std::size_t i = 0; i < arrays_.size(); ++i) {
    const LinkedArray& la = arrays_[i];
    native::NArray& na = narrays_[i];
    na.data = la.data;
    na.owners = la.owners;
    na.vp_coords = la.vp_coords;
    na.adims = la.adims;
    na.astrides = la.astrides;
    na.obj = la.arr;
    na.rank = la.rank;
    na.mode = static_cast<std::uint8_t>(la.mode);
    na.geom_matches = la.geom_matches ? 1 : 0;
    na.slice = la.slice ? 1 : 0;
    na.replicated = la.arr->replicated() ? 1 : 0;
    na.identity = la.identity ? 1 : 0;
  }
  nreduces_.resize(reduces_.size());
  for (std::size_t i = 0; i < reduces_.size(); ++i) {
    const LinkedReduce& lr = reduces_[i];
    native::NReduce& nr = nreduces_[i];
    for (std::size_t s = 0; s < lr.n_sets; ++s) {
      nr.values[s] = lr.values[s]->data();
      nr.sizes[s] = lr.sizes[s];
    }
    nr.prod = lr.prod;
    nr.base_dims = static_cast<std::int64_t>(lr.base_dims);
    nr.suppress = lr.expr->partition_optimized == 1 ? 1 : 0;
  }
  // Ancestor-lane translation tables, indexed by depth as in run_block.
  const std::int64_t* parent_lanes[kMaxDepth] = {};
  for (std::int32_t d = 1; d <= max_depth_; ++d) {
    parent_lanes[d - 1] =
        depth_spaces_[static_cast<std::size_t>(d) - 1]->parent_lane.data();
  }

  const cm::CostModel& cost = vm_.machine.cost_model();
  const auto n = static_cast<std::int64_t>(active.size());
  std::atomic<bool> failed{false};

  auto body = [&](unsigned worker, std::int64_t b, std::int64_t e) {
    Arena& arena = arenas_[worker];
    const auto span_start = arena.writes.size();
    native::NativeArgs args;
    args.k_begin = b;
    args.k_end = e;
    args.active = active.data();
    args.vps = space.vps.data();
    args.coords = space.coords.data();
    args.n_dims = static_cast<std::int64_t>(space.dims.size());
    args.parent_lanes = parent_lanes;
    args.max_depth = max_depth_;
    args.elems = nelems_.data();
    args.scalars = nscalars_.data();
    args.arrays = narrays_.data();
    args.reduces = nreduces_.data();
    args.results = results;
    // The kernel writes its records straight into the arena's log, past
    // the chunks this worker already ran.
    args.writes = arena.writes.reserve_tail(
        static_cast<std::size_t>(e - b) *
        static_cast<std::size_t>(k.writes_per_lane));
    args.stats = arena.stats.data();
    args.wheres = reinterpret_cast<const void* const*>(prep->wheres.data());
    args.frame = frame;
    args.stmt_id = stmt_id;
    args.base_seed = vm_.base_seed;
    args.news_op = cost.news_op;
    args.router_op = cost.router_op;
    prep->entry(&args);
    if (args.error != 0) {
      failed.store(true, std::memory_order_relaxed);
      return;
    }
    arena.enabled += args.enabled;
    if (args.writes_count > 0) {
      arena.writes.append_reserved(
          static_cast<std::size_t>(args.writes_count));
      arena.spans.push_back(
          ChunkSpan{b, static_cast<std::uint32_t>(span_start),
                    static_cast<std::uint32_t>(args.writes_count)});
    }
  };

  native_->note_dispatch();
  // Compiled lanes are an order of magnitude cheaper than interpreted
  // ones, so the profitable chunk size is correspondingly larger: below
  // ~1k lanes the pool's fork-join handshake costs more than the whole
  // statement and the range runs inline (docs/VM.md "Dispatch latency and
  // the host-time floor").
  vm_.machine.pool().parallel_for_indexed(0, n, body, /*min_grain=*/1024);

  if (failed.load(std::memory_order_relaxed)) {
    // A lane hit a runtime error (bounds, division by zero, ...).  Discard
    // everything buffered and let the bytecode rerun raise the identical
    // error with its full message — errors are deterministic.
    reset_arenas(k);
    ++native_fallbacks_;
    return false;
  }
  return true;
}

}  // namespace uc::vm::detail::kernel
