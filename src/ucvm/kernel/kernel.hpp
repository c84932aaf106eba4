// The lane-kernel engine: bytecode execution of the lane plan's kernels
// for eval_lanes (docs/VM.md).  One Engine lives inside each vm Impl; it
// owns the per-execution link tables and the per-worker arenas the lane
// loop runs in without allocating.  The kernels belong to Impl::LanePlan.
// Lane spaces, lane lists and result buffers belong to the Impl, which
// reuses them from round to round (docs/VM.md "Linking and execution").
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "support/rng.hpp"
#include "ucvm/interp_detail.hpp"
#include "ucvm/kernel/bytecode.hpp"
#include "ucvm/native/native.hpp"

namespace uc::vm::detail::kernel {

// Lanes per block: the executor runs each instruction as one loop over up
// to this many lanes (a block's lane set is one 64-bit mask).
inline constexpr int kBlock = 64;

class Engine {
 public:
  explicit Engine(Impl& vm);

  // Links a site's planned kernel (docs/VM.md "Lane plan") against the
  // current space.  Null when `k` is (the plan runs the site on the walk)
  // or when the link declines it (a reduction's coordinates past eight
  // dimensions, say): every engine then runs the statement on the walk,
  // or a group's members unfused, and the walk raises any error the link
  // step declined to raise.
  const Kernel* prepare(const Kernel* k, LaneSpace& space, Frame* frame);
  // Runs the lanes of the kernel prepared last, buffering writes in the
  // arenas and storing per-lane values in `results` (indexed like
  // `active`; null when the caller discards them).  member_stats[m] gets
  // member m's merged comm stats.  Charges nothing, so the caller
  // interleaves its charging with the run and the commit, and the
  // statement or group stays one transactional unit.  Returns whether the
  // lanes went through a native entry point.
  bool run(const Kernel& k, LaneSpace& space,
           const std::vector<std::int64_t>& active, Frame* frame,
           std::uint64_t stmt_id, Value* results,
           std::vector<cm::AccessStats>& member_stats);
  // Conflict-checks and applies the last run's buffered writes in lane
  // order through Impl::commit, which skips the conflict check when
  // unique_stores().
  void commit();
  // Whether the link proved that no two lanes of the kernel prepared last
  // can write one element (docs/VM.md "Linking and execution").
  bool unique_stores() const { return unique_stores_; }
  // The lanes the last run's kSelect enabled (docs/VM.md "Selection
  // blocks"); 0 for a kernel without one.
  std::int64_t enabled_lanes() const;
  // The sites of the kernel prepared last whose class the link fixed for
  // every lane (docs/VM.md "Lane-relative sites").
  std::size_t static_sites() const;

  // Native tier (engine == kNative): lazily constructed backend, null
  // until the first native dispatch attempt, which prepares the lane
  // plan's expanded-space kernels in one batch.  native_fallbacks counts
  // statement executions that wanted native but ran on bytecode.
  const native::Backend* native_backend() const { return native_.get(); }
  std::uint64_t native_fallbacks() const { return native_fallbacks_; }

 private:
  // --- linked (per-execution) operand forms ---
  struct LinkedElem {
    const std::int64_t* vals = nullptr;  // owning space's elem_vals.data()
    std::int32_t depth = 0;   // spaces up from the statement space
    std::uint16_t k = 0;      // position within that space's elems
    std::uint16_t width = 0;  // that space's elems.size()
  };
  enum class ScalarHome : std::uint8_t { kGlobal, kFrame, kLaneLocal };
  struct LinkedScalar {
    ScalarHome home = ScalarHome::kGlobal;
    std::int32_t slot = 0;
    std::int32_t depth = 0;               // kLaneLocal: spaces up
    LaneSpace* owner = nullptr;           // kLaneLocal
    std::vector<Value>* store = nullptr;  // kLaneLocal: owner->locals[slot]
    const Value* value = nullptr;         // kGlobal/kFrame: the slot's scalar
                                          // (stable: writes are buffered)
  };
  enum class AccMode : std::uint8_t { kFrontend, kLocalReplicated, kRemote };
  struct LinkedArray {
    ArrayObj* arr = nullptr;
    ArrayPtr keepalive;  // owning handle for the statement's duration
    AccMode mode = AccMode::kRemote;
    bool geom_matches = false;  // lane dims == array dims (and rank <= 8)
    bool identity = false;      // arr->identity_owners(): owner(e) == e
    std::int32_t reduce = -1;
    // Hot-loop caches (valid for the statement: no allocation happens
    // while lanes run, so the pointers stay stable).
    const cm::Bits* data = nullptr;
    const cm::VpIndex* owners = nullptr;
    // coord_table() when geom_matches and not a slice, else null.
    const std::int64_t* vp_coords = nullptr;
    const std::int64_t* adims = nullptr;
    const std::int64_t* astrides = nullptr;
    std::uint32_t rank = 0;
    bool flt = false;
    bool slice = false;
  };
  // The class every lane of a site shares, fixed at link for a
  // lane-relative site; empty at a site classified per lane.
  using LinkedSite = std::optional<cm::Access>;
  struct LinkedReduce {
    const lang::ReduceExpr* expr = nullptr;
    std::size_t n_sets = 0;
    const std::vector<std::int64_t>* values[kMaxReduceSets] = {};
    std::int64_t sizes[kMaxReduceSets] = {};
    std::int64_t prod = 1;
    bool flt = false;
    lang::ReduceKind op = lang::ReduceKind::kAdd;
    std::size_t base_dims = 0;  // outer dims copied into the inner coords
    std::size_t n_dims = 0;     // base_dims + n_sets
  };

  // --- per-worker arena: reused across statements; it only grows when a
  // statement buffers more writes than any before it ---
  struct ChunkSpan {
    std::int64_t begin_k = 0;  // first active-lane position of the chunk
    std::uint32_t offset = 0;  // into Arena::writes
    std::uint32_t count = 0;
  };
  // Append-only write log.  Its capacity is a high-water mark that clear()
  // keeps, and growing it is the only time records are initialised, so a
  // native chunk can reserve its worst case and fill it in place without
  // paying for the records it leaves unused.
  class WriteLog {
   public:
    void clear() { size_ = 0; }
    std::size_t size() const { return size_; }
    const Write* data() const { return buf_.get(); }
    void push_back(const Write& w) {
      if (size_ == cap_) grow(size_ + 1);
      buf_[size_++] = w;
    }
    // Room for `n` records past the end; append_reserved(m) keeps the first
    // m <= n of them.
    Write* reserve_tail(std::size_t n) {
      if (size_ + n > cap_) grow(size_ + n);
      return buf_.get() + size_;
    }
    void append_reserved(std::size_t m) { size_ += m; }

   private:
    void grow(std::size_t need) {
      cap_ = std::max({need, 2 * cap_, std::size_t{64}});
      auto bigger = std::make_unique<Write[]>(cap_);
      std::copy(buf_.get(), buf_.get() + size_, bigger.get());
      buf_ = std::move(bigger);
    }
    std::unique_ptr<Write[]> buf_;
    std::size_t size_ = 0;
    std::size_t cap_ = 0;
  };
  // One register payload: kInt registers use i, kFloat ones f.
  union Slot {
    std::int64_t i;
    double f;
  };
  // Per-lane state of the block being run, indexed by block lane.
  struct BlockLanes {
    std::int64_t vp[kBlock];
    const std::int64_t* coords[kBlock];
    support::SplitMix64 rng[kBlock];
    // The live reduction (at most one: no nesting).  Its tuple odometer is
    // uniform — every lane of the block walks the same product — and lives
    // in ReduceTuple; accumulators, flags and the expanded-geometry VP and
    // coordinates differ per lane.
    Slot acc[kBlock];
    std::uint8_t any[kBlock];
    std::uint8_t enabled_any[kBlock];
    std::int64_t rs_vp[kBlock];
    std::int64_t rs_coords[kBlock][8];
    // Operands converted to the representation an operator runs on.
    Slot scratch[2][kBlock];
  };
  struct ReduceTuple {
    const LinkedReduce* info = nullptr;
    RegType acc = kInt;  // the accumulator's static type
    bool suppress = false;
    std::int64_t tuple = 0;
    std::size_t pos[kMaxReduceSets] = {};
    std::int64_t elem_vals[kMaxReduceSets] = {};
  };
  // A pending part of a diverged block: the lanes in `mask` resume at ip.
  struct SubBlock {
    std::int32_t ip = 0;
    std::uint64_t mask = 0;
  };

  struct Arena {
    // Register columns: register r of block lane l is regs[r * kBlock + l].
    // They grow to the largest kernel run so far and are never shrunk.
    std::vector<Slot> regs;
    // Ancestor lanes per depth: anc[d * kBlock + l].
    std::vector<std::int64_t> anc;
    // Buffered writes of every chunk this worker ran, in chunk order;
    // blocks and native chunks fill their lanes' writes in place.
    WriteLog writes;
    std::vector<ChunkSpan> spans;
    // One slot per kernel member (plain statements use slot 0); fused
    // kernels switch slots at kMemberBoundary so the driver can charge
    // and attribute each member's communication separately.
    std::vector<cm::AccessStats> stats;
    std::vector<SubBlock> pending;  // sorted by descending ip
    BlockLanes lanes;
    ReduceTuple rt;
    std::int64_t enabled = 0;  // lanes past kSelect
  };

  // Deepest ancestor-space chain a kernel may reference.
  static constexpr std::int32_t kMaxDepth = 32;

  bool link(const Kernel& k, LaneSpace& space, Frame* frame);
  // The class of a lane-relative site under the operands link resolved.
  LinkedSite link_site(const Kernel& k, const LaneRelativeSite& rel) const;
  // The statement-space axis whose coordinate is a lane's position in the
  // linked element's set, or -1 when the element's space adds no axis for
  // it.
  std::int64_t lane_axis(const LinkedElem& le) const;
  // The unique-store proof: every store of `k` is a lane-relative kArrPut
  // that uses each axis of `space` once, and no two reach one root array.
  // Allocates nothing.
  bool stores_unique(const Kernel& k, const LaneSpace& space) const;
  void reset_arenas(const Kernel& k);
  // Runs the lanes natively when it can, else on the pooled block
  // executor; returns whether the native tier ran them.
  bool run_lanes_pooled(const Kernel& k, LaneSpace& space,
                        const std::vector<std::int64_t>& active, Frame* frame,
                        std::uint64_t stmt_id, Value* results);
  // Native-tier dispatch (native_exec.cpp): prepares the kernel through the
  // backend and runs the lanes through the compiled entry point with the
  // same chunking as the pooled bytecode path.  Returns false (with the
  // arenas reset) when the statement must run on bytecode instead — not
  // prepared, or the kernel flagged a runtime error that the deterministic
  // bytecode rerun will re-raise with its full message.
  bool run_lanes_native(const Kernel& k, LaneSpace& space,
                        const std::vector<std::int64_t>& active, Frame* frame,
                        std::uint64_t stmt_id, Value* results);
  // Runs active[k0 .. k0+n) (n <= kBlock) as one block: each instruction
  // is one loop over the block's lanes.  A lane error propagates as the
  // walk's UcRuntimeError; run_block_or_replay turns an error in a block
  // of several lanes into a lane-by-lane rerun so the first lane in lane
  // order raises.
  void run_block(const Kernel& k, LaneSpace& space,
                 const std::vector<std::int64_t>& active, std::int64_t k0,
                 int n, Frame* frame, std::uint64_t stmt_id, Arena& arena,
                 Value* results);
  void run_block_or_replay(const Kernel& k, LaneSpace& space,
                           const std::vector<std::int64_t>& active,
                           std::int64_t k0, int n, Frame* frame,
                           std::uint64_t stmt_id, Arena& arena,
                           Value* results);
  Impl& vm_;
  // Link state of the kernel prepared last.
  std::vector<LinkedElem> elems_;
  std::vector<LinkedScalar> scalars_;
  std::vector<LinkedArray> arrays_;
  std::vector<LinkedReduce> reduces_;
  std::vector<LinkedSite> sites_;  // per instruction
  bool unique_stores_ = false;
  std::vector<LaneSpace*> depth_spaces_;  // [0]=statement space, then parents
  std::int32_t max_depth_ = 0;
  std::vector<Arena> arenas_;
  // commit's chunk runs, sorted by first lane position.
  std::vector<std::pair<std::int64_t, WriteRun>> span_order_;
  std::vector<WriteRun> runs_;
  std::unique_ptr<native::Backend> native_;
  // Native dispatch tables, mirrored from the linked operand state on
  // every dispatch.  Engine members (not locals) so their heap capacity
  // is reused across statements like the link-state vectors above.
  std::vector<native::NElem> nelems_;
  std::vector<native::NScalar> nscalars_;
  std::vector<native::NArray> narrays_;
  std::vector<native::NReduce> nreduces_;
  std::uint64_t native_fallbacks_ = 0;
};

}  // namespace uc::vm::detail::kernel
