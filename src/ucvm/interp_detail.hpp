// Internal machinery of the UC VM (see interp.hpp for the model).  Not
// part of the public API; included by the interp_*.cpp files and by
// white-box tests.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cm/plan_cache.hpp"
#include "prof/profile.hpp"
#include "support/error.hpp"
#include "support/free_list.hpp"
#include "support/rng.hpp"
#include "ucvm/checkpoint.hpp"
#include "ucvm/interp.hpp"

namespace uc::vm::detail {

namespace kernel {
class Engine;
struct Kernel;
}

class DurableCheckpoints;  // durable.hpp

using lang::Expr;
using lang::FuncDecl;
using lang::Stmt;
using lang::Symbol;

// ---------------------------------------------------------------------------
// Lane spaces
// ---------------------------------------------------------------------------

// One expansion level of the parallel execution context.  A space owns a
// set of lanes: each lane has bound index-element values, a VP id in the
// space's geometry, and coordinates (index-set *positions*, outermost
// first) used to classify array accesses as local/NEWS/router.
struct LaneSpace {
  LaneSpace* parent = nullptr;
  bool frontend = false;  // the root space (one lane on the front end)

  std::vector<const Symbol*> elems;       // elements bound by THIS space
  std::vector<std::int64_t> elem_vals;    // lane-major [lane*elems.size()+k]
  std::vector<std::int64_t> parent_lane;  // per lane
  std::vector<cm::VpIndex> vps;           // per lane
  std::vector<std::int64_t> dims;         // full geometry (parents' + own)
  std::vector<std::int64_t> coords;       // lane-major [lane*dims.size()+d]
  std::int64_t geom_size = 1;

  // Per-lane locals declared in this space's statements: slot -> values.
  std::unordered_map<std::int32_t, std::vector<Value>> locals;

  // Geometry build id: a fresh Impl::new_build() each time the root, a
  // seq binding space or expand() builds dims, vps, coords, parent_lane
  // and elem_vals.  A space built anywhere else keeps 0, and expand()
  // never keeps a child of such a parent.  expand() records what it built
  // this space from, and returns early when asked for the same again.
  std::uint64_t build = 0;
  std::uint64_t built_from = 0;  // the parent's build
  std::vector<const Symbol*> built_sets;
  std::vector<std::int64_t> built_active;

  std::int64_t lane_count() const {
    return static_cast<std::int64_t>(vps.size());
  }

  // The lane list [0, lane_count()), the active set of an unguarded block.
  // Cached, so each round of a construct borrows it instead of building a
  // new one; the cache's prefix stays valid when the space is refilled.
  const std::vector<std::int64_t>& all_lanes() {
    const auto n = static_cast<std::size_t>(lane_count());
    iota.reserve(n);
    while (iota.size() < n) iota.push_back(std::ssize(iota));
    iota.resize(n);
    return iota;
  }
  std::vector<std::int64_t> iota;  // all_lanes() cache

  // Finds the bound value of an index element for a lane, walking up the
  // parent chain.  Returns nullopt if the element is not bound (sema
  // should have prevented this).
  std::optional<std::int64_t> elem_value(const Symbol* elem,
                                         std::int64_t lane) const;

  // Finds the space (and translated lane) holding per-lane storage for a
  // local slot; nullptr if no ancestor has it (it is a frame scalar).
  LaneSpace* find_local(std::int32_t slot, std::int64_t lane,
                        std::int64_t* out_lane);
};

// ---------------------------------------------------------------------------
// Frames, write buffers, access statistics
// ---------------------------------------------------------------------------

struct FrameSlot {
  enum class Kind : std::uint8_t { kEmpty, kScalar, kArray };
  Kind kind = Kind::kEmpty;
  Value scalar;
  ArrayPtr array;
};

struct Frame {
  const FuncDecl* fn = nullptr;
  std::vector<FrameSlot> slots;
  // The call's `return` value.  Per frame, not per VM: lanes on different
  // pool workers run calls at the same time.
  Value return_value;
};

// Address of a write target.  An array target names the array the write
// went through, which may be a slice view; the commit resolves it to the
// root array's flat element.
struct WriteTarget {
  enum class Kind : std::uint8_t { kArray, kGlobal, kFrame, kLaneLocal };
  Kind kind = Kind::kArray;
  void* obj = nullptr;     // ArrayObj* / nullptr / Frame* / LaneSpace*
  std::int64_t index = 0;  // flat element | slot | slot | slot
  std::int64_t lane = 0;   // kLaneLocal only

  friend bool operator==(const WriteTarget&, const WriteTarget&) = default;
};

struct WriteTargetHash {
  std::size_t operator()(const WriteTarget& t) const {
    auto h = std::hash<void*>()(t.obj);
    h ^= std::hash<std::int64_t>()(t.index * 1315423911ll) + (h << 6);
    h ^= std::hash<std::int64_t>()(t.lane) + (h >> 2);
    h ^= static_cast<std::size_t>(t.kind) * 0x9e3779b9u;
    return h;
  }
};

struct Write {
  WriteTarget target;
  Value value;
  const Expr* where = nullptr;  // for error messages
};

// A lane-ordered run of buffered writes: one lane's (walk) or one pool
// chunk's (kernel engine).
using WriteRun = std::span<const Write>;

// Conflict table for the non-array writes of one commit: globals, frame
// scalars and lane-locals.  Array writes never enter it; they are checked
// against their array's WriteMarks instead.  Open addressing with
// generation stamps, so there are no node allocations and no per-commit
// clear; the table only grows, to keep its load factor at most 1/2.
class CommitSeen {
 public:
  // Invalidates every entry by bumping the generation stamp.
  void begin() {
    count_ = 0;
    if (++gen_ == 0) {  // stamp wrapped: hard-reset so 0 stays "empty"
      std::fill(slots_.begin(), slots_.end(), Slot{});
      gen_ = 1;
    }
  }

  // Returns the commit's first write to w's target (first writer wins, as
  // in the sequential walk), or records `w` and returns nullptr.  `w` must
  // outlive the commit.
  const Write* check_insert(const Write& w) {
    if (2 * (count_ + 1) > slots_.size()) grow();
    Slot& s = find(w.target);
    if (s.gen == gen_) return s.first;
    s = Slot{&w, gen_};
    ++count_;
    return nullptr;
  }

 private:
  struct Slot {
    const Write* first = nullptr;
    std::uint32_t gen = 0;
  };

  Slot& find(const WriteTarget& t) {
    std::size_t pos = WriteTargetHash{}(t) & mask_;
    while (slots_[pos].gen == gen_ && !(slots_[pos].first->target == t)) {
      pos = (pos + 1) & mask_;
    }
    return slots_[pos];
  }

  void grow() {
    std::vector<Slot> old(std::max<std::size_t>(16, 2 * slots_.size()));
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.gen == gen_) find(s.first->target) = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t count_ = 0;
  std::uint32_t gen_ = 0;
};

// ---------------------------------------------------------------------------
// Per-lane evaluation context
// ---------------------------------------------------------------------------

struct Impl;

struct EvalCtx {
  Impl* vm = nullptr;
  LaneSpace* space = nullptr;  // never null; root space for the front end
  std::int64_t lane = 0;
  Frame* frame = nullptr;  // innermost function frame
  // The frame the enclosing statement executes in.  Writes to frames
  // *below* it (functions called during this lane's evaluation), and to
  // arrays declared there, are private and apply immediately; writes to
  // statement_frame itself obey the synchronous collect-then-commit rule.
  Frame* statement_frame = nullptr;

  // Synchronous-write collection; nullptr = commit directly.
  std::vector<Write>* writes = nullptr;
  cm::AccessStats* stats = nullptr;
  std::string* print_out = nullptr;  // per-lane print buffer (may be null)

  // Deterministic per-lane RNG (seeded lazily from statement id + VP).
  support::SplitMix64 rng{0};
  bool rng_seeded = false;

  // >0 while evaluating inside a partition-optimised reduction: accesses
  // there are paid for by the send-with-combine charge, not counted again.
  int suppress_comm = 0;

  // The compiled kernel of the statement (or group) being walked, when it
  // has one: the walk skips classification at the reads its optimiser
  // elided and takes a forwarded read's value from this lane's buffered
  // write, so it charges exactly what the kernel engines charge.
  const kernel::Kernel* kernel = nullptr;

  // solve support: in a solve equation's round (solve_targets non-null), a
  // read of an undefined element of a target array poisons the evaluation
  // instead of failing.
  bool undef = false;
  const std::unordered_set<ArrayObj*>* solve_targets = nullptr;

  bool is_frontend() const { return space->frontend; }
};

// Execution flow for scalar statement execution (function bodies, main).
enum class Flow : std::uint8_t { kNormal, kReturn, kBreak, kContinue };

// ---------------------------------------------------------------------------
// The VM implementation object
// ---------------------------------------------------------------------------

struct Impl {
  const lang::CompilationUnit& unit;
  cm::Machine& machine;
  ExecOptions opts;

  std::vector<FrameSlot> globals;
  std::string output;
  std::uint64_t stmt_counter = 0;  // statement-instance id for lane RNG
  std::uint64_t base_seed = 1;
  support::SplitMix64 fe_rng{1};
  LaneSpace root;  // the front-end space (one lane)

  Impl(const lang::CompilationUnit& u, cm::Machine& m, ExecOptions o);
  ~Impl();  // out of line: kernel::Engine is incomplete here

  RunResult run();

  // --- scalar (front end / function body) execution ---
  Flow exec_scalar_stmt(const Stmt& stmt, EvalCtx& ctx);
  Value call_function(const FuncDecl& fn, std::vector<Value> scalar_args,
                      std::vector<ArrayPtr> array_args,
                      const std::vector<bool>& is_array_arg, EvalCtx& caller);

  // --- parallel execution ---
  void exec_nested_construct(const lang::UcConstructStmt& stmt,
                             LaneSpace& parent,
                             const std::vector<std::int64_t>& active,
                             Frame* frame);
  void exec_seq(const lang::UcConstructStmt& stmt, LaneSpace& parent,
                const std::vector<std::int64_t>& active, Frame* frame,
                RecoveryScope& rscope);
  // Runs one round of `stmt`'s sc-blocks over every lane of `space`
  // (docs/VM.md "The block runner"): the guard step, the bodies of a
  // guards-first construct (oneof: one enabled block), then `others` over
  // BlockLanes::others, except in a *par or oneof round where no guard
  // enabled a lane.  Returns whether some guard enabled a lane.
  bool run_blocks(const lang::UcConstructStmt& stmt, LaneSpace& space,
                  Frame* frame);
  using LaneList = support::FreeList<std::vector<std::int64_t>>::Lease;
  using LaneTable =
      support::FreeList<std::vector<std::vector<std::int64_t>>>::Lease;
  using ValueList = support::FreeList<std::vector<Value>>::Lease;
  // The lanes each sc-block of one round enabled: all of the space's lanes
  // for an unguarded block, else the block's entry of a leased table.
  struct BlockLanes {
    BlockLanes(Impl& vm, const lang::UcConstructStmt& stmt, LaneSpace& space);
    const std::vector<std::int64_t>& operator[](std::size_t b) const;
    // Stores in `rest` the lanes no block enabled or, when `ran` names a
    // block (oneof), the lanes outside that block.
    void others(std::size_t ran, std::vector<std::int64_t>& rest) const;

    const lang::UcConstructStmt& stmt;
    const std::vector<std::int64_t>& all;
    LaneTable table;
  };
  // The guard step of run_blocks and exec_solve: evaluates each block's
  // guard once, in block order, through filter_lanes into `lanes`.  When
  // guards run in turn (guards_in_turn), each enabled body runs right
  // after its guard, and a merged selection block runs whole (it fills no
  // entry: it has no `others`).  Returns whether some block enabled a lane.
  bool run_guards(const lang::UcConstructStmt& stmt, LaneSpace& space,
                  Frame* frame, BlockLanes& lanes);
  // Counts one more round of the loop or fixed point `stmt`, which `what`
  // names in the error raised once the rounds exceed --max-iterations.
  void count_round(const lang::Stmt& stmt, std::int64_t& rounds,
                   const char* what);
  void exec_parallel_stmt(const Stmt& stmt, LaneSpace& space,
                          const std::vector<std::int64_t>& active,
                          Frame* frame);

  // --- the lane plan (docs/VM.md "Lane plan") ---
  // One site eval_lanes or exec_fused_group runs: a statement, or a fusion
  // group of a compound body's consecutive members.
  struct LaneSite {
    const kernel::Kernel* kernel = nullptr;  // null: runs on the walk
    bool expanded = false;  // on an expanded lane space, not the front end
    bool declares = false;  // calls_array_declarer: walk on one thread
  };
  // A maximal run of consecutive fusable expression statements of a
  // compound body; a run of one is an ordinary statement.
  struct FusionSeg {
    std::size_t begin = 0;
    std::size_t count = 1;
    LaneSite group;  // count >= 2 and compiled: the group's kernel
    std::vector<const Expr*> members;  // count >= 2: their expressions
  };
  // A guarded sc-block whose guard and body run as one kernel: a block of
  // a construct merges_blocks admits (docs/VM.md "Selection blocks").  The
  // body is one expression statement, or a compound statement that fuses
  // into the one group `group`.
  struct SelectionBlock {
    const kernel::Kernel* kernel = nullptr;  // guard, kSelect, body
    const Expr* body = nullptr;  // null when the body is `group`
    const FusionSeg* group = nullptr;
    // The body's statements, the kernel's members 1..n.
    std::span<const Expr* const> members() const {
      return group != nullptr ? std::span<const Expr* const>(group->members)
                              : std::span<const Expr* const>(&body, 1);
    }
  };
  // Built once, by build_lane_plan, when the Impl is constructed: every
  // lane site of every function with its kernel, every compound body a
  // parallel context runs with its fusion segments, and every selection
  // block the kernel engines run merged.  The executor only links what it
  // finds here; a site it reaches that is not here is an internal error,
  // never a lazy compile.
  struct LanePlan {
    std::unordered_map<const Expr*, LaneSite> stmts;
    std::unordered_map<const lang::CompoundStmt*, std::vector<FusionSeg>>
        bodies;
    std::unordered_map<const lang::ScBlock*, SelectionBlock> selections;
    // The native tier's batch, in program order: the kernels of the
    // expanded-space statements, groups and selection blocks, less the
    // members of compiled groups and the guards and bodies of selection
    // blocks, which run only when the kernel that covers them declines.
    std::vector<const kernel::Kernel*> expanded;
    std::vector<std::unique_ptr<kernel::Kernel>> kernels;  // owns them all
  };
  LanePlan lane_plan_;
  void build_lane_plan();
  // The plan's entry for `e` run on `space`; an internal error if none.
  const LaneSite& lane_site(const Expr& e, const LaneSpace& space);
  // Runs a compiled group's members as one: per-member charging under
  // each member's own profiler scope (riders at the planned issue
  // overhead), one lane run and a single merged commit.  Returns false
  // (with no state mutated) when the link declines the group kernel: the
  // caller then runs the members unfused, on every engine.  A selection
  // block passes the lane run its kernel already made as `ran`.
  struct LaneRun;
  bool exec_fused_group(const FusionSeg& seg, LaneSpace& space,
                        const std::vector<std::int64_t>& active, Frame* frame,
                        const LaneRun* ran = nullptr);
  // Runs one selection block: the guard's statement and charges, the
  // merged kernel's one lane run, and, when it enabled a lane, the body's
  // statements, charges and commit, in the order the unmerged block makes
  // them.  A merged kernel the link declines, or one with a lane that
  // raises, is discarded and the block runs unmerged.  Returns whether a
  // lane was enabled.
  bool exec_selection(const lang::ScBlock& block, const SelectionBlock& sel,
                      LaneSpace& space, Frame* frame);
  // The merged kernel's lane run for exec_selection: false, with nothing
  // but the body's partition decisions changed, when the link declines
  // the kernel or a lane raises.
  bool run_selection(const SelectionBlock& sel, LaneSpace& space,
                     Frame* frame, std::uint64_t guard_id, LaneRun& run);
  // The selection block `block` runs as, or null (the walk, or a block
  // the plan does not merge).
  const SelectionBlock* selection(const lang::ScBlock& block) const;
  // The bookkeeping that opens every lane statement: the deadline, the
  // checkpoint count, the kill point.  Returns the statement's id.
  std::uint64_t begin_statement();
  // Builds `child` as `parent`'s active lanes crossed with `sets`.  A
  // leased child last built from the same parent build, sets and lanes
  // (every round of a seq-nested construct) keeps its geometry and only
  // drops its lane locals.
  void expand(LaneSpace& child, LaneSpace& parent,
              const std::vector<std::int64_t>& active,
              const std::vector<Symbol*>& sets);
  std::uint64_t new_build() { return ++builds_; }
  std::uint64_t builds_ = 0;
  // Stores the subset of `candidates` enabled by `pred` in `enabled`.
  void filter_lanes(const Expr& pred, LaneSpace& space,
                    const std::vector<std::int64_t>& candidates, Frame* frame,
                    std::vector<std::int64_t>& enabled);
  void exec_solve(const lang::UcConstructStmt& stmt, LaneSpace& space,
                  Frame* frame);
  void exec_star_solve(const lang::UcConstructStmt& stmt, LaneSpace& space,
                       Frame* frame, RecoveryScope& rscope);

  // Evaluates an expression for every lane in `active` (on the thread
  // pool), collecting writes and prints per lane, then commits writes with
  // single-value conflict checking and flushes prints in lane order.
  // Stores the per-lane values, indexed like `active`, in `values` when it
  // is given; expression statements discard theirs, so those are never
  // produced.
  // A selection block passes the lane run its kernel already made as
  // `ran`; the statement then charges and commits that run.
  void eval_lanes(const Expr& expr, LaneSpace& space,
                  const std::vector<std::int64_t>& active, Frame* frame,
                  std::vector<Value>* values = nullptr,
                  const LaneRun* ran = nullptr);

  // One lane run of a statement or group: its tier, each member's merged
  // comm stats, and, for the walk, the buffered per-lane writes and prints
  // (a kernel run buffers in the engine's arenas).
  struct LaneRun {
    prof::Tier tier = prof::Tier::kWalk;
    std::vector<cm::AccessStats> member_stats;
    std::vector<std::vector<Write>> writes;
    std::vector<std::string> prints;
  };
  // Runs the lanes of one statement, or of a linked group's members
  // (`kern` is then the group kernel), on the selected engine.  The kernel
  // engines run `kern`; the walk, and every engine when `kern` is null,
  // evaluates the members lane by lane in member order, honouring `kern`'s
  // elided reads, on the issuing thread alone when `declares`.  Charges
  // nothing and commits nothing.  `solve_targets` runs a solve equation's
  // round (on the walk): a lane that reads an undefined element of one of
  // those arrays drops its writes and keeps its prints.
  void run_lanes(const Expr* const* stmts, std::size_t count,
                 const kernel::Kernel* kern, bool declares, LaneSpace& space,
                 const std::vector<std::int64_t>& active, Frame* frame,
                 std::uint64_t first_stmt_id, Value* results, LaneRun& run,
                 const std::unordered_set<ArrayObj*>* solve_targets = nullptr);
  // Commits a lane run's buffered writes, lanes in order, and flushes its
  // prints.
  void commit_lanes(const LaneRun& run);

  // The one commit path of every engine and construct, a solve equation's
  // round included (docs/VM.md "Linking and execution").  `runs` hold one
  // synchronous statement's buffered writes in lane order.  Pass 1 checks
  // them in that order: the first write of a different value to an already
  // written target raises the paper §3.4 error.  Pass 2 applies them in the
  // same order.  `unique` says the link proved that no two of the writes
  // share a target (kernel::Engine::unique_stores), and pass 1 is skipped.
  void commit(std::span<const WriteRun> runs, bool unique);
  void apply_write(const WriteTarget& t, const Value& v);

  // Lazily constructed kernel engine (exec.cpp).  Every engine links the
  // statement's planned kernel through it: the kernel, or its absence,
  // fixes what the statement costs.
  kernel::Engine& kernel_engine();
  std::unique_ptr<kernel::Engine> kernel_engine_;
  // Communication-plan cache (src/cm/plan_cache.hpp) and its invalidation
  // epoch: bumped whenever an array is (re)declared or remapped, since
  // cached plans bake in mapping- and shape-dependent decisions.
  cm::PlanCache plan_cache_;
  std::uint64_t plan_epoch_ = 0;
  // Commit state (see commit()).  An array target's entry in
  // commit_arrays_ resolves its root field and marks once per commit.
  struct CommitArray {
    ArrayObj* root = nullptr;
    WriteMarks::Mark* marks = nullptr;
    cm::Bits* data = nullptr;
    std::uint8_t* defined = nullptr;
    std::uint64_t size = 0;
    std::uint32_t stamp = 0;
    bool flt = false;
  };
  // Adds root's entry, the first time this commit writes the array.
  CommitArray& open_commit_array(ArrayObj& root);
  [[noreturn]] void commit_conflict(const Write& first, const Write& w);
  std::uint64_t commit_ordinal_ = 0;
  std::vector<CommitArray> commit_arrays_;
  std::vector<WriteRun> commit_runs_;
  CommitSeen commit_seen_;
  // Storage each seq / *solve round leases and returns for the next
  // (docs/VM.md "Linking and execution").
  support::FreeList<LaneSpace> spaces_;
  support::FreeList<std::vector<std::int64_t>> lane_lists_;
  support::FreeList<std::vector<std::vector<std::int64_t>>> lane_tables_;
  support::FreeList<std::vector<Value>> value_lists_;

  // --- expression evaluation (per lane) ---
  Value eval(const Expr& e, EvalCtx& ctx);
  Value eval_reduce(const lang::ReduceExpr& e, EvalCtx& ctx);
  Value eval_call(const lang::CallExpr& e, EvalCtx& ctx);
  std::optional<WriteTarget> resolve_lvalue(const Expr& e, EvalCtx& ctx);
  Value read_target(const WriteTarget& t, const EvalCtx& ctx);
  void write_value(const WriteTarget& t, Value v, const Expr& where,
                   EvalCtx& ctx);
  ArrayPtr array_of(const Symbol& sym, const EvalCtx& ctx);
  void classify_access(const ArrayObj& arr, std::int64_t flat, EvalCtx& ctx);

  // --- charging ---
  // Charges the static cost of one synchronous statement expression over a
  // VP set of geom_size lanes (or the front end when frontend=true),
  // including nested reductions.  `outer_space` (may be null) lets the
  // processor optimisation recognise partitionable reductions.  When
  // `record` is non-null every machine charge (and every partition
  // decision) is appended to it so the communication-plan cache can replay
  // the recipe later; `planned` charges vector/reduce issues at the
  // plan_issue_overhead (rider members of a group share its front-end
  // issue).
  void charge_expr(const Expr& e, std::int64_t geom_size, bool frontend,
                   const LaneSpace* outer_space = nullptr,
                   cm::Plan* record = nullptr, bool planned = false);
  // Plan-cached charging of a synchronous statement, on every engine: on a
  // signature hit the recorded recipe replays at the plan issue overhead;
  // on a miss the statement charges normally while recording, then the
  // plan is cached.
  void charge_expr_planned(const Expr& e, LaneSpace& space,
                           bool rider = false);
  // Sets the processor-optimisation decision of each reduction of `e` as
  // charge_expr_planned would, without charging or counting a plan hit:
  // a selection kernel runs before its body charges.
  void annotate_partitions(const Expr& e, const LaneSpace& space);
  // charge_expr's decision for one reduction.
  bool partition_decision(const lang::ReduceExpr& red,
                          const LaneSpace* outer_space) const;
  std::uint64_t plan_key(const Expr& e, const LaneSpace& space) const;
  static std::uint64_t expr_weight(const Expr& e);
  // Like expr_weight, but repeated pure subexpressions count once — the
  // paper §4 common-subexpression optimisation as a cost-model effect.
  static std::uint64_t expr_weight_cse(const Expr& e);

  // --- mappings ---
  void apply_map_section(const lang::MapSectionStmt& section, EvalCtx& ctx);

  // --- helpers ---
  [[noreturn]] void runtime_error(const Expr* where, const std::string& msg);
  [[noreturn]] void runtime_error(const Stmt* where, const std::string& msg);
  std::string locate(support::SourceRange range) const;
  support::SplitMix64& lane_rng(EvalCtx& ctx);

  // --- robustness (docs/ROBUSTNESS.md) ---
  // Checkpoint/rollback bookkeeping; always constructed, no-ops unless
  // ExecOptions::checkpoint_every > 0.
  std::unique_ptr<CheckpointManager> ckpt;
  // Wall-clock watchdog deadline (ExecOptions::timeout_seconds); checked
  // at statement and loop boundaries via check_deadline().
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};
  void check_deadline(const Stmt* where);
  // Converts an unrecovered transient fault into a fatal
  // support::EscalatedFault with source context and a pointer at the
  // recovery knobs — distinguishable from other runtime errors so a
  // driver with durable snapshots can restore-and-retry.
  [[noreturn]] void fatal_fault(const support::TransientFault& tf,
                                const Stmt* where);

  // --- durable checkpoints (docs/ROBUSTNESS.md "Durable ... & resume") ---
  // RecoveryScope construction ordinals.  Deterministic given the program
  // and seeds (fault-triggered replays included: the schedule itself is
  // seeded), so a snapshot can name its capturing scope by ordinal and a
  // resumed process re-executing the prefix will meet it again.
  std::uint64_t scope_seq_ = 0;
  // Null unless ExecOptions::checkpoint_dir is set.
  std::unique_ptr<DurableCheckpoints> durable;
  // Crash-testing hook: SIGKILLs the process once the statement counter
  // reaches ExecOptions::die_at_statement (checked at the two statement
  // funnels, before the statement executes).
  void maybe_die();
  // Stable AST node ids: deterministic pre-order numbering of every
  // expression and resolved symbol of the program, identical across
  // processes for the same source — the currency durable snapshots use for
  // plan-cache keys and annotation sites in place of raw pointers.
  std::unordered_map<const void*, std::uint64_t> node_ids_;
  std::vector<const void*> node_by_id_;
  void build_node_ids();
  // Unregistered nodes fall back to the pointer value (high bit set, so it
  // cannot collide with a real id): still correct in-process, only the
  // cross-process stability of that one key is lost.
  std::uint64_t node_id(const void* node) const {
    auto it = node_ids_.find(node);
    if (it != node_ids_.end()) return it->second;
    return reinterpret_cast<std::uintptr_t>(node) | (1ull << 63);
  }
  const void* node_by_id(std::uint64_t id) const {
    return id < node_by_id_.size() ? node_by_id_[id] : nullptr;
  }

  // --- profiling (docs/PROFILING.md) ---
  // Null unless the caller passed ExecOptions::profiler; every hook is a
  // no-op then, keeping the unprofiled paths bit-identical and free.
  prof::Profiler* prof = nullptr;
  // AST node -> interned profiler site (one site per source site, however
  // many times it executes).
  std::unordered_map<const void*, prof::SiteId> prof_sites_;
  prof::SiteId prof_site(const void* key, const char* kind,
                         support::SourceRange range);
};

// RAII attribution scope: enters the (lazily interned) site for an AST
// node on construction, exits on destruction — exception-safe, and a
// complete no-op when profiling is off.
class ProfScope {
 public:
  ProfScope(Impl& vm, const void* key, const char* kind,
            support::SourceRange range);
  ~ProfScope();
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  Impl* vm_ = nullptr;  // null when profiling is off
};

// True when evaluating `e` may call a user function that declares an
// array (lang::FuncDecl::declares_array).  The declaration allocates a
// machine geometry and field and bumps the plan epoch, none of which is
// safe from pool workers, so the walk runs such statements' lanes on the
// issuing thread (interp_constructs.cpp).
bool calls_array_declarer(const Expr& e);

// True when the reduction's arms are guarded by predicates of the shape
// `f(inner elems) == g(outer elems)` so each input element contributes to
// at most one outer lane — the paper §4 processor optimisation.
bool reduction_partitions(const lang::ReduceExpr& e,
                          const LaneSpace& outer_space);

// Statement-level transactional retry (docs/ROBUSTNESS.md): every charge
// that can raise a TransientFault happens before the commit on every
// engine, so catching here leaves all program state exactly as it was at
// statement entry — re-running the same statement ids is bit-identical to
// a fault-free execution.  A map section retries just its router charge,
// after the remap it pays for.  Only active when checkpoint recovery is
// enabled; otherwise the fault escalates (and aborts the run with a hint).
template <class F>
void retry_transient(Impl& vm, F&& attempt) {
  for (;;) {
    try {
      attempt();
      return;
    } catch (const support::TransientFault&) {
      if (!vm.ckpt->enabled() || !vm.ckpt->consume_replay()) throw;
      vm.machine.note_rollback();
    }
  }
}

}  // namespace uc::vm::detail
