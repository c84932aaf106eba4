// Flat register bytecode for the lane-kernel engine (docs/VM.md).
//
// A Kernel is the compiled form of one synchronous statement expression:
// straight-line code with explicit jumps (short-circuit &&/|| whose right
// operand must not run everywhere, ?:, and the tuple loop of a reduction
// too large to unroll), a constant pool, and
// symbolic operand tables that are resolved ("linked") against the current
// lane space once per execution.  Instructions reference virtual
// registers; registers are allocated monotonically during lowering and
// never reused, so every read is dominated by a write on all control paths
// by construction.  (Unrolling renames a copied loop body's registers, so
// that still holds.)
//
// The compiler (compile.cpp) mirrors the tree-walk evaluator's semantics
// exactly — evaluation order, coercions, access classification points,
// error messages — and the walk skips classification at the reads the
// optimiser elides (Kernel::elided_reads), so the engines are
// observationally identical, costs included; the differential suite
// tests/ucvm/engine_parity_test.cpp enforces this.  A && or || whose
// right operand is pure and total (literals, elements and scalars under
// operators other than / and %) is one kBinary kLogAnd / kLogOr with no
// jump: that operand has no observable effect, so evaluating it on the
// lanes the walk's short circuit skips changes nothing (docs/VM.md
// "Selection blocks").
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "uclang/ast.hpp"
#include "ucvm/value.hpp"

namespace uc::vm::detail::kernel {

// At most this many index sets per reduction (the lane geometry is capped
// at 8 dims by the classifier anyway); deeper reductions fall back to the
// tree walk.
inline constexpr std::size_t kMaxReduceSets = 4;
// At most this many subscripts per array access (matches the walk's
// 8-coordinate flatten buffers).
inline constexpr std::size_t kMaxSubscripts = 8;
// A reduction's expanded lane coordinates (the statement space's dims
// plus the reduction's sets) fit in this many; the link declines a kernel
// with a reduction that needs more, so the lane plan compiles none.
inline constexpr std::size_t kMaxLaneCoords = 8;
// A reduction whose index sets' product is at most this many tuples
// lowers as that many straight-line copies of its arms, one per tuple
// (docs/VM.md "Reduction unrolling"); larger products keep the loop.
inline constexpr std::int64_t kMaxUnrolledTuples = 8;
// Unrolling never grows a kernel past this many instructions, which keeps
// it well inside the native emitter's size limit.
inline constexpr std::size_t kMaxUnrolledCode = 2048;
// Registers are 16-bit and never reused, so a kernel past this many
// (a pathological fusion, say) is declined.
inline constexpr std::size_t kMaxKernelRegs = 60000;

enum class Op : std::uint8_t {
  kConst,           // r[dst] = pool[a]
  kMove,            // r[dst] = r[a]
  kBool,            // r[dst] = of_bool(r[a].truthy())
  kLoadElem,        // r[dst] = elems[a] (index element, outer spaces)
  kLoadReduceElem,  // r[dst] = current reduce tuple's element for set b
  kLoadScalar,      // r[dst] = scalars[a] (global / frame / lane-local)
  kStoreScalar,     // buffer write of r[b] to scalars[a]
  kArrIndex,        // r[dst] = flatten(arrays[a], regs r[b..b+c)); bounds-chk
  kArrLoad,         // r[dst] = arrays[a].load(r[b])
  kArrGet,          // fused kArrIndex + kClassify + kArrLoad (rvalue reads)
  kClassify,        // classify access to arrays[a] element r[b]
  kBroadcastCheck,  // arrays[a] replicated => ++stats.broadcast
  kArrStore,        // buffer write of r[c] to arrays[a] element r[b]
  kArrPut,          // fused kClassify (+ kBroadcastCheck, arg bit0) + kArrStore
  kUnary,           // r[dst] = unary<arg>(r[a])
  kBinary,          // r[dst] = binary<arg>(r[a], r[b]); div/mod errors;
                    // && and || with a pure right operand
  kIncDec,          // r[dst] = r[a] +/- 1 (arg bit0: increment)
  kCoerce,          // r[dst] = r[a].coerce(ScalarKind(arg))
  kJump,            // ip = jump
  kJumpIfFalse,     // if (!r[a].truthy()) ip = jump
  kJumpIfTrue,      // if (r[a].truthy()) ip = jump
  kAbs,             // r[dst] = abs(r[a])
  kMinMax,          // r[dst] = min/max(r[a], r[b]) (arg bit0: min)
  kPower2,          // r[dst] = 1 << r[a]; range-checked
  kRand,            // r[dst] = lane rng next() >> 33
  kReduceBegin,     // start reduces[a] at tuple 0; empty product jumps
                    // straight out (arg 1: unrolled, never empty)
  kReduceFold,      // fold r[a] into the live reduction's accumulator
  kReduceSkipOthers,  // if (enabled_any) ip = jump (skip the others arm)
  kReduceNext,      // advance the tuple odometer; more tuples => ip = jump
  kReduceTuple,     // unrolled reduces[a]: enter tuple b (row-major)
  kReduceEnd,       // r[dst] = final accumulator (float-coerced)
  kMemberBoundary,  // fused kernels: entering member a (stats slot + RNG)
  kSelect,          // selection kernels: lanes with !r[a].truthy() go to
                    // jump (the kRet); the rest count as enabled
  kRet,             // kernel result = r[a]
};

// True for the instructions that write register dst.
inline bool writes_dst(Op op) {
  switch (op) {
    case Op::kConst:
    case Op::kMove:
    case Op::kBool:
    case Op::kLoadElem:
    case Op::kLoadReduceElem:
    case Op::kLoadScalar:
    case Op::kArrIndex:
    case Op::kArrLoad:
    case Op::kArrGet:
    case Op::kUnary:
    case Op::kBinary:
    case Op::kIncDec:
    case Op::kCoerce:
    case Op::kAbs:
    case Op::kMinMax:
    case Op::kPower2:
    case Op::kRand:
    case Op::kReduceEnd:
      return true;
    default:
      return false;
  }
}

struct Inst {
  Op op = Op::kRet;
  std::uint8_t arg = 0;  // BinaryOp / UnaryOp / ScalarKind / flag, per op
  std::uint16_t dst = 0;
  std::uint16_t a = 0;
  std::uint16_t b = 0;
  std::uint16_t c = 0;
  std::int32_t jump = -1;
  const lang::Expr* where = nullptr;  // error location, same as the walk's
};

// ---------------------------------------------------------------------------
// Symbolic operand tables (compile-time; resolved per execution by link())
// ---------------------------------------------------------------------------

struct ElemRef {
  const lang::Symbol* sym = nullptr;  // the index-element symbol
};

struct ScalarRef {
  const lang::Symbol* sym = nullptr;  // global / local / param scalar
};

struct ArrayRef {
  const lang::Symbol* sym = nullptr;  // the array variable
  // >= 0 when this access site sits inside a reduction's arms: it then
  // classifies against the reduction's expanded geometry and honours the
  // partition-optimisation comm suppression.
  std::int32_t reduce = -1;
};

struct ReduceRef {
  const lang::ReduceExpr* expr = nullptr;
};

// Static representation of a register (or reduction accumulator): kInt
// and kFloat registers hold that payload in every lane on every path;
// kUnset registers are never written.
enum RegType : std::uint8_t { kUnset, kInt, kFloat };

struct KernelTypes {
  std::vector<RegType> regs;  // per virtual register
  std::vector<RegType> acc;   // per reduction: its accumulator
};

// An rvalue read site the optimiser elided: a value-numbered duplicate of
// an earlier read of the same element (`from` null), or a read of the
// element an earlier member of the group wrote in the same lane (`from` is
// that write's assignment or ++/-- expression).  No engine classifies the
// access at such a site (docs/COSTMODEL.md "What an engine may not
// change"); the walk takes a forwarded read's value from its lane's
// buffered write.
struct ElidedRead {
  const lang::Expr* site = nullptr;
  const lang::Expr* from = nullptr;
};

// A classifying site (kArrGet, kArrPut, kClassify) whose subscript on
// each axis j is index element elems[elem[j]] plus the int constant
// off[j], every element's index set being an ascending run of
// consecutive ints.  Such a site may be lane-relative: the link decides
// from the lane space whether every lane of it classifies alike
// (docs/VM.md "Lane-relative sites").
struct LaneRelativeSite {
  std::uint32_t ip = 0;    // the classifying instruction
  std::uint16_t rank = 0;  // subscripts
  std::uint16_t elem[kMaxSubscripts] = {};
  std::int64_t off[kMaxSubscripts] = {};
};

struct Kernel {
  std::vector<Inst> code;
  std::vector<Value> pool;
  std::vector<ElemRef> elems;
  std::vector<ScalarRef> scalars;
  std::vector<ArrayRef> arrays;
  std::vector<ReduceRef> reduces;
  std::uint32_t num_regs = 0;
  // Fused kernels cover several consecutive statements of one par body;
  // kMemberBoundary instructions mark the entry to members 1..n-1 (member 0
  // starts at code[0]).  Plain statement kernels have num_members == 1.
  // A selection kernel's member 0 is its block's guard, ended by kSelect.
  std::uint32_t num_members = 1;
  bool uses_rand = false;  // seed the per-lane RNG only when needed
  // Store instructions one lane can execute: the bound on its buffered
  // writes.  -1 when a store sits inside a reduction's tuple loop, where
  // the count grows with the product.
  std::int32_t writes_per_lane = 0;
  // Register types (type_kernel at compile time).
  KernelTypes types;
  // Filled by optimize_kernel, in code order.
  std::vector<ElidedRead> elided_reads;
  std::vector<LaneRelativeSite> lane_relative;

  // The elided read at `site`, or null.
  const ElidedRead* elided(const lang::Expr* site) const {
    for (const ElidedRead& r : elided_reads) {
      if (r.site == site) return &r;
    }
    return nullptr;
  }
};

// Index of `v` in k.pool, appending it if no bit-identical constant is
// there yet.
std::uint16_t pool_const(Kernel& k, const Value& v);

// The typing pass (typing.cpp): infers each register's representation
// over all control paths.  Every operand holds its declared type and every
// conversion is an explicit kCoerce, so a register that is int on one path
// and float on another (or a float folding into an int accumulator) is a
// lowering bug: type_kernel then returns false and the kernel is declined.
bool type_kernel(const Kernel& k, KernelTypes& out);

// True when the lowering covers this expression tree; false means the
// statement runs on the tree-walk engine (solve bodies, user function
// calls, side-effecting builtins, nested reductions, ...).
bool can_compile_expr(const lang::Expr& e);

// Lowers `n` consecutive statement expressions into one kernel and runs
// the optimisation pipeline over it (optimize_kernel).  Pure function
// of the sema'd AST, so safe to cache per Expr*.  Returns nullptr when a
// member fails can_compile_expr.  A group of n >= 2 (docs/VM.md "Fusion")
// must have been proven fusion-safe at the AST level
// (interp_constructs.cpp); the bytecode-level forwarding check is the
// final authority and also returns nullptr when a later member reads an
// element a prior member wrote through a subscript the optimiser cannot
// match.  With n == 1 it fails only when can_compile_expr does or the
// registers do not type (type_kernel), and the statement runs on the walk.
std::unique_ptr<Kernel> compile_fused(const lang::Expr* const* stmts,
                                      std::size_t n);

// One statement's kernel: compile_fused(&e, 1).
std::unique_ptr<Kernel> compile_expr(const lang::Expr& e);

// A selection block's kernel (docs/VM.md "Selection blocks"): the guard
// as member 0, then kSelect, which ends the lanes whose guard is false and
// counts the others as enabled, then the `n` body statements as members
// 1..n, fused as compile_fused fuses them.  Value numbering starts afresh
// at kSelect, so the kernel elides exactly the reads the guard's and the
// body's own kernels elide.  Returns nullptr when either part does not
// compile or the guard stores anything.
std::unique_ptr<Kernel> compile_selection(const lang::Expr& guard,
                                          const lang::Expr* const* body,
                                          std::size_t n);

// The optimisation pipeline (optimize.cpp): value numbering, forwarding
// and dead temporary elimination, then reduction unrolling and constant
// folding over the copies, and last the lane-relative site table
// (Kernel::lane_relative).  Returns false when
// cross-member store-to-load forwarding finds an unmatchable read (the
// kernel is then left in an unspecified state and must be discarded).
bool optimize_kernel(Kernel& k);

}  // namespace uc::vm::detail::kernel
