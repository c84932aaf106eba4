// Bytecode optimisation pipeline for lane kernels (docs/VM.md "Fusion").
//
// Six passes over the straight-line code the lowering produces for one
// statement or a fused group:
//
//   1. Value numbering with copy propagation.  A linear scan tables pure
//      expressions (constants, elem/scalar loads, arithmetic, array reads)
//      by the value numbers of their operands; a duplicate is rewritten to
//      a register copy of the canonical result.  The table honours control
//      flow without building a CFG: at every jump target, entries defined
//      after the earliest jump source targeting it are dropped, so a
//      surviving entry's definition dominates every later lookup.  The
//      reduction loop needs no extra care — kReduceBegin's forward jump to
//      kReduceEnd makes the whole loop body a dropped region at its exit,
//      and in-body entries are re-defined every iteration before reuse.
//      Registers with more than one static write (short-circuit and
//      ternary join registers) are never tabled, and a branch-free && or
//      || (docs/VM.md "Selection blocks") gets a fresh number as the
//      join register of its short-circuit form did, so a subscript built
//      from it elides exactly the reads it did.  A selection kernel's
//      kSelect empties the table: the body's reads are numbered as in the
//      body's own kernel, never against the guard's, so the kernel elides
//      exactly the reads the two separate kernels elide.
//   2. Cross-member store-to-load forwarding.  Writes are buffered until
//      the fused group commits, so a later member's read of an element an
//      earlier member wrote must be satisfied from the buffered value: at
//      each kMemberBoundary the completed member's unconditional puts are
//      promoted to a forwarding table keyed (array, subscript value
//      numbers), and a later read either matches one exactly (it becomes a
//      register copy) or the whole fusion is rejected — the caller then
//      runs the members unfused.  The AST-level gate in the interpreter
//      makes rejection rare; this pass is the final authority.
//   3. Dead temporary elimination.  A reverse scan deletes instructions
//      whose only effect is an unused register result; stores,
//      classification, control flow, RNG draws and anything that can raise
//      a runtime error (div/mod, power2's range check, subscript bounds
//      checks) are roots.  Jump targets are then remapped onto the
//      compacted code.
//
//   4. Reduction unrolling (docs/VM.md "Reduction unrolling").  A
//      reduction whose index sets' product is 1..kMaxUnrolledTuples
//      becomes one straight-line copy of its loop body per tuple, with the
//      body's registers renamed per copy and each set element a constant.
//      It runs after value numbering on purpose: Kernel::elided_reads is
//      per AST site, so the copies must elide exactly the reads the loop
//      body elides.  Nothing merges a read of one copy into another, and a
//      read that does not depend on the elements is still classified once
//      per tuple.
//   5. Constant folding over the unrolled copies: int operators of
//      constants fold (uclang/arith.hpp; a zero divisor keeps its error
//      site), adding or subtracting 0 and multiplying by 1 drop out when
//      the other operand is an int on every path, and the resulting
//      register copies propagate, so
//      `i + (dir==0) - (dir==1)` is `i + 1` in the copy for dir = 0.  Dead
//      temporary elimination then runs again.
//   6. Lane-relative sites (docs/VM.md "Lane-relative sites").  A last
//      scan, which changes no instruction, records every array access
//      site whose subscripts are index elements plus int constants
//      (Kernel::lane_relative), so the link can classify such a site once
//      instead of once per lane.
//
// The pass never reorders instructions, so evaluation order, error sites
// and short-circuit behaviour are exactly the unoptimised kernel's (the
// lowering already chose which && and || keep a branch); it
// only elides recomputation.  An elided array read is not classified, so
// every read the first two passes replace is recorded in
// Kernel::elided_reads: the walk skips classification at the same sites,
// which keeps the modeled cost engine-independent (docs/COSTMODEL.md
// "What an engine may not change").
#include <cstdint>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "uclang/arith.hpp"
#include "uclang/symbols.hpp"
#include "ucvm/kernel/bytecode.hpp"

namespace uc::vm::detail::kernel {

namespace {

constexpr std::size_t kNoSource = std::numeric_limits<std::size_t>::max();

// Key tags for the value-numbering table.
enum Tag : std::uint64_t {
  kTConst = 1,
  kTBool,
  kTElem,
  kTReduceElem,
  kTScalar,
  kTUnary,
  kTAbs,
  kTIncDec,
  kTCoerce,
  kTBinary,
  kTMinMax,
  kTPower2,
  kTArrIndex,
  kTArrGet,
  kTArrLoad,
};

bool is_div_or_mod(std::uint8_t arg) {
  const auto op = static_cast<lang::BinaryOp>(arg);
  return op == lang::BinaryOp::kDiv || op == lang::BinaryOp::kMod;
}

// A branch-free && or || (compile.cpp lowers it so when its right operand
// is pure and total).
bool is_logical(std::uint8_t arg) {
  const auto op = static_cast<lang::BinaryOp>(arg);
  return op == lang::BinaryOp::kLogAnd || op == lang::BinaryOp::kLogOr;
}

bool deletable(const Inst& i) {
  switch (i.op) {
    case Op::kConst:
    case Op::kMove:
    case Op::kBool:
    case Op::kLoadElem:
    case Op::kLoadReduceElem:
    case Op::kLoadScalar:
    case Op::kCoerce:
    case Op::kUnary:
    case Op::kAbs:
    case Op::kMinMax:
    case Op::kIncDec:
      return true;
    case Op::kBinary:
      return !is_div_or_mod(i.arg);  // div/mod raise; keep their error site
    default:
      return false;
  }
}

// Calls f(reg, block) for every register operand `i` reads: block is 0
// for a plain operand, else reg starts a contiguous subscript block of
// that many registers, which must be read in place.
template <class F>
void for_each_use(Inst& i, F&& f) {
  switch (i.op) {
    case Op::kMove:
    case Op::kBool:
    case Op::kUnary:
    case Op::kAbs:
    case Op::kIncDec:
    case Op::kCoerce:
    case Op::kPower2:
    case Op::kJumpIfFalse:
    case Op::kJumpIfTrue:
    case Op::kSelect:
    case Op::kReduceFold:
    case Op::kRet:
      f(i.a, std::uint16_t{0});
      break;
    case Op::kBinary:
    case Op::kMinMax:
      f(i.a, std::uint16_t{0});
      f(i.b, std::uint16_t{0});
      break;
    case Op::kArrIndex:
    case Op::kArrGet:
      if (i.c != 0) f(i.b, i.c);
      break;
    case Op::kArrLoad:
    case Op::kClassify:
    case Op::kStoreScalar:
      f(i.b, std::uint16_t{0});
      break;
    case Op::kArrStore:
    case Op::kArrPut:
      f(i.b, std::uint16_t{0});
      f(i.c, std::uint16_t{0});
      break;
    default:
      break;
  }
}

// Tuples in the product of a reduction's index sets.  Sema fills every
// set's values, so the count is a property of the AST.
std::int64_t tuple_count(const lang::ReduceExpr& e) {
  std::int64_t prod = 1;
  for (const lang::Symbol* s : e.index_set_syms) {
    prod *= static_cast<std::int64_t>(s->index_set->values.size());
  }
  return prod;
}

std::uint64_t ptr_key(const void* p) {
  return static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(p));
}

struct TabEntry {
  std::uint64_t vn = 0;
  std::uint16_t reg = 0;
  std::size_t def = 0;
};

struct CanonReg {
  std::uint16_t reg = 0;
  std::size_t def = 0;
};

class Optimizer {
 public:
  explicit Optimizer(Kernel& k) : k_(k) {}

  bool run() {
    analyze();
    if (!value_number()) return false;
    eliminate_dead();
    if (unroll_reductions()) {
      fold_constants();
      eliminate_dead();
    }
    mark_lane_relative();
    return true;
  }

 private:
  Kernel& k_;
  std::vector<std::uint8_t> write_count_;
  std::vector<std::size_t> earliest_;   // earliest jump source per target
  std::vector<std::uint8_t> guarded_;   // inside some forward-jump span

  std::vector<std::uint64_t> vn_of_;
  std::uint64_t next_vn_ = 1;
  std::map<std::vector<std::uint64_t>, TabEntry> table_;
  std::map<std::uint64_t, CanonReg> canon_;
  // kArrIndex results: value number of the flat address -> (array symbol,
  // subscript value numbers), so puts can be keyed the same way gets are.
  std::map<std::uint64_t,
           std::pair<const void*, std::vector<std::uint64_t>>> addr_of_;

  struct PendingPut {
    const void* sym = nullptr;
    std::vector<std::uint64_t> subs;
    std::uint16_t reg = 0;
    std::uint64_t vn = 0;
    const lang::Expr* where = nullptr;
    bool forwardable = false;
  };
  struct Forward {
    std::uint16_t reg = 0;
    std::uint64_t vn = 0;
    const lang::Expr* where = nullptr;  // the forwarded write's expression
  };
  std::vector<PendingPut> pending_puts_;
  std::set<const void*> pending_scalars_;
  std::map<std::pair<const void*, std::vector<std::uint64_t>>, Forward>
      forward_;
  std::set<const void*> written_arrays_;
  std::set<const void*> poisoned_arrays_;
  std::set<const void*> written_scalars_;

  void analyze() {
    const std::size_t n = k_.code.size();
    write_count_.assign(k_.num_regs, 0);
    for (const Inst& i : k_.code) {
      if (writes_dst(i.op) && write_count_[i.dst] < 2) ++write_count_[i.dst];
    }
    earliest_.assign(n + 1, kNoSource);
    std::vector<std::int32_t> diff(n + 2, 0);
    for (std::size_t s = 0; s < n; ++s) {
      const auto j = k_.code[s].jump;
      if (j < 0) continue;
      const auto t = static_cast<std::size_t>(j);
      if (t <= n && s < earliest_[t]) earliest_[t] = s;
      // Forward jumps make (s, t) a conditionally-skipped span.  Backward
      // jumps (the reduction odometer) add nothing: the loop body is
      // already spanned by kReduceBegin's forward jump to kReduceEnd.  Nor
      // does kSelect: a lane it disables skips every member after it, so
      // a member's unconditional store still reaches every later member
      // of the lane.
      if (t > s + 1 && k_.code[s].op != Op::kSelect) {
        diff[s + 1] += 1;
        diff[t] -= 1;
      }
    }
    guarded_.assign(n, 0);
    std::int32_t depth = 0;
    for (std::size_t i = 0; i < n; ++i) {
      depth += diff[i];
      guarded_[i] = depth > 0 ? 1 : 0;
    }
  }

  // Rewrites an operand register to its canonical copy and returns its
  // value number.
  std::uint64_t use(std::uint16_t& r) {
    std::uint64_t v = vn_of_[r];
    if (v == 0) {
      v = next_vn_++;
      vn_of_[r] = v;
    }
    const auto it = canon_.find(v);
    if (it != canon_.end()) r = it->second.reg;
    return v;
  }

  // Value number of a register without operand rewriting (subscript block
  // registers must stay contiguous, so they are read in place).
  std::uint64_t vn_raw(std::uint16_t r) {
    std::uint64_t v = vn_of_[r];
    if (v == 0) {
      v = next_vn_++;
      vn_of_[r] = v;
    }
    return v;
  }

  void define(std::uint16_t dst, std::uint64_t v, std::size_t i) {
    if (write_count_[dst] > 1) {
      // Join registers (short-circuit / ternary destinations) must never
      // alias another register's value number: the scan sees only the last
      // static write, so a later use rewritten through that number would
      // read a path-dependent value.  Each static write gets its own
      // number — later uses still CSE against each other (the runtime
      // value cannot change between them), just never against a
      // single-path definition.
      vn_of_[dst] = next_vn_++;
      return;
    }
    vn_of_[dst] = v;
    if (canon_.find(v) == canon_.end()) canon_[v] = CanonReg{dst, i};
  }

  void fresh(std::uint16_t dst, std::size_t i) { define(dst, next_vn_++, i); }

  void rewrite_to_move(Inst& inst, std::uint16_t src) {
    inst.op = Op::kMove;
    inst.arg = 0;
    inst.a = src;
    inst.b = 0;
    inst.c = 0;
    inst.jump = -1;
  }

  // Tables a pure instruction; a duplicate becomes a register copy of the
  // canonical value.  Returns the instruction's value number.
  std::uint64_t pure(Inst& inst, std::size_t i,
                     std::vector<std::uint64_t> key) {
    const auto it = table_.find(key);
    if (it != table_.end()) {
      const TabEntry e = it->second;
      rewrite_to_move(inst, e.reg);
      define(inst.dst, e.vn, i);
      return e.vn;
    }
    const std::uint64_t v = next_vn_++;
    if (write_count_[inst.dst] == 1) {
      table_.emplace(std::move(key), TabEntry{v, inst.dst, i});
    }
    define(inst.dst, v, i);
    return v;
  }

  void drop_after(std::size_t def_limit) {
    for (auto it = table_.begin(); it != table_.end();) {
      it = it->second.def > def_limit ? table_.erase(it) : std::next(it);
    }
    for (auto it = canon_.begin(); it != canon_.end();) {
      it = it->second.def > def_limit ? canon_.erase(it) : std::next(it);
    }
  }

  // Promotes the completed member's buffered writes to the forwarding
  // table and invalidates array-read table entries the writes shadow.
  void member_boundary() {
    for (auto& p : pending_puts_) {
      written_arrays_.insert(p.sym);
      if (!p.forwardable) {
        poisoned_arrays_.insert(p.sym);
        continue;
      }
      forward_[{p.sym, p.subs}] = {p.reg, p.vn, p.where};
    }
    pending_puts_.clear();
    for (const void* s : pending_scalars_) written_scalars_.insert(s);
    pending_scalars_.clear();
    for (auto it = table_.begin(); it != table_.end();) {
      const auto& key = it->first;
      const bool array_read =
          key.size() >= 2 && (key[0] == kTArrGet || key[0] == kTArrLoad);
      if (array_read && written_arrays_.count(
                            reinterpret_cast<const void*>(
                                static_cast<std::uintptr_t>(key[1])))) {
        it = table_.erase(it);
      } else {
        ++it;
      }
    }
  }

  bool value_number() {
    const std::size_t n = k_.code.size();
    vn_of_.assign(k_.num_regs, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (earliest_[i] != kNoSource) drop_after(earliest_[i]);
      Inst& inst = k_.code[i];
      switch (inst.op) {
        case Op::kConst:
          pure(inst, i, {kTConst, inst.a});
          break;
        case Op::kMove: {
          const auto v = use(inst.a);
          define(inst.dst, v, i);
          break;
        }
        case Op::kBool: {
          const auto v = use(inst.a);
          pure(inst, i, {kTBool, v});
          break;
        }
        case Op::kLoadElem:
          pure(inst, i, {kTElem, inst.a});
          break;
        case Op::kLoadReduceElem:
          pure(inst, i, {kTReduceElem, inst.b});
          break;
        case Op::kLoadScalar: {
          const void* sym = k_.scalars[inst.a].sym;
          if (written_scalars_.count(sym)) return false;
          pure(inst, i, {kTScalar, inst.a});
          break;
        }
        case Op::kStoreScalar: {
          const void* sym = k_.scalars[inst.a].sym;
          if (written_scalars_.count(sym)) return false;
          use(inst.b);
          pending_scalars_.insert(sym);
          break;
        }
        case Op::kUnary: {
          const auto v = use(inst.a);
          pure(inst, i, {kTUnary, inst.arg, v});
          break;
        }
        case Op::kAbs: {
          const auto v = use(inst.a);
          pure(inst, i, {kTAbs, v});
          break;
        }
        case Op::kIncDec: {
          const auto v = use(inst.a);
          pure(inst, i, {kTIncDec, inst.arg, v});
          break;
        }
        case Op::kCoerce: {
          const auto v = use(inst.a);
          pure(inst, i, {kTCoerce, inst.arg, v});
          break;
        }
        case Op::kBinary: {
          const auto va = use(inst.a);
          const auto vb = use(inst.b);
          if (is_logical(inst.arg)) {
            // Numbered like the join register of the short-circuit form,
            // so a subscript built from it elides no more reads than that
            // form does.
            fresh(inst.dst, i);
            break;
          }
          pure(inst, i, {kTBinary, inst.arg, va, vb});
          break;
        }
        case Op::kMinMax: {
          const auto va = use(inst.a);
          const auto vb = use(inst.b);
          pure(inst, i, {kTMinMax, inst.arg, va, vb});
          break;
        }
        case Op::kPower2: {
          const auto v = use(inst.a);
          pure(inst, i, {kTPower2, v});
          break;
        }
        case Op::kRand:
          fresh(inst.dst, i);
          break;
        case Op::kArrIndex: {
          const void* sym = k_.arrays[inst.a].sym;
          std::vector<std::uint64_t> subs;
          subs.reserve(inst.c);
          for (std::uint16_t j = 0; j < inst.c; ++j) {
            subs.push_back(vn_raw(static_cast<std::uint16_t>(inst.b + j)));
          }
          std::vector<std::uint64_t> key{kTArrIndex, ptr_key(sym)};
          key.insert(key.end(), subs.begin(), subs.end());
          const auto v = pure(inst, i, std::move(key));
          addr_of_.emplace(v, std::make_pair(sym, std::move(subs)));
          break;
        }
        case Op::kArrGet: {
          const void* sym = k_.arrays[inst.a].sym;
          std::vector<std::uint64_t> subs;
          subs.reserve(inst.c);
          for (std::uint16_t j = 0; j < inst.c; ++j) {
            subs.push_back(vn_raw(static_cast<std::uint16_t>(inst.b + j)));
          }
          if (written_arrays_.count(sym)) {
            if (poisoned_arrays_.count(sym)) return false;
            const auto it = forward_.find({sym, subs});
            if (it == forward_.end()) return false;
            k_.elided_reads.push_back({inst.where, it->second.where});
            rewrite_to_move(inst, it->second.reg);
            define(inst.dst, it->second.vn, i);
            break;
          }
          std::vector<std::uint64_t> key{kTArrGet, ptr_key(sym)};
          key.insert(key.end(), subs.begin(), subs.end());
          pure(inst, i, std::move(key));
          if (inst.op == Op::kMove) k_.elided_reads.push_back({inst.where});
          break;
        }
        case Op::kArrLoad: {
          const void* sym = k_.arrays[inst.a].sym;
          if (written_arrays_.count(sym)) return false;
          const auto vflat = use(inst.b);
          pure(inst, i, {kTArrLoad, ptr_key(sym), vflat});
          break;
        }
        case Op::kClassify:
          use(inst.b);
          break;
        case Op::kBroadcastCheck:
          break;
        case Op::kArrStore:
        case Op::kArrPut: {
          const void* sym = k_.arrays[inst.a].sym;
          if (written_arrays_.count(sym)) return false;
          const auto vflat = use(inst.b);
          const auto vval = use(inst.c);
          PendingPut p;
          p.sym = sym;
          p.reg = inst.c;
          p.vn = vval;
          p.where = inst.where;
          p.forwardable = guarded_[i] == 0;
          const auto ad = addr_of_.find(vflat);
          if (ad != addr_of_.end() && ad->second.first == sym) {
            p.subs = ad->second.second;
          } else {
            p.forwardable = false;
          }
          pending_puts_.push_back(std::move(p));
          break;
        }
        case Op::kMemberBoundary:
          member_boundary();
          break;
        case Op::kJump:
        case Op::kReduceBegin:
        case Op::kReduceSkipOthers:
        case Op::kReduceNext:
        case Op::kReduceTuple:
          break;
        case Op::kJumpIfFalse:
        case Op::kJumpIfTrue:
        case Op::kReduceFold:
        case Op::kRet:
          use(inst.a);
          break;
        case Op::kSelect:
          use(inst.a);
          table_.clear();
          canon_.clear();
          break;
        case Op::kReduceEnd:
          fresh(inst.dst, i);
          break;
      }
    }
    return true;
  }

  static void mark_uses(Inst& inst, std::vector<std::uint8_t>& needed) {
    for_each_use(inst, [&](std::uint16_t r, std::uint16_t block) {
      const std::uint16_t n = block == 0 ? 1 : block;
      for (std::uint16_t j = 0; j < n; ++j) {
        needed[static_cast<std::uint16_t>(r + j)] = 1;
      }
    });
  }

  void eliminate_dead() {
    const std::size_t n = k_.code.size();
    std::vector<std::uint8_t> needed(k_.num_regs, 0);
    std::vector<std::uint8_t> keep(n, 0);
    for (std::size_t i = n; i-- > 0;) {
      Inst& inst = k_.code[i];
      // Definitions linearly precede uses, and every static write of a
      // needed register is kept (join registers have several), so one
      // reverse sweep suffices.
      if (deletable(inst) && !needed[inst.dst]) continue;
      keep[i] = 1;
      mark_uses(inst, needed);
    }
    std::vector<std::int32_t> new_idx(n + 1, 0);
    std::int32_t cnt = 0;
    for (std::size_t i = 0; i < n; ++i) {
      new_idx[i] = cnt;
      if (keep[i]) ++cnt;
    }
    new_idx[n] = cnt;
    std::vector<Inst> out;
    out.reserve(static_cast<std::size_t>(cnt));
    for (std::size_t i = 0; i < n; ++i) {
      if (!keep[i]) continue;
      Inst inst = k_.code[i];
      // A deleted jump target falls through to the next surviving
      // instruction — deleted instructions were semantic no-ops.
      if (inst.jump >= 0) inst.jump = new_idx[inst.jump];
      out.push_back(inst);
    }
    k_.code = std::move(out);
  }

  // --- pass 4: reduction unrolling ---

  // Whether the reduction starting at code[begin] unrolls, given the
  // kernel's size and register count with the reductions unrolled so far;
  // if so `next` is its kReduceNext, `prod` its tuple count, and the body
  // writes registers [lo, lo + span).
  bool unrollable(std::size_t begin, std::size_t size, std::size_t regs,
                  std::size_t& next, std::int64_t& prod, std::size_t& lo,
                  std::size_t& span) const {
    const std::vector<Inst>& code = k_.code;
    next = begin + 1;
    while (next < code.size() && code[next].op != Op::kReduceNext) ++next;
    if (next + 1 >= code.size() || code[next + 1].op != Op::kReduceEnd) {
      return false;
    }
    prod = tuple_count(*k_.reduces[code[begin].a].expr);
    if (prod < 1 || prod > kMaxUnrolledTuples) return false;
    const std::size_t body = next - begin - 1;
    if (size + body * static_cast<std::size_t>(prod - 1) > kMaxUnrolledCode) {
      return false;
    }
    // The body's own registers, renamed per copy by one offset so subscript
    // blocks stay contiguous; its jumps stay inside it.
    std::size_t hi = 0;
    lo = std::numeric_limits<std::size_t>::max();
    for (std::size_t j = begin + 1; j < next; ++j) {
      const Inst& inst = code[j];
      if (inst.jump >= 0 && (inst.jump <= static_cast<std::int32_t>(begin) ||
                             inst.jump > static_cast<std::int32_t>(next))) {
        return false;
      }
      if (!writes_dst(inst.op)) continue;
      lo = std::min<std::size_t>(lo, inst.dst);
      hi = std::max<std::size_t>(hi, inst.dst + std::size_t{1});
    }
    span = hi > lo ? hi - lo : 0;
    return regs + span * static_cast<std::size_t>(prod - 1) <= kMaxKernelRegs;
  }

  // Element of set `s` at tuple `t` of `red` (row-major: the last set
  // varies fastest, as the loop's odometer does).
  static std::int64_t tuple_elem(const lang::ReduceExpr& red, std::size_t s,
                                 std::int64_t t) {
    const auto& sets = red.index_set_syms;
    for (std::size_t q = sets.size(); q-- > s + 1;) {
      t /= static_cast<std::int64_t>(sets[q]->index_set->values.size());
    }
    const auto& vals = sets[s]->index_set->values;
    return vals[static_cast<std::size_t>(
        t % static_cast<std::int64_t>(vals.size()))];
  }

  // Rewrites every small reduction as kReduceBegin (arg 1), copy 0, then
  // kReduceTuple t and copy t for t = 1 .. prod-1, then kReduceEnd.
  // Returns whether any reduction unrolled.
  bool unroll_reductions() {
    const std::vector<Inst>& code = k_.code;
    const std::size_t n = code.size();
    std::vector<Inst> out;
    std::vector<std::int32_t> new_idx(n + 1, 0);
    std::vector<std::size_t> remap;  // out positions holding old jump targets
    std::size_t regs = k_.num_regs;
    bool any = false;
    for (std::size_t i = 0; i < n; ++i) {
      new_idx[i] = static_cast<std::int32_t>(out.size());
      std::size_t next = 0, lo = 0, span = 0;
      std::int64_t prod = 0;
      if (code[i].op != Op::kReduceBegin ||
          !unrollable(i, n + out.size() - i, regs, next, prod, lo, span)) {
        out.push_back(code[i]);
        if (code[i].jump >= 0) remap.push_back(out.size() - 1);
        continue;
      }
      any = true;
      const lang::ReduceExpr& red = *k_.reduces[code[i].a].expr;
      Inst begin = code[i];
      begin.arg = 1;
      begin.jump = -1;
      out.push_back(begin);
      for (std::int64_t t = 0; t < prod; ++t) {
        if (t != 0) {
          Inst tuple;
          tuple.op = Op::kReduceTuple;
          tuple.a = begin.a;
          tuple.b = static_cast<std::uint16_t>(t);
          out.push_back(tuple);
        }
        const std::size_t start = out.size();
        const std::size_t base = regs + span * static_cast<std::size_t>(t - 1);
        const auto rename = [&](std::uint16_t& r) {
          if (t != 0 && r >= lo && r < lo + span) {
            r = static_cast<std::uint16_t>(base + (r - lo));
          }
        };
        for (std::size_t j = i + 1; j < next; ++j) {
          Inst inst = code[j];
          if (writes_dst(inst.op)) rename(inst.dst);
          for_each_use(inst,
                       [&](std::uint16_t& r, std::uint16_t) { rename(r); });
          if (inst.op == Op::kLoadReduceElem) {
            inst.op = Op::kConst;
            inst.a = pool_const(k_, Value::of_int(tuple_elem(red, inst.b, t)));
            inst.b = 0;
          }
          // Body jumps land inside the copy; the loop's kReduceNext, which
          // the arms' exits reach, is the next copy's entry.
          if (inst.jump >= 0) {
            inst.jump = static_cast<std::int32_t>(
                start + static_cast<std::size_t>(inst.jump) - (i + 1));
          }
          out.push_back(inst);
        }
      }
      regs += span * static_cast<std::size_t>(prod - 1);
      i = next;  // kReduceNext is gone; kReduceEnd follows the last copy
    }
    if (!any) return false;
    new_idx[n] = static_cast<std::int32_t>(out.size());
    for (const std::size_t p : remap) {
      out[p].jump = new_idx[static_cast<std::size_t>(out[p].jump)];
    }
    k_.code = std::move(out);
    k_.num_regs = static_cast<std::uint32_t>(regs);
    return true;
  }

  // --- pass 5: constant folding and copy propagation ---

  void fold_constants() {
    const std::size_t nregs = k_.num_regs;
    std::vector<std::uint8_t> writes(nregs, 0);
    for (const Inst& i : k_.code) {
      if (writes_dst(i.op) && writes[i.dst] < 2) ++writes[i.dst];
    }
    // Facts about single-write registers, whose one definition dominates
    // every read: a known int constant, an int on every path, a copy of an
    // earlier single-write register.
    std::vector<std::uint8_t> known(nregs, 0);
    std::vector<std::int64_t> val(nregs, 0);
    std::vector<std::uint8_t> sure_int(nregs, 0);
    std::vector<std::uint16_t> alias(nregs);
    std::iota(alias.begin(), alias.end(), std::uint16_t{0});
    const auto to_const = [&](Inst& inst, std::int64_t v) {
      rewrite_to_move(inst, 0);
      inst.op = Op::kConst;
      inst.a = pool_const(k_, Value::of_int(v));
      known[inst.dst] = 1;
      val[inst.dst] = v;
      sure_int[inst.dst] = 1;
    };
    const auto to_copy = [&](Inst& inst, std::uint16_t src) {
      rewrite_to_move(inst, src);
      if (writes[src] == 1) alias[inst.dst] = src;
      sure_int[inst.dst] = 1;
    };
    for (Inst& inst : k_.code) {
      for_each_use(inst, [&](std::uint16_t& r, std::uint16_t block) {
        if (block == 0) r = alias[r];
      });
      if (!writes_dst(inst.op) || writes[inst.dst] != 1) continue;
      const std::uint16_t d = inst.dst;
      switch (inst.op) {
        case Op::kConst:
          if (!k_.pool[inst.a].is_float) {
            known[d] = 1;
            val[d] = k_.pool[inst.a].i;
            sure_int[d] = 1;
          }
          break;
        case Op::kMove:
          known[d] = known[inst.a];
          val[d] = val[inst.a];
          sure_int[d] = sure_int[inst.a];
          if (writes[inst.a] == 1) alias[d] = inst.a;
          break;
        case Op::kBool:
        case Op::kLoadElem:
        case Op::kLoadReduceElem:
        case Op::kArrIndex:
        case Op::kPower2:
        case Op::kRand:
          sure_int[d] = 1;
          break;
        case Op::kUnary: {
          const auto op = static_cast<lang::UnaryOp>(inst.arg);
          if (known[inst.a]) {
            to_const(inst, lang::arith::unary(
                               op, lang::arith::Num::of_int(val[inst.a]))
                               .i);
          } else {
            sure_int[d] = op == lang::UnaryOp::kNot ||
                          op == lang::UnaryOp::kBitNot ||
                          (op == lang::UnaryOp::kNeg && sure_int[inst.a]);
          }
          break;
        }
        case Op::kBinary:
          fold_binary(inst, known, val, sure_int, to_const, to_copy);
          break;
        default:
          break;
      }
    }
  }

  template <class ToConst, class ToCopy>
  static void fold_binary(Inst& inst, const std::vector<std::uint8_t>& known,
                          const std::vector<std::int64_t>& val,
                          std::vector<std::uint8_t>& sure_int,
                          ToConst&& to_const, ToCopy&& to_copy) {
    using lang::BinaryOp;
    const auto op = static_cast<BinaryOp>(inst.arg);
    const std::uint16_t a = inst.a;
    const std::uint16_t b = inst.b;
    if (known[a] && known[b]) {
      using lang::arith::Num;
      if (auto v = lang::arith::binary(op, Num::of_int(val[a]),
                                       Num::of_int(val[b]))) {
        return to_const(inst, v->i);
      }
    }
    const bool ints = sure_int[a] && sure_int[b];
    // Identities hold only on ints: -0.0 + 0 is +0.0.
    if (ints && op == BinaryOp::kAdd && known[a] && val[a] == 0) {
      return to_copy(inst, b);
    }
    if (ints && (op == BinaryOp::kAdd || op == BinaryOp::kSub) && known[b] &&
        val[b] == 0) {
      return to_copy(inst, a);
    }
    if (ints && op == BinaryOp::kMul && known[a] && val[a] == 1) {
      return to_copy(inst, b);
    }
    if (ints && op == BinaryOp::kMul && known[b] && val[b] == 1) {
      return to_copy(inst, a);
    }
    switch (op) {
      case BinaryOp::kAdd:
      case BinaryOp::kSub:
      case BinaryOp::kMul:
      case BinaryOp::kDiv:
        sure_int[inst.dst] = ints;
        break;
      default:
        sure_int[inst.dst] = 1;  // mod, comparisons, bit ops and shifts
        break;
    }
  }

  // --- pass 6: lane-relative sites ---

  // Records in Kernel::lane_relative every classifying site whose
  // subscripts are each an index element `e`, `e ± c` or `c + e`, with `c`
  // an int constant and e's index set an ascending run of consecutive
  // ints.  A register counts only through its one static write, which
  // dominates every read of it; register copies are followed to their
  // source.  The code does not change, so neither does the native text.
  void mark_lane_relative() {
    const std::vector<Inst>& code = k_.code;
    std::vector<std::uint8_t> writes(k_.num_regs, 0);
    std::vector<std::size_t> def(k_.num_regs, kNoSource);
    for (std::size_t i = 0; i < code.size(); ++i) {
      const Inst& inst = code[i];
      if (!writes_dst(inst.op)) continue;
      if (writes[inst.dst] < 2) ++writes[inst.dst];
      def[inst.dst] = i;
    }
    // The one instruction that gives r its value, or null.
    const auto source = [&](std::uint16_t r) -> const Inst* {
      for (;;) {
        if (writes[r] != 1) return nullptr;
        const Inst& inst = code[def[r]];
        if (inst.op != Op::kMove) return &inst;
        r = inst.a;
      }
    };
    const auto elem = [&](std::uint16_t r, std::uint16_t& slot) {
      const Inst* d = source(r);
      if (d == nullptr || d->op != Op::kLoadElem) return false;
      slot = d->a;
      return true;
    };
    const auto int_const = [&](std::uint16_t r, std::int64_t& c) {
      const Inst* d = source(r);
      if (d == nullptr || d->op != Op::kConst || k_.pool[d->a].is_float) {
        return false;
      }
      c = k_.pool[d->a].i;
      return true;
    };
    // Subscript register r as element slot + off.
    const auto axis = [&](std::uint16_t r, std::uint16_t& slot,
                          std::int64_t& off) {
      off = 0;
      const Inst* d = source(r);
      if (d == nullptr) return false;
      if (d->op == Op::kBinary) {
        const auto op = static_cast<lang::BinaryOp>(d->arg);
        std::int64_t c = 0;
        if ((op == lang::BinaryOp::kAdd || op == lang::BinaryOp::kSub) &&
            elem(d->a, slot) && int_const(d->b, c)) {
          off = op == lang::BinaryOp::kSub ? lang::arith::Neg::on(c) : c;
        } else if (!(op == lang::BinaryOp::kAdd && int_const(d->a, off) &&
                     elem(d->b, slot))) {
          return false;
        }
      } else if (!elem(r, slot)) {
        return false;
      }
      return k_.elems[slot].sym->elem_of_set->index_set->consecutive_run();
    };
    for (std::size_t i = 0; i < code.size(); ++i) {
      const Inst& inst = code[i];
      const Inst* index = &inst;  // the instruction holding the subscripts
      if (inst.op == Op::kArrPut || inst.op == Op::kClassify) {
        index = source(inst.b);
        if (index == nullptr || index->op != Op::kArrIndex) continue;
      } else if (inst.op != Op::kArrGet) {
        continue;
      }
      if (index->c == 0 || index->c > kMaxSubscripts) continue;
      LaneRelativeSite site;
      site.ip = static_cast<std::uint32_t>(i);
      site.rank = index->c;
      bool relative = true;
      for (std::uint16_t j = 0; relative && j < index->c; ++j) {
        relative = axis(static_cast<std::uint16_t>(index->b + j),
                        site.elem[j], site.off[j]);
      }
      if (relative) k_.lane_relative.push_back(site);
    }
  }
};

}  // namespace

bool optimize_kernel(Kernel& k) { return Optimizer(k).run(); }

}  // namespace uc::vm::detail::kernel
