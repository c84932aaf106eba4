// Unit tests for the lane-kernel compiler (src/ucvm/kernel/compile.cpp):
// which statements it accepts, and structural invariants of the lowered
// bytecode (fused array ops, direct index lowering, constant pooling,
// reduction loop wiring).  End-to-end equivalence with the walk engine is
// covered by engine_parity_test.cpp.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cm/machine.hpp"
#include "uclang/frontend.hpp"
#include "ucvm/interp_detail.hpp"
#include "ucvm/kernel/kernel.hpp"

namespace uc::vm::detail::kernel {
namespace {

using lang::Stmt;
using lang::StmtKind;

// First statement expression of the first par/seq construct in the unit
// (the construct's first sc-block body must be a single expression
// statement in these tests).
const lang::Expr* first_construct_expr(const lang::CompilationUnit& unit) {
  for (const auto& top : unit.program->items) {
    if (top.func == nullptr) continue;
    for (const auto& s : top.func->body->body) {
      if (s->kind != StmtKind::kUcConstruct) continue;
      const auto& uc = static_cast<const lang::UcConstructStmt&>(*s);
      const Stmt* body = uc.blocks.front().body.get();
      if (body->kind != StmtKind::kExpr) return nullptr;
      return static_cast<const lang::ExprStmt*>(body)->expr.get();
    }
  }
  return nullptr;
}

std::unique_ptr<lang::CompilationUnit> analyse(const std::string& body) {
  auto unit = lang::compile("kernel_test.uc", body);
  EXPECT_TRUE(unit->ok()) << body;
  return unit;
}

int count_ops(const Kernel& k, Op op) {
  int n = 0;
  for (const auto& inst : k.code) n += inst.op == op ? 1 : 0;
  return n;
}

TEST(KernelCompiler, CompilesSimpleParAssignment) {
  auto unit = analyse(
      "index_set I:i = {0..7};\n"
      "int a[8];\n"
      "void main() { par (I) a[i] = i + 1; }\n");
  const auto* e = first_construct_expr(*unit);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(can_compile_expr(*e));
  auto k = compile_expr(*e);
  ASSERT_NE(k, nullptr);
  EXPECT_GT(k->num_regs, 0u);
  ASSERT_FALSE(k->code.empty());
  EXPECT_EQ(k->code.back().op, Op::kRet);
  // Store side lowers to the fused classify+broadcast+store.
  EXPECT_EQ(count_ops(*k, Op::kArrPut), 1);
  EXPECT_EQ(count_ops(*k, Op::kArrStore), 0);
  EXPECT_EQ(count_ops(*k, Op::kBroadcastCheck), 0);
}

TEST(KernelCompiler, RvalueReadsUseFusedArrGet) {
  auto unit = analyse(
      "index_set I:i = {0..7};\n"
      "int a[8]; int b[8];\n"
      "void main() { par (I) a[i] = b[i] + b[0]; }\n");
  const auto* e = first_construct_expr(*unit);
  ASSERT_NE(e, nullptr);
  auto k = compile_expr(*e);
  ASSERT_NE(k, nullptr);
  // Two rvalue reads fuse; only the lvalue address uses kArrIndex.
  EXPECT_EQ(count_ops(*k, Op::kArrGet), 2);
  EXPECT_EQ(count_ops(*k, Op::kArrIndex), 1);
  EXPECT_EQ(count_ops(*k, Op::kArrLoad), 0);
  // Leaf indices (elements, constants) lower directly into the subscript
  // block.  The one register copy is value numbering's reuse of the
  // repeated `i` load.
  EXPECT_EQ(count_ops(*k, Op::kLoadElem), 1);
  EXPECT_EQ(count_ops(*k, Op::kMove), 1);
}

TEST(KernelCompiler, ConstantsArePooled) {
  auto unit = analyse(
      "index_set I:i = {0..7};\n"
      "int a[8];\n"
      "void main() { par (I) a[i] = 7 + i * 7 + 7; }\n");
  const auto* e = first_construct_expr(*unit);
  ASSERT_NE(e, nullptr);
  auto k = compile_expr(*e);
  ASSERT_NE(k, nullptr);
  // One pooled entry for the repeated 7 (int and float constants never
  // merge, but these are all the same int).
  EXPECT_EQ(k->pool.size(), 1u);
}

// Nine tuples is one more than unrolling takes, so the reduction keeps
// its tuple loop.
TEST(KernelCompiler, ReductionLoopIsWired) {
  auto unit = analyse(
      "index_set I:i = {0..7}, K:k = {0..8};\n"
      "int d[9]; int r[8];\n"
      "void main() { par (I) r[i] = $<(K; d[k] + i); }\n");
  const auto* e = first_construct_expr(*unit);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(can_compile_expr(*e));
  auto k = compile_expr(*e);
  ASSERT_NE(k, nullptr);
  ASSERT_EQ(k->reduces.size(), 1u);
  EXPECT_EQ(count_ops(*k, Op::kReduceBegin), 1);
  EXPECT_EQ(count_ops(*k, Op::kReduceFold), 1);
  EXPECT_EQ(count_ops(*k, Op::kReduceNext), 1);
  EXPECT_EQ(count_ops(*k, Op::kReduceEnd), 1);
  // kReduceNext jumps back to the loop start (just after kReduceBegin);
  // kReduceBegin's empty-product exit jumps past kReduceNext.
  std::size_t begin = 0, next = 0;
  for (std::size_t ip = 0; ip < k->code.size(); ++ip) {
    if (k->code[ip].op == Op::kReduceBegin) begin = ip;
    if (k->code[ip].op == Op::kReduceNext) next = ip;
  }
  EXPECT_EQ(k->code[next].jump, static_cast<std::int32_t>(begin) + 1);
  EXPECT_EQ(k->code[begin].jump, static_cast<std::int32_t>(next) + 1);
  // The set element inside the arm reads the live tuple, not an outer
  // binding.
  EXPECT_EQ(count_ops(*k, Op::kLoadReduceElem), 1);
}

// Four tuples unroll into four copies of the arm: no loop, no odometer,
// and each copy's element is a constant that folds, so the subscript is
// i + 1, i - 1, i and i (docs/VM.md "Reduction unrolling").
TEST(KernelCompiler, SmallReductionIsUnrolledAndFolded) {
  auto unit = analyse(
      "index_set I:i = {0..7}, D:dir = {0..3};\n"
      "int d[8]; int r[8];\n"
      "void main() { par (I) r[i] = $<(D; d[i + (dir==0) - (dir==1)]); }\n");
  const auto* e = first_construct_expr(*unit);
  ASSERT_NE(e, nullptr);
  auto k = compile_expr(*e);
  ASSERT_NE(k, nullptr);
  EXPECT_EQ(count_ops(*k, Op::kReduceBegin), 1);
  EXPECT_EQ(count_ops(*k, Op::kReduceNext), 0);
  EXPECT_EQ(count_ops(*k, Op::kReduceTuple), 3);
  EXPECT_EQ(count_ops(*k, Op::kReduceFold), 4);
  EXPECT_EQ(count_ops(*k, Op::kArrGet), 4);
  EXPECT_EQ(count_ops(*k, Op::kLoadReduceElem), 0);
  EXPECT_EQ(count_ops(*k, Op::kBinary), 2);
  for (const auto& inst : k->code) {
    if (inst.op == Op::kReduceBegin) {
      EXPECT_EQ(inst.arg, 1);
    }
  }
}

// A read that does not depend on the element is the same value in every
// copy, but each copy still reads (and classifies) it: value numbering ran
// on the loop body, where it is one read per tuple.
TEST(KernelCompiler, UnrolledCopiesDoNotShareReads) {
  auto unit = analyse(
      "index_set I:i = {0..7}, D:dir = {0..3};\n"
      "int a[8]; int r[8];\n"
      "void main() { par (I) r[i] = $+(D; a[i] * dir + a[i]); }\n");
  const auto* e = first_construct_expr(*unit);
  ASSERT_NE(e, nullptr);
  auto k = compile_expr(*e);
  ASSERT_NE(k, nullptr);
  EXPECT_EQ(count_ops(*k, Op::kArrGet), 4);
  // The second a[i] of each copy is the loop body's elided duplicate.
  ASSERT_EQ(k->elided_reads.size(), 1u);
}

// Eight copies of a long arm would pass kMaxUnrolledCode instructions,
// so the reduction keeps its loop.
TEST(KernelCompiler, LongReductionBodyKeepsTheLoop) {
  std::string arm = "a[(i + q) % 8]";
  for (int t = 1; t < 80; ++t) {
    arm += " + a[(i + q + " + std::to_string(t) + ") % 8]";
  }
  auto unit = analyse(
      "index_set I:i = {0..7}, Q:q = {0..7};\n"
      "int a[8]; int r[8];\n"
      "void main() { par (I) r[i] = $+(Q; " + arm + "); }\n");
  const auto* e = first_construct_expr(*unit);
  ASSERT_NE(e, nullptr);
  auto k = compile_expr(*e);
  ASSERT_NE(k, nullptr);
  EXPECT_EQ(count_ops(*k, Op::kReduceNext), 1);
  EXPECT_EQ(count_ops(*k, Op::kReduceTuple), 0);
  EXPECT_LE(k->code.size(), kMaxUnrolledCode);
}

TEST(KernelCompiler, RejectsPrint) {
  auto unit = analyse(
      "index_set I:i = {0..7};\n"
      "int a[8];\n"
      "void main() { par (I) print(\"lane\", i); }\n");
  const auto* e = first_construct_expr(*unit);
  ASSERT_NE(e, nullptr);
  EXPECT_FALSE(can_compile_expr(*e));
  EXPECT_EQ(compile_expr(*e), nullptr);
}

TEST(KernelCompiler, RejectsUserFunctionCalls) {
  auto unit = analyse(
      "index_set I:i = {0..7};\n"
      "int a[8];\n"
      "int f(int x) { return x + 1; }\n"
      "void main() { par (I) a[i] = f(i); }\n");
  const auto* e = first_construct_expr(*unit);
  ASSERT_NE(e, nullptr);
  EXPECT_FALSE(can_compile_expr(*e));
}

TEST(KernelCompiler, RejectsSwapAndSrand) {
  auto unit = analyse(
      "index_set I:i = {0..7};\n"
      "int a[8]; int b[8];\n"
      "void main() { par (I) swap(a[i], b[i]); }\n");
  const auto* e = first_construct_expr(*unit);
  ASSERT_NE(e, nullptr);
  EXPECT_FALSE(can_compile_expr(*e));
}

TEST(KernelCompiler, RejectsNestedReductions) {
  auto unit = analyse(
      "index_set I:i = {0..7}, J:j = I, K:k = I;\n"
      "int d[8][8]; int r[8];\n"
      "void main() { par (I) r[i] = $+(J; $<(K; d[j][k])); }\n");
  const auto* e = first_construct_expr(*unit);
  ASSERT_NE(e, nullptr);
  EXPECT_FALSE(can_compile_expr(*e));
}

TEST(KernelCompiler, RandMarksKernel) {
  auto unit = analyse(
      "index_set I:i = {0..7};\n"
      "int a[8];\n"
      "void main() { par (I) a[i] = rand(); }\n");
  const auto* e = first_construct_expr(*unit);
  ASSERT_NE(e, nullptr);
  auto with_rand = compile_expr(*e);
  ASSERT_NE(with_rand, nullptr);
  EXPECT_TRUE(with_rand->uses_rand);

  auto unit2 = analyse(
      "index_set I:i = {0..7};\n"
      "int a[8];\n"
      "void main() { par (I) a[i] = i; }\n");
  const auto* e2 = first_construct_expr(*unit2);
  ASSERT_NE(e2, nullptr);
  auto without = compile_expr(*e2);
  ASSERT_NE(without, nullptr);
  EXPECT_FALSE(without->uses_rand);
}

// A ?: converts only the arm whose type differs from the ternary's: one
// kCoerce for the int arm of a float ternary, none when the arms agree.
TEST(KernelCompiler, TernaryCoercesOnlyTheMismatchedArm) {
  const auto coerces = [](const char* rhs) {
    auto unit = analyse(std::string("index_set I:i = {0..7};\n"
                                    "float a[8];\n"
                                    "void main() { par (I) a[i] = ") +
                        rhs + "; }\n");
    const auto* e = first_construct_expr(*unit);
    EXPECT_NE(e, nullptr);
    auto k = compile_expr(*e);
    EXPECT_NE(k, nullptr);
    // The assignment's own conversion to the float element is the other.
    return count_ops(*k, Op::kCoerce) - 1;
  };
  EXPECT_EQ(coerces("i % 2 == 0 ? i : 2.5"), 1);
  EXPECT_EQ(coerces("i % 2 == 0 ? 1.5 : 2.5"), 0);
  EXPECT_EQ(coerces("i % 2 == 0 ? i : 2"), 0);
}

// A register written as an int on one path and a float on another is a
// lowering bug the typing pass refuses, as is a float folding into an int
// accumulator; compile_fused then declines the kernel.
TEST(KernelCompiler, TypingRejectsARegisterOfTwoTypes) {
  Kernel k;
  k.num_regs = 1;
  k.code.resize(3);
  k.code[0].op = Op::kConst;
  k.code[0].a = pool_const(k, Value::of_int(1));
  k.code[1].op = Op::kConst;
  k.code[1].a = pool_const(k, Value::of_float(1.5));
  k.code[2].op = Op::kRet;
  KernelTypes types;
  EXPECT_FALSE(type_kernel(k, types));
  k.code[1].a = k.code[0].a;
  EXPECT_TRUE(type_kernel(k, types));
  EXPECT_EQ(types.regs[0], kInt);
}

// The first sc-block of the first construct in the unit.
const lang::ScBlock& first_block(const lang::CompilationUnit& unit) {
  for (const auto& top : unit.program->items) {
    if (top.func == nullptr) continue;
    for (const auto& s : top.func->body->body) {
      if (s->kind == StmtKind::kUcConstruct) {
        return static_cast<const lang::UcConstructStmt&>(*s).blocks.front();
      }
    }
  }
  ADD_FAILURE() << "no construct";
  static const lang::ScBlock none;
  return none;
}

// A selection kernel is the guard, kSelect and the body, and it elides
// exactly the reads the guard's and the body's own kernels elide: the
// body's reads of the elements the guard read are classified again, so
// every engine charges the block as two statements (docs/COSTMODEL.md
// "What an engine may not change").
TEST(KernelCompiler, SelectionElidesTheUnionOfItsPartsReads) {
  auto unit = analyse(
      "index_set I:i = {0..7}, J:j = I;\n"
      "int d[8][8];\n"
      "void main() {\n"
      "  par (I, J) st (d[i][0] + d[0][j] < d[i][j] + d[i][0])\n"
      "    d[i][j] = d[i][0] + d[0][j] + d[0][j];\n"
      "}\n");
  const lang::ScBlock& block = first_block(*unit);
  ASSERT_NE(block.pred, nullptr);
  ASSERT_EQ(block.body->kind, StmtKind::kExpr);
  const lang::Expr* body =
      static_cast<const lang::ExprStmt&>(*block.body).expr.get();
  const auto guard_k = compile_expr(*block.pred);
  const auto body_k = compile_expr(*body);
  const auto merged = compile_selection(*block.pred, &body, 1);
  ASSERT_NE(guard_k, nullptr);
  ASSERT_NE(body_k, nullptr);
  ASSERT_NE(merged, nullptr);
  // Each part elides its own repeated read, d[i][0] and d[0][j].
  ASSERT_EQ(guard_k->elided_reads.size(), 1u);
  ASSERT_EQ(body_k->elided_reads.size(), 1u);
  std::vector<ElidedRead> both = guard_k->elided_reads;
  both.insert(both.end(), body_k->elided_reads.begin(),
              body_k->elided_reads.end());
  ASSERT_EQ(merged->elided_reads.size(), both.size());
  for (std::size_t r = 0; r < both.size(); ++r) {
    EXPECT_EQ(merged->elided_reads[r].site, both[r].site) << r;
    EXPECT_EQ(merged->elided_reads[r].from, both[r].from) << r;
  }
  // The body's reads of the guard's elements are still reads.
  EXPECT_EQ(count_ops(*merged, Op::kArrGet),
            count_ops(*guard_k, Op::kArrGet) + count_ops(*body_k, Op::kArrGet));
  EXPECT_EQ(count_ops(*merged, Op::kSelect), 1);
  EXPECT_EQ(merged->num_members, 2u);
  EXPECT_EQ(merged->writes_per_lane, body_k->writes_per_lane);
}

// A guard that stores has a side effect a lane mask cannot keep, so it
// gets no selection kernel.
TEST(KernelCompiler, SelectionRejectsAGuardThatStores) {
  auto unit = analyse(
      "index_set I:i = {0..7};\n"
      "int a[8], b[8];\n"
      "void main() { par (I) st ((b[i] = i % 3) > 0) a[i] = 1; }\n");
  const lang::ScBlock& block = first_block(*unit);
  ASSERT_NE(block.pred, nullptr);
  const lang::Expr* body =
      static_cast<const lang::ExprStmt&>(*block.body).expr.get();
  EXPECT_NE(compile_expr(*block.pred), nullptr);
  EXPECT_EQ(compile_selection(*block.pred, &body, 1), nullptr);
}

// --- branch-free guards (docs/VM.md "Selection blocks") ---

// Branch-free && and || instructions.
int count_logical(const Kernel& k) {
  int n = 0;
  for (const auto& inst : k.code) {
    const auto op = static_cast<lang::BinaryOp>(inst.arg);
    n += inst.op == Op::kBinary && (op == lang::BinaryOp::kLogAnd ||
                                    op == lang::BinaryOp::kLogOr)
             ? 1
             : 0;
  }
  return n;
}

int count_branches(const Kernel& k) {
  return count_ops(k, Op::kJumpIfFalse) + count_ops(k, Op::kJumpIfTrue) +
         count_ops(k, Op::kJump);
}

// The guard of the first block of `body`'s first construct, compiled.
std::unique_ptr<Kernel> compile_guard(const std::string& body) {
  auto unit = analyse(body);
  const lang::ScBlock& block = first_block(*unit);
  EXPECT_NE(block.pred, nullptr) << body;
  if (block.pred == nullptr) return nullptr;
  return compile_expr(*block.pred);
}

// jacobi_news's interior guard: every right operand is pure and total, so
// the three && are three kBinary and the guard splits no lane block.
TEST(KernelCompiler, PureGuardCompilesWithoutBranches) {
  const std::string decls =
      "#define N 128\n"
      "index_set I:i = {0..N-1}, J:j = I;\n"
      "float u[N][N], v[N][N];\n";
  const auto k = compile_guard(
      decls + "void main() { par (I, J) st (i>0 && i<N-1 && j>0 && j<N-1)\n"
              "  v[i][j] = u[i][j]; }\n");
  ASSERT_NE(k, nullptr);
  EXPECT_EQ(count_branches(*k), 0);
  EXPECT_EQ(count_logical(*k), 3);
  // The boundary guard of the same program, with ||.
  const auto edge = compile_guard(
      decls + "void main() { par (I, J) st (i==0 || i==N-1 || j==0 || "
              "j==N-1) u[i][j] = 1.0; }\n");
  ASSERT_NE(edge, nullptr);
  EXPECT_EQ(count_branches(*edge), 0);
  EXPECT_EQ(count_logical(*edge), 3);
  // Scalars, float literals and a nested negation are pure too.
  const auto nested = compile_guard(
      decls + "float z;\n"
              "void main() { par (I, J) st (u[i][j] > 0.0 && !(i==0 && j==0)"
              " && (z * 2.0 || -j)) v[i][j] = 1.0; }\n");
  ASSERT_NE(nested, nullptr);
  EXPECT_EQ(count_branches(*nested), 0);
  EXPECT_EQ(count_logical(*nested), 4);
}

// A right operand that reads an array, divides, calls power2 or draws a
// random number keeps the short circuit: the lanes the left operand
// disables must not classify, raise or draw.
TEST(KernelCompiler, ImpureRightOperandKeepsTheBranch) {
  const std::string decls =
      "index_set I:i = {0..7};\n"
      "int a[8], b[8];\n";
  for (const std::string guard :
       {"i > 0 && a[i] > 0", "i > 0 && 8 / i > 1", "i > 0 && 8 % i",
        "i > 0 && power2(i) > 2", "i > 0 && rand() > 5",
        "i > 0 || abs(i) > 2"}) {
    SCOPED_TRACE(guard);
    const auto k = compile_guard(
        decls + "void main() { par (I) st (" + guard + ") b[i] = 1; }\n");
    ASSERT_NE(k, nullptr);
    EXPECT_EQ(count_logical(*k), 0);
    EXPECT_EQ(count_ops(*k, Op::kJumpIfFalse) + count_ops(*k, Op::kJumpIfTrue),
              1);
  }
}

// --- lane-relative sites (docs/VM.md "Lane-relative sites") ---

// The Kernel::lane_relative entry of the instruction at `ip`, or null.
const LaneRelativeSite* lane_relative_at(const Kernel& k, std::size_t ip) {
  for (const LaneRelativeSite& s : k.lane_relative) {
    if (s.ip == ip) return &s;
  }
  return nullptr;
}

// The Jacobi body: the four stencil reads and both stores are index
// elements plus constants.  The read of v[i][j] is forwarded from the
// first member's store, so it is no site at all.
TEST(KernelCompiler, LaneRelativeMarksStencilReadsAndTheForwardedStore) {
  auto unit = analyse(
      "index_set I:i = {0..7}, J:j = I;\n"
      "float u[8][8], v[8][8];\n"
      "void main() {\n"
      "  par (I, J) st (i > 0 && i < 7 && j > 0 && j < 7) {\n"
      "    v[i][j] = 0.25 * (u[i-1][j] + u[i+1][j] + u[i][j-1] + u[i][j+1]);\n"
      "    u[i][j] = v[i][j];\n"
      "  }\n"
      "}\n");
  const lang::ScBlock& block = first_block(*unit);
  ASSERT_EQ(block.body->kind, StmtKind::kCompound);
  std::vector<const lang::Expr*> body;
  for (const auto& st :
       static_cast<const lang::CompoundStmt&>(*block.body).body) {
    body.push_back(static_cast<const lang::ExprStmt&>(*st).expr.get());
  }
  const auto k = compile_fused(body.data(), body.size());
  ASSERT_NE(k, nullptr);
  ASSERT_EQ(k->elided_reads.size(), 1u);
  EXPECT_EQ(count_ops(*k, Op::kArrGet), 4);
  EXPECT_EQ(count_ops(*k, Op::kArrPut), 2);
  ASSERT_EQ(k->lane_relative.size(), 6u);
  const auto name = [&](std::uint16_t slot) {
    return k->elems[slot].sym->name;
  };
  const std::int64_t offsets[4][2] = {{-1, 0}, {1, 0}, {0, -1}, {0, 1}};
  int reads = 0;
  const LaneRelativeSite* last_put = nullptr;
  for (std::size_t ip = 0; ip < k->code.size(); ++ip) {
    const Op op = k->code[ip].op;
    if (op != Op::kArrGet && op != Op::kArrPut) continue;
    const LaneRelativeSite* site = lane_relative_at(*k, ip);
    ASSERT_NE(site, nullptr) << ip;
    ASSERT_EQ(site->rank, 2u);
    EXPECT_EQ(name(site->elem[0]), "i");
    EXPECT_EQ(name(site->elem[1]), "j");
    if (op == Op::kArrGet) {
      EXPECT_EQ(site->off[0], offsets[reads][0]) << "read " << reads;
      EXPECT_EQ(site->off[1], offsets[reads][1]) << "read " << reads;
      ++reads;
    } else {
      last_put = site;
    }
  }
  // u[i][j] = v[i][j], the second member's store.
  ASSERT_NE(last_put, nullptr);
  EXPECT_EQ(k->arrays[k->code[last_put->ip].a].sym->name, "u");
  EXPECT_EQ(last_put->off[0], 0);
  EXPECT_EQ(last_put->off[1], 0);
}

// A subscript read from an array, or scaled, is no element plus a
// constant.  u[j][i] is marked: its subscripts are bare elements, and
// only the lane space says which axis each element is on (the link then
// leaves it per lane; see LaneRelativeLink below).
TEST(KernelCompiler, LaneRelativeSkipsComputedSubscripts) {
  auto unit = analyse(
      "index_set I:i = {0..7}, J:j = I;\n"
      "int u[8][8], w[8][8], x[8];\n"
      "void main() { par (I, J) w[i][j] = u[x[i]][j] + u[i*2][j] + u[j][i]; }\n");
  const auto* e = first_construct_expr(*unit);
  ASSERT_NE(e, nullptr);
  const auto k = compile_expr(*e);
  ASSERT_NE(k, nullptr);
  std::vector<std::string> marked;
  for (const LaneRelativeSite& site : k->lane_relative) {
    const Inst& inst = k->code[site.ip];
    std::string text = k->arrays[inst.a].sym->name;
    for (std::uint16_t j = 0; j < site.rank; ++j) {
      text += "[" + k->elems[site.elem[j]].sym->name + "]";
    }
    marked.push_back(text);
  }
  EXPECT_EQ(marked, (std::vector<std::string>{"x[i]", "u[j][i]", "w[i][j]"}));
}

// Runs `src` on the bytecode engine and returns how many sites of the
// kernel it linked last the link classified once for every lane.
std::size_t static_sites_of_last_link(const std::string& src) {
  auto unit = analyse(src);
  cm::Machine machine;
  ExecOptions opts;
  opts.engine = ExecEngine::kBytecode;
  Impl vm(*unit, machine, opts);
  vm.run();
  return vm.kernel_engine().static_sites();
}

// Which sites the link fixes: each program ends with the statement under
// test, so its kernel is the one linked last.
TEST(KernelCompiler, LaneRelativeLink) {
  const std::string decls =
      "#define N 8\n"
      "index_set I:i = {0..N-1}, J:j = I, K:k = {1..N};\n"
      "index_set P:p = {3, 0, 2, 1}, M:m = {1..N-2};\n"
      "int a[N], b[N], c[N][N], u[N][N], t[N][N], r[N], q[4], s[4];\n"
      "map (I) { permute (I) b[N-1-i] :- a[i]; }\n";
  const auto last = [&](const std::string& stmt) {
    return static_sites_of_last_link(decls + "void main() { " + stmt + " }\n");
  };
  // A read one hop away and the store.
  EXPECT_EQ(last("par (I, J) st (i > 0) t[i][j] = u[i-1][j];"), 2u);
  // Transposed: only the store.
  EXPECT_EQ(last("par (I, J) t[i][j] = u[j][i];"), 1u);
  // i one level up, on axis 0; the swapped nest puts it on axis 1.
  EXPECT_EQ(last("par (I) par (J) st (j > 1) t[i][j] = u[i][j-2];"), 2u);
  EXPECT_EQ(last("par (J) par (I) t[i][j] = u[i][j];"), 0u);
  // A seq binding space binds j on no axis: a[j] stays per lane, below
  // the par and above it.
  EXPECT_EQ(last("par (I) seq (J) r[i] = r[i] + a[j];"), 2u);
  EXPECT_EQ(last("seq (J) par (I) r[i] = r[i] + a[j];"), 2u);
  // {1..N}: k - 1 is the lane's own position.
  EXPECT_EQ(last("par (K) r[k-1] = a[k-1];"), 2u);
  // Lanes off the array's shape: with equal trailing extents every lane
  // is the same distance from its own element (local or router); with a
  // narrower trailing axis the distance varies by lane.
  EXPECT_EQ(last("par (M) r[m] = a[m-1] + a[m+1];"), 3u);
  EXPECT_EQ(last("par (M, J) t[m][j] = u[m-1][j];"), 2u);
  EXPECT_EQ(last("par (I, M) t[i][m] = u[i][m];"), 0u);
  // Not a consecutive run.
  EXPECT_EQ(last("par (P) q[p] = s[p];"), 0u);
  // b is permuted: only the store to r.
  EXPECT_EQ(last("par (I) r[i] = b[i];"), 1u);
  // c[i][j] sits at a reduce site.
  EXPECT_EQ(last("par (I) r[i] = $+(J; c[i][j]);"), 1u);
}

// --- unique-store commits (docs/VM.md "Linking and execution") ---

// Runs `src` on the bytecode engine and returns whether the link proved
// the stores of the kernel it linked last unique to their lanes.
bool unique_stores_of_last_link(const std::string& src) {
  auto unit = analyse(src);
  cm::Machine machine;
  ExecOptions opts;
  opts.engine = ExecEngine::kBytecode;
  Impl vm(*unit, machine, opts);
  vm.run();
  return vm.kernel_engine().unique_stores();
}

// Which stores the link proves unique: each put's subscripts must use
// every axis of the lane space once, and no two puts may reach one root.
TEST(KernelCompiler, UniqueStoreLink) {
  const std::string decls =
      "#define N 8\n"
      "index_set I:i = {0..N-1}, J:j = I, K:k = {1..N};\n"
      "int a[N], r[N], c[N][N], u[N][N], m[2][N];\n"
      "void f(int x[N], int y[N]) { par (I) x[i] = (y[i] = i) + 0; }\n";
  const auto last = [&](const std::string& stmt) {
    return unique_stores_of_last_link(decls + "void main() { " + stmt +
                                      " }\n");
  };
  EXPECT_TRUE(last("par (I, J) st (i > 0) c[i][j] = u[i-1][j];"));
  EXPECT_TRUE(last("par (I, J) c[j][i] = i;"));
  EXPECT_TRUE(last("par (K) r[k-1] = k;"));
  EXPECT_TRUE(last("par (I) par (J) st (j > 1) c[i][j] = u[i][j-2];"));
  EXPECT_TRUE(last("par (I, J) { c[i][j] = 1; u[i][j] = c[i][j]; }"));
  EXPECT_TRUE(last("par (I) seq (J) r[i] = r[i] + a[j];"));
  EXPECT_TRUE(last("par (I) r[i] = (a[i] = i) + 1;"));
  EXPECT_TRUE(last("f(a, r);"));
  // An axis used twice, an axis missing, a seq element on no axis.
  EXPECT_FALSE(last("par (I, J) c[i][i] = 1;"));
  EXPECT_FALSE(last("par (I, J) r[i] = 1;"));
  EXPECT_FALSE(last("par (I) seq (J) r[j] = 1;"));
  EXPECT_FALSE(last("seq (J) par (I) c[i][j] = 1;"));
  // Two puts to one array, to one array through two parameters, or to one
  // root through two slices (the values agree, so nothing raises).
  EXPECT_FALSE(last("par (I) r[i] = (r[i] = i) + 0;"));
  EXPECT_FALSE(last("f(a, a);"));
  EXPECT_FALSE(last("f(m[0], m[1]);"));
  // A lane-local scalar store.
  EXPECT_FALSE(last("par (I) { int t; r[i] = (t = i); }"));
}

}  // namespace
}  // namespace uc::vm::detail::kernel
