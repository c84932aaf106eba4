// Unit tests for the lane-kernel compiler (src/ucvm/kernel/compile.cpp):
// which statements it accepts, and structural invariants of the lowered
// bytecode (fused array ops, direct index lowering, constant pooling,
// reduction loop wiring).  End-to-end equivalence with the walk engine is
// covered by engine_parity_test.cpp.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "uclang/frontend.hpp"
#include "ucvm/kernel/bytecode.hpp"

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

}  // namespace
}  // namespace uc::vm::detail::kernel
