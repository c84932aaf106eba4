// The solve -> *par lowering must produce ordinary UC that computes the
// same results as the VM's built-in solve.
#include "xform/solve_lower.hpp"

#include <gtest/gtest.h>

#include "codegen/pretty.hpp"
#include "corpus.hpp"
#include "seqref/seqref.hpp"
#include "uclang/frontend.hpp"
#include "ucvm/interp.hpp"

namespace uc::xform {
namespace {

// Compiles, lowers every solve, re-analyses and runs; returns the result.
vm::RunResult lower_and_run(const std::string& src,
                            std::size_t expect_lowered = 1) {
  auto unit = lang::compile("t.uc", src);
  EXPECT_TRUE(unit->ok()) << unit->diags.render_all();
  auto lowering = lower_solves(*unit->program);
  EXPECT_EQ(lowering.lowered, expect_lowered)
      << codegen::print_program(*unit->program);
  EXPECT_EQ(lowering.skipped, 0u);
  lang::reanalyze(*unit);
  EXPECT_TRUE(unit->ok()) << unit->diags.render_all() << "\n"
                          << codegen::print_program(*unit->program);
  cm::Machine machine;
  vm::Interp interp(*unit, machine);
  return interp.run();
}

TEST(SolveLower, WavefrontMatchesBuiltinSolve) {
  auto r = lower_and_run(corpus::source("wavefront", {{"N", 6}}));
  auto expect = seqref::wavefront(6);
  auto got = r.global_array("a");
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].as_int(), expect[k]) << k;
  }
}

TEST(SolveLower, LoweredTreeContainsStarParAndDoneFlags) {
  auto unit = lang::compile(
      "t.uc",
      "index_set I:i = {0..3};\nint a[4];\n"
      "void main() { a[0] = 1; solve (I) st (i > 0) a[i] = a[i-1] + 1; }");
  ASSERT_TRUE(unit->ok());
  auto lowering = lower_solves(*unit->program);
  EXPECT_EQ(lowering.lowered, 1u);
  auto text = codegen::print_program(*unit->program);
  EXPECT_NE(text.find("*par"), std::string::npos) << text;
  EXPECT_NE(text.find("__uc_done_a_"), std::string::npos) << text;
  EXPECT_EQ(text.find("solve"), std::string::npos) << text;
}

TEST(SolveLower, ChainWithBoundaryFromOutsideSolve) {
  auto r = lower_and_run(
      "index_set I:i = {1..7};\nint a[8];\n"
      "void main() {\n"
      "  a[0] = 5;\n"
      "  solve (I) a[i] = a[i-1] + 2;\n"
      "}");
  for (int k = 0; k < 8; ++k) {
    EXPECT_EQ(r.global_element("a", {k}).as_int(), 5 + 2 * k);
  }
}

TEST(SolveLower, TwoTargetArrays) {
  auto r = lower_and_run(
      "index_set I:i = {0..5};\n"
      "int u[6], v[6];\n"
      "void main() {\n"
      "  solve (I) {\n"
      "    u[i] = (i==0) ? 1 : v[i-1] * 2;\n"
      "    v[i] = u[i] + 1;\n"
      "  }\n"
      "}");
  EXPECT_EQ(r.global_element("u", {3}).as_int(), 22);
  EXPECT_EQ(r.global_element("v", {5}).as_int(), 95);
}

TEST(SolveLower, PredicatedBlocks) {
  auto r = lower_and_run(
      "index_set I:i = {0..7};\nint a[8];\n"
      "void main() {\n"
      "  solve (I)\n"
      "    st (i == 0) a[i] = 100;\n"
      "    st (i > 0) a[i] = a[i-1] + 1;\n"
      "}");
  EXPECT_EQ(r.global_element("a", {7}).as_int(), 107);
}

TEST(SolveLower, DifferentDimsAcrossTargets) {
  auto r = lower_and_run(
      "index_set I:i = {0..3};\n"
      "int small[4], big[8];\n"
      "void main() {\n"
      "  solve (I) {\n"
      "    small[i] = (i==0) ? 2 : big[i-1] + 1;\n"
      "    big[i] = small[i] * 10;\n"
      "  }\n"
      "}");
  // small0=2 big0=20 small1=21 big1=210 small2=211 big2=2110 small3=2111.
  EXPECT_EQ(r.global_element("small", {2}).as_int(), 211);
  EXPECT_EQ(r.global_element("big", {3}).as_int(), 21110);
}

TEST(SolveLower, StarSolveIsLeftAlone) {
  auto unit = lang::compile(
      "t.uc",
      "index_set I:i = {0..3};\nint a[4];\n"
      "void main() { *solve (I) a[i] = min(a[i], 3); }");
  ASSERT_TRUE(unit->ok());
  auto lowering = lower_solves(*unit->program);
  EXPECT_EQ(lowering.lowered, 0u);
  EXPECT_EQ(lowering.skipped, 0u);
  auto text = codegen::print_program(*unit->program);
  EXPECT_NE(text.find("*solve"), std::string::npos);
}

TEST(SolveLower, ReductionOverTargetIsSkipped) {
  auto unit = lang::compile(
      "t.uc",
      "index_set I:i = {0..3}, J:j = I;\nint a[4];\n"
      "void main() { solve (I) a[i] = (i==0) ? 1 : $+(J st (j<i) a[j]); }");
  ASSERT_TRUE(unit->ok());
  auto lowering = lower_solves(*unit->program);
  EXPECT_EQ(lowering.lowered, 0u);
  EXPECT_EQ(lowering.skipped, 1u);
  ASSERT_FALSE(lowering.skip_reasons.empty());
  EXPECT_NE(lowering.skip_reasons[0].find("reduction"), std::string::npos);
}

TEST(SolveLower, CostResemblesBuiltinGeneralMethod) {
  // The lowered *par should be in the same cost regime as the VM's
  // built-in general method (both iterate wavefront-depth rounds).
  const auto src = corpus::source("wavefront", {{"N", 8}});
  auto builtin = vm::run_uc(src);
  auto lowered = lower_and_run(src);
  EXPECT_GT(lowered.stats().cycles, 0u);
  // Same order of magnitude (within 8x either way).
  EXPECT_LT(lowered.stats().cycles, builtin.stats().cycles * 8);
  EXPECT_GT(lowered.stats().cycles * 8, builtin.stats().cycles);
}

}  // namespace
}  // namespace uc::xform
