// The public facade: compile / run / transform toggles / emission.
#include "uc/uc.hpp"

#include <gtest/gtest.h>

#include "corpus.hpp"
#include "seqref/seqref.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

namespace uc {
namespace {

const char* kSumProgram =
    "index_set I:i = {0..9};\n"
    "int a[10], s;\n"
    "void main() { par (I) a[i] = i; s = $+(I; a[i]); }";

TEST(Api, CompileAndRun) {
  auto program = Program::compile("sum.uc", kSumProgram);
  auto result = program.run();
  EXPECT_EQ(result.global_scalar("s").as_int(), 45);
}

TEST(Api, CompileErrorThrowsWithDiagnostics) {
  try {
    Program::compile("bad.uc", "void main() { goto x; }");
    FAIL() << "expected UcCompileError";
  } catch (const support::UcCompileError& e) {
    EXPECT_NE(std::string(e.what()).find("goto"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("bad.uc:1:"), std::string::npos);
  }
}

TEST(Api, CheckReturnsDiagnosticsWithoutThrowing) {
  EXPECT_EQ(Program::check("ok.uc", kSumProgram), "");
  auto msg = Program::check("bad.uc", "void main() { x = 1; }");
  EXPECT_NE(msg.find("unknown identifier"), std::string::npos);
}

TEST(Api, RunOnSharedMachineAccumulatesStats) {
  auto program = Program::compile("sum.uc", kSumProgram);
  cm::Machine machine;
  auto r1 = program.run_on(machine);
  const auto after_one = machine.stats().cycles;
  auto r2 = program.run_on(machine);
  EXPECT_EQ(r1.global_scalar("s").as_int(), r2.global_scalar("s").as_int());
  EXPECT_GT(machine.stats().cycles, after_one);
}

TEST(Api, FoldConstantsToggle) {
  CompileOptions fold;
  CompileOptions no_fold;
  no_fold.fold_constants = false;
  auto folded = Program::compile("f.uc", "int x;\nvoid main() { x = 2+3; }",
                                 fold);
  auto plain = Program::compile("p.uc", "int x;\nvoid main() { x = 2+3; }",
                                no_fold);
  EXPECT_NE(folded.to_uc_source().find("x = 5;"), std::string::npos);
  EXPECT_NE(plain.to_uc_source().find("x = 2 + 3;"), std::string::npos);
  EXPECT_EQ(folded.run().global_scalar("x").as_int(), 5);
  EXPECT_EQ(plain.run().global_scalar("x").as_int(), 5);
}

TEST(Api, SolveLoweringToggleProducesSameAnswers) {
  CompileOptions lower;
  lower.lower_solve = true;
  const auto source = corpus::source("wavefront", {{"N", 6}});
  auto lowered = Program::compile("w.uc", source, lower);
  auto builtin = Program::compile("w.uc", source);
  EXPECT_NE(lowered.to_uc_source().find("*par"), std::string::npos);
  EXPECT_NE(builtin.to_uc_source().find("solve"), std::string::npos);
  auto expect = seqref::wavefront(6);
  auto rl = lowered.run();
  auto rb = builtin.run();
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 6; ++j) {
      EXPECT_EQ(rl.global_element("a", {i, j}).as_int(),
                expect[static_cast<std::size_t>(i * 6 + j)]);
      EXPECT_EQ(rb.global_element("a", {i, j}).as_int(),
                expect[static_cast<std::size_t>(i * 6 + j)]);
    }
  }
}

TEST(Api, PermuteRewriteToggle) {
  CompileOptions rewrite;
  rewrite.rewrite_permutes = true;
  auto program = Program::compile(
      "m.uc", corpus::source("shifted_sum", {{"N", 16}, {"ROUNDS", 2}}),
      rewrite);
  EXPECT_EQ(program.to_uc_source().find("permute"), std::string::npos);
}

TEST(Api, CstarEmission) {
  auto program = Program::compile(
      "sp.uc", corpus::source("fig6_shortest_path_on2", {{"N", 8}}));
  auto cstar = program.to_cstar_source();
  EXPECT_NE(cstar.find("domain"), std::string::npos);
  EXPECT_NE(cstar.find("[domain"), std::string::npos);
}

TEST(Api, UcSourceRoundTripsThroughCompile) {
  auto program = Program::compile("sum.uc", kSumProgram);
  auto printed = program.to_uc_source();
  auto again = Program::compile("sum2.uc", printed);
  EXPECT_EQ(again.run().global_scalar("s").as_int(), 45);
}

TEST(Api, MachineOptionsControlSeedAndSize) {
  cm::MachineOptions small;
  small.cost.physical_processors = 16;
  cm::MachineOptions big;
  big.cost.physical_processors = 16384;
  auto program = Program::compile(
      "p.uc",
      "index_set I:i = {0..255};\nint a[256];\n"
      "void main() { par (I) a[i] = i * 2; }");
  auto rs = program.run(small);
  auto rb = program.run(big);
  // Same values, different simulated time (VP ratio 16 vs 1).
  EXPECT_EQ(rs.global_element("a", {7}).as_int(), 14);
  EXPECT_GT(rs.stats().cycles, rb.stats().cycles);
}

TEST(Api, ProgramIsMovable) {
  auto program = Program::compile("sum.uc", kSumProgram);
  Program moved = std::move(program);
  EXPECT_EQ(moved.run().global_scalar("s").as_int(), 45);
}

TEST(Api, ConcisenessClaimUcSmallerThanCstar) {
  // §5/E9: UC programs are more concise than the C* equivalents.
  for (auto& src :
       {corpus::source("fig6_shortest_path_on2", {{"N", 16}}),
        corpus::source("fig7_shortest_path_on3", {{"N", 16}, {"LOGN", 4}})}) {
    auto program = Program::compile("p.uc", src);
    auto uc_lines = support::count_code_lines(src);
    auto cstar_lines = support::count_code_lines(program.to_cstar_source());
    EXPECT_LT(uc_lines, cstar_lines);
  }
}

}  // namespace
}  // namespace uc
