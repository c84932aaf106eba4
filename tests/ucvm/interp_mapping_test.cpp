// Map sections (paper §4): permute / fold / copy must leave program
// results unchanged while cutting communication cost.
#include <gtest/gtest.h>

#include "corpus.hpp"
#include "ucvm/interp.hpp"

namespace uc::vm {
namespace {

std::vector<std::int64_t> ints(const std::vector<Value>& vs) {
  std::vector<std::int64_t> out;
  for (const auto& v : vs) out.push_back(v.as_int());
  return out;
}

RunResult run_opt(const std::string& src, bool apply_mappings) {
  ExecOptions opts;
  opts.apply_mappings = apply_mappings;
  return run_uc(src, {}, opts);
}

// A corpus mapping program at size n, run for `rounds` rounds.
std::string mapped(const char* name, std::int64_t n, std::int64_t rounds) {
  return corpus::source(name, {{"N", n}, {"ROUNDS", rounds}});
}

// The same program run with its map section applied and ignored.
struct Runs {
  RunResult with, without;
};
Runs run_both(const char* name, std::int64_t n, std::int64_t rounds) {
  const auto src = mapped(name, n, rounds);
  return {run_uc(src), run_opt(src, false)};
}

TEST(Mapping, PermuteDoesNotChangeResults) {
  auto [with, without] = run_both("shifted_sum", 64, 4);
  EXPECT_EQ(ints(with.global_array("a")), ints(without.global_array("a")));
}

TEST(Mapping, PermuteEliminatesRemoteTraffic) {
  auto [with, without] = run_both("shifted_sum", 64, 8);
  // Without the mapping every a[i] = a[i] + b[i+1] fetches b over the NEWS
  // grid / router; with it the access is local.  The mapping itself pays
  // one relocation sweep, so compare steady-state comm instructions.
  EXPECT_LT(with.stats().news_ops + with.stats().router_ops * 4,
            without.stats().news_ops + without.stats().router_ops * 4);
}

TEST(Mapping, PermuteReversalCutsCycles) {
  auto [with, without] = run_both("mapping_demo", 128, 8);
  EXPECT_EQ(ints(with.global_array("a")), ints(without.global_array("a")));
  EXPECT_LT(with.stats().cycles, without.stats().cycles);
}

TEST(Mapping, FoldDoesNotChangeResults) {
  auto [with, without] = run_both("fold_combine", 64, 6);
  EXPECT_EQ(ints(with.global_array("out")), ints(without.global_array("out")));
}

TEST(Mapping, FoldReducesRemoteAccesses) {
  auto [with, without] = run_both("fold_combine", 64, 8);
  EXPECT_LT(with.stats().router_messages, without.stats().router_messages);
}

TEST(Mapping, CopyDoesNotChangeResults) {
  auto [with, without] = run_both("copy_broadcast", 16, 3);
  EXPECT_EQ(ints(with.global_array("m")), ints(without.global_array("m")));
}

TEST(Mapping, CopyEliminatesRepeatedRemoteReads) {
  auto [with, without] = run_both("copy_broadcast", 16, 6);
  EXPECT_LT(with.stats().router_messages, without.stats().router_messages);
}

TEST(Mapping, ApplyMappingsOptionDisablesSections) {
  // With apply_mappings=false the map section is parsed but ignored, so
  // the program costs the same as its text without the section.  The
  // other mapping tests rely on this to run a corpus program unmapped.
  auto ignored = run_opt(mapped("shifted_sum", 64, 8), false);
  auto plain = run_opt(
      "#define N 64\n"
      "#define ROUNDS 8\n"
      "index_set I:i = {0..N-1};\n"
      "index_set T:t = {0..ROUNDS-1};\n"
      "int a[N], b[N];\n"
      "void main() {\n"
      "  par (I) { a[i] = i; b[i] = 2 * i; }\n"
      "  seq (T)\n"
      "    par (I) st (i < N-1) a[i] = a[i] + b[i+1];\n"
      "  print(\"a[0] =\", a[0], \" a[N-1] =\", a[N-1]);\n"
      "}\n",
      false);
  EXPECT_EQ(ignored.output(), plain.output());
  EXPECT_EQ(ignored.stats().cycles, plain.stats().cycles);
}

TEST(Mapping, MapSectionInsideFunctionBody) {
  // Mappings may appear as statements (the paper keeps them in a separate
  // section; we allow both placements — LANGUAGE.md).
  auto r = run_uc(
      "#define N 16\n"
      "index_set I:i = {0..N-1};\n"
      "int a[N], b[N];\n"
      "void main() {\n"
      "  map (I) { permute (I) b[i+1] :- a[i]; }\n"
      "  par (I) { a[i] = i; b[i] = 100 + i; }\n"
      "  par (I) st (i < N-1) a[i] = a[i] + b[i+1];\n"
      "}");
  EXPECT_EQ(r.global_element("a", {3}).as_int(), 3 + 104);
}

TEST(Mapping, OutOfRangeMappingSubscriptsAreSkipped) {
  // b[i+1] for i == N-1 falls outside b; the paper's transformation just
  // leaves that element on its default processor.
  auto r = run_uc(mapped("shifted_sum", 8, 1));
  EXPECT_EQ(r.global_element("a", {7}).as_int(), 7);  // untouched edge
}

TEST(Mapping, DefaultMappingAlignsConformingArrays) {
  // a[i] = b[i] must be fully local under default mappings.
  auto r = run_uc(
      "#define N 32\n"
      "index_set I:i = {0..N-1};\n"
      "int a[N], b[N];\n"
      "void main() {\n"
      "  par (I) b[i] = i;\n"
      "  par (I) a[i] = b[i];\n"
      "}");
  EXPECT_EQ(r.stats().router_messages, 0u);
  EXPECT_EQ(r.stats().news_ops, 0u);
}

TEST(Mapping, ShiftedAccessUsesNewsNotRouter) {
  auto r = run_uc(
      "#define N 32\n"
      "index_set I:i = {0..N-1};\n"
      "int a[N], b[N];\n"
      "void main() {\n"
      "  par (I) b[i] = i;\n"
      "  par (I) st (i < N-1) a[i] = b[i+1];\n"
      "}");
  EXPECT_GT(r.stats().news_ops, 0u);
  EXPECT_EQ(r.stats().router_messages, 0u);
}

TEST(Mapping, TransposedAccessUsesRouter) {
  auto r = run_uc(
      "#define N 8\n"
      "index_set I:i = {0..N-1}, J:j = I;\n"
      "int a[N][N], b[N][N];\n"
      "void main() {\n"
      "  par (I, J) b[i][j] = i * N + j;\n"
      "  par (I, J) a[i][j] = b[j][i];\n"
      "}");
  EXPECT_GT(r.stats().router_messages, 0u);
}

}  // namespace
}  // namespace uc::vm
