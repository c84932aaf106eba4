// The solve / *solve constructs (paper §3.6).
#include <gtest/gtest.h>

#include "corpus.hpp"
#include "seqref/seqref.hpp"
#include "support/error.hpp"
#include "ucvm/interp.hpp"

namespace uc::vm {
namespace {

RunResult run(const std::string& src) { return run_uc(src); }

TEST(InterpSolve, WavefrontFromPaper) {
  // a[0][j] = a[i][0] = 1; a[i][j] = a[i-1][j] + a[i-1][j-1] + a[i][j-1].
  auto r = run(corpus::source("wavefront", {{"N", 6}}));
  const auto ref = seqref::wavefront(6);
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 6; ++j) {
      EXPECT_EQ(r.global_element("a", {i, j}).as_int(), ref[i * 6 + j])
          << i << "," << j;
    }
  }
}

TEST(InterpSolve, OrderIndependentOfStatementOrder) {
  // A chain a[k] = a[k-1]+1 expressed backwards still resolves.
  auto r = run(
      "index_set I:i = {1..7};\n"
      "int a[8];\n"
      "void main() {\n"
      "  a[0] = 10;\n"
      "  solve (I) a[i] = a[i-1] + 1;\n"
      "}");
  for (int k = 0; k < 8; ++k) {
    EXPECT_EQ(r.global_element("a", {k}).as_int(), 10 + k);
  }
}

TEST(InterpSolve, ReadsNonTargetArraysFreely) {
  auto r = run(
      "index_set I:i = {0..4};\n"
      "int src[5], dst[5];\n"
      "void main() {\n"
      "  par (I) src[i] = i * 2;\n"
      "  solve (I) dst[i] = (i==0) ? src[0] : dst[i-1] + src[i];\n"
      "}");
  EXPECT_EQ(r.global_element("dst", {4}).as_int(), 0 + 2 + 4 + 6 + 8);
}

TEST(InterpSolve, CircularDependencyReported) {
  EXPECT_THROW(run("index_set I:i = {0..3};\n"
                   "int a[4];\n"
                   "void main() { solve (I) a[i] = a[(i+1) % 4] + 1; }"),
               support::UcRuntimeError);
}

TEST(InterpSolve, TwoArraysInterleavedDependencies) {
  // Proper set across two arrays: u depends on v and vice versa, acyclic
  // by index.
  auto r = run(
      "index_set I:i = {0..5};\n"
      "int u[6], v[6];\n"
      "void main() {\n"
      "  solve (I) {\n"
      "    u[i] = (i==0) ? 1 : v[i-1] * 2;\n"
      "    v[i] = u[i] + 1;\n"
      "  }\n"
      "}");
  // u0=1 v0=2 u1=4 v1=5 u2=10 v2=11 u3=22 ...
  EXPECT_EQ(r.global_element("u", {0}).as_int(), 1);
  EXPECT_EQ(r.global_element("v", {0}).as_int(), 2);
  EXPECT_EQ(r.global_element("u", {3}).as_int(), 22);
  EXPECT_EQ(r.global_element("v", {5}).as_int(), 95);
}

TEST(InterpSolve, StarSolveShortestPathFromPaper) {
  auto r = run(
      "#define N 6\n"
      "index_set I:i = {0..N-1}, J:j = I, K:k = I;\n"
      "int dist[N][N];\n"
      "void main() {\n"
      "  par (I, J) st (i==j) dist[i][j] = 0;\n"
      "    others dist[i][j] = (j == (i+1) % N) ? 1 : N + 2;\n"
      "  *solve (I, J)\n"
      "    dist[i][j] = $<(K; dist[i][k] + dist[k][j]);\n"
      "}");
  // Ring graph: dist(i,j) = min((j-i) mod N hops·1, direct N+2, ...) —
  // going around the ring costs (j-i) mod N.
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 6; ++j) {
      const std::int64_t hops = (j - i + 6) % 6;
      EXPECT_EQ(r.global_element("dist", {i, j}).as_int(), hops)
          << i << "," << j;
    }
  }
}

TEST(InterpSolve, StarSolveReachesFixedPointOnce) {
  // Already-stable state: body runs, nothing changes, loop ends after one
  // verification round.
  auto r = run(
      "index_set I:i = {0..3};\n"
      "int a[4];\n"
      "void main() {\n"
      "  par (I) a[i] = 5;\n"
      "  *solve (I) a[i] = 5;\n"
      "}");
  EXPECT_EQ(r.global_element("a", {2}).as_int(), 5);
}

TEST(InterpSolve, StarSolveCostsMoreThanHandCodedLoop) {
  // E6: *solve pays for saving/comparing state each round.
  const char* star_solve =
      "#define N 8\n"
      "index_set I:i = {0..N-1}, J:j = I, K:k = I;\n"
      "int d[N][N];\n"
      "void main() {\n"
      "  par (I, J) st (i==j) d[i][j] = 0;\n"
      "    others d[i][j] = (j == (i+1) % N) ? 1 : 99;\n"
      "  *solve (I, J) d[i][j] = $<(K; d[i][k] + d[k][j]);\n"
      "}";
  const char* seq_par =
      "#define N 8\n"
      "#define LOGN 3\n"
      "index_set I:i = {0..N-1}, J:j = I, K:k = I, L:l = {0..LOGN-1};\n"
      "int d[N][N];\n"
      "void main() {\n"
      "  par (I, J) st (i==j) d[i][j] = 0;\n"
      "    others d[i][j] = (j == (i+1) % N) ? 1 : 99;\n"
      "  seq (L) par (I, J) d[i][j] = $<(K; d[i][k] + d[k][j]);\n"
      "}";
  auto rs = run(star_solve);
  auto rp = run(seq_par);
  // Same answer...
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      EXPECT_EQ(rs.global_element("d", {i, j}).as_int(),
                rp.global_element("d", {i, j}).as_int());
    }
  }
  // ...but *solve costs more (it cannot know when to stop without state
  // saving + an extra verification sweep).
  EXPECT_GT(rs.stats().cycles, rp.stats().cycles);
}

TEST(InterpSolve, SolveWithPredicatedBlocks) {
  auto r = run(
      "index_set I:i = {0..7};\n"
      "int a[8];\n"
      "void main() {\n"
      "  solve (I)\n"
      "    st (i == 0) a[i] = 100;\n"
      "    st (i > 0) a[i] = a[i-1] + 1;\n"
      "}");
  EXPECT_EQ(r.global_element("a", {7}).as_int(), 107);
}

// The others equation exists on the lanes no block's guard enabled at
// entry, on every engine and at the same cost.
TEST(InterpSolve, OthersGetsTheLanesNoGuardEnabled) {
  const std::string src =
      "index_set I:i = {0..3};\n"
      "int d[4];\n"
      "void main() {\n"
      "  solve (I) st (i == 0) d[i] = 5; others d[i] = d[i-1] + 1;\n"
      "  print(d[0], d[1], d[2], d[3]);\n"
      "}\n";
  ExecOptions opts;
  opts.engine = ExecEngine::kWalk;
  const RunResult walk = run_uc(src, {}, opts);
  EXPECT_EQ(walk.output(), "5 6 7 8\n");
  for (const ExecEngine engine : {ExecEngine::kBytecode, ExecEngine::kNative}) {
    opts.engine = engine;
    const RunResult r = run_uc(src, {}, opts);
    EXPECT_EQ(r.output(), walk.output());
    EXPECT_TRUE(r.stats() == walk.stats());
  }
}

// A block with no equation still enables lanes: its guard is evaluated
// once, so `others` gets lanes 1..3 alone and d[0] keeps its 0.  The guard
// is charged as one equation's guard is.  With an issue overhead of 30 and
// 4 cycles an ALU op on 4 VPs: the guard `i == 0` (3 ops) 42, the `others`
// target `d[i]` (2 ops) 38, its one round `d[i] = 1` (4 ops) 46, the
// round's global OR 12 and the print's 10 front-end ops 20: 158 cycles.
TEST(InterpSolve, BlockWithoutEquationKeepsItsLanesFromOthers) {
  const std::string src =
      "index_set I:i = {0..3};\n"
      "int d[4];\n"
      "void main() {\n"
      "  solve (I) st (i == 0) ; others d[i] = 1;\n"
      "  print(d[0], d[1], d[2], d[3]);\n"
      "}\n";
  ExecOptions opts;
  opts.engine = ExecEngine::kWalk;
  const RunResult walk = run_uc(src, {}, opts);
  EXPECT_EQ(walk.output(), "0 1 1 1\n");
  EXPECT_EQ(walk.stats().cycles, 158u);
  EXPECT_EQ(walk.stats().vector_ops, 3u);
  for (const ExecEngine engine : {ExecEngine::kBytecode, ExecEngine::kNative}) {
    opts.engine = engine;
    const RunResult r = run_uc(src, {}, opts);
    EXPECT_EQ(r.output(), walk.output());
    EXPECT_TRUE(r.stats() == walk.stats());
  }
}

TEST(InterpSolve, IterationLimitGuards) {
  ExecOptions opts;
  opts.max_iterations = 4;
  EXPECT_THROW(
      run_uc("index_set I:i = {0..3};\nint a[4];\n"
             "void main() { *solve (I) a[i] = a[i] + 1; }",
             {}, opts),
      support::UcRuntimeError);
}

}  // namespace
}  // namespace uc::vm
