// The solve / *solve constructs (paper §3.6).
#include <gtest/gtest.h>

#include "cm/fault.hpp"
#include "corpus.hpp"
#include "seqref/seqref.hpp"
#include "support/error.hpp"
#include "ucvm/interp.hpp"

namespace uc::vm {
namespace {

RunResult run(const std::string& src) { return run_uc(src); }

// Runs `src` on every engine at 1 and 4 host threads; each run must print
// the walk's output at the walk's CostStats.  Returns the walk's run.
RunResult on_every_engine(const std::string& src,
                          cm::MachineOptions mopts = {},
                          ExecOptions eopts = {}) {
  eopts.engine = ExecEngine::kWalk;
  mopts.host_threads = 1;
  const RunResult walk = run_uc(src, mopts, eopts);
  for (const ExecEngine engine :
       {ExecEngine::kWalk, ExecEngine::kBytecode, ExecEngine::kNative}) {
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE("engine " + std::to_string(static_cast<int>(engine)) +
                   " threads " + std::to_string(threads));
      eopts.engine = engine;
      mopts.host_threads = threads;
      const RunResult r = run_uc(src, mopts, eopts);
      EXPECT_EQ(r.output(), walk.output());
      EXPECT_TRUE(r.stats() == walk.stats());
    }
  }
  return walk;
}

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

// A guard's writes go through the commit, as under par: every lane of
// `f` reads g = 0 and writes 1, so g ends at 1 however many lanes and
// equations the block has.
TEST(InterpSolve, GuardSideEffectsCommitOnce) {
  const RunResult r = on_every_engine(
      "index_set I:i = {0..3};\n"
      "int d[4], e[4], g;\n"
      "int f(int x) { g = g + 1; return x == 0; }\n"
      "void main() {\n"
      "  solve (I) st (f(i)) d[i] = 5; others d[i] = 7;\n"
      "  print(g, d[0], d[1], d[2], d[3]);\n"
      "  g = 0;\n"
      "  solve (I) st (f(i)) { d[i] = 5; e[i] = 6; } others d[i] = 7;\n"
      "  print(g, e[0]);\n"
      "  g = 0;\n"
      "  par (I) st (f(i)) d[i] = 5; others d[i] = 7;\n"
      "  print(g);\n"
      "}\n");
  EXPECT_EQ(r.output(), "1 5 7 7 7\n1 6\n1\n");
}

// The charges below are derived with the default model: an issue overhead
// of 30 (6 for a replayed plan), 4 cycles an ALU op on a VP ratio of 1, 12
// a NEWS hop, 600 a router wave, 15 a broadcast, 12 a global OR, 2 a
// front-end op.  A statement's ops are its expression-tree size with
// repeated pure subexpressions counted once.

// A guard's reads are classified and charged as a par guard's are.
//   par c[i] = i (3 ops)                                       42
//   guard c[(i+1) % 8] > 2 (8 ops) 62, plus one NEWS
//     instruction: lane 7 reads c[0], 7 hops, 84              146
//   `others` target d[i] (2 ops) 38, the round's global OR 12  50
//   the round: d[i] = 1 and d[i] = 2 (4 ops each)               92
//   print of 8 elements (18 front-end ops)                      36
// 366 cycles; the guard's NEWS read was not charged before (282).
TEST(InterpSolve, GuardReadsAreCharged) {
  const RunResult r = on_every_engine(
      "index_set I:i = {0..7};\n"
      "int c[8], d[8];\n"
      "void main() {\n"
      "  par (I) c[i] = i;\n"
      "  solve (I) st (c[(i+1) % 8] > 2) d[i] = 1; others d[i] = 2;\n"
      "  print(d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]);\n"
      "}\n");
  EXPECT_EQ(r.output(), "2 2 1 1 1 1 1 2\n");
  EXPECT_EQ(r.stats().news_ops, 1u);
  EXPECT_EQ(r.stats().vector_ops, 5u);
  EXPECT_EQ(r.stats().cycles, 366u);
}

// A block's guard is charged once, however many equations the block has.
//   guard i < 2 (3 ops)                                         42
//   the `others` targets a[i] and b[i] (2 ops each)             76
//   the round's four equations (4 ops each)                    184
//   the round's global OR                                       12
// 314 cycles in 7 vector ops (the guard was charged once per equation
// before: 356 in 8).
TEST(InterpSolve, GuardChargedOncePerBlock) {
  const RunResult r = on_every_engine(
      "index_set I:i = {0..7};\n"
      "int a[8], b[8];\n"
      "void main() {\n"
      "  solve (I) st (i < 2) { a[i] = 1; b[i] = 2; }\n"
      "            others { a[i] = 3; b[i] = 4; }\n"
      "}\n");
  EXPECT_EQ(r.stats().vector_ops, 7u);
  EXPECT_EQ(r.stats().cycles, 314u);
}

// A solve entered again replays its guard's plan, as a par guard does.
// Each seq tuple: guard i < 2 (3 ops) 42 the first time, 6 + 12 = 18 on
// replay; `others` target d[i] 38; d[i] = k (4 ops) 46; d[i] = k + 1
// (6 ops) 54; global OR 12.  Tuple 0 192, tuple 1 168, the print (6
// front-end ops) 12: 372 cycles with one plan hit (396 and none before).
TEST(InterpSolve, ReenteredSolveReplaysItsGuardPlan) {
  const RunResult r = on_every_engine(
      "index_set I:i = {0..7}, K:k = {0..1};\n"
      "int d[8];\n"
      "void main() {\n"
      "  seq (K) solve (I) st (i < 2) d[i] = k; others d[i] = k + 1;\n"
      "  print(d[0], d[7]);\n"
      "}\n");
  EXPECT_EQ(r.output(), "1 2\n");
  EXPECT_EQ(r.stats().plan_hits, 1u);
  EXPECT_EQ(r.stats().cycles, 372u);
}

// An equation's write is classified as the same assignment's under par:
// a shifted target is a NEWS write, a transposed one a router write and a
// copied one a broadcast.
//   map: v copied along J, 16 router messages                  600
//   solve 1: target s[(i+1) % 4] (6 ops) 54, global OR 12       66
//     s[(i+1) % 4] = i (7 ops) 58, NEWS: lane 3 writes s[0],
//     3 hops, 36                                                94
//   solve 2: target t[j][i] (3 ops) 42, global OR 12            54
//     t[j][i] = i (4 ops) 46, router: the 12 lanes off the
//     diagonal, one wave, 600                                  646
//   solve 3: target v[i] (2 ops) 38, global OR 12               50
//     v[i] = i (3 ops) 42, broadcast 15                         57
//   print (9 front-end ops)                                     18
// 1585 cycles (934 before, with none of the three writes charged).
TEST(InterpSolve, EquationWritesAreClassifiedAsParWrites) {
  const std::string solve =
      "index_set I:i = {0..3}, J:j = I;\n"
      "int s[4], t[4][4], v[4];\n"
      "map (I) { copy (J) v; }\n"
      "void main() {\n"
      "  solve (I) s[(i + 1) % 4] = i;\n"
      "  solve (I, J) t[j][i] = i;\n"
      "  solve (I) v[i] = i;\n"
      "  print(s[0], t[1][2], v[3]);\n"
      "}\n";
  const RunResult r = on_every_engine(solve);
  EXPECT_EQ(r.output(), "3 2 3\n");
  EXPECT_EQ(r.stats().cycles, 1585u);
  std::string par = solve;
  for (std::size_t at; (at = par.find("solve")) != std::string::npos;) {
    par.replace(at, 5, "par");
  }
  const RunResult p = run(par);
  EXPECT_EQ(p.output(), r.output());
  EXPECT_EQ(r.stats().news_ops, 1u);
  EXPECT_EQ(r.stats().router_ops, 2u);
  EXPECT_EQ(r.stats().router_messages, 28u);
  EXPECT_EQ(r.stats().broadcasts, 1u);
  EXPECT_EQ(p.stats().news_ops, r.stats().news_ops);
  EXPECT_EQ(p.stats().router_ops, r.stats().router_ops);
  EXPECT_EQ(p.stats().router_messages, r.stats().router_messages);
  EXPECT_EQ(p.stats().broadcasts, r.stats().broadcasts);
}

// A guard is one statement, as under par: it draws from its own RNG
// stream, and it counts toward the checkpoint cadence.  The solve below
// takes three statement ids (its guard, then one round of two equations)
// as the par with the same blocks does (guard, body, `others`), so both
// programs enable the same lanes and draw the same numbers afterwards.
TEST(InterpSolve, GuardIsOneStatement) {
  const std::string solve =
      "index_set I:i = {0..7};\n"
      "int d[8], r[8];\n"
      "void main() {\n"
      "  solve (I) st (rand() % 2 == 0) d[i] = 1; others d[i] = 2;\n"
      "  par (I) r[i] = rand() % 100;\n"
      "  print(d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]);\n"
      "  print(r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7]);\n"
      "}\n";
  std::string par = solve;
  par.replace(par.find("solve"), 5, "par");
  EXPECT_EQ(on_every_engine(solve).output(), run(par).output());

  // With --checkpoint-every=3: the program's entry captures, and the
  // solve's entry always does, after statement 1 (the first par).  The
  // guard and the two equations are statements 2..4, so the last par's
  // entry is 3 statements past the solve's capture and captures too (it
  // did not when the guard was no statement).  Three captures of 34
  // cycles each (30 + 4 on one slice), the pars d[i] = 0 and r[i] = 1 (4
  // ops each) 92, the guard i == 0 (3 ops) 42, the `others` target 38, the
  // two equations 92, the global OR 12 and the print (7 front-end ops) 14:
  // 392 cycles (358 with two captures before).
  ExecOptions eopts;
  eopts.checkpoint_every = 3;
  const RunResult ck = on_every_engine(
      "index_set I:i = {0..7};\n"
      "int d[8], r[8];\n"
      "void main() {\n"
      "  par (I) d[i] = 0;\n"
      "  solve (I) st (i == 0) d[i] = 5; others d[i] = 7;\n"
      "  par (I) r[i] = 1;\n"
      "  print(d[0], d[1], r[0]);\n"
      "}\n",
      {}, eopts);
  EXPECT_EQ(ck.output(), "5 7 1\n");
  EXPECT_EQ(ck.stats().checkpoints, 3u);
  EXPECT_EQ(ck.stats().cycles, 392u);
}

// A fault in a guard's charges retries the guard's statement, as under
// par, instead of rewinding the solve to its entry snapshot: the retry
// replays the guard's plan, which a rewind would have retired.  With
// router faults at retries=0 (seed 3 faults the first attempt only), the
// transposed guard read t[j][i] is the program's one router instruction.
//   par t[i][j] = i - j (5 ops)                                 50
//   two captures (program entry, solve entry), 34 each          68
//   guard t[j][i] > 0 (5 ops) 50, router 600, ack check 4,
//     backoff 8: the fault escalates                           662
//   the retry: the guard's plan 6 + 20, router 600, check 4    630
//   `others` target d[i][j] (3 ops) 42, the round's equations
//     d[i][j] = 1 and d[i][j] = 2 (5 ops each) 100, OR 12      154
//   print (8 front-end ops)                                     16
// 1580 cycles, one rollback and one plan hit.
TEST(InterpSolve, GuardFaultRetriesTheGuard) {
  cm::MachineOptions mopts;
  mopts.faults = cm::parse_fault_spec("router:p=0.05,retries=0,seed=3");
  ExecOptions eopts;
  eopts.checkpoint_every = 8;
  const RunResult r = on_every_engine(
      "index_set I:i = {0..3}, J:j = I;\n"
      "int t[4][4], d[4][4];\n"
      "void main() {\n"
      "  par (I, J) t[i][j] = i - j;\n"
      "  solve (I, J) st (t[j][i] > 0) d[i][j] = 1; others d[i][j] = 2;\n"
      "  print(d[0][1], d[1][0], d[3][3]);\n"
      "}\n",
      mopts, eopts);
  EXPECT_EQ(r.output(), "1 2 2\n");
  EXPECT_EQ(r.stats().faults, 1u);
  EXPECT_EQ(r.stats().rollbacks, 1u);
  EXPECT_EQ(r.stats().plan_hits, 1u);
  EXPECT_EQ(r.stats().checkpoints, 2u);
  EXPECT_EQ(r.stats().cycles, 1580u);
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
