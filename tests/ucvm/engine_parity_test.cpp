// Differential suite: the tree-walk, bytecode lane-kernel, and native
// compiled-kernel engines must be observationally identical (docs/VM.md),
// modeled costs included: every engine charges exactly what the
// statement's compiled kernel charges (docs/COSTMODEL.md "What an engine
// may not change").  Each program runs on fresh machines under
//
//   walk      — the tree-walk reference
//   bytecode  — lane kernels (the default)
//   native    — kernels dispatched through emitted-and-dlopened C++
//               (docs/VM.md "Native tier")
//
// and output, named global arrays and every CostStats counter must be
// equal.  Statements the lowering rejects fall back to the walk inside the
// bytecode engine, and statements the native emitter declines fall back
// to bytecode, so these tests also cover both fallback seams (solve,
// print, user calls).  On a host without a working C++ toolchain the
// native run transparently degrades to bytecode and the assertions still
// hold.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <ostream>
#include <string>
#include <vector>

#include "cm/fault.hpp"
#include "corpus.hpp"
#include "support/error.hpp"
#include "uc/uc.hpp"
#include "uclang/frontend.hpp"
#include "ucvm/interp.hpp"
#include "ucvm/interp_detail.hpp"

namespace uc::cm {
// Failure messages print the whole stats line.
void PrintTo(const CostStats& s, std::ostream* os) {
  *os << s.to_string(CostModel{});
}
}  // namespace uc::cm

namespace uc::vm {
namespace {

struct EngineConfig {
  ExecEngine engine;
  const char* label;
};
constexpr EngineConfig kEngineConfigs[] = {
    {ExecEngine::kWalk, "walk"},
    {ExecEngine::kBytecode, "bytecode"},
    {ExecEngine::kNative, "native"}};

RunResult run_with(const std::string& src, ExecEngine engine,
                   const cm::MachineOptions& mopts = {},
                   ExecOptions eopts = {}) {
  eopts.engine = engine;
  return run_uc(src, mopts, eopts);
}

void expect_globals_equal(const RunResult& a, const RunResult& b,
                          const std::vector<std::string>& globals,
                          const char* label) {
  for (const auto& name : globals) {
    const auto wa = a.global_array(name);
    const auto ba = b.global_array(name);
    ASSERT_EQ(wa.size(), ba.size()) << label << " " << name;
    for (std::size_t i = 0; i < wa.size(); ++i) {
      EXPECT_TRUE(wa[i] == ba[i]) << label << " " << name << "[" << i << "]";
    }
  }
}

// Every engine against the walk: same output, same named globals, same
// CostStats.
void expect_parity(const std::string& src,
                   const std::vector<std::string>& globals = {},
                   const cm::MachineOptions& mopts = {},
                   const ExecOptions& eopts = {}) {
  const RunResult walk = run_with(src, ExecEngine::kWalk, mopts, eopts);
  for (const auto& c : kEngineConfigs) {
    if (c.engine == ExecEngine::kWalk) continue;
    SCOPED_TRACE(c.label);
    const RunResult other = run_with(src, c.engine, mopts, eopts);
    EXPECT_EQ(walk.output(), other.output());
    EXPECT_EQ(walk.stats(), other.stats());
    expect_globals_equal(walk, other, globals, c.label);
  }
}

// Every engine must raise the same UcRuntimeError text (the bytecode
// executor reuses the walk's error sites and messages).  A native kernel
// that hits a runtime error discards its buffered writes and reruns the
// statement on bytecode, which raises the identical deterministic error
// with its full message.  A non-empty `what` pins the walk's text too.
void expect_error_parity(const std::string& src,
                         const std::string& what = {}) {
  std::string walk_what;
  for (const auto& c : kEngineConfigs) {
    SCOPED_TRACE(c.label);
    try {
      run_with(src, c.engine);
      ADD_FAILURE() << "no error raised";
    } catch (const support::UcRuntimeError& e) {
      if (c.engine == ExecEngine::kWalk) walk_what = e.what();
      EXPECT_EQ(walk_what, e.what());
    }
  }
  if (!what.empty()) {
    EXPECT_EQ(walk_what, what);
  }
}

// --- the paper programs (programs/*.uc) ---

// One corpus program at one size.  The unmapped variants run the mapped
// text with apply_mappings off.
struct CorpusCase {
  const char* name;     // test name suffix
  const char* program;  // programs/<program>.uc
  std::vector<corpus::Define> defines;
  std::vector<std::string> globals;  // arrays compared element-wise
  bool apply_mappings = true;
};
void PrintTo(const CorpusCase& c, std::ostream* os) { *os << c.program; }

// Seeded router faults with one retry, so some faults escalate to
// statement rollbacks; rare enough that no corpus program exhausts the
// replay budget.
constexpr const char* kCorpusFaultSpec = "router:p=1e-3,seed=3,retries=1";

const std::vector<CorpusCase> kCorpusCases = {
    {"Fig6ShortestPathOn2", "fig6_shortest_path_on2", {{"N", 12}}, {"d"}},
    {"Fig7ShortestPathOn3", "fig7_shortest_path_on3",
     {{"N", 10}, {"LOGN", 4}}, {"d"}},
    {"ShortestPathStarSolve", "shortest_path_star_solve", {{"N", 10}}, {"d"}},
    {"Fig8GridObstacle", "fig8_grid_obstacle", {{"R", 10}, {"C", 10}}, {"d"}},
    {"Fig8GridNoObstacle", "fig8_grid_obstacle",
     {{"R", 9}, {"C", 11}, {"BAND", -1}}, {"d"}},
    {"GridDynamicObstacle", "grid_dynamic_obstacle", {{"R", 8}, {"C", 8}},
     {"d"}},
    {"PrefixSumsStarPar", "prefix_sums", {{"N", 16}}, {"a"}},
    {"PrefixSumsSeqPar", "prefix_sums_seq_par", {{"N", 16}, {"LOGN", 4}},
     {"a"}},
    {"Ranksort", "ranksort", {{"N", 24}}, {}},
    {"OddEvenSort", "odd_even_sort", {{"N", 24}}, {}},
    {"Wavefront", "wavefront", {{"N", 12}}, {}},
    {"Histogram", "histogram", {{"N", 64}}, {}},
    {"ShiftedSumMapped", "shifted_sum", {{"N", 16}, {"ROUNDS", 4}}, {}},
    {"ShiftedSumUnmapped", "shifted_sum", {{"N", 16}, {"ROUNDS", 4}}, {},
     false},
    {"ReversalMapped", "mapping_demo", {{"N", 16}, {"ROUNDS", 4}}, {}},
    {"ReversalUnmapped", "mapping_demo", {{"N", 16}, {"ROUNDS", 4}}, {},
     false},
    {"FoldCombineMapped", "fold_combine", {{"N", 16}, {"ROUNDS", 4}}, {}},
    {"FoldCombineUnmapped", "fold_combine", {{"N", 16}, {"ROUNDS", 4}}, {},
     false},
    {"CopyBroadcastMapped", "copy_broadcast", {{"N", 16}, {"ROUNDS", 4}}, {}},
    {"CopyBroadcastUnmapped", "copy_broadcast", {{"N", 16}, {"ROUNDS", 4}},
     {}, false},
    {"Jacobi", "jacobi", {{"N", 12}, {"ITERS", 8}}, {}},
    {"StencilOffsets", "stencil_offsets", {}, {"h", "t", "far", "acc"}},
    {"Hello", "hello", {}, {"a"}},
    {"IntWrap", "int_wrap", {},
     {"big", "p", "q", "r", "lo", "neg", "a", "shl", "shr", "dm"}},
    {"Matmul", "matmul", {{"N", 6}}, {"c"}},
    {"ReductionsTour", "reductions_tour", {}, {"a"}},
    {"Slices", "slices", {{"N", 6}}, {"m"}},
    {"ScBlocks", "sc_blocks", {}, {"a", "c", "d", "f"}},
};

class Corpus : public ::testing::TestWithParam<CorpusCase> {};

// Each corpus program at 1 and at 4 host threads, plain and under seeded
// router faults with checkpoint recovery: the fault schedule, the replays
// and the checkpoints are part of what every engine must agree on.
TEST_P(Corpus, EnginesAgree) {
  const CorpusCase& c = GetParam();
  const std::string src = corpus::source(c.program, c.defines);
  for (const unsigned threads : {1u, 4u}) {
    for (const bool faults : {false, true}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   (faults ? " with faults" : ""));
      cm::MachineOptions mopts;
      mopts.host_threads = threads;
      ExecOptions eopts;
      eopts.apply_mappings = c.apply_mappings;
      if (faults) {
        mopts.faults = cm::parse_fault_spec(kCorpusFaultSpec);
        eopts.checkpoint_every = 8;
      }
      expect_parity(src, c.globals, mopts, eopts);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EngineParity, Corpus,
                         ::testing::ValuesIn(kCorpusCases),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

// Each round of a seq or *solve refills the lane space, lane lists and value
// buffers of the round before, and pool workers write into them.  At two
// host threads and 1600 lanes, enough for several chunks on every engine,
// the engines must still agree.  The TSan lane (tools/ci.sh tsan) runs this.
TEST(EngineParity, SeqAndStarSolveRoundsOnTwoThreads) {
  const std::string src =
      "#define N 40\n"
      "index_set I:i = {0..N-1}, J:j = I, K:k = I;\n"
      "index_set D:dir = {0..3};\n"
      "int d[N][N], g[N][N];\n"
      "void main() {\n"
      "  par (I, J) st (i == j) d[i][j] = 0;\n"
      "    others d[i][j] = (i * 7 + j * 13) % 31 + 1;\n"
      "  seq (K)\n"
      "    par (I, J)\n"
      "      st (d[i][k] + d[k][j] < d[i][j])\n"
      "        d[i][j] = d[i][k] + d[k][j];\n"
      "  par (I, J) st (i == 0 && j == 0) g[i][j] = 0; others g[i][j] = INF;\n"
      "  *solve (I, J)\n"
      "    st (!(i == 0 && j == 0))\n"
      "      g[i][j] = min(INF, d[i][j] + $<(D\n"
      "        st (i + (dir==0) - (dir==1) >= 0 &&\n"
      "            i + (dir==0) - (dir==1) <= N-1 &&\n"
      "            j + (dir==2) - (dir==3) >= 0 &&\n"
      "            j + (dir==2) - (dir==3) <= N-1)\n"
      "          g[i + (dir==0) - (dir==1)][j + (dir==2) - (dir==3)]));\n"
      "  print(\"d\", $+(I, J; d[i][j]), \"g\", $+(I, J; g[i][j]));\n"
      "}\n";
  cm::MachineOptions mopts;
  mopts.host_threads = 2;
  expect_parity(src, {"d", "g"}, mopts);
}

// --- language-feature parity beyond the paper programs ---

TEST(EngineParity, FloatArithmeticAndCoercion) {
  expect_parity(
      "index_set I:i = {0..7};\n"
      "float a[8]; int b[8];\n"
      "void main() {\n"
      "  par (I) { a[i] = i * 1.5; b[i] = a[i] + 0.5; }\n"
      "  par (I) a[i] = a[i] / 2 + b[i] % 3;\n"
      "  print(\"sample\", a[3], b[5]);\n"
      "}\n",
      {"a", "b"});
}

TEST(EngineParity, TernaryShortCircuitAndBuiltins) {
  expect_parity(
      "index_set I:i = {0..15};\n"
      "int a[16];\n"
      "void main() {\n"
      "  par (I) {\n"
      "    a[i] = (i > 7 && i % 2 == 0) ? min(i, 10) : max(power2(3), i);\n"
      "    a[i] += abs(7 - i) || i;\n"
      "  }\n"
      "}\n",
      {"a"});
}

TEST(EngineParity, RandStreamsMatch) {
  // rand() draws a per-lane stream seeded from (statement, vp); both
  // engines must consume identical streams.
  expect_parity(
      "index_set I:i = {0..31};\n"
      "int a[32];\n"
      "void main() {\n"
      "  srand(7);\n"
      "  par (I) a[i] = rand() % 100;\n"
      "  par (I) a[i] += rand() % 10;\n"
      "}\n",
      {"a"});
}

TEST(EngineParity, ReduceWithPredAndOthers) {
  expect_parity(
      "index_set I:i = {0..7}, J:j = I;\n"
      "int a[8][8]; int r[8];\n"
      "void main() {\n"
      "  par (I, J) a[i][j] = (i * 31 + j * 17) % 23;\n"
      "  par (I) r[i] = $+(J st (a[i][j] > 10) a[i][j] others 1);\n"
      "}\n",
      {"r"});
}

TEST(EngineParity, IncDecOnArraysAndScalars) {
  expect_parity(
      "index_set I:i = {0..7};\n"
      "int a[8]; int k;\n"
      "void main() {\n"
      "  k = 0;\n"
      "  par (I) a[i] = i;\n"
      "  par (I) a[i]++;\n"
      "  seq (I) k += a[i];\n"
      "  print(\"sum\", k);\n"
      "}\n",
      {"a"});
}

// --- fusion safety ---

// Cross-lane RAW hazard: the second statement reads a[i+1], which the
// first statement writes from a *different* lane.  UC's synchronous
// semantics require the first statement to complete across all lanes
// before the second starts, so a fused per-lane kernel that ran both
// statements back-to-back in one lane would read the stale value.  The
// fusion gate must refuse to fuse this pair; the run must stay
// bit-identical to the walk.
TEST(EngineParity, FusionBlockedOnCrossLaneRaw) {
  expect_parity(
      "index_set I:i = {0..7};\n"
      "int a[9]; int b[8];\n"
      "void main() {\n"
      "  par (I) a[i] = i;\n"
      "  a[8] = 100;\n"
      "  par (I) {\n"
      "    a[i] = a[i] * 10;\n"
      "    b[i] = a[i + 1];\n"
      "  }\n"
      "}\n",
      {"a", "b"});
}

// Same-subscript RAW is the fusable case: b[i] reads exactly the a[i]
// the first member wrote in the same lane, so fusion may forward the
// stored value through a register.  Results must still match the walk.
TEST(EngineParity, FusionForwardsSameLaneRaw) {
  expect_parity(
      "index_set I:i = {0..7};\n"
      "int a[8]; int b[8]; int c[8];\n"
      "void main() {\n"
      "  par (I) {\n"
      "    a[i] = i * 3 + 1;\n"
      "    b[i] = a[i] * a[i];\n"
      "    c[i] = a[i] + b[i];\n"
      "  }\n"
      "}\n",
      {"a", "b", "c"});
}

// Forwarded values come from the member's write as it was buffered: an
// increment's new value, and a compound assignment's coerced result.
TEST(EngineParity, FusionForwardsIncDecAndCompoundWrites) {
  expect_parity(
      "index_set I:i = {0..7};\n"
      "int a[8]; float f[8]; int b[8]; float g[8];\n"
      "void main() {\n"
      "  par (I) { a[i] = i; f[i] = i * 0.25; }\n"
      "  par (I) {\n"
      "    a[i]++;\n"
      "    f[i] += 0.5;\n"
      "    b[i] = a[i] * 10 + a[i];\n"
      "    g[i] = f[i] * 2;\n"
      "  }\n"
      "}\n",
      {"a", "f", "b", "g"});
}

// A write under a condition cannot be forwarded, so the optimiser declines
// the group the AST gate admitted; every engine then runs the members
// unfused, each at its full issue cost.
TEST(EngineParity, FusionDeclinedByTheOptimizerRunsUnfusedEverywhere) {
  expect_parity(
      "index_set I:i = {0..7};\n"
      "int a[8]; int b[8]; int x[8];\n"
      "void main() {\n"
      "  par (I) {\n"
      "    x[i] = (i % 2 == 0) ? (a[i] = i + 1) : 0;\n"
      "    b[i] = a[i] * 3;\n"
      "  }\n"
      "}\n",
      {"a", "b", "x"});
}

// The kernel optimiser computes a repeated read once, so only one of the
// two identical router reads is classified and charged, on every engine.
TEST(EngineParity, DuplicateReadsAreClassifiedOnce) {
  const std::string prelude =
      "index_set I:i = {0..63};\n"
      "int a[64]; int p[64]; int b[64];\n"
      "void main() {\n"
      "  par (I) { a[i] = i * 3; p[i] = (i * 37) % 64; }\n";
  const std::string twice =
      prelude + "  par (I) b[i] = a[p[i]] + a[p[i]];\n}\n";
  const std::string once = prelude + "  par (I) b[i] = a[p[i]] * 2;\n}\n";
  expect_parity(twice, {"b"});
  for (const auto& c : kEngineConfigs) {
    SCOPED_TRACE(c.label);
    EXPECT_EQ(run_with(twice, c.engine).stats().router_messages,
              run_with(once, c.engine).stats().router_messages);
  }
}

// --- host threads under faults + checkpoints ---

// Splitting lanes across host threads is a host-only knob, like the
// engine: every engine at 1 and at 4 host threads must match the 1-thread
// walk exactly — output, named globals, and every CostStats counter,
// including the fault, retry, rollback, checkpoint and plan-hit counters.
// A run that drew a different fault schedule or missed a cached plan is a
// real bug even when the output happens to match.  The lane counts exceed
// the pool's inline cutoff (and, for fig6/fig8, the native tier's
// 1024-lane grain), so lanes are really dispatched across workers.  Fault
// rates are per unit (VP, message or combine step), so each workload gets
// rates that draw faults without exhausting the replay budget.
constexpr const char* kGridFaultSpec =
    "router:p=2e-5;news:p=2e-5;reduce:p=2e-5;memory:p=1e-4,"
    "seed=7,retries=2,backoff=32,detect=16";
// ranksort's rank reduction spans N*N VPs and its scatter sends ~4*N*N
// router messages, so memory and router rates are scaled down.
constexpr const char* kRanksortFaultSpec =
    "router:p=5e-6;news:p=1e-4;reduce:p=1e-2;memory:p=5e-6,"
    "seed=7,retries=2,backoff=32,detect=16";

RunResult run_threaded(const std::string& src, const char* faults,
                       ExecEngine engine, unsigned threads) {
  cm::MachineOptions mopts;
  mopts.host_threads = threads;
  mopts.faults = cm::parse_fault_spec(faults);
  ExecOptions eopts;
  eopts.checkpoint_every = 8;
  return run_with(src, engine, mopts, eopts);
}

void expect_thread_parity_under_faults(
    const std::string& src, const char* faults,
    const std::vector<std::string>& globals = {}) {
  const RunResult ref = run_threaded(src, faults, ExecEngine::kWalk, 1);
  ASSERT_GT(ref.stats().faults, 0u)
      << "workload drew no faults; raise p so the test means something";
  ASSERT_GT(ref.stats().checkpoints, 0u);
  for (const auto& c : kEngineConfigs) {
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(c.label) + " threads=" +
                   std::to_string(threads));
      const RunResult run = run_threaded(src, faults, c.engine, threads);
      EXPECT_EQ(ref.output(), run.output());
      EXPECT_EQ(ref.stats(), run.stats());
      expect_globals_equal(ref, run, globals, c.label);
    }
  }
}

TEST(EngineParity, Fig6HostThreadsUnderFaultsAndCheckpoints) {
  expect_thread_parity_under_faults(
      corpus::source("fig6_shortest_path_on2", {{"N", 36}}), kGridFaultSpec,
      {"d"});
}

TEST(EngineParity, Fig8HostThreadsUnderFaultsAndCheckpoints) {
  expect_thread_parity_under_faults(
      corpus::source("fig8_grid_obstacle", {{"R", 36}, {"C", 36}}),
      kGridFaultSpec, {"d"});
}

TEST(EngineParity, RanksortHostThreadsUnderFaultsAndCheckpoints) {
  expect_thread_parity_under_faults(corpus::source("ranksort", {{"N", 300}}),
                                    kRanksortFaultSpec, {"a"});
}

// --- the lane-ordered commit (docs/VM.md "Linking and execution") ---

// Every engine configuration at 1 and at 4 host threads: the program
// prints `output`, or, when `error` is non-empty, raises exactly `error`.
// Every engine at 1 and 4 host threads: the given output (or error), and
// the walk's CostStats at 1 thread.  `fold` compiles through uc::Program,
// whose constant folder runs first.
void expect_commit(const std::string& src, const std::string& output,
                   const std::string& error = {}, bool fold = false) {
  cm::CostStats walk_stats;
  for (const auto& c : kEngineConfigs) {
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(c.label) + " threads=" +
                   std::to_string(threads));
      cm::MachineOptions mopts;
      mopts.host_threads = threads;
      ExecOptions eopts;
      eopts.engine = c.engine;
      try {
        const RunResult r =
            fold ? uc::Program::compile("program.uc", src).run(mopts, eopts)
                 : run_uc(src, mopts, eopts);
        EXPECT_TRUE(error.empty()) << "no error raised";
        EXPECT_EQ(r.output(), output);
        if (c.engine == ExecEngine::kWalk && threads == 1) {
          walk_stats = r.stats();
        }
        EXPECT_EQ(walk_stats, r.stats());
      } catch (const support::UcRuntimeError& e) {
        EXPECT_EQ(e.what(), error);
      }
    }
  }
}

std::string conflict_error(const std::string& at, const std::string& what) {
  return "program.uc:" + at + ": conflicting parallel assignment" + what +
         " (each variable may be assigned at most one value, paper §3.4)";
}

// A per-lane call writing through a slice of its argument.  The slice
// view dies with the call, so the buffered write must name the root.
constexpr const char* kSlicePrelude =
    "index_set I:i = {0..1};\n"
    "int a[2][2];\n"
    "int f(int r[2], int v) { r[0] = v; return 0; }\n";

TEST(EngineParity, CommitSliceWritesFromTwoLanesConflict) {
  expect_commit(std::string(kSlicePrelude) +
                    "void main() { par (I) f(a[0], i + 5); }",
                "", conflict_error("3:26", " to a[0][0]: values 5 and 6"));
}

TEST(EngineParity, CommitSliceWriteLandsInItsLanesRow) {
  expect_commit(std::string(kSlicePrelude) +
                    "void main() {\n"
                    "  par (I) a[i][1] = f(a[i], 5) + 9;\n"
                    "  print(a[0][0], a[0][1], a[1][0], a[1][1]);\n"
                    "}",
                "5 9 5 9\n");
}

TEST(EngineParity, CommitSliceWriteConflictsWithRootWrite) {
  expect_commit(std::string(kSlicePrelude) +
                    "void main() { par (I) a[0][0] = f(a[0], 5) + 9; }",
                "", conflict_error("4:23", " to a[0][0]: values 5 and 9"));
}

// Arrays declared in a callee are private to the call, like its scalars:
// the freed arrays of two lanes may share an address, and buffering their
// writes would report a conflict between unrelated arrays.
TEST(EngineParity, CommitCalleeLocalArrayAppliesImmediately) {
  expect_commit(
      "index_set I:i = {0..3};\n"
      "int out[4];\n"
      "int g(int v) { int t[2]; t[0] = v; t[1] = v + 1; return t[0] + t[1]; }\n"
      "void main() { par (I) out[i] = g(i); print(out[0], out[1], out[2], "
      "out[3]); }",
      "1 3 5 7\n");
}

// Value equality decides a conflict, before the store coerces: an int
// element written with 1 and 1.0 is legal, with 1 and 1.5 it is not.
// swap() converts to the target's type as assignment does, so swapping
// 2.5 into the int a[0] writes 2; the float-array cases compile.  The ?:
// arms convert to float, so c[0] gets 1.0 and 1.5.
constexpr const char* kMixedPrelude =
    "index_set I:i = {0..3};\n"
    "int a[1]; float b[4], c[1];\n"
    "int put(int a[1], float b[4], int i) {\n"
    "  if (i % 2 == 0) a[0] = 1; else swap(a[0], b[i]);\n"
    "  return 0;\n"
    "}\n";

TEST(EngineParity, CommitMixedIntFloatSameValueIsLegal) {
  expect_commit(std::string(kMixedPrelude) +
                    "void main() {\n"
                    "  par (I) b[i] = 1.0;\n"
                    "  par (I) put(a, b, i);\n"
                    "  par (I) c[0] = (i < 2) ? 1 : 1.0;\n"
                    "  print(a[0], b[0], b[1], c[0]);\n"
                    "}",
                "1 1 0 1\n");
}

TEST(EngineParity, CommitIntVersusFractionalFloatConflicts) {
  expect_commit(std::string(kMixedPrelude) +
                    "void main() { par (I) b[i] = 2.5; par (I) put(a, b, i); }",
                "", conflict_error("4:34", " to a[0]: values 1 and 2"));
  expect_commit(std::string(kMixedPrelude) +
                    "void main() { par (I) c[0] = (i < 2) ? 1 : 1.5; }",
                "", conflict_error("7:23", " to c[0]: values 1 and 1.5"));
}

// Two conflicting elements in one 2500-lane statement.  a[2500] gets its
// second value at lane 2300, a[2501] at lane 2400, so lane order reports
// a[2500].  Its writers sit in different pool chunks on every engine at 4
// threads, the native tier's 1024-lane grain included, so a commit that
// took chunks out of order would report a[2501] or swap the values.
TEST(EngineParity, CommitLaneOrderPicksTheReportedConflict) {
  expect_commit(
      "index_set I:i = {0..2499};\n"
      "int a[2502];\n"
      "void main() {\n"
      "  par (I) a[(i == 100 || i == 2300) ? 2500\n"
      "            : ((i == 2350 || i == 2400) ? 2501 : i)] = i;\n"
      "}",
      "", conflict_error("4:11", " to a[2500]: values 100 and 2300"));
}

// Non-array targets keep the hashed table: a global scalar, and a
// lane-local of the enclosing par written by every inner lane.
TEST(EngineParity, CommitScalarConflictsAreStillCaught) {
  expect_commit(
      "index_set I:i = {0..299};\n"
      "int x;\n"
      "void main() { par (I) x = 7; print(x); par (I) x = i; }",
      "", conflict_error("3:48", ": values 0 and 1"));
  expect_commit(
      "index_set I:i = {0..3}, J:j = I;\n"
      "int s;\n"
      "void main() {\n"
      "  par (I) { int t; par (J) t = 5; s = t; }\n"
      "  print(s);\n"
      "  par (I) { int t; par (J) t = j; }\n"
      "}",
      "", conflict_error("6:28", ": values 0 and 1"));
}

// Statements whose stores the link cannot prove unique to their lanes
// (docs/VM.md "Linking and execution") keep the §3.4 check, and raise the
// walk's text on every engine: an axis used twice, an axis missing, two
// puts to one root (through two slices, or one array passed twice), and
// an element a seq or the parent binds.
TEST(EngineParity, CommitUnprovenStoresStillConflict) {
  const std::string ij =
      "index_set I:i = {0..3}, J:j = I;\n"
      "int c[4][4], r[4];\n";
  expect_commit(ij + "void main() { par (I, J) c[i][i] = j; }", "",
                conflict_error("3:26", " to c[0][0]: values 0 and 1"));
  expect_commit(ij + "void main() { par (I, J) r[i] = j; }", "",
                conflict_error("3:26", " to r[0]: values 0 and 1"));
  expect_commit(ij + "void main() { par (I) seq (J) r[j] = i; }", "",
                conflict_error("3:31", " to r[0]: values 0 and 1"));
  expect_commit(ij + "void main() { par (I) *solve (J) r[j] = i; }", "",
                conflict_error("3:34", " to r[0]: values 0 and 1"));
  const std::string f =
      "index_set I:i = {0..3};\n"
      "int a[4], m[2][4];\n"
      "void f(int x[4], int y[4]) { par (I) x[i] = (y[i] = i) + 1; }\n";
  expect_commit(f + "void main() { f(m[1], m[1]); }", "",
                conflict_error("3:38", " to m[1][0]: values 0 and 1"));
  expect_commit(f + "void main() { f(a, a); }", "",
                conflict_error("3:38", " to a[0]: values 0 and 1"));
  // Two slices of one root, or the parent's axis and a seq-bound one:
  // nothing conflicts.
  expect_commit(f + "void main() { f(m[0], m[1]); print(m[0][3], m[1][3]); }",
                "4 3\n");
  expect_commit(ij +
                    "void main() {\n"
                    "  par (I) *solve (J) c[i][j] = i + j;\n"
                    "  seq (J) par (I) c[i][j] = c[i][j] + 1;\n"
                    "  print($+(I, J; c[i][j]));\n"
                    "}",
                "64\n");
}

// --- the lane-block executor (docs/VM.md "Linking and execution") ---

std::string fmt_g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

// Lane counts around the executor's 64-lane block: one lane, one short of
// a block, exactly one, one past it, and several blocks with a tail.  The
// second statement's mixed-type ?: (float 1.5 or int i) converts i to
// float, so the / 2 that follows divides doubles.
TEST(EngineParity, BlockLaneCountsAroundTheBlockSize) {
  for (const int n : {1, 63, 64, 65, 300}) {
    SCOPED_TRACE("lanes=" + std::to_string(n));
    const std::string N = std::to_string(n);
    std::int64_t sum_a = 0;
    std::int64_t last_a = 0;
    double sum_f = 0.0;
    for (int i = 0; i < n; ++i) {
      last_a = ((i % 3 == 0 && i > 5) || i % 7 == 1) ? i * 2 : -i;
      sum_a += last_a;
      sum_f += i % 2 == 0 ? i / 4.0 : (i > 10 ? 1.5 : double(i)) / 2;
    }
    expect_commit(
        "index_set I:i = {0.." + std::to_string(n - 1) + "};\n"
        "int a[" + N + "]; float f[" + N + "];\n"
        "void main() {\n"
        "  par (I) a[i] = ((i % 3 == 0 && i > 5) || i % 7 == 1) ? i * 2 : -i;\n"
        "  par (I) f[i] = i % 2 == 0 ? i / 4.0 : (i > 10 ? 1.5 : i) / 2;\n"
        "  print($+(I; a[i]), $+(I; f[i]), a[" + std::to_string(n - 1) +
            "]);\n"
        "}",
        std::to_string(sum_a) + " " + fmt_g(sum_f) + " " +
            std::to_string(last_a) + "\n");
  }
}

// &&, || and ?: whose outcome differs between lanes of one block; the
// lanes that skip a division must not raise its error.
TEST(EngineParity, BlockDivergentShortCircuitAndTernary) {
  std::int64_t sum = 0;
  std::int64_t v[100];
  for (int i = 0; i < 100; ++i) {
    v[i] = (i > 0 && 100 / i > 3 ? 1 : 0) +
           2 * (i == 0 || 50 % i == 0 ? 1 : 0) +
           4 * (i % 3 == 1 ? 9 / (i % 3) : i % 5);
    sum += v[i];
  }
  expect_commit(
      "index_set I:i = {0..99};\n"
      "int a[100];\n"
      "void main() {\n"
      "  par (I) a[i] = (i > 0 && 100 / i > 3) + 2 * (i == 0 || 50 % i == 0)\n"
      "                 + 4 * (i % 3 == 1 ? 9 / (i % 3) : i % 5);\n"
      "  print($+(I; a[i]), a[0], a[1], a[99]);\n"
      "}",
      std::to_string(sum) + " " + std::to_string(v[0]) + " " +
          std::to_string(v[1]) + " " + std::to_string(v[99]) + "\n");
}

// --- branch-free && and || (docs/VM.md "Selection blocks") ---
//
// A right operand built from literals, elements and scalars under
// operators other than / and % runs on every lane as one kBinary; any
// other keeps the short circuit.  Values are derived by hand in each
// comment.

// i / j > 1 keeps its branch: no lane with j == 0 divides.  On {0..7}^2,
// i / j >= 2 holds for i >= 2j: 6 + 4 + 2 lanes at j = 1, 2, 3, counted
// once by the guard and once by the expression.
TEST(EngineParity, GuardDividingRightOperandDoesNotRaise) {
  expect_commit(
      "index_set I:i = {0..7}, J:j = I;\n"
      "int a[8][8];\n"
      "void main() {\n"
      "  par (I, J) st (j != 0 && i / j > 1) a[i][j] = 1;\n"
      "  par (I, J) a[i][j] = a[i][j] + (j != 0 && i / j > 1);\n"
      "  print($+(I, J; a[i][j]));\n"
      "}",
      "24\n");
}

// -0.0 is false and NaN true, on either side: z * 2.0 + 0.0 is +0.0, -z is
// +0.0, nan != nan holds.  Lane 0 gets 4 + 8; lane 1 adds 64 + 128; lanes
// 2 and 3 get 2 + 8 + 16 + 64 + 128, and lane 3 also 256.
TEST(EngineParity, BranchFreeFloatOperandsNegativeZeroAndNaN) {
  expect_commit(
      "index_set I:i = {0..3};\n"
      "float z, nan;\n"
      "int a[4];\n"
      "void main() {\n"
      "  z = -0.0;\n"
      "  nan = 0.0 / 0.0;\n"
      "  par (I) a[i] = (i > 1 && z) + 2 * (i > 1 && nan) + 4 * (i < 2 || z)\n"
      "      + 8 * (i < 2 || nan) + 16 * (i > 1 && z * 2.0 + 0.0 == 0.0)\n"
      "      + 32 * (i > 0 && -z) + 64 * (i > 0 && nan != nan)\n"
      "      + 128 * (nan && i) + 256 * (z || i > 2);\n"
      "  print(a[0], a[1], a[2], a[3]);\n"
      "}",
      "12 204 218 474\n");
}

// Operands that wrap: big * 2 + i is i - 2, zero at lane 2; big + i is
// negative from lane 1; -(big + 1) is INT64_MIN; (big + 1) * i is 0 at
// lanes 0 and 2.
TEST(EngineParity, BranchFreeIntWrapOperands) {
  expect_commit(
      "index_set I:i = {0..3};\n"
      "int big;\n"
      "int a[4];\n"
      "void main() {\n"
      "  big = 9223372036854775807;\n"
      "  par (I) a[i] = (i >= 0 && big * 2 + i) + 2 * (i == 3 || big + i < 0)\n"
      "      + 4 * (i > 0 && -(big + 1) < 0) + 8 * (i < 3 && (big + 1) * i);\n"
      "  print(a[0], a[1], a[2], a[3]);\n"
      "}",
      "1 15 6 7\n");
}

// A negated && inside a guard: 63 lanes get 1, then the 7 x 7 lanes off
// row and column 7, less (0, 0), add 2: 63 + 2 * 48 = 159.
TEST(EngineParity, BranchFreeNestedNegation) {
  expect_commit(
      "index_set I:i = {0..7}, J:j = I;\n"
      "int a[8][8];\n"
      "void main() {\n"
      "  par (I, J) st (!(i==0 && j==0)) a[i][j] = 1;\n"
      "  par (I, J) st (!(i==0 && j==0) && !(i == 7 || j == 7))\n"
      "    a[i][j] = a[i][j] + 2;\n"
      "  print($+(I, J; a[i][j]), a[0][0], a[1][1], a[7][0]);\n"
      "}",
      "159 0 3 1\n");
}

// Stores that only some lanes of a block reach leave gaps in the block's
// lane-major write slots; the commit must see exactly the stores made.
TEST(EngineParity, BlockDivergentStores) {
  std::int64_t sum_b = 0, sum_c = 0, sum_d = 0;
  for (int i = 0; i < 100; ++i) {
    if (i % 3 == 0) sum_b += i * 2;
    sum_c += (i % 3 == 0 ? i * 2 : 1) + (i % 5 == 0 ? 1 : 0);
    if (i % 5 == 0) sum_d += 7;
  }
  expect_commit(
      "index_set I:i = {0..99};\n"
      "int b[100], c[100], d[100];\n"
      "void main() {\n"
      "  par (I) c[i] = (i % 3 == 0 ? (b[i] = i * 2) : 1)\n"
      "                 + (i % 5 == 0 && (d[i] = 7) > 0);\n"
      "  print($+(I; b[i]), $+(I; c[i]), $+(I; d[i]));\n"
      "}",
      std::to_string(sum_b) + " " + std::to_string(sum_c) + " " +
          std::to_string(sum_d) + "\n");
}

// st-guarded reductions with an others arm: which tuples fold the arm and
// which fold others differs from lane to lane inside every block.
TEST(EngineParity, BlockStGuardedReductionsWithOthers) {
  std::int64_t sum_a = 0, sum_b = 0, a_last = 0, b_198 = 0;
  for (int i = 0; i < 200; ++i) {
    std::int64_t a = 0, b = -(std::int64_t{1} << 40);
    for (int j = 0; j < 10; ++j) {
      a += (j < i % 7 && (i + j) % 3 != 0) ? j * 2 : 100;
      b = std::max<std::int64_t>(b, (i * j) % 5 == 1 ? (i + j) % 17 : -1);
    }
    sum_a += a;
    sum_b += b;
    if (i == 199) a_last = a;
    if (i == 198) b_198 = b;
  }
  expect_commit(
      "index_set I:i = {0..199}, J:j = {0..9};\n"
      "int a[200], b[200];\n"
      "void main() {\n"
      "  par (I) a[i] = $+(J st (j < i % 7 && (i + j) % 3 != 0) j * 2\n"
      "                    others 100);\n"
      "  par (I) b[i] = $>(J st ((i * j) % 5 == 1) (i + j) % 17 others -1);\n"
      "  print($+(I; a[i]), $+(I; b[i]), a[199], b[198]);\n"
      "}",
      std::to_string(sum_a) + " " + std::to_string(sum_b) + " " +
          std::to_string(a_last) + " " + std::to_string(b_198) + "\n");
}

// Two stores per lane, to elements chosen so lane order and instruction
// order find different conflicts: lanes 0 and 1 write a[0]=1, a[1]=2 and
// a[1]=3, a[0]=4.  In lane order a[1] first gets 2 and then 3; executed
// store by store it would get 3 first.
TEST(EngineParity, BlockWritesCommitInLaneOrder) {
  expect_commit(
      "index_set I:i = {0..99};\nint a[100];\n"
      "void main() { par (I) a[i < 2 ? 1 - i : i] = (a[i] = 2 * i + 1) + 1; }",
      "", conflict_error("3:47", " to a[1]: values 2 and 3"));
}

// A store inside a reduction's tuple loop (nine tuples) gives a lane no
// bound on its writes; such kernels run one lane per block and still
// commit in order.  Unrolled (five tuples), the copies' stores are
// bounded again and the lanes run in full blocks.
TEST(EngineParity, BlockStoresInsideAReduction) {
  const auto src = [](const char* last) {
    return std::string("index_set I:i = {0..99}, J:j = {0..") + last +
           "};\n"
           "int a[100], b[100];\n"
           "void main() {\n"
           "  par (I) a[i] = $+(J; b[i] = i + 1) + i;\n"
           "  print($+(I; a[i]), $+(I; b[i]), a[99], b[99]);\n"
           "}";
  };
  expect_commit(src("8"), "50400 5050 999 100\n");
  expect_commit(src("4"), "30200 5050 599 100\n");
}

// Two rand() draws per lane in one fused body: each lane keeps its own
// stream, reseeded at the member boundary, whatever the block does.
TEST(EngineParity, BlockRandStreamsInAFusedBody) {
  expect_commit(
      "index_set I:i = {0..199};\n"
      "int a[200], b[200];\n"
      "void main() {\n"
      "  par (I) {\n"
      "    a[i] = rand() % 1000;\n"
      "    b[i] = (rand() % 1000) * 1000 + a[i];\n"
      "  }\n"
      "  print($+(I; a[i]), $+(I; b[i]), b[0], b[199]);\n"
      "}",
      "97716 96899716 452020 697875\n");
}

// C's conversions (docs/LANGUAGE.md "Conversions"): a ?: converts the arm
// it takes to the ternary's type, and swap() converts each value to the
// other operand's type, on the front end, in lanes and in a reduction
// arm.  Every engine computes what C computes, charged the same.
TEST(EngineParity, ConversionsAtTernaryAndSwap) {
  double sum_a = 0.0, sum_c = 0.0, sum_r = 0.0;
  for (int i = 0; i < 70; ++i) {
    const double t = i;  // float t = (float)i after swap(t, x)
    sum_a += (t + 1) / 2;
    sum_c += (i % 3 == 0 ? double(i) : 1.5) / 2;
    sum_r += i % 2 == 0 ? double(i) : 0.5;
  }
  expect_commit(
      "index_set I:i = {0..69};\n"
      "float a[70], c[70]; int y[70];\n"
      "void main() {\n"
      "  int k = 1; float x = 1.5; int z = 7;\n"
      "  print((k ? 7 : 2.0) / 2);\n"
      "  swap(x, z);\n"
      "  print(x / 2, z);\n"
      "  par (I) { float t; int x; x = i; swap(t, x); a[i] = (t + 1) / 2;"
      " y[i] = x; }\n"
      "  par (I) c[i] = (i % 3 == 0 ? i : 1.5) / 2;\n"
      "  print(a[0], a[3], a[69], $+(I; a[i]), $+(I; c[i]), $+(I; y[i]));\n"
      "  print($+(I; i % 2 == 0 ? i : 0.5));\n"
      "}",
      "3.5\n3.5 1\n0.5 2 35 " + fmt_g(sum_a) + " " + fmt_g(sum_c) +
          " 0\n" + fmt_g(sum_r) + "\n");
}

// The constant folder keeps a ?: whose surviving arm has another type, or
// rewrites a literal arm in the ternary's type: (1 ? 7 : 2.0) is 7.0.
TEST(EngineParity, ConstantFoldedTernaryConverts) {
  const std::string src =
      "int k;\n"
      "void main() { float y = 2.5; k = 1;\n"
      "  print((1 ? 7 : 2.0) / 2, (0 ? 2.0 : k) / 2, (1 ? k : y) / 2); }";
  expect_commit(src, "3.5 0.5 0.5\n", {}, /*fold=*/true);
  expect_commit(src, "3.5 0.5 0.5\n");
}

// INT64_MIN / -1 overflows in C and traps on x86; UC wraps it like
// INT64_MIN * -1 (support::wrap_div), and % -1 gives 0, on the front end,
// in lanes (constant and register divisors), through /= and %=, and in
// the constant folder.
TEST(EngineParity, Int64MinDividedByMinusOneWraps) {
  const std::string src =
      "index_set I:i = {0..69};\n"
      "int q[70], r[70], s[70], t[70];\n"
      "void main() {\n"
      "  int lo = 0 - 9223372036854775807 - 1; int m = 0 - 1;\n"
      "  print(lo / m, lo % m);\n"
      "  print((0 - 9223372036854775807 - 1) / (0 - 1),\n"
      "        (0 - 9223372036854775807 - 1) % (0 - 1));\n"
      "  int c = lo; c /= m; int d = lo; d %= m; print(c, d);\n"
      "  par (I) { q[i] = lo; r[i] = lo; }\n"
      "  par (I) { s[i] = q[i] / (i - i - 1); t[i] = q[i] % (0 - 1); }\n"
      "  par (I) { q[i] /= (i - i - 1); r[i] %= m; }\n"
      "  print(s[0], s[69], t[7], q[3], r[5]);\n"
      "}";
  const std::string lo = "-9223372036854775808";
  const std::string out = lo + " 0\n" + lo + " 0\n" + lo + " 0\n" + lo +
                          " " + lo + " 0 " + lo + " 0\n";
  expect_commit(src, out);
  expect_commit(src, out, {}, /*fold=*/true);
}

// Within one block, an earlier lane's error at a later instruction wins
// over a later lane's error at an earlier one: the first lane in lane
// order reports, as when lanes run one at a time.
TEST(EngineParity, BlockErrorPrecedence) {
  // Lanes 90 (mod) and 130 (div) sit in different blocks.
  expect_commit(
      "index_set I:i = {0..199};\nint a[200];\n"
      "void main() { par (I) a[i] = 100 / (i - 130) + 7 % (i - 90); }",
      "", "program.uc:3:48: modulo by zero");
  // Lane 40 divides by zero before lane 20 reaches its modulo.
  expect_commit(
      "index_set I:i = {0..63};\nint a[64];\n"
      "void main() { par (I) a[i] = 100 / (i - 40) + 7 % (i - 20); }",
      "", "program.uc:3:47: modulo by zero");
  // Lane 50's subscript is out of range before lane 47 divides by zero.
  expect_commit(
      "index_set I:i = {0..99};\nint a[100], b[100];\n"
      "void main() { par (I) a[i] = b[i == 50 ? 500 : i] + 10 / (i - 47); }",
      "", "program.uc:3:53: integer division by zero");
  expect_commit(
      "index_set I:i = {0..99};\nint a[100], b[100];\n"
      "void main() { par (I) a[i] = b[i == 44 ? 500 : i] + 10 / (i - 47); }",
      "", "program.uc:3:30: array subscript out of range: b[500]");
  // Selection blocks (docs/VM.md "Selection blocks"): a guard runs over
  // every lane before its body runs, so lane 50's guard error wins over
  // lane 20's body error, although the block's merged kernel reaches
  // lane 20's body first.
  expect_commit(
      "index_set I:i = {0..63};\nint a[64];\n"
      "void main() { par (I) st (100 / (i - 50) > -1000) a[i] = 7 % (i - 20); }",
      "", "program.uc:3:27: integer division by zero");
  // The same in a single-block *par, with the two lanes in different
  // blocks of 64.
  expect_commit(
      "index_set I:i = {0..199};\nint a[200];\n"
      "void main() { *par (I) st (a[i] == 0 && 100 / (i - 130) > -1000) "
      "a[i] = 7 % (i - 20) + 1; }",
      "", "program.uc:3:41: integer division by zero");
  // Without a guard error, the body's error stands.
  expect_commit(
      "index_set I:i = {0..63};\nint a[64];\n"
      "void main() { par (I) st (100 / (i + 1) > -1000) a[i] = 7 % (i - 20); }",
      "", "program.uc:3:57: modulo by zero");
}

// --- arrays declared in calls made from lanes ---

// Every lane's call declares an array, which allocates machine storage;
// those lanes run on the issuing thread.  When pool workers ran them, this
// program aborted with "double free or corruption" in about one run of 30
// at 4 host threads.
TEST(EngineParity, CallLocalArraysOnFourThreads) {
  const std::string src =
      "index_set I:i = {0..4095}; int out[4096];\n"
      "int g(int v) { int t[3]; t[0] = v; t[1] = v + 1; t[2] = v * 2;"
      " return t[0] + t[1] + t[2]; }\n"
      "void main() { par (I) out[i] = g(i); print($+(I; out[i])); }\n";
  for (const auto& c : kEngineConfigs) {
    SCOPED_TRACE(c.label);
    cm::MachineOptions mopts;
    mopts.host_threads = 4;
    ExecOptions eopts;
    eopts.engine = c.engine;
    for (int rep = 0; rep < 10; ++rep) {
      EXPECT_EQ(run_uc(src, mopts, eopts).output(), "33550336\n");
    }
  }
}

// A call's return value belongs to its frame: lanes on different pool
// workers return from calls at the same time (ThreadSanitizer reported
// the VM-wide return slot they shared), and a call that executes no
// return yields 0, not the value of the last call it made.
TEST(EngineParity, CallsFromLanesOnFourThreads) {
  expect_commit(
      "index_set I:i = {0..4095}; int out[4096];\n"
      "int g(int v) { int s; s = v * 3 + 1; return s; }\n"
      "int f(int v) { int x; x = g(v); }\n"
      "void main() { par (I) out[i] = g(i) + f(i); print($+(I; out[i])); }\n",
      "25163776\n");
}

// A solve equation's lanes run on the pool like a par statement's, and
// each prints into its own buffer, flushed in lane order after the
// round's commit.  When they printed into the VM's output directly, this
// program aborted with "double free or corruption" at 4 host threads on
// every engine.  The output is the lane-ordered text 1 thread printed
// then.
TEST(EngineParity, SolveEquationPrintsOnFourThreads) {
  std::string output;
  for (int k = 0; k < 4096; ++k) output += "lane " + std::to_string(k) + "\n";
  output += "8386560\n";
  expect_commit(
      "index_set I:i = {0..4095}; int a[4096];\n"
      "int f(int x) { print(\"lane\", x); return x; }\n"
      "void main() { solve (I) a[i] = f(i); print($+(I; a[i])); }\n",
      output);
}

// --- read classification (docs/VM.md "Read classification") ---
//
// Under the default layout the compiled engines classify a read from its
// subscripts against the lane's coordinates; the walk keeps the owner
// table.  Every program here must charge the same on every engine, and
// print the output and cycles the table-only classifier produced.

// Every engine against the walk, then the walk's own output and cycles.
void expect_parity_and(const std::string& src, const std::string& output,
                       std::uint64_t cycles,
                       const std::vector<std::string>& globals = {},
                       const cm::MachineOptions& mopts = {},
                       const ExecOptions& eopts = {}) {
  expect_parity(src, globals, mopts, eopts);
  const RunResult walk = run_with(src, ExecEngine::kWalk, mopts, eopts);
  EXPECT_EQ(walk.output(), output);
  EXPECT_EQ(walk.stats().cycles, cycles);
}

// Lane coordinates are positions in the index set, subscripts are its
// values: {3, 0, 2, 1} puts value 3 at position 0.
TEST(EngineParity, ReadClassificationValuesDifferFromPositions) {
  expect_parity_and(
      "index_set P:p = {3, 0, 2, 1};\n"
      "int a[4], b[4];\n"
      "void main() {\n"
      "  par (P) a[p] = p * 10;\n"
      "  par (P) b[p] = a[p] + a[(p + 1) % 4];\n"
      "  print(b[0], b[1], b[2], b[3]);\n"
      "}\n",
      "10 30 50 30\n", 212, {"a", "b"});
}

// A single-axis read `hops` away takes NEWS while hops * news_op <=
// router_op, and the router one hop further.
TEST(EngineParity, ReadClassificationNewsRouterThreshold) {
  const cm::CostModel cost;
  const auto limit = static_cast<std::int64_t>(cost.router_op / cost.news_op);
  const std::int64_t n = 2 * limit + 8;
  for (const std::int64_t hops : {limit, limit + 1}) {
    SCOPED_TRACE("hops=" + std::to_string(hops));
    const std::string src =
        "#define N " + std::to_string(n) + "\n#define H " +
        std::to_string(hops) +
        "\n"
        "index_set I:i = {0..N-1};\n"
        "int a[N], b[N], c[N];\n"
        "void main() {\n"
        "  par (I) a[i] = i;\n"
        "  par (I) st (i + H < N) b[i] = a[i + H];\n"
        "  par (I) st (i >= H) c[i] = a[i - H];\n"
        "  print($+(I; b[i] - c[i]));\n"
        "}\n";
    expect_parity(src, {"b", "c"});
    for (const auto& c : kEngineConfigs) {
      SCOPED_TRACE(c.label);
      const cm::CostStats st = run_with(src, c.engine).stats();
      if (hops == limit) {
        EXPECT_EQ(st.router_messages, 0u);
        EXPECT_EQ(st.news_ops, 2u);
      } else {
        EXPECT_EQ(st.router_messages, static_cast<std::uint64_t>(2 * (n - hops)));
        EXPECT_EQ(st.news_ops, 0u);
      }
    }
  }
}

// Local, one differing axis (each of the three) and two differing axes.
TEST(EngineParity, ReadClassificationThreeDimensions) {
  expect_parity_and(
      "index_set I:i = {0..3}, J:j = {0..4}, K:k = {0..5};\n"
      "int a[4][5][6], b[4][5][6];\n"
      "void main() {\n"
      "  par (I, J, K) a[i][j][k] = i * 100 + j * 10 + k;\n"
      "  par (I, J, K) b[i][j][k] = a[i][j][k] + a[(i + 1) % 4][j][k] +\n"
      "      a[i][(j + 2) % 5][k] + a[i][j][(k + 5) % 6] +\n"
      "      a[(i + 1) % 4][(j + 1) % 5][k];\n"
      "  print($+(I, J, K; b[i][j][k]));\n"
      "}\n",
      "103500\n", 1092, {"b"});
}

// Reduce sites: c's shape is the lane dims [4] plus the reduce set [16],
// so the arm's reads are classified against the expanded coordinates.  The
// second reduction is partition-optimised (paper §4): its reads are paid
// for by the send-with-combine and not classified at all.
TEST(EngineParity, ReadClassificationAtReduceSites) {
  expect_parity_and(
      "index_set I:i = {0..3}, J:j = {0..15};\n"
      "int c[4][16], r[4], q[4];\n"
      "void main() {\n"
      "  par (I, J) c[i][j] = i * 16 + j;\n"
      "  par (I) r[i] = $+(J; c[i][j] + c[(i + 1) % 4][j] +\n"
      "      c[i][(j + 3) % 16] + c[(i + 2) % 4][(j + 1) % 16]);\n"
      "  par (I) q[i] = $+(J st (j % 4 == i) c[0][j]);\n"
      "  print(r[0], r[1], r[2], r[3], q[0], q[1], q[2], q[3]);\n"
      "}\n",
      "1248 2272 2272 2272 24 28 32 36\n", 1852, {"r", "q"});
}

// Arrays off the default layout take the owner table: a permuted and a
// folded array (map sections move elements), and a slice view, whose
// element e lives on its root's VP offset + e.
TEST(EngineParity, ReadClassificationMappedArraysAndSlicesUseTheTable) {
  expect_parity_and(
      "#define N 16\n"
      "index_set I:i = {0..N-1}, H:h = {0..N/2-1};\n"
      "int a[N], b[N], f[N], s[N];\n"
      "map (I) { permute (I) b[N-1-i] :- a[i]; }\n"
      "map (H) { fold (H) f[N-1-h] :- f[h]; }\n"
      "void main() {\n"
      "  par (I) { a[i] = i; b[i] = 2 * i; f[i] = 3 * i; }\n"
      "  par (I) s[i] = b[N-1-i] + b[i] + f[N-1-i] + f[i];\n"
      "  print($+(I; s[i]));\n"
      "}\n",
      "1200\n", 2072, {"s"});
  expect_parity_and(
      "#define N 8\n"
      "index_set I:i = {0..N-1}, J:j = I;\n"
      "int m[N][N];\n"
      "void bump(int v[]) { par (J) v[j] = v[j] + v[(j + 1) % N]; }\n"
      "void main() {\n"
      "  par (I, J) m[i][j] = i * N + j;\n"
      "  bump(m[3]);\n"
      "  print($+(I, J; m[i][j]), m[3][0], m[3][7]);\n"
      "}\n",
      "2236 49 55\n", 954, {"m"});
}

// --- lane-relative sites (docs/VM.md "Lane-relative sites") ---
//
// A site whose subscripts are index elements plus constants is classified
// once at link when the lane space proves every lane alike.  Each program
// mixes such sites with ones the link must leave per lane, and must charge
// the walk's cycles on every engine at one and at four host threads.

void expect_lane_relative(const std::string& src, const std::string& output,
                          std::uint64_t cycles,
                          const std::vector<std::string>& globals = {}) {
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    cm::MachineOptions mopts;
    mopts.host_threads = threads;
    expect_parity_and(src, output, cycles, globals, mopts);
  }
}

// The statement space of a `seq` nested in a `par` is the seq's binding
// space: its dims are the par's [8] and its one element is j, which is on
// no lane axis.  a[j] is a per-lane read (NEWS from all lanes but one);
// b[i], bound one level up on axis 0, is local.  A `seq` over a `par`
// binds j above the par's space, again on no axis.
TEST(EngineParity, ReadClassificationSeqBindingStaysPerLane) {
  expect_lane_relative(
      "#define N 8\n"
      "index_set I:i = {0..N-1}, J:j = I;\n"
      "int a[N], b[N];\n"
      "void main() {\n"
      "  par (I) a[i] = i * i;\n"
      "  par (I) seq (J) b[i] = b[i] + a[j];\n"
      "  print($+(I; b[i]), b[0], b[7]);\n"
      "}\n",
      "1120 140 140\n", 978, {"a", "b"});
  expect_lane_relative(
      "#define N 8\n"
      "index_set I:i = {0..N-1}, J:j = I;\n"
      "int a[N], b[N];\n"
      "void main() {\n"
      "  par (I) a[i] = i * i;\n"
      "  seq (J) par (I) b[i] = b[i] + a[j] * (i + 1);\n"
      "  print($+(I; b[i]), b[0], b[7]);\n"
      "}\n",
      "5040 140 1120\n", 1074, {"a", "b"});
}

// Lane position t of {1..N} binds t + 1, so a[i-1] is the lane's own
// element and a[i] is one hop away.
TEST(EngineParity, ReadClassificationOneBasedSet) {
  expect_lane_relative(
      "#define N 16\n"
      "index_set I:i = {1..N}, K:k = {0..N-1};\n"
      "int a[N], b[N], c[N];\n"
      "void main() {\n"
      "  par (K) a[k] = k * 3;\n"
      "  par (I) b[i-1] = a[i-1] * 2;\n"
      "  par (I) st (i < N) c[i] = a[i] + a[i-1];\n"
      "  print($+(K; b[k]), $+(K; c[k]), c[1], c[15]);\n"
      "}\n",
      "720 675 3 87\n", 536, {"b", "c"});
}

// u[j][i] has bare elements for subscripts, but on the wrong axes: the
// link leaves it per lane, as it does the transposed store w[j][i].
TEST(EngineParity, ReadClassificationTransposed) {
  expect_lane_relative(
      "#define N 16\n"
      "index_set I:i = {0..N-1}, J:j = I;\n"
      "int u[N][N], t[N][N], w[N][N];\n"
      "void main() {\n"
      "  par (I, J) u[i][j] = i * N + j;\n"
      "  par (I, J) t[i][j] = u[j][i];\n"
      "  par (I, J) st (i > 0) w[j][i] = u[j][i-1] + t[i][j];\n"
      "  print($+(I, J; t[i][j] * (i + 1)), $+(I, J; w[i][j]), t[1][2],\n"
      "        w[3][4]);\n"
      "}\n",
      "282880 61200 33 103\n", 1924, {"t", "w"});
}

// Offsets at the NEWS limit and one past it, read on either axis and
// stored, all through the lane-relative path; two moved axes route.
TEST(EngineParity, ReadClassificationLaneRelativeNewsRouterLimit) {
  const cm::CostModel cost;
  const auto limit = static_cast<std::int64_t>(cost.router_op / cost.news_op);
  const std::int64_t n = limit + 6;
  for (const std::int64_t hops : {limit, limit + 1}) {
    SCOPED_TRACE("hops=" + std::to_string(hops));
    const std::string src =
        "#define N " + std::to_string(n) + "\n#define H " +
        std::to_string(hops) +
        "\n"
        "index_set I:i = {0..N-1}, J:j = I;\n"
        "int u[N][N], a[N][N], b[N][N], c[N][N];\n"
        "void main() {\n"
        "  par (I, J) u[i][j] = i * N + j;\n"
        "  par (I, J) st (i + H < N) a[i][j] = u[i + H][j];\n"
        "  par (I, J) st (j >= H) b[i][j - H] = u[i][j];\n"
        "  par (I, J) st (i >= H && j + 1 < N) c[i][j] = u[i - H][j + 1];\n"
        "  print($+(I, J; a[i][j] + b[i][j] + c[i][j]));\n"
        "}\n";
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      cm::MachineOptions mopts;
      mopts.host_threads = threads;
      expect_parity(src, {"a", "b", "c"}, mopts);
    }
    const std::uint64_t moved = static_cast<std::uint64_t>(n * (n - hops));
    const std::uint64_t diagonal =
        static_cast<std::uint64_t>((n - hops) * (n - 1));
    for (const auto& c : kEngineConfigs) {
      SCOPED_TRACE(c.label);
      const cm::CostStats st = run_with(src, c.engine).stats();
      if (hops == limit) {
        EXPECT_EQ(st.news_ops, 2u);
        EXPECT_EQ(st.router_messages, diagonal);
      } else {
        EXPECT_EQ(st.news_ops, 0u);
        EXPECT_EQ(st.router_messages, 2 * moved + diagonal);
      }
    }
  }
}

// i is bound one level up, on the inner space's axis 0.  Under
// par (J) par (I) the axes swap, and w[i][j] is per lane.
TEST(EngineParity, ReadClassificationNestedPar) {
  expect_lane_relative(
      "#define N 16\n"
      "index_set I:i = {0..N-1}, J:j = I;\n"
      "int u[N][N], v[N][N], w[N][N];\n"
      "void main() {\n"
      "  par (I) par (J) u[i][j] = i * N + j;\n"
      "  par (I) par (J) st (i > 0 && j < N-2) v[i][j] = u[i-1][j] + u[i][j+2];\n"
      "  par (J) par (I) w[i][j] = u[i][j] + 1;\n"
      "  print($+(I, J; v[i][j]), $+(I, J; w[i][j]), v[1][0], w[2][3]);\n"
      "}\n",
      "53550 32896 18 36\n", 1360, {"v", "w"});
}

// A set that is not a consecutive run binds values unrelated to the lane
// positions: p - 1 and p + 1 stay per lane.
TEST(EngineParity, ReadClassificationPermutedSet) {
  expect_lane_relative(
      "index_set P:p = {3, 0, 2, 1};\n"
      "int a[4], b[4], c[4];\n"
      "void main() {\n"
      "  par (P) a[p] = p * 10 + 1;\n"
      "  par (P) st (p > 0) b[p] = a[p - 1];\n"
      "  par (P) st (p < 3) c[p + 1] = a[p] + 1;\n"
      "  print(b[1], b[2], b[3], c[1], c[2], c[3]);\n"
      "}\n",
      "1 11 21 2 12 22\n", 372, {"a", "b", "c"});
}

// A permuted array and a slice take the owner table whatever their
// subscripts.
// Lanes off the array's shape (docs/VM.md "Lane-relative sites"): over
// {1..N-2} a lane is VP t and reads element t + 1 + c, so the link fixes
// a[m-1] local and a[m+1] and the stores routed; with a narrower trailing
// axis the class varies by lane and stays per lane.
TEST(EngineParity, ReadClassificationLaneRelativeOffTheArrayShape) {
  const std::string src =
      "#define N 8\n"
      "index_set I:i = {0..N-1}, J:j = I, M:m = {1..N-2};\n"
      "int a[N], r[N], u[N][N], t[N][N], w[N][N];\n"
      "void main() {\n"
      "  par (I) a[i] = i * i;\n"
      "  par (I, J) u[i][j] = i * N + j;\n"
      "  par (M) r[m] = a[m-1] + a[m+1];\n"
      "  par (M, J) t[m][j] = u[m-1][j] + u[m+1][j];\n"
      "  par (I, M) w[i][m] = u[i][m-1] + u[i][m];\n"
      "  print($+(I; r[i]), $+(I, J; t[i][j] + w[i][j]));\n"
      "}\n";
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    cm::MachineOptions mopts;
    mopts.host_threads = threads;
    expect_parity(src, {"r", "t", "w"}, mopts);
  }
}

TEST(EngineParity, ReadClassificationLaneRelativeSubscriptsOnTables) {
  expect_lane_relative(
      "#define N 16\n"
      "index_set I:i = {0..N-1}, J:j = I;\n"
      "int a[N], b[N], s[N];\n"
      "int m[N][N];\n"
      "map (I) { permute (I) b[N-1-i] :- a[i]; }\n"
      "void bump(int v[]) { par (J) st (j < N-1) v[j] = v[j] + v[j + 1]; }\n"
      "void main() {\n"
      "  par (I) { a[i] = i; b[i] = 2 * i; }\n"
      "  par (I) st (i > 0) s[i] = b[i - 1] + b[i];\n"
      "  par (I) st (i < N-1) b[i + 1] = s[i];\n"
      "  par (I, J) m[i][j] = i * N + j;\n"
      "  bump(m[3]);\n"
      "  print($+(I; s[i]), $+(I; b[i]), $+(I, J; m[i][j]), m[3][0]);\n"
      "}\n",
      "450 392 33480 97\n", 2732, {"s", "b", "m"});
}

// The last lane of the read a[i + 1] and the first of the store
// a[i - 1] are out of range: every engine raises the walk's error for
// that lane.
TEST(EngineParity, ReadClassificationLaneRelativeEdgeLaneErrors) {
  expect_error_parity(
      "#define N 8\n"
      "index_set I:i = {0..N-1};\n"
      "int a[N], b[N];\n"
      "void main() {\n"
      "  par (I) a[i] = i;\n"
      "  par (I) b[i] = a[i + 1];\n"
      "}\n",
      "program.uc:6:18: array subscript out of range: a[8]");
  expect_error_parity(
      "#define N 8\n"
      "index_set I:i = {0..N-1};\n"
      "int a[N];\n"
      "void main() { par (I) a[i - 1] = i; }\n",
      "program.uc:4:23: array subscript out of range: a[-1]");
}

// Offsets add in two's complement.  Lane t of W binds INT64_MIN + 1 + t,
// so w - INT64_MAX wraps to t + 2 (two hops) and w + INT64_MAX is t; the
// same constant on {0..7} puts every lane out of range.
TEST(EngineParity, ReadClassificationOffsetWraps) {
  expect_lane_relative(
      "index_set W:w = {-9223372036854775807..-9223372036854775800};\n"
      "int a[8], b[8];\n"
      "void main() {\n"
      "  par (W) a[w + 9223372036854775807] = (w + 9223372036854775807) * 5;\n"
      "  par (W) st (w < -9223372036854775801)\n"
      "    b[w + 9223372036854775807] = a[w - 9223372036854775807];\n"
      "  print(b[0], b[1], b[5], b[6]);\n"
      "}\n",
      "10 15 35 0\n", 206, {"a", "b"});
  expect_error_parity(
      "index_set I:i = {0..7};\n"
      "int a[8], b[8];\n"
      "void main() { par (I) b[i] = a[i + 9223372036854775807]; }\n",
      "program.uc:3:30: array subscript out of range: a[9223372036854775807]");
}

// --- expansion reuse (docs/VM.md "Linking and execution") ---
//
// A nested construct keeps its expanded lane space across rounds when it
// was last built from the same parent build, index sets and lanes.  The
// expected output and cycles are those of a run that rebuilt every round.

// Lane-locals declared in the body start from their declaration again
// every round.
TEST(EngineParity, ExpansionReuseSeqNestedParWithLaneLocals) {
  expect_parity_and(
      "index_set K:k = {0..5}, I:i = {0..15};\n"
      "int a[16];\n"
      "void main() {\n"
      "  par (I) a[i] = i;\n"
      "  seq (K)\n"
      "    par (I) {\n"
      "      int t = a[i] * 2 + k;\n"
      "      int u;\n"
      "      if (i % 3 == k % 3) u = 100;\n"
      "      a[i] = (t + u) % 97;\n"
      "    }\n"
      "  print($+(I; a[i] * (i + 1)), a[0], a[15]);\n"
      "}\n",
      "6578 68 58\n", 1010, {"a"});
}

// A par nested in a *par sweep, whose enabled lanes shrink from sweep to
// sweep; a *solve, a par and a reduction in each seq round, one after
// another in the same leased space.
TEST(EngineParity, ExpansionReuseAcrossStarParSweepsAndSolveRounds) {
  expect_parity_and(
      "#define N 6\n"
      "index_set K:k = {0..2}, I:i = {0..N-1}, J:j = I, D:dir = {0..1};\n"
      "int g[N][N], a[N], c[N][N];\n"
      "void main() {\n"
      "  par (I) a[i] = i % 4;\n"
      "  par (I, J) c[i][j] = 0;\n"
      "  *par (I) st (a[i] < 5) {\n"
      "    par (J) c[i][j] = c[i][j] + a[i] * (j + 1);\n"
      "    a[i] = a[i] + 1;\n"
      "  }\n"
      "  seq (K) {\n"
      "    par (I, J) st (i == 0 && j == 0) g[i][j] = k;\n"
      "      others g[i][j] = 1000;\n"
      "    *solve (I, J)\n"
      "      st (!(i == 0 && j == 0))\n"
      "        g[i][j] = min(1000, 1 + $<(D st (i - dir >= 0 &&\n"
      "                                         j - (1 - dir) >= 0)\n"
      "                                     g[i - dir][j - (1 - dir)]));\n"
      "    par (I) a[i] = a[i] + g[i][N - 1];\n"
      "  }\n"
      "  print($+(I, J; c[i][j]), $+(I, J; g[i][j]), $+(I; a[i]));\n"
      "}\n",
      "1176 252 183\n", 35492, {"a", "c", "g"});
}

// seq -> par -> seq -> par: the inner par's parent is a fresh binding
// space on every outer round.  And two nested par (J) whose parents have
// the same lane count but different shapes, [6] and [2][3], lease the same
// space one after the other.
TEST(EngineParity, ExpansionReuseChainsParentBuilds) {
  expect_parity_and(
      "index_set K:k = {0..2}, I:i = {0..3}, L:l = {0..1}, J:j = {0..4};\n"
      "int a[4][5];\n"
      "void main() {\n"
      "  par (I, J) a[i][j] = i + j;\n"
      "  seq (K)\n"
      "    par (I)\n"
      "      seq (L)\n"
      "        par (J) a[i][j] = a[i][j] * 3 % 101 + k * 10 + l +\n"
      "            a[(i + 1) % 4][j] % 7;\n"
      "  print($+(I, J; a[i][j] * (i * 5 + j + 1)));\n"
      "}\n",
      "16533\n", 1062, {"a"});
  expect_parity_and(
      "index_set I:i = {0..5}, A:x = {0..1}, B:y = {0..2}, J:j = {0..3},\n"
      "          K:k = {0..1};\n"
      "int p[6][4], q[2][3][4];\n"
      "void main() {\n"
      "  seq (K) {\n"
      "    par (I) par (J) p[i][j] = i * 4 + j + k;\n"
      "    par (A, B) par (J)\n"
      "      q[x][y][j] = p[x * 3 + y][(j + 1) % 4] + q[x][(y + 1) % 3][j];\n"
      "  }\n"
      "  print($+(A, B, J; q[x][y][j]));\n"
      "}\n",
      "576\n", 1708, {"p", "q"});
}

// Router faults escalate to rollbacks in the middle of the seq rounds; the
// replayed rounds reuse the expansion they were restored into.
TEST(EngineParity, ExpansionReuseUnderRollbacksMidSeq) {
  const std::string src =
      "#define N 56\n"
      "index_set I:i = {0..N-1}, J:j = I, K:k = I;\n"
      "int d[N][N];\n"
      "void main() {\n"
      "  par (I, J) st (i == j) d[i][j] = 0;\n"
      "    others d[i][j] = (i * 7 + j * 13) % 31 + 1;\n"
      "  seq (K)\n"
      "    par (I, J)\n"
      "      st (d[i][k] + d[k][j] < d[i][j])\n"
      "        d[i][j] = d[i][k] + d[k][j];\n"
      "  print(\"checksum\", $+(I, J; d[i][j] * (i + 1)));\n"
      "}\n";
  expect_parity_and(src, "checksum 404609\n", 53358, {"d"});
  cm::MachineOptions mopts;
  mopts.faults = cm::parse_fault_spec("router:p=2e-3,seed=7,retries=1");
  ExecOptions eopts;
  eopts.checkpoint_every = 8;
  expect_parity_and(src, "checksum 404609\n", 67490, {"d"}, mopts, eopts);
  EXPECT_GT(run_with(src, ExecEngine::kWalk, mopts, eopts).stats().rollbacks,
            0u);
}

// --- int overflow (programs/int_wrap.uc) ---

TEST(EngineParity, IntOverflowWrapsTwosComplement) {
  const std::string src = corpus::source("int_wrap");
  const std::string expected =
      corpus::read(corpus::dir() / "int_wrap.expected");
  ASSERT_FALSE(src.empty());
  ASSERT_EQ(expected,
            "18 -24 0 6\n-4611686018427387904 4611686018427387904\n"
            "-9223372036854775808 9223372036854775807 -20 -32 -3 -4 "
            "-9223372036854775808 9223372036854775807\n"
            "-9223372036854775808 0\neq 0 gt 1\n");
  expect_commit(src, expected);
  expect_commit(src, expected, {}, /*fold=*/true);
}

// --- reduction unrolling (docs/VM.md "Reduction unrolling") ---
//
// A reduction over at most kMaxUnrolledTuples tuples runs as one
// straight-line copy of its arms per tuple.  The cases use 2048 lanes, so
// four host threads really split the lanes on every engine, native
// included (its grain is 1024 lanes), and pin the router and NEWS counts:
// a copy entering the wrong tuple, a read merged across copies or NEWS
// taken on a geometry mismatch each moves them.

// Every engine at 1 and at 4 host threads against the 1-thread walk, and
// the walk's output against `output`.  Returns the walk's stats.
cm::CostStats expect_unrolled_parity(const std::string& src,
                                     const std::string& output) {
  const RunResult ref = run_with(src, ExecEngine::kWalk);
  EXPECT_EQ(ref.output(), output);
  for (const auto& c : kEngineConfigs) {
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(c.label) + " threads=" +
                   std::to_string(threads));
      cm::MachineOptions mopts;
      mopts.host_threads = threads;
      const RunResult run = run_with(src, c.engine, mopts);
      EXPECT_EQ(ref.output(), run.output());
      EXPECT_EQ(ref.stats(), run.stats());
    }
  }
  return ref.stats();
}

// One, eight (unrolled) and nine (the loop) tuples.  c is 1-D, so no
// reduction's expanded geometry matches it: c[i * 8 + q] is the tuple's
// own VP (local) and c[i * 8 + (q + 1) % 8] routes, 8 messages a lane.
TEST(EngineParity, UnrolledTupleCounts) {
  const cm::CostStats st = expect_unrolled_parity(
      "#define N 2048\n"
      "index_set I:i = {0..N-1}, K:k = {0..9*N-1};\n"
      "index_set P:p = {5}, Q:q = {0..7}, U:u = {0..8};\n"
      "int c[9*N], r[N];\n"
      "void main() {\n"
      "  par (K) c[k] = (k * 7) % 13;\n"
      "  par (I) r[i] = $+(P; c[i] * p) +\n"
      "                 $+(Q; c[i * 8 + q] * q + c[i * 8 + (q + 1) % 8]) +\n"
      "                 $+(U; c[i * 9 + u] - u);\n"
      "  print($+(I; r[i]), r[0], r[N-1]);\n"
      "}\n",
      "540535 222 226\n");
  EXPECT_EQ(st.router_messages, 8u * 2048u);
  EXPECT_EQ(st.news_ops, 0u);
}

// Two sets (2 x 4 tuples) and a set whose values are not its positions:
// the copies bind values, the expanded coordinates are positions.  m's
// shape is the expanded geometry, so m[i][a][b] is local where b's value
// is its position (2) and one NEWS axis away elsewhere, and m[i][a][bp[b]]
// (bp maps a value to its position) is always local.  w, v and bp do not
// match it, so their accesses are local or routed, never NEWS.
TEST(EngineParity, UnrolledTwoSetsAndScatteredValues) {
  const cm::CostStats st = expect_unrolled_parity(
      "#define N 2048\n"
      "index_set I:i = {0..N-1}, K:k = {0..8*N-1};\n"
      "index_set A:a = {0..1}, B:b = {3, 0, 2, 1};\n"
      "int m[N][2][4], w[8*N], v[N][8], bp[4], r[N];\n"
      "void main() {\n"
      "  bp[3] = 0; bp[0] = 1; bp[2] = 2; bp[1] = 3;\n"
      "  par (I, A, B) m[i][a][b] = i + 10 * a + b;\n"
      "  par (K) w[k] = k % 5;\n"
      "  par (I, A, B) v[i][a * 4 + b] = a - b;\n"
      "  par (I) r[i] = $+(A, B; m[i][a][b] * (b + 1) +\n"
      "                         w[i * 8 + a * 4 + b] + v[i][a * 4 + b] +\n"
      "                         m[i][a][bp[b]]);\n"
      "  print($+(I; r[i]), r[0], r[N-1]);\n"
      "}\n",
      "59101182 197 57516\n");
  // w and v, read in the reduction, and v written from the (I, A, B)
  // lanes: local only where b's value is its position, 2 of 8 tuples.
  // bp[b]: local only at lane 0's tuple (0, position 2).
  EXPECT_EQ(st.router_messages, 3u * 6u * 2048u + 8u * 2048u - 1u);
}

// `others`, a guarded `$,` (first enabled tuple), and the logical
// reductions, each a copy per tuple with its per-tuple enabled state.
TEST(EngineParity, UnrolledOthersFirstEnabledAndLogical) {
  expect_unrolled_parity(
      "#define N 2048\n"
      "index_set I:i = {0..N-1}, D:dir = {0..3};\n"
      "int a[N], r[N], f[N], x[N];\n"
      "void main() {\n"
      "  par (I) a[i] = (i * 37) % 101;\n"
      "  par (I) r[i] = $+(D st (dir % 2 == i % 2) a[(i + dir) % N]\n"
      "                    st (dir == 3) 100\n"
      "                    others 0 - dir);\n"
      "  par (I) f[i] = $,(D st (a[(i + dir) % N] > 50) dir * 1000 + a[i]);\n"
      "  par (I) x[i] = $&&(D; a[(i + dir) % N] > 5) +\n"
      "                 2 * $||(D; a[(i + dir) % N] > 97) +\n"
      "                 4 * $^(D; a[(i * dir) % N]);\n"
      "  print($+(I; r[i]), $+(I; f[i]), $+(I; x[i]), f[0], x[1]);\n"
      "}\n",
      "406424 1422361 539360 2000 405\n");
}

// Float accumulators through -0.0 (1 / s[0] and 1 / p[3] print the sign),
// and a partition-optimised $+ whose reads the send-with-combine pays for.
TEST(EngineParity, UnrolledFloatAndPartitionOptimised) {
  expect_unrolled_parity(
      "#define N 2048\n"
      "index_set I:i = {0..N-1}, D:dir = {0..3};\n"
      "float g[N], s[N], p[N];\n"
      "int c[N], q[N];\n"
      "void main() {\n"
      "  par (I) g[i] = i % 3 == 0 ? -0.0 : (i % 5) * 0.5 - 1.0;\n"
      "  par (I) c[i] = i % 7;\n"
      "  par (I) s[i] = $+(D; dir == 0 ? -0.0 : g[i] * g[(i + dir) % N]);\n"
      "  par (I) p[i] = $*(D; g[(i + dir) % N] - 0.25 * dir);\n"
      "  par (I) q[i] = $+(D st (dir == i % 4) c[dir] * 2);\n"
      "  print($+(I; s[i]), $+(I; p[i]), $+(I; q[i]), 1.0 / s[0],\n"
      "        1.0 / p[3]);\n"
      "}\n",
      "-511.5 -74.7656 6144 inf -inf\n");
}

// a[i] and a[p[i]] do not depend on the element, so every copy computes
// the same values, but each tuple still reads (and routes) them, as the
// loop does: 3 reads x 4 tuples x 2048 lanes, less the three local reads
// of lane 0's first tuple (p[0], a[p[0]] = a[0] and a[0]).
TEST(EngineParity, UnrolledLoopInvariantReadsStayPerTuple) {
  const cm::CostStats st = expect_unrolled_parity(
      "#define N 2048\n"
      "index_set I:i = {0..N-1}, D:dir = {0..3};\n"
      "int a[N], p[N], r[N];\n"
      "void main() {\n"
      "  par (I) { a[i] = i % 9; p[i] = (i * 37) % N; }\n"
      "  par (I) r[i] = $+(D; a[p[i]] * dir + a[i]);\n"
      "  print($+(I; r[i]));\n"
      "}\n",
      "81820\n");
  EXPECT_EQ(st.router_messages, 3u * 4u * 2048u - 3u);
}

// Errors raised in the fourth copy carry the walk's text and site.
TEST(EngineParity, UnrolledCopyErrorsMatch) {
  expect_error_parity(
      "index_set I:i = {0..3}, D:dir = {0..3};\n"
      "int a[4][8], z[4];\n"
      "void main() {\n"
      "  par (I) a[i][i] = i;\n"
      "  par (I)\n"
      "    z[i] = $+(D; a[0][2 * dir + 2 * (dir == 3)]);\n"
      "}\n",
      "program.uc:6:18: array subscript out of range: a[0][8]");
  expect_error_parity(
      "index_set I:i = {0..3}, D:dir = {0..3};\n"
      "int z[4];\n"
      "void main() {\n"
      "  par (I) z[i] = i;\n"
      "  par (I)\n"
      "    z[i] = $+(D; (i + 12) / (3 - dir));\n"
      "}\n",
      "program.uc:6:19: integer division by zero");
}

// --- diagnostics parity: same text, same location, either engine ---

TEST(EngineParity, SubscriptErrorMatches) {
  expect_error_parity(
      "index_set I:i = {0..3};\n"
      "int d[4][4];\nvoid main() { par (I) d[i][i + 2] = 1; }");
}

TEST(EngineParity, DivisionByZeroErrorMatches) {
  expect_error_parity(
      "index_set I:i = {0..3};\n"
      "int a[4];\nvoid main() { par (I) a[i] = 8 / (i - 2); }");
}

TEST(EngineParity, WriteConflictErrorMatches) {
  expect_error_parity(
      "index_set I:i = {0..3};\n"
      "int a[4];\nvoid main() { par (I) a[0] = i; }");
}

TEST(EngineParity, Power2RangeErrorMatches) {
  expect_error_parity(
      "index_set I:i = {0..3};\n"
      "int a[4];\nvoid main() { par (I) a[i] = power2(63 + i); }");
}

// --- selection blocks (docs/VM.md "Selection blocks") ---

// The selection blocks the kernel engines' lane plan merges in `src`.
std::size_t merged_blocks(const std::string& src) {
  auto unit = lang::compile("program.uc", src);
  EXPECT_TRUE(unit->ok()) << unit->diags.render_all();
  cm::Machine machine;
  detail::Impl vm(*unit, machine, ExecOptions{});
  return vm.lane_plan_.selections.size();
}

// What a run shows: its output and CostStats, or its error text.
struct Outcome {
  std::string text;
  cm::CostStats stats;
};

Outcome outcome(const std::string& src, const cm::MachineOptions& mopts,
                const ExecOptions& eopts) {
  try {
    const RunResult r = run_uc(src, mopts, eopts);
    return {r.output(), r.stats()};
  } catch (const support::UcRuntimeError& e) {
    return {std::string("error: ") + e.what(), {}};
  }
}

// Every engine at 1 and 4 host threads shows what the walk shows at 1
// thread, which is returned.
Outcome expect_selection_parity(const std::string& src,
                                cm::MachineOptions mopts = {},
                                ExecOptions eopts = {}) {
  Outcome ref;
  for (const auto& c : kEngineConfigs) {
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(c.label) + " threads=" +
                   std::to_string(threads));
      mopts.host_threads = threads;
      eopts.engine = c.engine;
      Outcome got = outcome(src, mopts, eopts);
      if (c.engine == ExecEngine::kWalk && threads == 1) {
        ref = std::move(got);
        continue;
      }
      EXPECT_EQ(ref.text, got.text);
      EXPECT_EQ(ref.stats, got.stats);
    }
  }
  return ref;
}

// rand() in a guard and in its body: the merged kernel reseeds each
// lane's stream at the body with the body's statement id, as the body's
// own run would.
TEST(EngineParity, SelectionRandInGuardAndBody) {
  const std::string src =
      "index_set I:i = {0..199};\n"
      "int a[200], b[200];\n"
      "void main() {\n"
      "  par (I) st (rand() % 3 != 0) a[i] = rand() % 1000;\n"
      "  par (I) st (rand() % 2 == 0) {\n"
      "    a[i] = a[i] + rand() % 7;\n"
      "    b[i] = rand() % 5;\n"
      "  }\n"
      "  print($+(I; a[i]), $+(I; b[i]));\n"
      "}\n";
  EXPECT_EQ(merged_blocks(src), 2u);
  expect_selection_parity(src);
}

// A body whose reduction partitions its inputs (paper §4): its first
// execution's merged run already honours the partition decision, which
// the body's charge would set only after the run.
TEST(EngineParity, SelectionBodyReductionPartitions) {
  const std::string src =
      "index_set I:i = {0..15}, J:j = {0..199};\n"
      "int v[200], h[16];\n"
      "void main() {\n"
      "  par (J) v[j] = (j * 7) % 16;\n"
      "  par (I) st (i % 3 != 1) h[i] = $+(J st (v[j] == i) 1);\n"
      "  print($+(I; h[i] * i));\n"
      "}\n";
  EXPECT_EQ(merged_blocks(src), 1u);
  expect_selection_parity(src);
}

// A single-block *par and a *solve whose guard enables no lane: the body
// is neither charged nor committed, and the *par stops.
TEST(EngineParity, SelectionGuardEnablesNoLane) {
  const std::string src =
      "index_set I:i = {0..99};\n"
      "int a[100];\n"
      "void main() {\n"
      "  par (I) a[i] = i;\n"
      "  *par (I) st (a[i] > 500) a[i] = a[i] - 1;\n"
      "  *solve (I) st (a[i] > 1000) a[i] = 0;\n"
      "  *par (I) st (a[i] > 90) a[i] = a[i] - 1;\n"
      "  print($+(I; a[i]));\n"
      "}\n";
  EXPECT_EQ(merged_blocks(src), 3u);
  const Outcome ref = expect_selection_parity(src);
  EXPECT_EQ(ref.text, "4905\n");
}

// A guard with a side effect, a body holding a nested construct, an
// `others` arm, a multi-block *par and oneof stay unmerged, and run as
// before on every engine.
TEST(EngineParity, SelectionOnlyWhereTheGuardIsAMask) {
  const std::string src =
      "index_set I:i = {0..15}, J:j = {0..3};\n"
      "int a[16], b[16], m[16][4];\n"
      "void main() {\n"
      "  par (I) st ((b[i] = i % 3) > 0) a[i] = 1;\n"
      "  par (I) st (i % 2 == 0) { par (J) m[i][j] = i + j; }\n"
      "  par (I) st (i > 3) seq (J) m[i][j] = m[i][j] + j;\n"
      "  par (I) st (i > 7) a[i] = 2; others a[i] = 3;\n"
      "  *par (I) st (a[i] > 2) a[i] = a[i] - 1; st (b[i] > 1) b[i] = 0;\n"
      "  oneof (I) st (i < 4) b[i] = 9;\n"
      "  print($+(I; a[i]), $+(I; b[i]), $+(I, J; m[i][j]));\n"
      "}\n";
  EXPECT_EQ(merged_blocks(src), 0u);
  expect_selection_parity(src);
}

// A Fig 6 style guarded update through the router and a fused *solve
// body under router and NEWS faults with retries and checkpoints: the
// guard's and the body's charges each retry and roll back on their own,
// and a retry charges again without rerunning the lanes.
const char* kSelectionFaultSpec =
    "router:p=1e-3;news:p=1e-3,seed=7,retries=1";

std::string selection_fault_src() {
  return "#define N 24\n"
         "index_set I:i = {0..N-1}, J:j = I, K:k = I;\n"
         "int d[N][N], g[N][N];\n"
         "void main() {\n"
         "  par (I, J) st (i == j) d[i][j] = 0;\n"
         "    others d[i][j] = (i * 7 + j * 13) % 31 + 1;\n"
         "  seq (K)\n"
         "    par (I, J)\n"
         "      st (d[j][k] + d[k][i] < d[i][j])\n"
         "        d[i][j] = d[j][k] + d[k][i];\n"
         "  par (I, J) g[i][j] = INF;\n"
         "  *solve (I, J)\n"
         "    st (i + j > 0) {\n"
         "      g[i][j] = min(INF, d[i][j] + g[(i + N - 1) % N][j]);\n"
         "      d[i][j] = min(d[i][j], d[j][i]);\n"
         "    }\n"
         "  print($+(I, J; d[i][j]), $+(I, J; g[i][j] % 1000));\n"
         "}\n";
}

TEST(EngineParity, SelectionRetriesUnderFaultsAndCheckpoints) {
  const std::string src = selection_fault_src();
  EXPECT_EQ(merged_blocks(src), 2u);
  cm::MachineOptions mopts;
  mopts.faults = cm::parse_fault_spec(kSelectionFaultSpec);
  ExecOptions eopts;
  eopts.checkpoint_every = 8;
  const Outcome ref = expect_selection_parity(src, mopts, eopts);
  EXPECT_GT(ref.stats.retries, 0u);
  EXPECT_GT(ref.stats.rollbacks, 0u);
  EXPECT_GT(ref.stats.checkpoints, 0u);
}

// Runs `src` in a child process that the VM kills before statement
// `die_at`, leaving durable snapshots in eopts.checkpoint_dir.
void run_killed(const std::string& src, const cm::MachineOptions& mopts,
                ExecOptions eopts, std::uint64_t die_at) {
  eopts.die_at_statement = die_at;
  const pid_t pid = ::fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    try {
      run_uc(src, mopts, eopts);
    } catch (...) {
    }
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
}

// The same program killed mid-run and resumed from its newest durable
// snapshot: every engine at 1 and 4 threads resumes to the output and
// cycles of the uninterrupted run, and to the walk's resumed CostStats.
TEST(EngineParity, SelectionDieAtAndResume) {
  const std::string src = selection_fault_src();
  cm::MachineOptions mopts;
  mopts.faults = cm::parse_fault_spec(kSelectionFaultSpec);
  ExecOptions eopts;
  eopts.checkpoint_every = 8;
  const RunResult whole = run_uc(src, mopts, eopts);
  cm::CostStats ref;
  for (const auto& c : kEngineConfigs) {
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(c.label) + " threads=" +
                   std::to_string(threads));
      char dir[] = "/tmp/uc-selection-XXXXXX";
      ASSERT_NE(::mkdtemp(dir), nullptr);
      mopts.host_threads = threads;
      ExecOptions e = eopts;
      e.engine = c.engine;
      e.checkpoint_dir = dir;
      run_killed(src, mopts, e, 30);
      e.resume = true;
      const RunResult resumed = run_uc(src, mopts, e);
      std::filesystem::remove_all(dir);
      EXPECT_EQ(resumed.stats().resumes, 1u);
      EXPECT_EQ(whole.output(), resumed.output());
      EXPECT_EQ(whole.stats().cycles, resumed.stats().cycles);
      if (c.engine == ExecEngine::kWalk && threads == 1) {
        ref = resumed.stats();
      }
      EXPECT_EQ(ref, resumed.stats());
    }
  }
}

// --- the block runner (docs/VM.md "Selection blocks") ---

// Every engine at 1 and 4 threads prints `output` at `cycles`.
void expect_blocks(const std::string& src, const std::string& output,
                   std::uint64_t cycles) {
  const Outcome ref = expect_selection_parity(src);
  EXPECT_EQ(ref.text, output);
  EXPECT_EQ(ref.stats.cycles, cycles);
}

// A seq evaluates each tuple's guard once: `others` gets the lanes the
// guard left out, not the ones its body has since made false.
TEST(EngineParity, BlocksSeqOthersGetsTheLanesNoGuardEnabled) {
  expect_blocks(
      "index_set I:i = {0..3}, K:k = {0..1};\n"
      "int a[4], b[4];\n"
      "void main() {\n"
      "  par (I) a[i] = 1;\n"
      "  par (I) seq (K) st (a[i] > 0) a[i] = 0; others b[i] = b[i] + 1;\n"
      "  print(b[0], b[1], b[2], b[3]);\n"
      "}\n",
      "1 1 1 1\n", 230);
}

TEST(EngineParity, BlocksStarSeqOthersGetsTheLanesNoGuardEnabled) {
  expect_blocks(
      "index_set I:i = {0..3}, K:k = {0..1};\n"
      "int a[4], b[4];\n"
      "void main() {\n"
      "  par (I) a[i] = i;\n"
      "  par (I) *seq (K) st (a[i] > 0) a[i] = a[i] - 1;\n"
      "    others b[i] = b[i] + 1;\n"
      "  print(b[0], b[1], b[2], b[3]);\n"
      "}\n",
      "6 5 4 3\n", 536);
}

// A multi-block *par evaluates every guard before any body, and its last
// round, in which no guard enables a lane, runs no others.
TEST(EngineParity, BlocksStarParOthersSkipsTheLastRound) {
  expect_blocks(
      "index_set I:i = {0..5};\n"
      "int a[6], b[6];\n"
      "void main() {\n"
      "  par (I) a[i] = i;\n"
      "  *par (I) st (a[i] > 3) a[i] = a[i] - 1; st (a[i] == 1) a[i] = 0;\n"
      "    others b[i] = b[i] + 1;\n"
      "  print(b[0], b[1], b[2], b[3], b[4], b[5]);\n"
      "}\n",
      "2 1 2 2 1 0\n", 484);
}

// oneof runs one enabled block; others gets every lane outside it,
// including those the other block enabled.
TEST(EngineParity, BlocksOneofOthersGetsTheLanesOutsideTheChosenBlock) {
  const Outcome ref = expect_selection_parity(
      "index_set I:i = {0..5};\n"
      "int a[6];\n"
      "void main() {\n"
      "  oneof (I) st (i < 2) a[i] = 1; st (i >= 4) a[i] = 2;\n"
      "    others a[i] = 3;\n"
      "  print(a[0], a[1], a[2], a[3], a[4], a[5]);\n"
      "}\n");
  EXPECT_TRUE(ref.text == "1 1 3 3 3 3\n" || ref.text == "3 3 3 3 2 2\n")
      << ref.text;
}

}  // namespace
}  // namespace uc::vm
