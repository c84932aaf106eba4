// Tests for the mapping optimiser (docs/MAPPING.md): the dependence pass
// and its legality proofs, and the uc::optimize_map contract — every legal
// candidate is ranked by replaying it, a choice is kept only with
// bit-identical output and strictly fewer modeled cycles, and illegal
// candidates are reported blocked, never replayed.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "analysis/depend.hpp"
#include "analysis/optmap.hpp"
#include "analysis/pass.hpp"
#include "codegen/pretty.hpp"
#include "corpus.hpp"
#include "uc/uc.hpp"
#include "uclang/frontend.hpp"

namespace {

using uc::analysis::DependSummary;
using uc::analysis::Legality;
using uc::analysis::ProgramModel;

struct Modeled {
  std::unique_ptr<uc::lang::CompilationUnit> unit;
  ProgramModel model;
};

Modeled model_of(const std::string& source) {
  Modeled m;
  m.unit = uc::lang::compile("test.uc", source);
  EXPECT_TRUE(m.unit->ok()) << m.unit->diags.render_all();
  if (m.unit->ok()) m.model = uc::analysis::build_model(*m.unit);
  return m;
}

const uc::analysis::ArrayDep* dep_of(const DependSummary& dep,
                                     const Modeled&, const char* name) {
  for (const auto& [sym, d] : dep.arrays) {
    if (sym->name == name) return &d;
  }
  return nullptr;
}

// --- dependence pass and legality proofs ---------------------------------

TEST(Depend, ReversalPermuteIsBijectiveAndLegal) {
  auto m = model_of(R"(
    const int N = 8;
    index_set I:i = {0..N-1};
    int a[N];
    void main() {
      par (I) a[i] = i;
    }
  )");
  auto dep = uc::analysis::summarize_dependences(m.model);
  const auto* d = dep_of(dep, m, "a");
  ASSERT_NE(d, nullptr);
  Legality r = uc::analysis::prove_permute(*d, 8, -1, 7);
  EXPECT_TRUE(r.legal);
  EXPECT_NE(r.proof.find("bijection"), std::string::npos);
}

TEST(Depend, ShiftPermuteWithFullRangeWriteIsRejectedFailClosed) {
  // The canonical illegal candidate: pos(v) = v - 1 leaves two elements
  // sharing processor 6 (out of range targets keep their owner), and the
  // full-range parallel write then co-writes that pair.
  auto m = model_of(R"(
    const int N = 8;
    index_set I:i = {0..N-1};
    int a[N];
    void main() {
      par (I) a[i] = i;
    }
  )");
  auto dep = uc::analysis::summarize_dependences(m.model);
  const auto* d = dep_of(dep, m, "a");
  ASSERT_NE(d, nullptr);
  Legality r = uc::analysis::prove_permute(*d, 8, 1, -1);
  EXPECT_FALSE(r.legal);
  EXPECT_NE(r.blocker.find("write-write interference"), std::string::npos)
      << r.blocker;
}

TEST(Depend, ShiftPermuteWithoutCoWritesIsLegal) {
  // Only single (uniform) writes: no parallel step can write two
  // co-located elements, so the colliding shift placement is safe.
  auto m = model_of(R"(
    const int N = 8;
    index_set I:i = {0..N-1};
    int a[N], b[N];
    void main() {
      a[0] = 1;
      par (I) b[i] = a[i] + 1;
    }
  )");
  auto dep = uc::analysis::summarize_dependences(m.model);
  const auto* d = dep_of(dep, m, "a");
  ASSERT_NE(d, nullptr);
  Legality r = uc::analysis::prove_permute(*d, 8, 1, -1);
  EXPECT_TRUE(r.legal) << r.blocker;
  EXPECT_NE(r.proof.find("collides"), std::string::npos);
}

TEST(Depend, FoldLegalWhenAccessesStayInOneHalf) {
  auto m = model_of(R"(
    const int N = 8;
    index_set H:h = {0..N/2-1};
    int a[N], out[N/2];
    void main() {
      par (H) out[h] = a[h] + a[N-1-h];
    }
  )");
  auto dep = uc::analysis::summarize_dependences(m.model);
  const auto* d = dep_of(dep, m, "a");
  ASSERT_NE(d, nullptr);
  Legality r = uc::analysis::prove_fold(*d, 8);
  EXPECT_TRUE(r.legal) << r.blocker;
}

TEST(Depend, FoldRejectedWhenParallelStepWritesBothHalves) {
  auto m = model_of(R"(
    const int N = 8;
    index_set H:h = {0..N/2-1};
    int a[N];
    void main() {
      par (H) { a[h] = h; a[N-1-h] = h + 1; }
    }
  )");
  auto dep = uc::analysis::summarize_dependences(m.model);
  const auto* d = dep_of(dep, m, "a");
  ASSERT_NE(d, nullptr);
  Legality r = uc::analysis::prove_fold(*d, 8);
  EXPECT_FALSE(r.legal);
  EXPECT_NE(r.blocker.find("interference across the fold"),
            std::string::npos)
      << r.blocker;
}

TEST(Depend, FoldRejectedWhenAccessCrossesTheFold) {
  auto m = model_of(R"(
    const int N = 8;
    index_set I:i = {0..N-1};
    int a[N];
    void main() {
      par (I) a[i] = i;
    }
  )");
  auto dep = uc::analysis::summarize_dependences(m.model);
  const auto* d = dep_of(dep, m, "a");
  ASSERT_NE(d, nullptr);
  Legality r = uc::analysis::prove_fold(*d, 8);
  EXPECT_FALSE(r.legal);
  EXPECT_NE(r.blocker.find("crossing the fold"), std::string::npos)
      << r.blocker;
}

TEST(Depend, CopyRejectedOnDataDependentWrite) {
  auto m = model_of(R"(
    const int N = 8;
    index_set I:i = {0..N-1};
    int a[N], p[N];
    void main() {
      par (I) a[p[i]] = i;
    }
  )");
  auto dep = uc::analysis::summarize_dependences(m.model);
  const auto* d = dep_of(dep, m, "a");
  ASSERT_NE(d, nullptr);
  Legality r = uc::analysis::prove_copy(*d);
  EXPECT_FALSE(r.legal);
  EXPECT_NE(r.blocker.find("data-dependent"), std::string::npos)
      << r.blocker;
}

TEST(Depend, CopyLegalWithAffineWrites) {
  auto m = model_of(R"(
    const int N = 8;
    index_set I:i = {0..N-1};
    int a[N];
    void main() {
      par (I) a[i] = i;
    }
  )");
  auto dep = uc::analysis::summarize_dependences(m.model);
  const auto* d = dep_of(dep, m, "a");
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(uc::analysis::prove_copy(*d).legal);
}

// --- ranking by replay ---------------------------------------------------

// Floyd-Warshall shape: uniform (spread) reads of d inside seq (K);
// replication turns them local and the replay confirms the win.
TEST(Replay, Fig6StyleProgramPrefersReplication) {
  auto result = uc::optimize_map("fig6.uc",
                                 corpus::source("fig6_shortest_path_on2"));
  ASSERT_TRUE(result.improved) << result.text;
  ASSERT_EQ(result.choices.size(), 1u);
  EXPECT_EQ(result.choices[0].kind, "copy");
  EXPECT_EQ(result.choices[0].text, "copy (I) d");
  EXPECT_LT(result.optimized_cycles, result.baseline_cycles);
  EXPECT_NE(result.text.find("d: copy (I) d: " +
                             std::to_string(result.optimized_cycles) +
                             " modeled cycles"),
            std::string::npos)
      << result.text;
}

const char* const kBlockedFold = R"(
    const int N = 8;
    index_set I:i = {0..N-1}, H:h = {0..N/2-1}, T:t = {0..31};
    int a[N], out[N/2];
    void main() {
      par (H) { a[h] = h; a[N-1-h] = h + 1; }
      seq (T) {
        par (H) out[h] = out[h] + a[N-1-h];
      }
      print("out[0] = %d\n", out[0]);
    }
  )";

// The fold would make the router-class a[N-1-h] reads local, but the
// parallel step that writes both halves blocks it: the report lists it as
// blocked, with the dependence and its line, and no choice is a fold.
TEST(Replay, IllegalCandidatesAreCountedAndNeverChosen) {
  auto result = uc::optimize_map("fold.uc", kBlockedFold);
  ASSERT_TRUE(result.compiled);
  EXPECT_GT(result.candidates_blocked, 0u);
  EXPECT_NE(result.text.find("a: fold (H) a[7-h] :- a[h]: blocked by a "
                             "dependence (line 6): folded pair (0, 7)"),
            std::string::npos)
      << result.text;
  for (const auto& c : result.choices) {
    EXPECT_NE(c.kind, "fold") << "blocked fold escaped into the choice";
  }
}

// One-shot program: replicating `a` costs its relocation sweep and saves
// nothing, so the replay keeps the current (default) mapping.
TEST(Replay, SmallProgramKeepsCurrentMappings) {
  auto result = uc::optimize_map("tiny.uc", R"(
    const int N = 4;
    index_set I:i = {0..N-1};
    int a[N], b[N];
    void main() {
      par (I) a[i] = i;
      par (I) b[i] = a[i] + 1;
    }
  )");
  ASSERT_TRUE(result.compiled);
  EXPECT_FALSE(result.improved);
  EXPECT_TRUE(result.choices.empty());
  EXPECT_EQ(result.optimized_cycles, result.baseline_cycles);
  EXPECT_NE(result.text.find("a: copy (I) a: "), std::string::npos)
      << result.text;
}

// `ucc analyze` ranks no mappings: it reports interference and
// communication classes only, and never a UC-A3xx note.
TEST(Replay, AnalyzeGivesNoMappingAdvice) {
  for (const char* source :
       {kBlockedFold, "const int N = 8;\nindex_set I:i = {0..N-1};\n"
                      "int a[N];\nvoid main() { par (I) a[i] = i; }\n"}) {
    auto unit = uc::lang::compile("test.uc", source);
    ASSERT_TRUE(unit->ok()) << unit->diags.render_all();
    for (const auto& f : uc::analysis::run_default_analysis(*unit).findings) {
      EXPECT_NE(std::string(f.code).rfind("UC-A3", 0), 0u) << f.message;
    }
  }
  auto fig6 = uc::analyze("fig6.uc", corpus::source("fig6_shortest_path_on2"));
  EXPECT_EQ(fig6.text.find("UC-A3"), std::string::npos) << fig6.text;
}

// The replay runs the printed rewrite, so a float constant the printer
// rounded would change the output: both copy candidates are judged on
// cycles alone, never rejected for output.
TEST(Replay, PreciseFloatConstantSurvivesThePrintedRewrite) {
  auto result = uc::optimize_map("pi.uc", R"(
    index_set I:i = {0..15}, J:j = {0..15};
    float v[16];
    float m[16][16];
    void main() {
      par (I) v[i] = i * 3.14159265358979;
      par (I, J) m[i][j] = m[i][j] + v[j];
      print(m[0][15] * 1000000 - 47123889);
    }
  )");
  ASSERT_TRUE(result.compiled);
  EXPECT_EQ(result.text.find("output differs"), std::string::npos)
      << result.text;
  for (const char* cand : {"m: copy (I) m: ", "v: copy (I) v: "}) {
    EXPECT_NE(result.text.find(cand), std::string::npos) << result.text;
  }
}

// The corpus program on which a copy pays off: the chosen mapping is
// kept through the printed rewrite, whose float constant reads back to
// the same double, so the rewrite prints the same line in fewer cycles.
TEST(Replay, PreciseFloatConstantKeepsAPayingCopy) {
  const std::string source = corpus::source("float_copy");
  const auto result = uc::optimize_map("float_copy.uc", source);
  ASSERT_TRUE(result.compiled);
  ASSERT_TRUE(result.improved) << result.text;
  ASSERT_EQ(result.choices.size(), 1u) << result.text;
  EXPECT_EQ(result.choices[0].text, "copy (T) v");
  EXPECT_NE(result.optimized_source.find("3.14159265358979"),
            std::string::npos);
  const auto before = uc::Program::compile("float_copy.uc", source).run();
  const auto after =
      uc::Program::compile("rewrite.uc", result.optimized_source).run();
  EXPECT_EQ(after.output(), before.output());
  EXPECT_EQ(after.stats().cycles, result.optimized_cycles);
  EXPECT_LT(after.stats().cycles, before.stats().cycles);
}

TEST(Replay, NothingToGainListsNothingBlocked) {
  auto result = uc::optimize_map("one.uc", R"(
    const int N = 8;
    index_set I:i = {0..N-1};
    int a[N];
    void main() {
      par (I) a[i] = i;
    }
  )");
  ASSERT_TRUE(result.compiled);
  EXPECT_FALSE(result.improved);
  EXPECT_EQ(result.candidates_blocked, 0u);
  EXPECT_EQ(result.text.find("blocked by a dependence"), std::string::npos);
}

struct Replayed {
  std::string output;
  std::uint64_t cycles = 0;
};

Replayed run_source(const std::string& name, const std::string& source) {
  const auto run = uc::Program::compile(name, source).run();
  return {run.output(), run.stats().cycles};
}

// For every corpus program, the greedy choice replays no more cycles than
// any dependence-legal single-array candidate that keeps the output, and
// the emitted program reproduces the baseline output bit for bit.  The
// candidates are rewritten and run here, independently of optimize_map.
TEST(Replay, CorpusChoiceBeatsEverySingleCandidate) {
  for (const auto& path : corpus::programs()) {
    const std::string name = path.filename().string();
    SCOPED_TRACE(name);
    const std::string source = corpus::read(path);
    const auto result = uc::optimize_map(name, source);
    ASSERT_TRUE(result.compiled);
    const Replayed base = run_source(name, source);
    EXPECT_EQ(result.baseline_cycles, base.cycles);

    auto unit = uc::lang::compile(name, source);
    const auto plan =
        uc::analysis::plan_mappings(*unit, uc::analysis::build_model(*unit));
    std::uint64_t best_single = std::numeric_limits<std::uint64_t>::max();
    for (const auto& ap : plan.arrays) {
      for (const auto& cand : ap.candidates) {
        if (!cand.legal) continue;
        auto rewritten = uc::lang::compile(name, source);
        ASSERT_TRUE(uc::analysis::apply_choices(*rewritten, {cand.choice}))
            << cand.choice.text;
        const Replayed run = run_source(
            name, uc::codegen::print_program(*rewritten->program));
        if (run.output == base.output) {
          best_single = std::min(best_single, run.cycles);
        }
      }
    }
    EXPECT_LE(result.optimized_cycles, base.cycles);
    EXPECT_LE(result.optimized_cycles, best_single);
    if (result.improved) {
      const Replayed opt = run_source(name, result.optimized_source);
      EXPECT_EQ(opt.output, base.output);
      EXPECT_EQ(opt.cycles, result.optimized_cycles);
    } else {
      EXPECT_EQ(result.optimized_cycles, base.cycles);
    }
  }
}

// The programs where the static estimator this replaced got the direction
// wrong: three wins it never tried, and two predicted wins the replay
// refutes.  wavefront's copied `a` costs a broadcast (15 cycles) in each of
// its solve's 14 equation rounds, as a par write to a copied array does:
// 2192 + 210 = 2402.
TEST(Replay, ProgramsTheStaticEstimateMisjudged) {
  struct Case {
    const char* program;
    const char* choice;  // "" = keep the current mappings
    std::uint64_t baseline, optimized;
  };
  for (const Case& c : {Case{"odd_even_sort", "copy (I) x", 11212, 1627},
                        Case{"wavefront", "copy (I) a", 9548, 2402},
                        Case{"shortest_path_star_solve", "copy (I) d", 1876,
                             1336},
                        Case{"copy_broadcast", "", 881, 881},
                        Case{"reductions_tour", "", 1694, 1694}}) {
    SCOPED_TRACE(c.program);
    const auto result = uc::optimize_map(std::string(c.program) + ".uc",
                                         corpus::source(c.program));
    EXPECT_EQ(result.baseline_cycles, c.baseline);
    EXPECT_EQ(result.optimized_cycles, c.optimized);
    if (*c.choice == '\0') {
      EXPECT_FALSE(result.improved) << result.text;
    } else {
      ASSERT_EQ(result.choices.size(), 1u) << result.text;
      EXPECT_EQ(result.choices[0].text, c.choice);
    }
  }
  // The refuted predictions are replayed and rejected, with their cycles.
  const auto broadcast = uc::optimize_map(
      "copy_broadcast.uc", corpus::source("copy_broadcast"));
  EXPECT_NE(broadcast.text.find("v: identity: 3866 modeled cycles"),
            std::string::npos)
      << broadcast.text;
  const auto tour = uc::optimize_map("reductions_tour.uc",
                                     corpus::source("reductions_tour"));
  EXPECT_NE(tour.text.find("a: copy (I) a: 2294 modeled cycles"),
            std::string::npos)
      << tour.text;
}

// --- uc::optimize_map (emit + replay) ------------------------------------

TEST(OptimizeMap, Fig6ReplaysWithFewerCyclesAndIdenticalOutput) {
  auto result = uc::optimize_map("fig6.uc",
                                 corpus::source("fig6_shortest_path_on2"));
  ASSERT_TRUE(result.compiled);
  EXPECT_TRUE(result.improved);
  EXPECT_LT(result.optimized_cycles, result.baseline_cycles);
  EXPECT_NE(result.map_section.find("copy"), std::string::npos);
  ASSERT_FALSE(result.optimized_source.empty());

  // The rewritten program must itself compile and reproduce the output.
  auto again = uc::Program::compile("opt.uc", result.optimized_source);
  auto run = again.run();
  auto base = uc::Program::compile("base.uc",
                                   corpus::source("fig6_shortest_path_on2"))
                  .run();
  EXPECT_EQ(run.output(), base.output());
  EXPECT_LT(run.stats().cycles, base.stats().cycles);
}

TEST(OptimizeMap, NoImprovementLeavesProgramUntouched) {
  auto result = uc::optimize_map("tiny.uc", R"(
    const int N = 4;
    index_set I:i = {0..N-1};
    int a[N], b[N];
    void main() {
      par (I) a[i] = i;
      par (I) b[i] = a[i] + 1;
    }
  )");
  ASSERT_TRUE(result.compiled);
  EXPECT_FALSE(result.improved);
  EXPECT_TRUE(result.optimized_source.empty());
  EXPECT_TRUE(result.map_section.empty());
  EXPECT_NE(result.text.find("keep current mappings"), std::string::npos);
}

TEST(OptimizeMap, FrontEndErrorsReported) {
  auto result = uc::optimize_map("bad.uc", "void main() { goto x; }");
  EXPECT_FALSE(result.compiled);
  EXPECT_FALSE(result.text.empty());
}

TEST(OptimizeMap, JsonCarriesDecisionAndCycles) {
  auto result = uc::optimize_map("fig6.uc",
                                 corpus::source("fig6_shortest_path_on2"));
  ASSERT_TRUE(result.improved);
  const std::string json = result.json();
  EXPECT_NE(json.find("\"improved\": true"), std::string::npos);
  EXPECT_EQ(json.find("\"predicted\""), std::string::npos);
  EXPECT_EQ(json.find("\"validated\""), std::string::npos);
  EXPECT_NE(json.find("\"replay\": {\"baseline\": " +
                      std::to_string(result.baseline_cycles) +
                      ", \"optimized\": " +
                      std::to_string(result.optimized_cycles) + "}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"choices\""), std::string::npos);
  EXPECT_NE(json.find("copy (I) d"), std::string::npos);
}

// The replay compiles and runs the program as `ucc run` does under the
// same options, folding included, so the reported baseline is the cycle
// count a user reproduces with `ucc run --stats`, on every engine.
TEST(OptimizeMap, BaselineReplayIsTheRunCycleCount) {
  for (const char* name : {"fig8_grid_obstacle", "mapping_demo"}) {
    const std::string src = corpus::source(name);
    for (const auto engine :
         {uc::vm::ExecEngine::kWalk, uc::vm::ExecEngine::kBytecode,
          uc::vm::ExecEngine::kNative}) {
      SCOPED_TRACE(std::string(name) + " engine " +
                   std::to_string(static_cast<int>(engine)));
      uc::OptimizeMapOptions opts;
      opts.exec.engine = engine;
      opts.exec.native_cache_dir = ::testing::TempDir() + "uc_optmap_native";
      const auto result = uc::optimize_map(std::string(name) + ".uc", src,
                                           opts);
      ASSERT_TRUE(result.improved);
      const auto run = uc::Program::compile(std::string(name) + ".uc", src)
                           .run({}, opts.exec);
      EXPECT_EQ(result.baseline_cycles, run.stats().cycles);
      const auto emitted =
          uc::Program::compile("opt.uc", result.optimized_source)
              .run({}, opts.exec);
      EXPECT_EQ(result.optimized_cycles, emitted.stats().cycles);
    }
  }
}

TEST(OptimizeMap, ReplacesExistingMappingWhenBetter) {
  // mapping_demo ships a router-forcing permute; the optimiser must be
  // able to replace it (dropping the old map section for that array).
  auto result = uc::optimize_map("mapping_demo.uc",
                                 corpus::source("mapping_demo"));
  ASSERT_TRUE(result.compiled);
  EXPECT_TRUE(result.improved);
  EXPECT_LT(result.optimized_cycles, result.baseline_cycles);
}

}  // namespace
