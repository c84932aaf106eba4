// The profiling subsystem (docs/PROFILING.md): the per-site attribution
// invariant (site self-cost sums to the aggregate CostStats), cross-engine
// parity, the static-analysis join, and the rendered outputs.
#include "prof/profile.hpp"

#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "corpus.hpp"
#include "prof/report.hpp"
#include "uc/uc.hpp"

namespace uc {
namespace {

// A program that exercises every scope kind the VM attributes: par with an
// st/others split, seq nesting, a reduction, a solve, and front-end code.
const char* kMixedProgram =
    "#define N 8\n"
    "index_set I:i = {0..N-1}, J:j = I;\n"
    "int a[N], b[N], s;\n"
    "void main() {\n"
    "  par (I) st (i % 2 == 0) a[i] = i;\n"
    "    others a[i] = -i;\n"
    "  seq (J) par (I) b[i] = a[i] + j;\n"
    "  solve (I) { a[i] = b[i] + 1; }\n"
    "  s = $+(I; a[i]);\n"
    "  print(\"s =\", s);\n"
    "}\n";

ProfileResult profile_with(vm::ExecEngine engine, const char* source,
                           bool capture_trace = false) {
  auto program = Program::compile("prof.uc", source);
  ProfileOptions opts;
  opts.exec.engine = engine;
  opts.exec.native_cache_dir = ::testing::TempDir() + "uc_prof_native";
  opts.capture_trace = capture_trace;
  return program.profile(opts);
}

cm::CostStats sum_sites(const std::vector<prof::Site>& sites) {
  cm::CostStats sum;
  for (const auto& s : sites) sum += s.self;
  return sum;
}

TEST(Profiler, SiteSelfCostSumsToAggregateBytecode) {
  auto prof = profile_with(vm::ExecEngine::kBytecode, kMixedProgram);
  EXPECT_FALSE(prof.sites.empty());
  // Every counter, not just cycles: no charge may escape attribution.
  EXPECT_EQ(sum_sites(prof.sites), prof.run.stats());
}

TEST(Profiler, SiteSelfCostSumsToAggregateWalk) {
  auto prof = profile_with(vm::ExecEngine::kWalk, kMixedProgram);
  EXPECT_EQ(sum_sites(prof.sites), prof.run.stats());
}

TEST(Profiler, PerSiteCyclesIdenticalAcrossEngines) {
  // Every engine charges what the compiled kernels charge, so the
  // attribution is engine-independent site by site.
  auto walk = profile_with(vm::ExecEngine::kWalk, kMixedProgram);
  for (auto engine : {vm::ExecEngine::kBytecode, vm::ExecEngine::kNative}) {
    auto other = profile_with(engine, kMixedProgram);
    EXPECT_EQ(walk.run.output(), other.run.output());
    EXPECT_EQ(walk.run.stats(), other.run.stats());

    // Same sites in the same interning order with the same self cost; only
    // host wall time and the engine counters may differ.
    ASSERT_EQ(walk.sites.size(), other.sites.size());
    for (std::size_t k = 0; k < walk.sites.size(); ++k) {
      EXPECT_EQ(walk.sites[k].kind, other.sites[k].kind);
      EXPECT_EQ(walk.sites[k].line, other.sites[k].line);
      EXPECT_EQ(walk.sites[k].entries, other.sites[k].entries);
      EXPECT_EQ(walk.sites[k].self, other.sites[k].self)
          << walk.sites[k].kind << " at line " << walk.sites[k].line;
    }
  }
}

// Groups: each member statement keeps its own site, the per-site self
// costs still sum exactly to the aggregate CostStats, and the members are
// tagged as fused on every engine, the walk included (docs/VM.md
// "Fusion").
TEST(Profiler, FusedGroupsAttributeEveryMemberSite) {
  const char* fusable =
      "index_set I:i = {0..15};\n"
      "int a[16], b[16], c[16];\n"
      "void main() {\n"
      "  par (I) {\n"
      "    a[i] = i * 2;\n"
      "    b[i] = a[i] + 1;\n"
      "    c[i] = a[i] + b[i];\n"
      "  }\n"
      "}\n";
  auto bc = profile_with(vm::ExecEngine::kBytecode, fusable);
  auto walk = profile_with(vm::ExecEngine::kWalk, fusable);
  EXPECT_EQ(walk.run.stats(), bc.run.stats());
  for (const auto* prof : {&bc, &walk}) {
    EXPECT_EQ(sum_sites(prof->sites), prof->run.stats());
    std::uint64_t fused_stmts = 0, fused_sites = 0;
    for (const auto& s : prof->sites) {
      fused_stmts += s.fused_stmts;
      fused_sites += s.fused_stmts > 0 ? 1 : 0;
    }
    EXPECT_EQ(fused_sites, 3u);  // every member statement is attributed
    EXPECT_GT(fused_stmts, 0u);
  }
}

TEST(Profiler, EngineCountersReflectTheEngine) {
  auto walk = profile_with(vm::ExecEngine::kWalk, kMixedProgram);
  auto bc = profile_with(vm::ExecEngine::kBytecode, kMixedProgram);
  std::uint64_t walk_bc = 0, walk_walk = 0, bc_bc = 0, bc_native = 0;
  for (const auto& s : walk.sites) {
    walk_bc += s.bytecode_stmts;
    walk_walk += s.walk_stmts;
  }
  for (const auto& s : bc.sites) {
    bc_bc += s.bytecode_stmts;
    bc_native += s.native_stmts;
  }
  EXPECT_EQ(walk_bc, 0u);
  EXPECT_GT(walk_walk, 0u);
  EXPECT_GT(bc_bc, 0u);
  EXPECT_EQ(bc_native, 0u);
  EXPECT_EQ(walk.table().find(" bc "), std::string::npos);
  EXPECT_NE(bc.table().find(" bc "), std::string::npos);
}

// The native tier labels its sites `native`, not `bc`.  A host without a
// working toolchain runs the kernels on bytecode, and says so.
TEST(Profiler, NativeSitesAreLabelledNative) {
  auto prof = profile_with(vm::ExecEngine::kNative, kMixedProgram);
  std::uint64_t kernel_stmts = 0, native_stmts = 0;
  for (const auto& s : prof.sites) {
    kernel_stmts += s.bytecode_stmts;
    native_stmts += s.native_stmts;
  }
  EXPECT_GT(kernel_stmts, 0u);
  const std::string table = prof.table();
  if (prof.run.native_dispatches() == 0) {
    EXPECT_EQ(native_stmts, 0u);
    GTEST_SKIP() << "no working native toolchain on this host";
  }
  EXPECT_GT(native_stmts, 0u);
  EXPECT_NE(table.find(" native "), std::string::npos) << table;
  EXPECT_EQ(table.find(" bc "), std::string::npos) << table;
  EXPECT_NE(prof.json().find("\"native_stmts\": "), std::string::npos);
}

// A plain solve's guards are lane statements with kernels; its equations
// run on the walk on every engine, and their rows say so.
TEST(Profiler, PlainSolveGuardsRunOnKernelsAndEquationsOnTheWalk) {
  const char* solve =
      "index_set I:i = {0..7};\n"
      "int d[8];\n"
      "void main() {\n"
      "  solve (I) st (i < 2) d[i] = 1; others d[i] = d[i-1] + 1;\n"
      "}\n";
  for (auto engine : {vm::ExecEngine::kBytecode, vm::ExecEngine::kNative}) {
    auto prof = profile_with(engine, solve);
    EXPECT_EQ(sum_sites(prof.sites), prof.run.stats());
    std::map<std::string, const prof::Site*> by_text;
    for (const auto& s : prof.sites) by_text[s.text] = &s;
    const prof::Site* guard = by_text["i < 2"];
    ASSERT_NE(guard, nullptr);
    EXPECT_EQ(guard->kind, "stmt");
    EXPECT_EQ(guard->bytecode_stmts, 1u);
    EXPECT_EQ(guard->walk_stmts, 0u);
    // d[i] = 1 fires in round 1, before the `others` equation runs, which
    // fires on lane k in round k - 1: both run in each of 6 rounds.
    for (const std::string text : {"d[i] = 1", "d[i] = d[i-1] + 1"}) {
      const prof::Site* eq = by_text[text];
      ASSERT_NE(eq, nullptr) << text;
      EXPECT_EQ(eq->kind, "solve-eq");
      EXPECT_EQ(eq->walk_stmts, 6u) << text;
      EXPECT_EQ(eq->bytecode_stmts, 0u) << text;
    }
    const std::string table = prof.table();
    EXPECT_NE(table.find(" walk "), std::string::npos) << table;
  }
}

TEST(Profiler, ProfilingDoesNotChangeOutputOrCycles) {
  auto program = Program::compile("prof.uc", kMixedProgram);
  auto plain = program.run();
  auto prof = program.profile();
  EXPECT_EQ(plain.output(), prof.run.output());
  EXPECT_EQ(plain.stats(), prof.run.stats());
}

TEST(Profiler, SumHoldsOnThePaperShortestPath) {
  const auto source =
      corpus::source("fig6_shortest_path_on2", {{"N", 8}, {"SEED", 11}});
  for (auto engine : {vm::ExecEngine::kWalk, vm::ExecEngine::kBytecode,
                      vm::ExecEngine::kNative}) {
    auto prof = profile_with(engine, source.c_str());
    EXPECT_EQ(sum_sites(prof.sites), prof.run.stats());
    EXPECT_GT(prof.run.stats().cycles, 0u);
  }
}

TEST(Profiler, StaticJoinAnnotatesParallelSites) {
  auto prof = profile_with(vm::ExecEngine::kBytecode, kMixedProgram);
  bool any_static = false;
  for (const auto& s : prof.sites) any_static |= !s.static_classes.empty();
  EXPECT_TRUE(any_static);
}

TEST(Profiler, StaticJoinCanBeDisabled) {
  auto program = Program::compile("prof.uc", kMixedProgram);
  ProfileOptions opts;
  opts.join_static = false;
  auto prof = program.profile(opts);
  for (const auto& s : prof.sites) EXPECT_TRUE(s.static_classes.empty());
}

TEST(Profiler, PoolUtilizationIsPopulated) {
  auto prof = profile_with(vm::ExecEngine::kBytecode, kMixedProgram);
  EXPECT_GE(prof.pool.threads, 1u);
  EXPECT_EQ(prof.pool.chunks.size(), prof.pool.threads);
  EXPECT_GT(prof.pool.jobs, 0u);
}

TEST(Profiler, TraceEventsOnlyWhenRequested) {
  auto off = profile_with(vm::ExecEngine::kBytecode, kMixedProgram, false);
  EXPECT_TRUE(off.events.empty());

  auto on = profile_with(vm::ExecEngine::kBytecode, kMixedProgram, true);
  ASSERT_FALSE(on.events.empty());
  for (const auto& ev : on.events) {
    ASSERT_GE(ev.site, 0);
    ASSERT_LT(static_cast<std::size_t>(ev.site), on.sites.size());
    EXPECT_GE(ev.depth, 0);
  }
  // The root scope event covers the whole run's cycles.
  bool found_root = false;
  for (const auto& ev : on.events) {
    if (on.sites[static_cast<std::size_t>(ev.site)].kind == "program") {
      EXPECT_EQ(ev.cycles, on.run.stats().cycles);
      found_root = true;
    }
  }
  EXPECT_TRUE(found_root);
}

TEST(Profiler, TableReportsMatchingTotals) {
  auto prof = profile_with(vm::ExecEngine::kBytecode, kMixedProgram);
  auto table = prof.table();
  EXPECT_NE(table.find("self-cycles"), std::string::npos);
  EXPECT_NE(table.find("sum of sites"), std::string::npos);
  EXPECT_EQ(table.find("MISMATCH"), std::string::npos) << table;
  EXPECT_NE(table.find("host pool:"), std::string::npos);
}

TEST(Profiler, JsonCarriesEverySite) {
  auto prof = profile_with(vm::ExecEngine::kBytecode, kMixedProgram);
  auto json = prof.json();
  EXPECT_NE(json.find("\"total_cycles\""), std::string::npos);
  EXPECT_NE(json.find("\"sites\""), std::string::npos);
  EXPECT_NE(json.find("\"pool\""), std::string::npos);
  EXPECT_NE(json.find("\"static\""), std::string::npos);
}

TEST(Profiler, TraceJsonIsChromeShaped) {
  auto prof = profile_with(vm::ExecEngine::kBytecode, kMixedProgram, true);
  auto json = prof.trace();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"cycles\":"), std::string::npos);
}

// A guard and its body on one line are two sites: each is labelled with
// its own column and its own source text, in the table, the JSON and the
// trace, so the two rows no longer read alike.
TEST(Profiler, SitesSharingALineHaveTheirOwnColumnAndText) {
  auto prof = profile_with(
      vm::ExecEngine::kBytecode,
      "index_set I:i = {0..7}, J:j = I;\n"
      "int d[8][8];\n"
      "void main() {\n"
      "  par (I, J) st (i == j) d[i][j] = 0;\n"
      "    others d[i][j] = 1;\n"
      "}\n",
      true);
  std::map<std::string, std::tuple<std::uint32_t, std::uint32_t>> where;
  for (const auto& s : prof.sites) where[s.text] = {s.line, s.col};
  EXPECT_EQ(where["i == j"], std::make_tuple(4u, 18u));
  EXPECT_EQ(where["d[i][j] = 0"], std::make_tuple(4u, 26u));
  EXPECT_EQ(where["d[i][j] = 1"], std::make_tuple(5u, 12u));
  // The construct's range spans two lines and prints as one.
  EXPECT_EQ(where.count(
                "par (I, J) st (i == j) d[i][j] = 0; others d[i][j] = 1;"),
            1u);
  const std::string table = prof.table();
  EXPECT_NE(table.find("prof.uc:4:18 stmt | i == j\n"), std::string::npos)
      << table;
  EXPECT_NE(table.find("prof.uc:4:26 stmt | d[i][j] = 0\n"), std::string::npos)
      << table;
  EXPECT_NE(prof.json().find("\"line\": 4, \"col\": 18, \"text\": \"i == j\""),
            std::string::npos);
  const std::string trace = prof.trace();
  EXPECT_NE(trace.find("\"name\": \"stmt prof.uc:4:18\""), std::string::npos)
      << trace;
  EXPECT_NE(trace.find("\"name\": \"stmt prof.uc:4:26\""), std::string::npos)
      << trace;
}

// Direct unit coverage of the scope stack: nested enters attribute the
// parent's cost up to the child entry, and exits restore the parent.
TEST(Profiler, ScopeStackAttributesExclusively) {
  prof::Profiler p;
  auto outer = p.intern("par", "t.uc", 1, 1, 0, 100, "outer");
  auto inner = p.intern("stmt", "t.uc", 2, 1, 10, 20, "inner");

  cm::CostStats now;
  p.enter(outer, now, 0);
  now.cycles = 10;  // 10 cycles while outer is on top
  p.enter(inner, now, 0);
  now.cycles = 25;  // 15 cycles while inner is on top
  p.exit(now, 0);
  now.cycles = 30;  // 5 more for outer after the child
  p.exit(now, 0);

  ASSERT_EQ(p.sites().size(), 2u);
  EXPECT_EQ(p.sites()[0].self.cycles, 15u);  // outer: 10 + 5
  EXPECT_EQ(p.sites()[1].self.cycles, 15u);  // inner: 15
  EXPECT_EQ(p.sites()[0].entries, 1u);
  EXPECT_EQ(p.depth(), 0u);
}

}  // namespace
}  // namespace uc
