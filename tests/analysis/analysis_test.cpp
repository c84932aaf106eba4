// Tests for the static-analysis passes: par-block interference detection
// and communication-pattern classification (docs/ANALYSIS.md).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/pass.hpp"
#include "corpus.hpp"
#include "uclang/frontend.hpp"

namespace {

using uc::analysis::CommClass;
using uc::analysis::Report;

struct Analyzed {
  std::unique_ptr<uc::lang::CompilationUnit> unit;
  Report report;
};

Analyzed analyze(const std::string& source) {
  Analyzed a;
  a.unit = uc::lang::compile("test.uc", source);
  EXPECT_TRUE(a.unit->ok()) << a.unit->diags.render_all();
  if (a.unit->ok()) {
    a.report = uc::analysis::run_default_analysis(*a.unit);
  }
  return a;
}

bool has_finding(const Report& r, const char* code) {
  for (const auto& f : r.findings) {
    if (std::string(f.code) == code) return true;
  }
  return false;
}

std::size_t class_count(const Report& r, CommClass c) {
  std::size_t n = 0;
  for (const auto& fn : r.functions) n += fn.count(c);
  return n;
}

// --- interference: write-write conflicts ---------------------------------

TEST(Interference, OffsetWritesRace) {
  auto a = analyze(R"(
    const int N = 8;
    index_set I:i = {0..N-1};
    int a[N];
    void main() {
      par (I) {
        a[i] = 1;
        a[i+1] = 2;
      }
    }
  )");
  EXPECT_TRUE(has_finding(a.report, "UC-A101"));
  EXPECT_EQ(a.report.warning_count(), 1u);
}

TEST(Interference, ScalarWriteRaces) {
  auto a = analyze(R"(
    const int N = 8;
    index_set I:i = {0..N-1};
    int s;
    void main() {
      par (I) s = i;
    }
  )");
  EXPECT_TRUE(has_finding(a.report, "UC-A101"));
}

TEST(Interference, UniformSubscriptWriteRaces) {
  auto a = analyze(R"(
    const int N = 8;
    index_set I:i = {0..N-1};
    int a[N];
    void main() {
      par (I) a[0] = i;
    }
  )");
  EXPECT_TRUE(has_finding(a.report, "UC-A101"));
}

TEST(Interference, DisjointWritesDoNotRace) {
  auto a = analyze(R"(
    const int N = 8;
    index_set I:i = {0..N-1};
    int a[N];
    void main() {
      par (I) a[i] = i;
    }
  )");
  EXPECT_FALSE(has_finding(a.report, "UC-A101"));
  EXPECT_FALSE(has_finding(a.report, "UC-A102"));
}

TEST(Interference, CongruenceGuardSeparatesOffsetWrite) {
  // st (i % 2 == 0) selects even lanes; a[i] and a[i+1] then touch
  // disjoint elements (even vs odd), so no conflict.
  auto a = analyze(R"(
    const int N = 8;
    index_set I:i = {0..N-1};
    int a[N];
    void main() {
      par (I) st (i % 2 == 0) { a[i] = 1; a[i+1] = 2; }
    }
  )");
  EXPECT_FALSE(has_finding(a.report, "UC-A101"));
  EXPECT_FALSE(has_finding(a.report, "UC-A102"));
}

TEST(Interference, TransposedWritePairRaces) {
  // a[i][j] and a[j][i] collide for (i,j) vs (j,i) lanes.
  auto a = analyze(R"(
    const int N = 4;
    index_set I:i = {0..N-1};
    index_set J:j = {0..N-1};
    int a[N][N];
    void main() {
      par (I, J) {
        a[i][j] = 1;
        a[j][i] = 2;
      }
    }
  )");
  EXPECT_TRUE(has_finding(a.report, "UC-A101") ||
              has_finding(a.report, "UC-A102"));
}

TEST(Interference, DataDependentSubscriptIsPossibleNotDefinite) {
  auto a = analyze(R"(
    const int N = 8;
    index_set I:i = {0..N-1};
    int a[N], p[N];
    void main() {
      par (I) a[p[i]] = i;
    }
  )");
  EXPECT_FALSE(has_finding(a.report, "UC-A101"));
  EXPECT_TRUE(has_finding(a.report, "UC-A102"));
}

TEST(Interference, OneofIsExemptFromRaceChecks) {
  auto a = analyze(R"(
    const int N = 8;
    index_set I:i = {0..N-1};
    int a[N];
    void main() {
      oneof (I) a[0] = i;
    }
  )");
  EXPECT_FALSE(has_finding(a.report, "UC-A101"));
  EXPECT_FALSE(has_finding(a.report, "UC-A102"));
}

// --- interference: old-value reads and st escapes ------------------------

TEST(Interference, OldValueReadGetsNote) {
  auto a = analyze(R"(
    const int N = 8;
    index_set I:i = {1..N-1};
    int a[N];
    void main() {
      par (I) a[i] = a[i-1];
    }
  )");
  EXPECT_TRUE(has_finding(a.report, "UC-A103"));
  EXPECT_EQ(a.report.warning_count(), 0u);
}

TEST(Interference, StEscapeGetsNote) {
  auto a = analyze(R"(
    const int N = 8;
    index_set I:i = {0..N-1};
    int a[N];
    void main() {
      par (I) st (i % 2 == 0) a[i+1] = 3;
    }
  )");
  EXPECT_TRUE(has_finding(a.report, "UC-A104"));
}

TEST(Interference, UserCallLimitsAnalysis) {
  auto a = analyze(R"(
    const int N = 8;
    index_set I:i = {0..N-1};
    int a[N];
    int f(int x) { return x + 1; }
    void main() {
      par (I) a[i] = f(i);
    }
  )");
  EXPECT_TRUE(has_finding(a.report, "UC-A105"));
}

// --- communication classification ----------------------------------------

TEST(Comm, StencilIsNewsNotRouter) {
  // The lanes span the array's shape, and the guard keeps them in range.
  // (Over {1..N-2} they would not: tests/uc/comm_test.cpp.)
  auto a = analyze(R"(
    const int N = 8;
    index_set I:i = {0..N-1};
    int a[N], b[N];
    void main() {
      par (I) st (i > 0 && i < N - 1) b[i] = a[i-1] + a[i+1];
    }
  )");
  EXPECT_EQ(class_count(a.report, CommClass::kNews), 2u);
  EXPECT_EQ(class_count(a.report, CommClass::kRouter), 0u);
  EXPECT_EQ(a.report.warning_count(), 0u);
}

TEST(Comm, IndirectSubscriptIsRouter) {
  auto a = analyze(R"(
    const int N = 8;
    index_set I:i = {0..N-1};
    int a[N], b[N], p[N];
    void main() {
      par (I) b[i] = a[p[i]];
    }
  )");
  EXPECT_GE(class_count(a.report, CommClass::kRouter), 1u);
}

TEST(Comm, ReduceBoundSubscriptIsScan) {
  auto a = analyze(R"(
    const int N = 8;
    index_set I:i = {0..N-1};
    index_set J:j = {0..N-1};
    int a[N], s[N];
    void main() {
      par (I) s[i] = $+(J; a[j]);
    }
  )");
  EXPECT_GE(class_count(a.report, CommClass::kScan), 1u);
}

TEST(Comm, AlignedAccessIsLocal) {
  auto a = analyze(R"(
    const int N = 8;
    index_set I:i = {0..N-1};
    int a[N], b[N];
    void main() {
      par (I) b[i] = a[i];
    }
  )");
  EXPECT_EQ(class_count(a.report, CommClass::kLocal), 2u);
  EXPECT_EQ(class_count(a.report, CommClass::kRouter), 0u);
}

// --- mapping diagnostics --------------------------------------------------

TEST(Mapping, RouterForcingPermuteWarns) {
  // The reversal permute makes the perfectly aligned access a[i] strided
  // in physical positions, forcing the router for no benefit.
  auto a = analyze(R"(
    const int N = 8;
    index_set I:i = {0..N-1};
    int a[N], b[N];
    map (I) { permute (I) a[N-1-i] :- a[i]; }
    void main() {
      par (I) b[i] = a[i];
    }
  )");
  EXPECT_TRUE(has_finding(a.report, "UC-A201"));
}

TEST(Mapping, UsefulPermuteDoesNotWarn) {
  // Here the permute aligns the reversed access; dropping it would NOT
  // make every access cheap, so no UC-A201.
  auto a = analyze(R"(
    const int N = 8;
    index_set I:i = {0..N-1};
    int a[N], b[N];
    map (I) { permute (I) a[N-1-i] :- a[i]; }
    void main() {
      par (I) b[i] = a[N-1-i];
    }
  )");
  EXPECT_FALSE(has_finding(a.report, "UC-A201"));
}

TEST(Mapping, UnusedMappingGetsNote) {
  auto a = analyze(R"(
    const int N = 8;
    index_set I:i = {0..N-1};
    int a[N], b[N];
    map (I) { permute (I) a[N-1-i] :- a[i]; }
    void main() {
      par (I) b[i] = i;
    }
  )");
  EXPECT_TRUE(has_finding(a.report, "UC-A202"));
}

// --- report rendering -----------------------------------------------------

TEST(Report, RenderContainsCodesAndSummary) {
  auto a = analyze(R"(
    const int N = 8;
    index_set I:i = {0..N-1};
    int a[N];
    void main() {
      par (I) {
        a[i] = 1;
        a[i+1] = 2;
      }
    }
  )");
  std::string text = a.report.render(a.unit->file.get());
  EXPECT_NE(text.find("[UC-A101]"), std::string::npos) << text;
  EXPECT_NE(text.find("communication summary:"), std::string::npos) << text;
  EXPECT_NE(text.find("-> news"), std::string::npos) << text;
}

TEST(Report, NoNotesOptionDropsNotes) {
  auto a = analyze(R"(
    const int N = 8;
    index_set I:i = {1..N-1};
    int a[N];
    void main() {
      par (I) a[i] = a[i-1];
    }
  )");
  uc::analysis::RenderOptions opts;
  opts.include_notes = false;
  opts.include_summary = false;
  std::string text = a.report.render(a.unit->file.get(), opts);
  EXPECT_EQ(text.find("UC-A103"), std::string::npos) << text;
}

// --- corpus regression ----------------------------------------------------

TEST(Corpus, EveryShippedProgramAnalyzesClean) {
  // The paper's example programs are all correct UC: the analysis must
  // produce no errors and no warnings on any of them (notes are fine).
  const auto programs = corpus::programs();
  for (const auto& path : programs) {
    auto unit = uc::lang::compile(path.string(), corpus::read(path));
    ASSERT_TRUE(unit->ok()) << path << ":\n" << unit->diags.render_all();
    auto report = uc::analysis::run_default_analysis(*unit);
    EXPECT_EQ(report.error_count(), 0u) << path;
    EXPECT_EQ(report.warning_count(), 0u)
        << path << ":\n" << report.render(unit->file.get());
  }
  EXPECT_GE(programs.size(), 9u);  // the shipped corpus
}

TEST(Corpus, ShortestPathHasZeroWarnings) {
  auto unit = uc::lang::compile(
      "fig6_shortest_path_on2.uc", corpus::source("fig6_shortest_path_on2"));
  ASSERT_TRUE(unit->ok());
  auto report = uc::analysis::run_default_analysis(*unit);
  EXPECT_EQ(report.warning_count(), 0u)
      << report.render(unit->file.get());
}

TEST(Corpus, PaperShortestPathVariantsHaveZeroWarnings) {
  const std::vector<std::pair<const char*, std::string>> variants = {
      {"on2", corpus::source("fig6_shortest_path_on2", {{"N", 16}})},
      {"on3",
       corpus::source("fig7_shortest_path_on3", {{"N", 16}, {"LOGN", 4}})},
      {"star_solve", corpus::source("shortest_path_star_solve", {{"N", 16}})},
  };
  for (const auto& [label, source] : variants) {
    auto unit = uc::lang::compile(label, source);
    ASSERT_TRUE(unit->ok()) << label << ":\n" << unit->diags.render_all();
    auto report = uc::analysis::run_default_analysis(*unit);
    EXPECT_EQ(report.error_count(), 0u) << label;
    EXPECT_EQ(report.warning_count(), 0u)
        << label << ":\n" << report.render(unit->file.get());
  }
}

}  // namespace
