// End-to-end validation of the paper's programs (programs/*.uc) against
// the sequential references (src/seqref).
#include <gtest/gtest.h>

#include "corpus.hpp"
#include "seqref/seqref.hpp"
#include "ucvm/interp.hpp"

namespace uc::vm {
namespace {

std::vector<std::int64_t> ints(const std::vector<Value>& vs) {
  std::vector<std::int64_t> out;
  for (const auto& v : vs) out.push_back(v.as_int());
  return out;
}

// Runs programs/<name>.uc at the given sizes; returns one global array.
std::vector<std::int64_t> run_array(const std::string& name,
                                    const std::vector<corpus::Define>& defines,
                                    const char* array) {
  return ints(run_uc(corpus::source(name, defines)).global_array(array));
}

// The Fig 4 graph (seed 11) with Floyd-Warshall applied: the distances every
// shortest-path variant must reach.  The graph comes from a program that
// stops after init(); the deterministic per-lane RNG guarantees the full
// programs see the same matrix (identical prelude + statement structure).
std::vector<std::int64_t> floyd_warshall_of(std::int64_t n) {
  auto full = corpus::source("fig6_shortest_path_on2", {{"N", n}});
  auto pos = full.find("  seq (K)");
  EXPECT_NE(pos, std::string::npos);
  auto d = ints(run_uc(full.substr(0, pos) + "}\n").global_array("d"));
  seqref::floyd_warshall(d, n);
  return d;
}

class ShortestPathP : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(ShortestPathP, On2MatchesFloydWarshall) {
  const auto n = GetParam();
  EXPECT_EQ(run_array("fig6_shortest_path_on2", {{"N", n}}, "d"),
            floyd_warshall_of(n));
}

TEST_P(ShortestPathP, On3MatchesFloydWarshall) {
  const auto n = GetParam();
  EXPECT_EQ(run_array("fig7_shortest_path_on3",
                      {{"N", n}, {"LOGN", corpus::log2_ceil(n)}}, "d"),
            floyd_warshall_of(n));
}

TEST_P(ShortestPathP, StarSolveMatchesFloydWarshall) {
  const auto n = GetParam();
  EXPECT_EQ(run_array("shortest_path_star_solve", {{"N", n}}, "d"),
            floyd_warshall_of(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, ShortestPathP,
                         ::testing::Values(2, 3, 5, 8, 12));

TEST(PaperPrograms, PrefixSumsBothVariantsMatchReference) {
  for (std::int64_t n : {1, 2, 8, 16, 33}) {
    std::vector<std::int64_t> in(static_cast<std::size_t>(n));
    for (std::int64_t k = 0; k < n; ++k) in[static_cast<std::size_t>(k)] = k;
    auto expect = seqref::prefix_sums(in);
    EXPECT_EQ(run_array("prefix_sums", {{"N", n}}, "a"), expect) << "n=" << n;
    EXPECT_EQ(run_array("prefix_sums_seq_par",
                        {{"N", n}, {"LOGN", corpus::log2_ceil(n)}}, "a"),
              expect)
        << "n=" << n;
  }
}

TEST(PaperPrograms, RanksortSorts) {
  for (std::int64_t n : {2, 7, 16, 31}) {
    auto got = run_array("ranksort", {{"N", n}}, "a");
    EXPECT_EQ(got, seqref::sorted(got)) << "n=" << n;
    // Distinctness of keys implies a strictly increasing result.
    for (std::size_t k = 1; k < got.size(); ++k) {
      EXPECT_LT(got[k - 1], got[k]);
    }
  }
}

TEST(PaperPrograms, OddEvenSortSorts) {
  for (std::int64_t n : {2, 5, 16}) {
    auto got = run_array("odd_even_sort", {{"N", n}}, "x");
    EXPECT_EQ(got, seqref::sorted(got)) << "n=" << n;
  }
}

TEST(PaperPrograms, WavefrontMatchesReference) {
  for (std::int64_t n : {1, 2, 5, 9}) {
    EXPECT_EQ(run_array("wavefront", {{"N", n}}, "a"), seqref::wavefront(n))
        << "n=" << n;
  }
}

TEST(PaperPrograms, HistogramCountsSumToN) {
  auto counts = run_array("histogram", {{"N", 64}}, "count");
  std::int64_t total = 0;
  for (auto c : counts) {
    EXPECT_GE(c, 0);
    total += c;
  }
  EXPECT_EQ(total, 64);
}

class GridP : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(GridP, GridShortestPathMatchesBfsWithObstacle) {
  const auto rows = GetParam();
  const auto cols = rows;
  auto wall = seqref::paper_obstacle(rows, cols);
  auto expect = seqref::grid_bfs(rows, cols, wall, lang::kUcInf, nullptr);
  auto got = run_array("fig8_grid_obstacle", {{"R", rows}, {"C", cols}}, "d");
  for (std::int64_t idx = 0; idx < rows * cols; ++idx) {
    const auto i = static_cast<std::size_t>(idx);
    if (wall[i] != 0) {
      EXPECT_EQ(got[i], -2) << "wall cell " << idx;  // WALL marker
    } else {
      EXPECT_EQ(got[i], expect[i]) << "cell " << idx;
    }
  }
}

TEST_P(GridP, GridShortestPathMatchesBfsNoObstacle) {
  const auto rows = GetParam();
  const auto cols = rows;
  std::vector<std::uint8_t> wall(static_cast<std::size_t>(rows * cols), 0);
  auto expect = seqref::grid_bfs(rows, cols, wall, lang::kUcInf, nullptr);
  auto got = run_array("fig8_grid_obstacle",
                       {{"R", rows}, {"C", cols}, {"BAND", -1}}, "d");
  EXPECT_EQ(got, expect);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GridP, ::testing::Values(4, 8, 12));

TEST(PaperPrograms, SequentialRelaxationAgreesWithBfs) {
  // The honest Fig 8 baseline (sequential sweeps) must compute the same
  // distances as BFS.
  const std::int64_t rows = 12, cols = 12;
  auto wall = seqref::paper_obstacle(rows, cols);
  auto bfs = seqref::grid_bfs(rows, cols, wall, lang::kUcInf, nullptr);
  auto relax =
      seqref::grid_relax_sequential(rows, cols, wall, lang::kUcInf, nullptr);
  for (std::size_t k = 0; k < bfs.size(); ++k) {
    if (wall[k] != 0) continue;
    EXPECT_EQ(relax[k], bfs[k]) << k;
  }
}

TEST(PaperPrograms, ObstacleDisconnectsBand) {
  // Sanity on the obstacle shape: it blocks the anti-diagonal except j=0.
  auto wall = seqref::paper_obstacle(8, 8);
  EXPECT_EQ(wall[static_cast<std::size_t>(3 * 8 + 4)], 1);  // i=3,j=4: band
  EXPECT_EQ(wall[static_cast<std::size_t>(7 * 8 + 0)], 0);  // j=0 gap
}

TEST(PaperPrograms, ShortestPathCostGrowsWithN) {
  auto small = run_uc(corpus::source("fig6_shortest_path_on2", {{"N", 4}}));
  auto large = run_uc(corpus::source("fig6_shortest_path_on2", {{"N", 16}}));
  EXPECT_GT(large.stats().cycles, small.stats().cycles);
}

}  // namespace
}  // namespace uc::vm
