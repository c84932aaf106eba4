// Extension coverage: the Paris-style trace back end (the retargeting the
// paper reports as in progress, §5), the dynamic-obstacle scenario (§5
// text) and the Jacobi stencil (the numerical workload class §5 lists as
// "experiments in progress").
#include <gtest/gtest.h>

#include "corpus.hpp"
#include "seqref/seqref.hpp"
#include "uc/uc.hpp"
#include "uclang/symbols.hpp"

namespace uc::vm {
namespace {

TEST(ParisTrace, DisabledByDefault) {
  cm::Machine machine;
  auto program = Program::compile(
      "t.uc", "index_set I:i = {0..7};\nint a[8];\n"
              "void main() { par (I) a[i] = i; }");
  program.run_on(machine);
  EXPECT_TRUE(machine.paris_trace().empty());
}

TEST(ParisTrace, RecordsIssuedInstructions) {
  cm::MachineOptions opts;
  opts.record_paris_trace = true;
  cm::Machine machine(opts);
  auto program = Program::compile(
      "t.uc",
      "index_set I:i = {0..7};\nint a[8], s;\n"
      "void main() {\n"
      "  par (I) a[i] = i;\n"
      "  par (I) st (i < 7) a[i] = a[i+1];\n"
      "  s = $+(I; a[i]);\n"
      "  *par (I) st (a[i] < 3) a[i] = a[i] + 1;\n"
      "}");
  program.run_on(machine);
  const auto& trace = machine.paris_trace();
  ASSERT_FALSE(trace.empty());
  auto contains = [&](const char* needle) {
    for (const auto& line : trace) {
      if (line.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(contains("cm:alu"));
  EXPECT_TRUE(contains("cm:get-news"));     // the a[i+1] shift
  EXPECT_TRUE(contains("cm:scan"));         // the reduction
  EXPECT_TRUE(contains("cm:global-logior"));  // the *par termination test
  EXPECT_TRUE(contains("vp-set=8"));
}

TEST(ParisTrace, ClearableAndAppending) {
  cm::MachineOptions opts;
  opts.record_paris_trace = true;
  cm::Machine machine(opts);
  machine.charge_global_or();
  EXPECT_EQ(machine.paris_trace().size(), 1u);
  machine.clear_paris_trace();
  EXPECT_TRUE(machine.paris_trace().empty());
  machine.charge_vector_op(64, 2);
  machine.charge_router(64, 10);
  ASSERT_EQ(machine.paris_trace().size(), 2u);
  EXPECT_NE(machine.paris_trace()[1].find("msgs=10"), std::string::npos);
}

TEST(DynamicObstacle, DistancesTrackTheMovedWall) {
  const std::int64_t rows = 12, cols = 12;
  auto program = Program::compile(
      "dyn.uc",
      corpus::source("grid_dynamic_obstacle", {{"R", rows}, {"C", cols}}));
  auto result = program.run();

  // Final state must match BFS against the *moved* wall (band at i+j==R).
  std::vector<std::uint8_t> wall(static_cast<std::size_t>(rows * cols), 0);
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t j = 0; j < cols; ++j) {
      if (i + j == rows && std::abs(i - rows / 2) <= rows / 4 && j != 0) {
        wall[static_cast<std::size_t>(i * cols + j)] = 1;
      }
    }
  }
  auto expect = seqref::grid_bfs(rows, cols, wall, lang::kUcInf, nullptr);
  for (std::int64_t idx = 0; idx < rows * cols; ++idx) {
    const auto i = idx / cols;
    const auto j = idx % cols;
    const auto got = result.global_element("d", {i, j}).as_int();
    if (wall[static_cast<std::size_t>(idx)] != 0) {
      EXPECT_EQ(got, -2) << idx;
    } else {
      EXPECT_EQ(got, expect[static_cast<std::size_t>(idx)]) << idx;
    }
  }
}

TEST(DynamicObstacle, SecondRelaxationCostsShowUp) {
  auto one = Program::compile("g.uc",
                              corpus::source("fig8_grid_obstacle",
                                             {{"R", 12}, {"C", 12}}))
                 .run();
  auto two = Program::compile("dyn.uc",
                              corpus::source("grid_dynamic_obstacle",
                                             {{"R", 12}, {"C", 12}}))
                 .run();
  EXPECT_GT(two.stats().cycles, one.stats().cycles);
}

TEST(Jacobi, MatchesSequentialReference) {
  const std::int64_t n = 10, iters = 12;
  auto program = Program::compile(
      "jacobi.uc", corpus::source("jacobi", {{"N", n}, {"ITERS", iters}}));
  auto result = program.run();

  // Sequential reference with identical IEEE operation order.
  std::vector<double> u(static_cast<std::size_t>(n * n), 0.0);
  std::vector<double> v(u);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      if (i == 0 || i == n - 1 || j == 0 || j == n - 1) {
        u[static_cast<std::size_t>(i * n + j)] =
            (static_cast<double>(i) * 10.0 + static_cast<double>(j)) /
            static_cast<double>(n);
      }
    }
  }
  v = u;
  for (std::int64_t t = 0; t < iters; ++t) {
    for (std::int64_t i = 1; i < n - 1; ++i) {
      for (std::int64_t j = 1; j < n - 1; ++j) {
        v[static_cast<std::size_t>(i * n + j)] =
            0.25 * (u[static_cast<std::size_t>((i - 1) * n + j)] +
                    u[static_cast<std::size_t>((i + 1) * n + j)] +
                    u[static_cast<std::size_t>(i * n + j - 1)] +
                    u[static_cast<std::size_t>(i * n + j + 1)]);
      }
    }
    u = v;
  }
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      EXPECT_DOUBLE_EQ(result.global_element("u", {i, j}).as_float(),
                       u[static_cast<std::size_t>(i * n + j)])
          << i << "," << j;
    }
  }
}

TEST(Jacobi, StencilTrafficIsNewsNotRouter) {
  auto result =
      Program::compile("jacobi.uc",
                       corpus::source("jacobi", {{"N", 16}, {"ITERS", 4}}))
          .run();
  EXPECT_GT(result.stats().news_ops, 0u);
  EXPECT_EQ(result.stats().router_messages, 0u);
}

}  // namespace
}  // namespace uc::vm
