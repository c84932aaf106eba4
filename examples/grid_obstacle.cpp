// Fig 11 / Fig 8: shortest distance from every grid cell to the goal at
// (0,0), around a diagonal wall, computed by the iterative *solve
// relaxation.  Renders the distance field as ASCII art.
#include <cstdio>

#include "corpus.hpp"
#include "uc/uc.hpp"
#include "uclang/symbols.hpp"

int main() {
  const std::int64_t rows = 16, cols = 16;
  auto program = uc::Program::compile(
      "grid.uc",
      corpus::source("fig8_grid_obstacle", {{"R", rows}, {"C", cols}}));
  auto result = program.run();

  std::printf("distance to goal G at (0,0); ## = wall, .. = unreachable\n\n");
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t j = 0; j < cols; ++j) {
      auto d = result.global_element("d", {i, j}).as_int();
      if (i == 0 && j == 0) {
        std::printf(" G ");
      } else if (d == -2) {
        std::printf(" ##");
      } else if (d >= uc::lang::kUcInf) {
        std::printf(" ..");
      } else {
        std::printf("%3lld", static_cast<long long>(d));
      }
    }
    std::printf("\n");
  }
  std::printf("\nsimulated machine: %s\n",
              result.stats().to_string(uc::cm::CostModel{}).c_str());
  return 0;
}
