// Jacobi relaxation — the numerical workload class the paper's evaluation
// section reports as "experiments in progress" (CFD, SVD, Jacobi
// diagonalisation).  Shows float arrays, nested-predicate stencils and
// the NEWS grid carrying all of the communication.
#include <cstdio>

#include "corpus.hpp"
#include "uc/uc.hpp"

int main() {
  const std::int64_t n = 12, iters = 50;
  auto program = uc::Program::compile(
      "jacobi.uc", corpus::source("jacobi", {{"N", n}, {"ITERS", iters}}));
  auto result = program.run();

  std::printf("temperature field after %lld Jacobi sweeps (boundary held):\n\n",
              static_cast<long long>(iters));
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      std::printf("%6.2f", result.global_element("u", {i, j}).as_float());
    }
    std::printf("\n");
  }
  const auto& st = result.stats();
  std::printf(
      "\nsimulated: cycles=%llu news_ops=%llu router_msgs=%llu "
      "(stencils ride the NEWS grid: zero router traffic)\n",
      static_cast<unsigned long long>(st.cycles),
      static_cast<unsigned long long>(st.news_ops),
      static_cast<unsigned long long>(st.router_messages));
  return 0;
}
