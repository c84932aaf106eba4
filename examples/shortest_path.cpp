// The paper's flagship benchmark: all-pairs shortest path, three ways —
// Fig 4 (O(N^2) parallelism), Fig 5 (O(N^3) parallelism) and the *solve
// fixed-point form — all producing identical distances at different
// simulated costs.  Also shows the C* code the UC compiler would emit.
#include <cstdio>

#include "corpus.hpp"
#include "uc/uc.hpp"

namespace {

void run_variant(const char* label, const std::string& source) {
  auto program = uc::Program::compile("sp.uc", source);
  auto result = program.run();
  const auto& st = result.stats();
  std::printf(
      "%-18s cycles=%-10llu vector_ops=%-6llu reductions=%-5llu "
      "d[0][%d]=%lld\n",
      label, static_cast<unsigned long long>(st.cycles),
      static_cast<unsigned long long>(st.vector_ops),
      static_cast<unsigned long long>(st.reductions), 7,
      static_cast<long long>(result.global_element("d", {0, 7}).as_int()));
}

}  // namespace

int main() {
  const std::int64_t n = 16;
  std::printf("All-pairs shortest path, N=%lld (same random graph, seed 11)\n\n",
              static_cast<long long>(n));

  run_variant("seq/par  (Fig 4)",
              corpus::source("fig6_shortest_path_on2", {{"N", n}}));
  run_variant("log-round (Fig 5)",
              corpus::source("fig7_shortest_path_on3",
                             {{"N", n}, {"LOGN", corpus::log2_ceil(n)}}));
  run_variant("*solve   (3.6)",
              corpus::source("shortest_path_star_solve", {{"N", n}}));

  std::printf("\n--- C* emission of the Fig 4 program (paper 5) ---\n");
  auto program = uc::Program::compile(
      "sp.uc", corpus::source("fig6_shortest_path_on2", {{"N", 8}}));
  std::printf("%s", program.to_cstar_source().c_str());
  return 0;
}
