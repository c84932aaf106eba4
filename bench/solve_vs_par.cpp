// Experiment E6 — §3.6: "the use of *par is more efficient than *solve as
// the programmer need not save redundant intermediate states".  Three
// expressions of all-pairs shortest path: the hand-refined seq/par
// program, the declarative *solve, and the compiler's source-level
// lowering of a solve (wavefront) next to the VM's built-in method.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "corpus.hpp"
#include "support/str.hpp"
#include "uc/uc.hpp"

namespace {

// A ring graph (diameter N-1) so both expressions need the full
// ceil(log2 N) min-plus rounds: with an easy random graph *solve would
// reach its fixed point early and win on rounds, hiding the state-saving
// overhead the paper's comparison is about.
std::string ring_sp(std::int64_t n, bool star_solve) {
  std::string src = uc::support::format(
      "#define N %lld\n"
      "index_set I:i = {0..N-1}, J:j = I, K:k = I;\n"
      "index_set L:l = {0..%lld};\n"
      "int d[N][N];\n"
      "void init() {\n"
      "  par (I, J) st (i==j) d[i][j] = 0;\n"
      "    others d[i][j] = (j == (i+1) %% N) ? 1 : N + N;\n"
      "}\n",
      static_cast<long long>(n),
      static_cast<long long>(
          (n <= 1 ? 1 : 64 - __builtin_clzll(static_cast<unsigned long long>(
                                 n - 1))) -
          1));
  if (star_solve) {
    src +=
        "void main() {\n"
        "  init();\n"
        "  *solve (I, J) d[i][j] = $<(K; d[i][k] + d[k][j]);\n"
        "}\n";
  } else {
    src +=
        "void main() {\n"
        "  init();\n"
        "  seq (L) par (I, J) d[i][j] = $<(K; d[i][k] + d[k][j]);\n"
        "}\n";
  }
  return src;
}

}  // namespace

int main() {
  using namespace uc;
  bench::header(
      "solve refinement ladder (paper 3.6), ring graph (diameter N-1)",
      "     N   seq/par sim(s)   *solve sim(s)   overhead");

  for (std::int64_t n : {8, 16, 24, 32}) {
    auto refined = Program::compile("ring.uc", ring_sp(n, false)).run();
    auto declarative = Program::compile("ring.uc", ring_sp(n, true)).run();
    bool agree = true;
    for (std::int64_t i = 0; i < n && agree; ++i) {
      for (std::int64_t j = 0; j < n && agree; ++j) {
        agree = refined.global_element("d", {i, j}).as_int() ==
                declarative.global_element("d", {i, j}).as_int();
      }
    }
    const double a = bench::sim_seconds(refined.stats());
    const double b = bench::sim_seconds(declarative.stats());
    std::printf("%6lld %16.5f %15.5f %9.2fx  %s\n",
                static_cast<long long>(n), a, b, b / a,
                agree ? "" : "DISAGREE!");
  }

  bench::header(
      "solve implementations: VM built-in vs source-level lowering "
      "(wavefront)",
      "     N   built-in sim(s)   lowered sim(s)");
  for (std::int64_t n : {8, 16, 32}) {
    const auto source = corpus::source("wavefront", {{"N", n}});
    auto builtin = Program::compile("w.uc", source).run();
    CompileOptions lower;
    lower.lower_solve = true;
    auto lowered = Program::compile("w.uc", source, lower).run();
    std::printf("%6lld %17.5f %15.5f\n", static_cast<long long>(n),
                bench::sim_seconds(builtin.stats()),
                bench::sim_seconds(lowered.stats()));
  }
  std::printf(
      "\nshape check: *solve always costs more than the refined *par/seq "
      "form — the price of automatic fixed-point detection.\n");
  return 0;
}
