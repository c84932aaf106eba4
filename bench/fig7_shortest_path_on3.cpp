// Experiment E2 — Figure 7: all-pairs shortest path with O(N^3)
// parallelism (log-round min-plus squaring), UC vs C*.
//
// Paper shape: both curves nearly flat and close together over N=5..25
// (the N^3 VP set stays within the machine until N^3 > 16K), and markedly
// *below* the O(N^2) algorithm's time at equal N (fewer relaxation
// rounds: ceil(log2 N) instead of N).
#include <cstdio>

#include "bench/bench_util.hpp"
#include "corpus.hpp"
#include "cstar/paths.hpp"
#include "uc/uc.hpp"

int main() {
  using namespace uc;
  bench::header("Fig 7: shortest path, O(N^3) parallelism, UC vs C*",
                "     N   UC sim(s)   C* sim(s)   ratio   O(N^2) sim(s)  "
                "agree");

  for (std::int64_t n : {5, 10, 15, 20, 25}) {
    const auto source = corpus::source(
        "fig7_shortest_path_on3", {{"N", n}, {"LOGN", corpus::log2_ceil(n)}});
    auto program = Program::compile("fig5.uc", source);
    auto uc_result = program.run();

    const auto init_src = source.substr(0, source.find("  seq (L)")) + "}\n";
    auto graph_result = Program::compile("init.uc", init_src).run();
    std::vector<std::int64_t> graph;
    for (auto& v : graph_result.global_array("d")) graph.push_back(v.as_int());

    cm::Machine machine;
    auto cstar_dist = cstar::shortest_path_on3(machine, n, graph);

    // The same problem via the O(N^2) algorithm, for the crossover story.
    auto on2 = Program::compile(
                   "fig4.uc",
                   corpus::source("fig6_shortest_path_on2", {{"N", n}}))
                   .run();

    bool agree = true;
    for (std::int64_t i = 0; i < n && agree; ++i) {
      for (std::int64_t j = 0; j < n && agree; ++j) {
        agree = uc_result.global_element("d", {i, j}).as_int() ==
                cstar_dist[static_cast<std::size_t>(i * n + j)];
      }
    }

    const double uc_sim = bench::sim_seconds(uc_result.stats());
    const double cstar_sim = bench::sim_seconds(machine.stats());
    std::printf("%6lld %11.5f %11.5f %7.2f %15.5f  %s\n",
                static_cast<long long>(n), uc_sim, cstar_sim,
                uc_sim / cstar_sim, bench::sim_seconds(on2.stats()),
                agree ? "yes" : "NO!");
  }
  std::printf(
      "\nshape check: UC tracks C*; O(N^3) beats O(N^2) from N=15 on "
      "(log N vs N rounds), as Figs 6/7 show.\n");
  return 0;
}
