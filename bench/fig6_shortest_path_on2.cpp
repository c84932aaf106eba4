// Experiment E1 — Figure 6: all-pairs shortest path with O(N^2)
// parallelism, UC vs C*, elapsed (simulated) time vs problem size.
//
// Paper shape to reproduce: the UC curve tracks the C* curve closely
// (the compiler adds no significant overhead), both growing with N.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "corpus.hpp"
#include "cstar/paths.hpp"
#include "seqref/seqref.hpp"
#include "support/rng.hpp"
#include "uc/uc.hpp"

int main() {
  using namespace uc;
  bench::header("Fig 6: shortest path, O(N^2) parallelism, UC vs C*",
                "     N   UC sim(s)   C* sim(s)   ratio   UC host(ms)  "
                "C* host(ms)  agree");

  for (std::int64_t n : {4, 8, 12, 16, 20, 24, 28, 32}) {
    // UC program (Fig 4), full pipeline: compile + run.
    const auto source = corpus::source("fig6_shortest_path_on2", {{"N", n}});
    bench::WallTimer uc_timer;
    auto program = Program::compile("fig4.uc", source);
    auto uc_result = program.run();
    const double uc_ms = uc_timer.elapsed_ms();

    // C* baseline (Appendix Fig 9) on the same simulated machine model.
    // Same graph: extract it from the UC run via an init-only program.
    const auto init_src = source.substr(0, source.find("  seq (K)")) + "}\n";
    auto graph_result = Program::compile("init.uc", init_src).run();
    std::vector<std::int64_t> graph;
    for (auto& v : graph_result.global_array("d")) graph.push_back(v.as_int());

    bench::WallTimer cstar_timer;
    cm::Machine machine;
    auto cstar_dist = cstar::shortest_path_on2(machine, n, graph);
    const double cstar_ms = cstar_timer.elapsed_ms();

    bool agree = true;
    for (std::int64_t i = 0; i < n && agree; ++i) {
      for (std::int64_t j = 0; j < n && agree; ++j) {
        agree = uc_result.global_element("d", {i, j}).as_int() ==
                cstar_dist[static_cast<std::size_t>(i * n + j)];
      }
    }

    const double uc_sim = bench::sim_seconds(uc_result.stats());
    const double cstar_sim = bench::sim_seconds(machine.stats());
    std::printf("%6lld %11.5f %11.5f %7.2f %12.2f %12.2f  %s\n",
                static_cast<long long>(n), uc_sim, cstar_sim,
                uc_sim / cstar_sim, uc_ms, cstar_ms,
                agree ? "yes" : "NO!");
  }
  std::printf(
      "\nshape check: UC/C* ratio stays near 1 across N (paper: \"the "
      "performance of UC programs matches that of C*\").\n");
  return 0;
}
