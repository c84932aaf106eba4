// Experiment E3 — Figure 8: grid shortest path with a (stationary)
// obstacle.  The paper compares the UC program on a 16K CM against the
// same algorithm in sequential C on the Sun-4 front end, with and without
// -O.
//
// Paper shape: both sequential curves climb steeply with the number of
// rows (per-sweep work grows as rows^2 and the sweep count grows with the
// path length), while the parallel UC curve stays nearly flat as long as
// rows*cols <= 16K, because every cell updates simultaneously.  The -O
// line sits a constant factor below the plain one.
//
// Substitution note (DESIGN.md): the Sun-4 is modelled as the simulated
// front end; `-O` is modelled as a 3x smaller per-operation cost, which is
// the typical effect the flag had on this kind of pointer-free loop code.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "corpus.hpp"
#include "seqref/seqref.hpp"
#include "uc/uc.hpp"
#include "uclang/symbols.hpp"

int main() {
  using namespace uc;
  const cm::CostModel model;
  bench::header(
      "Fig 8: grid shortest path with obstacle — sequential C vs UC on CM",
      "  rows   seq C(s)   seq C -O(s)   UC on CM(s)   seq/UC   agree");

  for (std::int64_t rows : {8, 16, 24, 32, 40, 48, 56, 64}) {
    const auto cols = rows;
    auto wall = seqref::paper_obstacle(rows, cols);

    // Sequential baselines: the same iterative relaxation, one CPU.
    std::uint64_t seq_ops = 0;
    auto seq_dist = seqref::grid_relax_sequential(rows, cols, wall,
                                                  lang::kUcInf, &seq_ops);
    // Plain compile: ~3 machine cycles per elementary op; -O: ~1.
    const double seq_s =
        model.cycles_to_seconds(seq_ops * 3 * model.frontend_op);
    const double seq_opt_s =
        model.cycles_to_seconds(seq_ops * 1 * model.frontend_op);

    // Parallel UC program (Fig 11).
    auto program = Program::compile(
        "grid.uc",
        corpus::source("fig8_grid_obstacle", {{"R", rows}, {"C", cols}}));
    auto result = program.run();
    const double uc_s = bench::sim_seconds(result.stats(), model);

    bool agree = true;
    for (std::int64_t idx = 0; idx < rows * cols && agree; ++idx) {
      const auto i = idx / cols;
      const auto j = idx % cols;
      const auto got = result.global_element("d", {i, j}).as_int();
      if (wall[static_cast<std::size_t>(idx)] != 0) {
        agree = got == -2;
      } else {
        agree = got == seq_dist[static_cast<std::size_t>(idx)];
      }
    }

    std::printf("%6lld %10.4f %13.4f %13.4f %8.1f   %s\n",
                static_cast<long long>(rows), seq_s, seq_opt_s, uc_s,
                seq_s / uc_s, agree ? "yes" : "NO!");
  }
  std::printf(
      "\nshape check: sequential time climbs ~cubically with rows while "
      "the CM curve stays nearly flat below 16K cells — the Fig 8 "
      "separation (paper: ~40s vs a few seconds at 120 rows).\n");
  return 0;
}
