// Experiment E5 — the §4 processor optimisation: the digit-count program
//
//   par (J) count[j] = $+(I st (samples[i]==j) 1);
//
// naively needs 10*N virtual processors (10 simultaneous reductions over N
// elements each); the compiler's analysis proves each sample contributes
// to at most one count, so N processors suffice.  We toggle the VM's
// implementation of that analysis and report the simulated cost.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "corpus.hpp"
#include "uc/uc.hpp"

int main() {
  using namespace uc;
  bench::header(
      "Processor optimisation (paper 4): histogram VP allocation",
      "     N   naive sim(s)   optimised sim(s)   speedup   agree");

  for (std::int64_t n : {1024, 4096, 16384, 65536}) {
    auto program = Program::compile("hist.uc",
                                    corpus::source("histogram", {{"N", n}}));

    vm::ExecOptions naive;
    naive.processor_optimization = false;
    vm::ExecOptions optimised;
    optimised.processor_optimization = true;

    cm::MachineOptions machine;  // 16K processors: 10*N exceeds it quickly
    auto r_naive = program.run(machine, naive);
    auto r_opt = program.run(machine, optimised);

    bool agree = true;
    for (int d = 0; d < 10 && agree; ++d) {
      agree = r_naive.global_element("count", {d}).as_int() ==
              r_opt.global_element("count", {d}).as_int();
    }
    const double a = bench::sim_seconds(r_naive.stats());
    const double b = bench::sim_seconds(r_opt.stats());
    std::printf("%7lld %13.5f %18.5f %9.1fx   %s\n",
                static_cast<long long>(n), a, b, a / b,
                agree ? "yes" : "NO!");
  }
  std::printf(
      "\nshape check: the optimisation's benefit grows once 10*N exceeds "
      "the 16K physical processors (VP ratio 10x larger without it).\n");
  return 0;
}
