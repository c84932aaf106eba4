// Host-runtime characterisation: the thread pool that stands in for the
// CM's processor array must change *wall-clock* time only — simulated
// cycles, results and output are bit-identical for any thread count.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "corpus.hpp"
#include "uc/uc.hpp"

int main() {
  using namespace uc;
  bench::header(
      "Threaded data-parallel host runtime (VM level)",
      "threads   host(ms)   sim cycles     d[0][1]   identical");

  auto program = Program::compile(
      "sp.uc",
      corpus::source("fig6_shortest_path_on2", {{"N", 48}, {"SEED", 11}}));
  std::uint64_t ref_cycles = 0;
  std::int64_t ref_value = 0;
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    cm::MachineOptions mopts;
    mopts.host_threads = threads;
    bench::WallTimer timer;
    auto result = program.run(mopts);
    const double ms = timer.elapsed_ms();
    const auto cycles = result.stats().cycles;
    const auto value = result.global_element("d", {0, 1}).as_int();
    if (threads == 1) {
      ref_cycles = cycles;
      ref_value = value;
    }
    std::printf("%7u %10.2f %12llu %11lld   %s\n", threads, ms,
                static_cast<unsigned long long>(cycles),
                static_cast<long long>(value),
                cycles == ref_cycles && value == ref_value ? "yes" : "NO!");
  }
  std::printf(
      "\nshape check: simulated cycles and results are independent of the "
      "host thread count (determinism contract); wall time varies with "
      "available cores.\n");
  return 0;
}
