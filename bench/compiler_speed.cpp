// Experiment E7 — "measurements of the compiler": front-end and
// transform-pass throughput over the paper's programs (google-benchmark),
// plus the E9 conciseness table (UC vs emitted C*).
#include <benchmark/benchmark.h>

#include <cstdio>

#include "codegen/cstar_emit.hpp"
#include "corpus.hpp"
#include "support/str.hpp"
#include "uc/uc.hpp"
#include "uclang/lexer.hpp"
#include "uclang/parser.hpp"
#include "xform/const_fold.hpp"
#include "xform/solve_lower.hpp"

namespace {

std::string on3_32() {
  return corpus::source("fig7_shortest_path_on3", {{"N", 32}, {"LOGN", 5}});
}

std::string all_programs() {
  // Every paper program, concatenated lex/parse-only workload.
  std::string all;
  all += corpus::source("fig6_shortest_path_on2", {{"N", 32}});
  all += on3_32();
  all += corpus::source("fig8_grid_obstacle", {{"R", 32}, {"C", 32}});
  all += corpus::source("prefix_sums", {{"N", 64}});
  all += corpus::source("ranksort", {{"N", 64}});
  all += corpus::source("odd_even_sort", {{"N", 64}});
  all += corpus::source("wavefront", {{"N", 32}});
  all += corpus::source("histogram", {{"N", 64}});
  return all;
}

void BM_Lex(benchmark::State& state) {
  const auto src = on3_32();
  for (auto _ : state) {
    uc::support::SourceFile file("bench.uc", src);
    uc::support::DiagnosticEngine diags(&file);
    uc::lang::Lexer lexer(file, diags);
    benchmark::DoNotOptimize(lexer.lex_all());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(src.size()) *
                          state.iterations());
}
BENCHMARK(BM_Lex);

void BM_Parse(benchmark::State& state) {
  const auto src = on3_32();
  for (auto _ : state) {
    benchmark::DoNotOptimize(uc::lang::parse_only("bench.uc", src));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(src.size()) *
                          state.iterations());
}
BENCHMARK(BM_Parse);

void BM_FullFrontEnd(benchmark::State& state) {
  const auto src = on3_32();
  for (auto _ : state) {
    benchmark::DoNotOptimize(uc::lang::compile("bench.uc", src));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(src.size()) *
                          state.iterations());
}
BENCHMARK(BM_FullFrontEnd);

void BM_CompileWithPasses(benchmark::State& state) {
  const auto src = corpus::source("wavefront", {{"N", 16}});
  uc::CompileOptions opts;
  opts.lower_solve = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(uc::Program::compile("bench.uc", src, opts));
  }
}
BENCHMARK(BM_CompileWithPasses);

void BM_CstarEmission(benchmark::State& state) {
  auto program = uc::Program::compile(
      "bench.uc", corpus::source("fig6_shortest_path_on2", {{"N", 32}}));
  for (auto _ : state) {
    benchmark::DoNotOptimize(program.to_cstar_source());
  }
}
BENCHMARK(BM_CstarEmission);

void BM_LexParseCorpus(benchmark::State& state) {
  const auto src = all_programs();
  for (auto _ : state) {
    benchmark::DoNotOptimize(uc::lang::parse_only("corpus.uc", src));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(src.size()) *
                          state.iterations());
}
BENCHMARK(BM_LexParseCorpus);

// E9: program conciseness, UC vs the C* the compiler emits (paper §5:
// "a UC program is more concise than an equivalent program written in
// CM Fortran"; the appendix contrasts UC's ~10 lines with C*'s ~25).
void report_conciseness() {
  struct Row {
    const char* name;
    std::string uc;
  };
  const Row rows[] = {
      {"shortest path O(N^2) (Fig 4 vs Fig 9)",
       corpus::source("fig6_shortest_path_on2", {{"N", 32}})},
      {"shortest path O(N^3) (Fig 5 vs Fig 10)", on3_32()},
      {"grid obstacle (Fig 11)",
       corpus::source("fig8_grid_obstacle", {{"R", 32}, {"C", 32}})},
      {"histogram (para 4)", corpus::source("histogram", {{"N", 32}})},
  };
  std::printf("\n=== E9: conciseness, UC source vs emitted C* ===\n");
  std::printf("%-42s %9s %9s\n", "program", "UC lines", "C* lines");
  for (const auto& row : rows) {
    auto program = uc::Program::compile("p.uc", row.uc);
    std::printf("%-42s %9zu %9zu\n", row.name,
                uc::support::count_code_lines(row.uc),
                uc::support::count_code_lines(program.to_cstar_source()));
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  report_conciseness();
  return 0;
}
