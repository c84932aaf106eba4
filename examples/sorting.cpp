// Two parallel sorts from the paper — ranksort (3.4, one synchronous
// permutation step) and odd-even transposition sort (3.7, iterated
// non-deterministic *oneof) — plus a demonstration of the single-value
// rule that guards parallel assignment.
#include <cstdio>

#include "corpus.hpp"
#include "support/error.hpp"
#include "uc/uc.hpp"

namespace {

void show(const char* label, const uc::vm::RunResult& result,
          const char* array) {
  std::printf("%-12s", label);
  auto values = result.global_array(array);
  for (std::size_t k = 0; k < values.size() && k < 16; ++k) {
    std::printf(" %3lld", static_cast<long long>(values[k].as_int()));
  }
  std::printf("   (cycles=%llu, global-ORs=%llu)\n",
              static_cast<unsigned long long>(result.stats().cycles),
              static_cast<unsigned long long>(result.stats().global_ors));
}

}  // namespace

int main() {
  const std::int64_t n = 16;

  auto ranksort = uc::Program::compile(
      "rank.uc", corpus::source("ranksort", {{"N", n}}));
  show("ranksort", ranksort.run(), "a");

  auto oddeven = uc::Program::compile(
      "oe.uc", corpus::source("odd_even_sort", {{"N", n}}));
  show("odd-even", oddeven.run(), "x");

  // The single-value rule (paper 3.4): assigning different values to one
  // variable from several processors is a runtime error.
  const char* bad =
      "index_set I:i = {0..3}, J:j = I;\n"
      "int a[4], b[4];\n"
      "void main() { par (I) b[i] = i; par (I, J) a[i] = b[j]; }";
  try {
    uc::Program::compile("bad.uc", bad).run();
    std::printf("\nunexpected: the illegal broadcast was not caught!\n");
  } catch (const uc::support::UcRuntimeError& e) {
    std::printf("\nillegal parallel assignment rejected as expected:\n  %s\n",
                e.what());
  }
  return 0;
}
