// The solve construct (paper 3.6): the wavefront recurrence written as a
// declarative set of equations, plus a look at the compiler's general
// lowering to a guarded *par and the separable data-mapping story.
#include <cstdio>

#include "corpus.hpp"
#include "uc/uc.hpp"

int main() {
  const auto source = corpus::source("wavefront", {{"N", 8}});

  std::printf("--- UC source (declarative equations) ---\n%s\n",
              source.c_str());

  // 1. Run with the VM's built-in solve.
  auto builtin = uc::Program::compile("wave.uc", source);
  auto rb = builtin.run();

  // 2. Lower solve -> *par at the source level (what the UC compiler does,
  //    paper 3.6) and run the lowered program.
  uc::CompileOptions lower;
  lower.lower_solve = true;
  auto lowered = uc::Program::compile("wave.uc", source, lower);
  std::printf("--- after solve lowering ---\n%s\n",
              lowered.to_uc_source().c_str());
  auto rl = lowered.run();

  std::printf("a[7][7]: builtin=%lld lowered=%lld (must match)\n",
              static_cast<long long>(rb.global_element("a", {7, 7}).as_int()),
              static_cast<long long>(rl.global_element("a", {7, 7}).as_int()));
  std::printf("cycles:  builtin=%llu lowered=%llu\n",
              static_cast<unsigned long long>(rb.stats().cycles),
              static_cast<unsigned long long>(rl.stats().cycles));

  // 3. Mappings are separate from logic: the same shifted-access kernel
  //    with its permute map section ignored and applied (paper 4).
  auto shift = uc::Program::compile(
      "shift.uc", corpus::source("shifted_sum", {{"N", 64}, {"ROUNDS", 8}}));
  uc::vm::ExecOptions no_maps;
  no_maps.apply_mappings = false;
  auto unmapped = shift.run({}, no_maps);
  auto mapped = shift.run();
  std::printf(
      "\nshifted-access kernel, 8 rounds over 64 elements:\n"
      "  default mapping: cycles=%llu news_ops=%llu\n"
      "  permute mapping: cycles=%llu news_ops=%llu\n",
      static_cast<unsigned long long>(unmapped.stats().cycles),
      static_cast<unsigned long long>(unmapped.stats().news_ops),
      static_cast<unsigned long long>(mapped.stats().cycles),
      static_cast<unsigned long long>(mapped.stats().news_ops));
  return 0;
}
