#include "codegen/cstar_emit.hpp"

#include <gtest/gtest.h>

#include "corpus.hpp"
#include "uclang/frontend.hpp"

namespace uc::codegen {
namespace {

std::string emit(const std::string& src) {
  auto unit = lang::compile("t.uc", src);
  EXPECT_TRUE(unit->ok()) << unit->diags.render_all();
  return emit_cstar(*unit);
}

TEST(CstarEmit, EmitsDomainPerArrayShape) {
  auto out = emit(
      "int a[8], b[8], m[4][4];\n"
      "index_set I:i = {0..7};\n"
      "void main() { par (I) a[i] = b[i]; }");
  // One domain for the two 1-D arrays, one for the matrix.
  EXPECT_NE(out.find("domain UC_DOM"), std::string::npos) << out;
  EXPECT_NE(out.find("int a;"), std::string::npos) << out;
  EXPECT_NE(out.find("int b;"), std::string::npos) << out;
  EXPECT_NE(out.find("int m;"), std::string::npos) << out;
  // Appendix-style offset-decoding init.
  EXPECT_NE(out.find("::init()"), std::string::npos) << out;
  EXPECT_NE(out.find("this - &"), std::string::npos) << out;
}

TEST(CstarEmit, ParBecomesDomainParallelBlock) {
  auto out = emit(
      "int a[8];\nindex_set I:i = {0..7};\n"
      "void main() { par (I) st (i > 2) a[i] = 1; }");
  EXPECT_NE(out.find("[domain UC_DOM"), std::string::npos) << out;
  EXPECT_NE(out.find("where (i > 2)"), std::string::npos) << out;
}

TEST(CstarEmit, SeqBecomesFrontEndLoop) {
  auto out = emit(corpus::source("fig6_shortest_path_on2", {{"N", 8}}));
  EXPECT_NE(out.find("for (k = 0; k <= 7; k++)"), std::string::npos) << out;
}

TEST(CstarEmit, MinReductionBecomesCombineOperator) {
  // The Fig 5 pattern must come out with C*'s <?= operator, as in Fig 10.
  auto out = emit(
      corpus::source("fig7_shortest_path_on3", {{"N", 8}, {"LOGN", 3}}));
  EXPECT_NE(out.find("<?="), std::string::npos) << out;
}

TEST(CstarEmit, StarParBecomesDoWhile) {
  auto out = emit(corpus::source("prefix_sums", {{"N", 8}}));
  EXPECT_NE(out.find("do {"), std::string::npos) << out;
  EXPECT_NE(out.find("} while"), std::string::npos) << out;
}

TEST(CstarEmit, OthersBecomesElse) {
  auto out = emit(
      "int a[8];\nindex_set I:i = {0..7};\n"
      "void main() { par (I) st (i%2==0) a[i] = 0; others a[i] = 1; }");
  EXPECT_NE(out.find("else {  /* others */"), std::string::npos) << out;
}

TEST(CstarEmit, MapSectionBecomesComment) {
  auto out = emit(corpus::source("shifted_sum", {{"N", 8}, {"ROUNDS", 1}}));
  EXPECT_NE(out.find("no C* equivalent"), std::string::npos) << out;
}

TEST(CstarEmit, EmitsForAllPaperPrograms) {
  // Smoke: emission never crashes and always yields a domain; every
  // corpus program has arrays.
  for (const auto& path : corpus::programs()) {
    auto out = emit(corpus::read(path));
    EXPECT_NE(out.find("domain"), std::string::npos) << path;
  }
}

}  // namespace
}  // namespace uc::codegen
