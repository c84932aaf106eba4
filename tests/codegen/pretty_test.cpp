#include "codegen/pretty.hpp"

#include <gtest/gtest.h>

#include "corpus.hpp"
#include "uclang/frontend.hpp"

namespace uc::codegen {
namespace {

// Round-trip property: parse -> print -> parse -> print must be a fixed
// point (print is a canonical form).
void round_trip(const std::string& src) {
  auto unit1 = lang::parse_only("a.uc", src);
  ASSERT_FALSE(unit1->diags.has_errors()) << unit1->diags.render_all();
  auto printed1 = print_program(*unit1->program);
  auto unit2 = lang::parse_only("b.uc", printed1);
  ASSERT_FALSE(unit2->diags.has_errors())
      << unit2->diags.render_all() << "\nprinted was:\n"
      << printed1;
  auto printed2 = print_program(*unit2->program);
  EXPECT_EQ(printed1, printed2);
}

TEST(Pretty, RoundTripSimpleProgram) {
  round_trip(
      "int a[8], x;\n"
      "index_set I:i = {0..7};\n"
      "void main() { par (I) a[i] = i; x = $+(I; a[i]); }");
}

TEST(Pretty, RoundTripPaperPrograms) {
  for (const auto& path : corpus::programs()) {
    SCOPED_TRACE(path.string());
    round_trip(corpus::read(path));
  }
}

TEST(Pretty, MinimalParenthesisation) {
  auto unit = lang::parse_only("t.uc", "void main() { x = (a + b) * c; }");
  auto out = print_program(*unit->program);
  EXPECT_NE(out.find("(a + b) * c"), std::string::npos) << out;
  auto unit2 = lang::parse_only("t.uc", "void main() { x = a + b * c; }");
  auto out2 = print_program(*unit2->program);
  EXPECT_NE(out2.find("a + b * c"), std::string::npos) << out2;
  EXPECT_EQ(out2.find("(a"), std::string::npos) << out2;  // no extra parens
}

TEST(Pretty, ReductionForms) {
  auto unit = lang::parse_only(
      "t.uc",
      "void main() { s = $+(I; i); t = $<(I st (a[i] > 0) a[i] others 0); }");
  auto out = print_program(*unit->program);
  EXPECT_NE(out.find("$+(I; i)"), std::string::npos) << out;
  EXPECT_NE(out.find("$<(I st (a[i] > 0) a[i] others 0)"),
            std::string::npos)
      << out;
}

TEST(Pretty, StarredConstructAndOthers) {
  auto unit = lang::parse_only(
      "t.uc",
      "void main() { *par (I) st (a[i] < 3) a[i] = 1; others a[i] = 2; }");
  auto out = print_program(*unit->program);
  EXPECT_NE(out.find("*par (I)"), std::string::npos) << out;
  EXPECT_NE(out.find("others"), std::string::npos) << out;
}

TEST(Pretty, MapSection) {
  auto unit = lang::parse_only(
      "t.uc",
      "int a[8], b[8];\nindex_set I:i = {0..7};\n"
      "map (I) { permute (I) b[i+1] :- a[i]; copy (I) a; }\n"
      "void main() { }");
  auto out = print_program(*unit->program);
  EXPECT_NE(out.find("permute (I) b[i + 1] :- a[i];"), std::string::npos)
      << out;
  EXPECT_NE(out.find("copy (I) a;"), std::string::npos) << out;
}

TEST(Pretty, StringEscapes) {
  auto unit = lang::parse_only(
      "t.uc", "void main() { print(\"a\\tb\\n\"); }");
  auto out = print_program(*unit->program);
  EXPECT_NE(out.find("\"a\\tb\\n\""), std::string::npos) << out;
}

}  // namespace
}  // namespace uc::codegen
