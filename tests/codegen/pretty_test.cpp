#include "codegen/pretty.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "corpus.hpp"
#include "uc/uc.hpp"
#include "uclang/frontend.hpp"

namespace uc::codegen {
namespace {

// Round-trip property: parse -> print -> parse -> print must be a fixed
// point (print is a canonical form).  Returns the printed program.
std::string round_trip(const std::string& src) {
  auto unit1 = lang::parse_only("a.uc", src);
  EXPECT_FALSE(unit1->diags.has_errors()) << unit1->diags.render_all();
  auto printed1 = print_program(*unit1->program);
  auto unit2 = lang::parse_only("b.uc", printed1);
  EXPECT_FALSE(unit2->diags.has_errors())
      << unit2->diags.render_all() << "\nprinted was:\n"
      << printed1;
  auto printed2 = print_program(*unit2->program);
  EXPECT_EQ(printed1, printed2);
  return printed1;
}

vm::RunResult run(const std::string& src) {
  return Program::compile("p.uc", src).run();
}

TEST(Pretty, RoundTripSimpleProgram) {
  round_trip(
      "int a[8], x;\n"
      "index_set I:i = {0..7};\n"
      "void main() { par (I) a[i] = i; x = $+(I; a[i]); }");
}

// The printed program is the same program: same output, same modeled
// costs.
TEST(Pretty, RoundTripPaperPrograms) {
  for (const auto& path : corpus::programs()) {
    SCOPED_TRACE(path.string());
    const std::string src = corpus::read(path);
    const vm::RunResult want = run(src);
    const vm::RunResult got = run(round_trip(src));
    EXPECT_EQ(want.output(), got.output());
    EXPECT_EQ(want.stats(), got.stats());
  }
}

// Float literals print in the shortest form that reads back exactly.
TEST(Pretty, FloatLiteralsReadBackExactly) {
  for (const auto& [lit, printed] :
       {std::pair{"3.14159265358979", "3.14159265358979"},
        {"1e300", "1e+300"},
        {"5e-324", "5e-324"},
        {"-0.0", "-0.0"},
        {"10.0", "10.0"}}) {
    SCOPED_TRACE(lit);
    const std::string src =
        std::string("float x;\nvoid main() { x = ") + lit + "; }";
    const std::string out = round_trip(src);
    EXPECT_NE(out.find(std::string("x = ") + printed + ";"),
              std::string::npos)
        << out;
    // Folded (as ucc prints it) and printed again: still the same bits.
    const std::string folded = Program::compile("f.uc", src).to_uc_source();
    EXPECT_EQ(round_trip(folded), folded);
    const auto bits = [](const vm::RunResult& r) {
      return std::bit_cast<std::uint64_t>(r.global_scalar("x").as_float());
    };
    EXPECT_EQ(bits(run(src)), bits(run(out)));
    EXPECT_EQ(bits(run(src)), bits(run(folded)));
  }
}

// No AST the front end builds holds an infinite or NaN literal, but the
// printer still spells them so that they read (and fold) back.
TEST(Pretty, NonFiniteFloatsPrintAsQuotients) {
  auto unit = lang::parse_only("t.uc", "float x;\nvoid main() { x = 1.0; }");
  const auto& body = *unit->program->find_function("main")->body;
  auto& assign = static_cast<lang::AssignExpr&>(
      *static_cast<lang::ExprStmt&>(*body.body[0]).expr);
  auto& lit = static_cast<lang::FloatLitExpr&>(*assign.rhs);
  for (const double v : {std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(v);
    lit.value = v;
    const std::string out = round_trip(print_program(*unit->program));
    const double got = run(out).global_scalar("x").as_float();
    EXPECT_TRUE(std::isnan(v) ? std::isnan(got) : got == v) << out;
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
