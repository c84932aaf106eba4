// Negative corpus: hostile and malformed inputs must come back as located
// diagnostics — never a crash, hang, or host stack overflow.  Each case
// runs the full front end (lex, parse, sema) on one adversarial source.
#include <gtest/gtest.h>

#include <string>

#include "uclang/frontend.hpp"

namespace uc::lang {
namespace {

// Compiles hostile input; the front end must survive and report >= 1 error.
std::string expect_errors(const std::string& src) {
  auto unit = compile("hostile.uc", src);
  EXPECT_GT(unit->diags.error_count(), 0u);
  return unit->diags.render_all();
}

TEST(NegativeCorpus, EmptyAndTruncatedInputs) {
  // An empty file is a valid (empty) translation unit; it must simply not
  // crash the front end.  Everything truncated mid-construct must error.
  EXPECT_EQ(compile("hostile.uc", "")->diags.error_count(), 0u);
  expect_errors("void");
  expect_errors("void main(");
  expect_errors("void main() {");
  expect_errors("void main() { int a; a =");
  expect_errors("index_set I:i = {0..");
  expect_errors("#define");
}

TEST(NegativeCorpus, UnterminatedLiteralsAndComments) {
  auto s = expect_errors("void main() { print(\"oops); }");
  EXPECT_NE(s.find("unterminated string literal"), std::string::npos) << s;
  auto c = expect_errors("void main() { } /* never closed");
  EXPECT_NE(c.find("unterminated block comment"), std::string::npos) << c;
  expect_errors("void main() { int a; a = 'x; }");
}

TEST(NegativeCorpus, DeepParenNestingHitsDepthLimitCleanly) {
  // 5000 nested parens would blow the host stack in a naive recursive
  // descent; the parser's depth guard must turn it into a diagnostic.
  const int depth = 5000;
  std::string src = "void main() { int a; a = ";
  src.append(static_cast<std::size_t>(depth), '(');
  src += "1";
  src.append(static_cast<std::size_t>(depth), ')');
  src += "; }";
  auto out = expect_errors(src);
  EXPECT_NE(out.find("parser depth limit"), std::string::npos) << out;
}

TEST(NegativeCorpus, DeepBraceNestingHitsDepthLimitCleanly) {
  const int depth = 5000;
  std::string src = "void main() ";
  src.append(static_cast<std::size_t>(depth), '{');
  src.append(static_cast<std::size_t>(depth), '}');
  auto out = expect_errors(src);
  EXPECT_NE(out.find("parser depth limit"), std::string::npos) << out;
}

TEST(NegativeCorpus, DeepUnaryChainHitsDepthLimitCleanly) {
  std::string src = "void main() { int a; a = ";
  src.append(5000, '-');
  src += "1; }";
  auto out = expect_errors(src);
  EXPECT_NE(out.find("parser depth limit"), std::string::npos) << out;
}

TEST(NegativeCorpus, ModeratelyNestedExpressionsStillParse) {
  // The guard must not reject reasonable programs: 100 levels is fine.
  std::string src = "void main() { int a; a = ";
  src.append(100, '(');
  src += "1";
  src.append(100, ')');
  src += "; }";
  auto unit = compile("ok.uc", src);
  EXPECT_EQ(unit->diags.error_count(), 0u) << unit->diags.render_all();
}

TEST(NegativeCorpus, OverflowingNumericLiterals) {
  expect_errors("void main() { int a; a = 99999999999999999999999999999; }");
  expect_errors("void main() { float f; f = 1e99999; }");
}

TEST(NegativeCorpus, PathologicalIdentifiersAndGarbageBytes) {
  // A 64 KiB identifier must lex without quadratic blowup or crash.
  std::string long_ident(65536, 'x');
  std::string src = "void main() { " + long_ident + " = 1; }";
  expect_errors(src);  // unknown identifier, not a crash

  // Raw control characters and stray bytes inside a function body.
  expect_errors("void main() { \x01\x02\x7f\xfe int a; }");
  expect_errors("void main() { int a; a = 1 @ 2; }");
  expect_errors("void main() { $ }");
}

TEST(NegativeCorpus, MalformedConstructsReportNotCrash) {
  expect_errors("void main() { par () { } }");            // empty set list
  expect_errors("void main() { par (NoSuchSet) { } }");   // unknown set
  expect_errors("void main() { *seq { } }");              // missing sets
  expect_errors("void main() { solve { } }");             // missing sets
  // A reversed range is deliberately a warning, not an error: the set is
  // legal but empty, and the message must say so.
  auto unit = compile("hostile.uc", "index_set I:i = {3..0};\nvoid main() { }");
  EXPECT_EQ(unit->diags.error_count(), 0u);
  EXPECT_NE(unit->diags.render_all().find("is empty"), std::string::npos)
      << unit->diags.render_all();
}

// An array argument whose element type differs from the parameter's
// (whole array or slice) is a located error, not a run that reinterprets
// the elements.
TEST(NegativeCorpus, ArrayArgumentOfAnotherElementType) {
  const std::string fn = "int first(int v[2]) { return v[0]; }\n";
  auto whole = expect_errors(fn + "float a[2];\nvoid main() { first(a); }");
  EXPECT_NE(whole.find("hostile.uc:3:21: error: argument for array "
                       "parameter 'v' must have element type int, not float"),
            std::string::npos)
      << whole;
  auto slice =
      expect_errors(fn + "float m[3][2];\nvoid main() { first(m[2]); }");
  EXPECT_NE(slice.find("hostile.uc:3:21: error: argument for array "
                       "parameter 'v' must have element type int, not float"),
            std::string::npos)
      << slice;
}

TEST(NegativeCorpus, ManyErrorsDoNotCascadeForever) {
  // 2000 bad statements: the engine must report a bounded, per-statement
  // diagnostic stream and terminate (no error-recovery livelock).
  std::string src = "void main() {\n";
  for (int k = 0; k < 2000; ++k) src += "  @!;\n";
  src += "}\n";
  auto unit = compile("hostile.uc", src);
  EXPECT_GT(unit->diags.error_count(), 0u);
}

}  // namespace
}  // namespace uc::lang
