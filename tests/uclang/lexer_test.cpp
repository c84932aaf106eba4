#include "uclang/lexer.hpp"

#include <gtest/gtest.h>

namespace uc::lang {
namespace {

std::vector<Token> lex(const std::string& src,
                       support::DiagnosticEngine* out_diags = nullptr) {
  support::SourceFile file("test.uc", src);
  support::DiagnosticEngine diags(&file);
  Lexer lexer(file, diags);
  auto tokens = lexer.lex_all();
  if (out_diags != nullptr) *out_diags = diags;
  EXPECT_FALSE(diags.has_errors()) << diags.render_all();
  return tokens;
}

std::vector<TokenKind> kinds(const std::vector<Token>& toks) {
  std::vector<TokenKind> out;
  for (const auto& t : toks) out.push_back(t.kind);
  return out;
}

TEST(Lexer, EmptyInputGivesEof) {
  auto toks = lex("");
  ASSERT_EQ(toks.size(), 1u);
  EXPECT_EQ(toks[0].kind, TokenKind::kEof);
}

TEST(Lexer, Identifiers) {
  auto toks = lex("foo _bar baz9");
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[0].kind, TokenKind::kIdent);
  EXPECT_EQ(toks[0].text, "foo");
  EXPECT_EQ(toks[1].text, "_bar");
  EXPECT_EQ(toks[2].text, "baz9");
}

TEST(Lexer, Keywords) {
  auto toks = lex("par seq solve oneof st others map permute fold copy");
  auto k = kinds(toks);
  EXPECT_EQ(k[0], TokenKind::kKwPar);
  EXPECT_EQ(k[1], TokenKind::kKwSeq);
  EXPECT_EQ(k[2], TokenKind::kKwSolve);
  EXPECT_EQ(k[3], TokenKind::kKwOneof);
  EXPECT_EQ(k[4], TokenKind::kKwSt);
  EXPECT_EQ(k[5], TokenKind::kKwOthers);
  EXPECT_EQ(k[6], TokenKind::kKwMap);
  EXPECT_EQ(k[7], TokenKind::kKwPermute);
  EXPECT_EQ(k[8], TokenKind::kKwFold);
  EXPECT_EQ(k[9], TokenKind::kKwCopy);
}

TEST(Lexer, IndexSetBothSpellings) {
  auto toks = lex("index_set index-set");
  EXPECT_EQ(toks[0].kind, TokenKind::kKwIndexSet);
  EXPECT_EQ(toks[1].kind, TokenKind::kKwIndexSet);
}

TEST(Lexer, IndexMinusSetWithSpacesIsNotKeyword) {
  // `index - set` (spaced) is subtraction of identifiers.
  auto toks = lex("index - set");
  EXPECT_EQ(toks[0].kind, TokenKind::kIdent);
  EXPECT_EQ(toks[1].kind, TokenKind::kMinus);
  EXPECT_EQ(toks[2].kind, TokenKind::kIdent);
}

TEST(Lexer, IndexMinusSetterIsNotKeyword) {
  // `index-setter` must lex as index - setter.
  auto toks = lex("index-setter");
  EXPECT_EQ(toks[0].kind, TokenKind::kIdent);
  EXPECT_EQ(toks[1].kind, TokenKind::kMinus);
  EXPECT_EQ(toks[2].text, "setter");
}

TEST(Lexer, ReductionOperators) {
  auto toks = lex("$+ $* $&& $|| $^ $> $< $, $& $|");
  auto k = kinds(toks);
  EXPECT_EQ(k[0], TokenKind::kRedAdd);
  EXPECT_EQ(k[1], TokenKind::kRedMul);
  EXPECT_EQ(k[2], TokenKind::kRedAnd);
  EXPECT_EQ(k[3], TokenKind::kRedOr);
  EXPECT_EQ(k[4], TokenKind::kRedXor);
  EXPECT_EQ(k[5], TokenKind::kRedMax);
  EXPECT_EQ(k[6], TokenKind::kRedMin);
  EXPECT_EQ(k[7], TokenKind::kRedArb);
  EXPECT_EQ(k[8], TokenKind::kRedAnd);  // $& short form
  EXPECT_EQ(k[9], TokenKind::kRedOr);   // $| short form
}

TEST(Lexer, RangeAndMapsToTokens) {
  auto toks = lex("{0..9} b[i+1] :- a[i];");
  auto k = kinds(toks);
  EXPECT_EQ(k[0], TokenKind::kLBrace);
  EXPECT_EQ(k[1], TokenKind::kIntLit);
  EXPECT_EQ(k[2], TokenKind::kDotDot);
  EXPECT_EQ(k[3], TokenKind::kIntLit);
  // find the :- token
  bool found = false;
  for (auto kk : k) found = found || kk == TokenKind::kMapsTo;
  EXPECT_TRUE(found);
}

TEST(Lexer, IntAndFloatLiterals) {
  auto toks = lex("42 3.5 1.0 2e3 7");
  EXPECT_EQ(toks[0].kind, TokenKind::kIntLit);
  EXPECT_EQ(toks[0].int_value, 42);
  EXPECT_EQ(toks[1].kind, TokenKind::kFloatLit);
  EXPECT_DOUBLE_EQ(toks[1].float_value, 3.5);
  EXPECT_EQ(toks[2].kind, TokenKind::kFloatLit);
  EXPECT_EQ(toks[3].kind, TokenKind::kFloatLit);
  EXPECT_DOUBLE_EQ(toks[3].float_value, 2000.0);
  EXPECT_EQ(toks[4].kind, TokenKind::kIntLit);
}

TEST(Lexer, Int64MaxLexesExactly) {
  auto toks = lex("9223372036854775807");
  ASSERT_EQ(toks[0].kind, TokenKind::kIntLit);
  EXPECT_EQ(toks[0].int_value, 9223372036854775807LL);
}

TEST(Lexer, IntLiteralOverflowIsAnError) {
  // strtoll would silently saturate to LLONG_MAX; the lexer must reject.
  support::SourceFile file("test.uc", "99999999999999999999");
  support::DiagnosticEngine diags(&file);
  Lexer lexer(file, diags);
  auto toks = lexer.lex_all();
  ASSERT_EQ(toks[0].kind, TokenKind::kIntLit);
  EXPECT_TRUE(diags.has_errors());
  EXPECT_NE(diags.render_all().find("does not fit in a 64-bit int"),
            std::string::npos)
      << diags.render_all();
}

TEST(Lexer, IntJustPastMaxIsAnError) {
  support::SourceFile file("test.uc", "9223372036854775808");
  support::DiagnosticEngine diags(&file);
  Lexer lexer(file, diags);
  (void)lexer.lex_all();
  EXPECT_TRUE(diags.has_errors());
}

TEST(Lexer, IntFollowedByRangeIsNotFloat) {
  // `0..N` must lex as 0 .. N, not 0. . N.
  auto toks = lex("0..9");
  EXPECT_EQ(toks[0].kind, TokenKind::kIntLit);
  EXPECT_EQ(toks[1].kind, TokenKind::kDotDot);
  EXPECT_EQ(toks[2].kind, TokenKind::kIntLit);
}

TEST(Lexer, OperatorsMaximalMunch) {
  auto toks = lex("<= >= == != && || << >> ++ -- += -=");
  auto k = kinds(toks);
  EXPECT_EQ(k[0], TokenKind::kLe);
  EXPECT_EQ(k[1], TokenKind::kGe);
  EXPECT_EQ(k[2], TokenKind::kEq);
  EXPECT_EQ(k[3], TokenKind::kNe);
  EXPECT_EQ(k[4], TokenKind::kAmpAmp);
  EXPECT_EQ(k[5], TokenKind::kPipePipe);
  EXPECT_EQ(k[6], TokenKind::kShl);
  EXPECT_EQ(k[7], TokenKind::kShr);
  EXPECT_EQ(k[8], TokenKind::kPlusPlus);
  EXPECT_EQ(k[9], TokenKind::kMinusMinus);
  EXPECT_EQ(k[10], TokenKind::kPlusAssign);
  EXPECT_EQ(k[11], TokenKind::kMinusAssign);
}

TEST(Lexer, CommentsAreSkipped) {
  auto toks = lex("a // line comment\nb /* block\ncomment */ c");
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[0].text, "a");
  EXPECT_EQ(toks[1].text, "b");
  EXPECT_EQ(toks[2].text, "c");
}

TEST(Lexer, DefineMacroSubstitutes) {
  auto toks = lex("#define N 32\nint a[N];");
  // int a [ 32 ] ;
  EXPECT_EQ(toks[0].kind, TokenKind::kKwInt);
  EXPECT_EQ(toks[3].kind, TokenKind::kIntLit);
  EXPECT_EQ(toks[3].int_value, 32);
}

TEST(Lexer, DefineMacroMultiToken) {
  auto toks = lex("#define NN (N*N)\n#define N 4\nNN");
  // NN -> ( N * N ) -> ( 4 * 4 )
  auto k = kinds(toks);
  EXPECT_EQ(k[0], TokenKind::kLParen);
  EXPECT_EQ(toks[1].int_value, 4);
  EXPECT_EQ(k[2], TokenKind::kStar);
  EXPECT_EQ(toks[3].int_value, 4);
  EXPECT_EQ(k[4], TokenKind::kRParen);
}

TEST(Lexer, ConsecutiveDefines) {
  auto toks = lex("#define A 1\n#define B 2\nA B");
  EXPECT_EQ(toks[0].int_value, 1);
  EXPECT_EQ(toks[1].int_value, 2);
}

// A comment on a #define line is not part of the replacement and leaves
// the next line alone: the next directive still starts a line.
TEST(Lexer, CommentsOnDefineLinesEndAtTheirLine) {
  for (const char* comment : {"/* size */", "// size"}) {
    SCOPED_TRACE(comment);
    auto toks = lex(std::string("#define N 8  ") + comment +
                    "\n#define M 2\nN M");
    ASSERT_EQ(toks.size(), 3u);
    EXPECT_EQ(toks[0].int_value, 8);
    EXPECT_EQ(toks[1].int_value, 2);
    EXPECT_EQ(toks[2].kind, TokenKind::kEof);
  }
  // A block comment inside the replacement is a separator; one that runs
  // past the line ends the directive.
  auto toks = lex("#define P 1 /* a */ + 2\n#define Q 3 /* b\n */ Q P");
  ASSERT_EQ(toks.size(), 5u);
  EXPECT_EQ(toks[0].int_value, 3);
  EXPECT_EQ(toks[1].int_value, 1);
  EXPECT_EQ(toks[2].kind, TokenKind::kPlus);
  EXPECT_EQ(toks[3].int_value, 2);
}

TEST(Lexer, SelfReferentialMacroDoesNotLoop) {
  auto toks = lex("#define X X+1\nX");
  // X -> X + 1 with inner X left alone.
  EXPECT_EQ(toks[0].kind, TokenKind::kIdent);
  EXPECT_EQ(toks[0].text, "X");
  EXPECT_EQ(toks[1].kind, TokenKind::kPlus);
  EXPECT_EQ(toks[2].int_value, 1);
}

TEST(Lexer, CharAndStringLiterals) {
  auto toks = lex("'a' '\\n' \"hi\\tthere\"");
  EXPECT_EQ(toks[0].kind, TokenKind::kCharLit);
  EXPECT_EQ(toks[0].int_value, 'a');
  EXPECT_EQ(toks[1].int_value, '\n');
  EXPECT_EQ(toks[2].kind, TokenKind::kStringLit);
  EXPECT_EQ(toks[2].text, "hi\tthere");
}

TEST(Lexer, GotoIsLexedAsKeyword) {
  auto toks = lex("goto");
  EXPECT_EQ(toks[0].kind, TokenKind::kKwGoto);
}

TEST(Lexer, ErrorsReported) {
  support::SourceFile file("t.uc", "int a @ b;");
  support::DiagnosticEngine diags(&file);
  Lexer lexer(file, diags);
  auto toks = lexer.lex_all();
  EXPECT_TRUE(diags.has_errors());
  // Lexing continues past the error.
  EXPECT_GE(toks.size(), 4u);
}

TEST(Lexer, BadDollarReported) {
  support::SourceFile file("t.uc", "$=");
  support::DiagnosticEngine diags(&file);
  Lexer lexer(file, diags);
  (void)lexer.lex_all();
  EXPECT_TRUE(diags.has_errors());
}

TEST(Lexer, UnsupportedDirectiveReported) {
  support::SourceFile file("t.uc", "#include <stdio.h>\nint a;");
  support::DiagnosticEngine diags(&file);
  Lexer lexer(file, diags);
  auto toks = lexer.lex_all();
  EXPECT_TRUE(diags.has_errors());
  EXPECT_EQ(toks[0].kind, TokenKind::kKwInt);  // recovery continues
}

TEST(Lexer, FunctionLikeMacroRejected) {
  support::SourceFile file("t.uc", "#define F(x) x\n");
  support::DiagnosticEngine diags(&file);
  Lexer lexer(file, diags);
  (void)lexer.lex_all();
  EXPECT_TRUE(diags.has_errors());
}

TEST(Lexer, SourceRangesPointAtSpelling) {
  auto toks = lex("ab + cd");
  EXPECT_EQ(toks[0].range.begin.offset, 0u);
  EXPECT_EQ(toks[0].range.end.offset, 2u);
  EXPECT_EQ(toks[2].range.begin.offset, 5u);
}

TEST(Lexer, InfKeyword) {
  auto toks = lex("INF");
  EXPECT_EQ(toks[0].kind, TokenKind::kKwInf);
}

}  // namespace
}  // namespace uc::lang
