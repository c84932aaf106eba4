#include "uclang/sema.hpp"

#include <gtest/gtest.h>

#include "uclang/frontend.hpp"

namespace uc::lang {
namespace {

std::unique_ptr<CompilationUnit> sema_ok(const std::string& src) {
  auto unit = compile("test.uc", src);
  EXPECT_TRUE(unit->ok()) << unit->diags.render_all();
  return unit;
}

void sema_err(const std::string& src, const std::string& needle) {
  auto unit = compile("test.uc", src);
  ASSERT_FALSE(unit->ok()) << "expected a sema error for:\n" << src;
  EXPECT_NE(unit->diags.render_all().find(needle), std::string::npos)
      << unit->diags.render_all();
}

TEST(Sema, ResolvesIndexSetValues) {
  auto unit = sema_ok(
      "#define N 8\n"
      "index_set I:i = {0..N-1}, J:j = I, K:k = {4, 2, 9};\n"
      "void main() { }");
  auto* decl =
      static_cast<IndexSetDeclStmt*>(unit->program->items[0].decl.get());
  ASSERT_NE(decl->defs[0].symbol, nullptr);
  const auto& I = *decl->defs[0].symbol->index_set;
  ASSERT_EQ(I.values.size(), 8u);
  EXPECT_EQ(I.values.front(), 0);
  EXPECT_EQ(I.values.back(), 7);
  const auto& J = *decl->defs[1].symbol->index_set;
  EXPECT_EQ(J.values, I.values);
  const auto& K = *decl->defs[2].symbol->index_set;
  EXPECT_EQ(K.values, (std::vector<std::int64_t>{4, 2, 9}));
}

TEST(Sema, ConstIntDrivesDimensions) {
  auto unit = sema_ok(
      "const int N = 4;\n"
      "int a[N][N*2];\n"
      "void main() { }");
  auto* decl = static_cast<VarDeclStmt*>(unit->program->items[1].decl.get());
  EXPECT_EQ(decl->declarators[0].symbol->type.dims,
            (std::vector<std::int64_t>{4, 8}));
}

TEST(Sema, NonConstantIndexSetBoundRejected) {
  sema_err("int n;\nindex_set I:i = {0..n};\nvoid main() { }",
           "constant expression");
}

TEST(Sema, NonPositiveDimensionRejected) {
  sema_err("int a[0];\nvoid main() { }", "positive constant");
}

TEST(Sema, UnknownIdentifier) {
  sema_err("void main() { x = 1; }", "unknown identifier 'x'");
}

TEST(Sema, RedeclarationInSameScope) {
  sema_err("void main() { int a; float a; }", "redeclaration of 'a'");
}

TEST(Sema, ShadowingInNestedScopeOk) {
  sema_ok("int a;\nvoid main() { int a; { int a; a = 1; } }");
}

TEST(Sema, IndexElemOutsideConstructRejected) {
  sema_err(
      "index_set I:i = {0..3};\n"
      "int a[4];\n"
      "void main() { a[i] = 0; }",
      "outside a construct");
}

TEST(Sema, IndexElemInsideConstructOk) {
  sema_ok(
      "index_set I:i = {0..3};\n"
      "int a[4];\n"
      "void main() { par (I) a[i] = i; }");
}

TEST(Sema, IndexElemInsideReductionOk) {
  sema_ok(
      "index_set I:i = {0..3};\n"
      "int s;\n"
      "void main() { s = $+(I; i); }");
}

TEST(Sema, ConstructOverNonSetRejected) {
  sema_err("int a[4];\nvoid main() { par (a) a[0] = 1; }",
           "does not name an index set");
}

TEST(Sema, AssignToIndexElemRejected) {
  sema_err(
      "index_set I:i = {0..3};\n"
      "void main() { par (I) i = 0; }",
      "cannot assign to index element");
}

TEST(Sema, AssignToConstRejected) {
  sema_err("const int N = 2;\nvoid main() { N = 3; }", "const");
}

TEST(Sema, AssignToArrayWholeRejected) {
  sema_err("int a[4], b[4];\nvoid main() { a = b; }",
           "array as a whole");
}

TEST(Sema, SubscriptRankChecked) {
  sema_err("int d[4][4];\nindex_set I:i = {0..3};\n"
           "void main() { par (I) d[i] = 0; }",
           "rank 2 but 1 subscripts");
}

TEST(Sema, SubscriptNonArrayRejected) {
  sema_err("int x;\nvoid main() { x[0] = 1; }", "not an array");
}

TEST(Sema, CallArgCountChecked) {
  sema_err("int f(int x) { return x; }\nvoid main() { f(1, 2); }",
           "expects 1 argument");
}

TEST(Sema, ArrayArgumentByName) {
  sema_ok(
      "int total(int v[]) { return v[0]; }\n"
      "int a[4];\n"
      "int s;\n"
      "void main() { s = total(a); }");
}

TEST(Sema, ArrayArgumentRankMismatch) {
  sema_err(
      "int total(int v[][]) { return v[0][0]; }\n"
      "int a[4];\n"
      "void main() { total(a); }",
      "rank 2");
}

// C: passing an `int *` for a `float *` parameter is a constraint
// violation, for a whole array and for a slice alike.  The error sits on
// the argument.
TEST(Sema, ArrayArgumentElementTypeMismatch) {
  const std::string fn = "float half(float v[4]) { return v[0] / 2; }\n";
  sema_err(fn + "int a[4];\nvoid main() { half(a); }",
           "test.uc:3:20: error: argument for array parameter 'v' must have "
           "element type float, not int");
  sema_err(fn + "int m[2][4];\nvoid main() { half(m[0]); }",
           "test.uc:3:20: error: argument for array parameter 'v' must have "
           "element type float, not int");
  sema_ok(fn + "float a[4], m[2][4];\nvoid main() { half(a); half(m[1]); }");
}

TEST(Sema, BuiltinArgChecks) {
  sema_ok("void main() { int x; x = power2(3) + abs(-2) + rand() % 5; }");
  sema_err("void main() { power2(); }", "expects 1 argument");
  sema_err("void main() { rand(7); }", "expects 0 argument");
}

TEST(Sema, SwapRequiresLvalues) {
  sema_ok("int a[4];\nvoid main() { swap(a[0], a[1]); }");
  sema_err("void main() { int x; swap(x, 3); }", "not assignable");
}

TEST(Sema, VoidFunctionReturnValueRejected) {
  sema_err("void f() { return 1; }\nvoid main() { }",
           "cannot return a value");
}

TEST(Sema, NonVoidFunctionBareReturnRejected) {
  sema_err("int f() { return; }\nvoid main() { }", "must return a value");
}

TEST(Sema, BreakOutsideLoopRejected) {
  sema_err("void main() { break; }", "outside a loop");
}

TEST(Sema, ModuloOnFloatRejected) {
  sema_err("void main() { float x; x = 1.5 % 2; }", "integer operands");
}

TEST(Sema, TypePromotionIntFloat) {
  auto unit = sema_ok("float f;\nvoid main() { f = 1 + 2.5; }");
  (void)unit;
}

TEST(Sema, ParallelFunctionCalledFromParRejected) {
  sema_err(
      "index_set I:i = {0..3};\n"
      "int a[4];\n"
      "void helper() { par (I) a[i] = 0; }\n"
      "void main() { par (I) st (i == 0) helper(); }",
      "cannot be called from inside a parallel context");
}

TEST(Sema, ScalarFunctionCalledFromParOk) {
  sema_ok(
      "index_set I:i = {0..3};\n"
      "int a[4];\n"
      "int twice(int x) { return 2 * x; }\n"
      "void main() { par (I) a[i] = twice(i); }");
}

TEST(Sema, FunctionsCallableBeforeDefinition) {
  sema_ok(
      "int s;\n"
      "void main() { s = later(3); }\n"
      "int later(int x) { return x + 1; }");
}

TEST(Sema, SolveBodyMustBeAssignments) {
  sema_err(
      "index_set I:i = {0..3};\n"
      "int a[4];\n"
      "void main() { solve (I) if (i > 0) a[i] = 1; }",
      "only assignment statements");
}

TEST(Sema, SolveCompoundAssignRejected) {
  sema_err(
      "index_set I:i = {0..3};\n"
      "int a[4];\n"
      "void main() { solve (I) a[i] += 1; }",
      "plain '='");
}

TEST(Sema, SolveDoubleAssignmentRejected) {
  sema_err(
      "index_set I:i = {0..3};\n"
      "int a[4];\n"
      "void main() { solve (I) { a[i] = 1; a[i] = 2; } }",
      "more than one statement");
}

TEST(Sema, StarSolveMayReassign) {
  sema_ok(
      "index_set I:i = {0..3};\n"
      "int a[4];\n"
      "void main() { *solve (I) { a[i] = 1; a[i] = 1; } }");
}

TEST(Sema, ArrayDeclInsideParRejected) {
  sema_err(
      "index_set I:i = {0..3};\n"
      "void main() { par (I) { int tmp[4]; tmp[0] = 1; } }",
      "inside parallel constructs");
}

TEST(Sema, PerLaneScalarDeclOk) {
  sema_ok(
      "index_set I:i = {0..3};\n"
      "int a[4];\n"
      "void main() { par (I) { int rank; rank = i; a[rank] = i; } }");
}

TEST(Sema, MapSectionResolvesArrays) {
  sema_ok(
      "int a[8], b[8];\n"
      "index_set I:i = {0..7};\n"
      "map (I) { permute (I) b[i+1] :- a[i]; }\n"
      "void main() { }");
}

TEST(Sema, MapSectionUnknownArray) {
  sema_err(
      "index_set I:i = {0..7};\n"
      "map (I) { permute (I) b[i] :- b[i]; }\n"
      "void main() { }",
      "unknown array 'b'");
}

TEST(Sema, FoldRequiresSameArray) {
  sema_err(
      "int a[8], b[8];\n"
      "index_set I:i = {0..7};\n"
      "map (I) { fold (I) b[7-i] :- a[i]; }\n"
      "void main() { }",
      "relative to itself");
}

TEST(Sema, CopyTakesBareArray) {
  sema_ok(
      "int a[8];\n"
      "index_set I:i = {0..7}, J:j = I;\n"
      "map (I) { copy (J) a; }\n"
      "void main() { }");
}

TEST(Sema, ReductionOverUnknownSet) {
  sema_err("int s;\nvoid main() { s = $+(Q; 1); }",
           "does not name an index set");
}

TEST(Sema, XorReductionOnFloatRejected) {
  sema_err(
      "index_set I:i = {0..3};\n"
      "float f[4];\n"
      "int s;\n"
      "void main() { s = $^(I; f[i]); }",
      "integer operands");
}

TEST(Sema, InfIsKnownConstant) {
  sema_ok("int x;\nvoid main() { x = INF; if (x == INF) x = 0; }");
}

TEST(Sema, EmptyIndexSetWarns) {
  auto unit = compile("t.uc", "index_set I:i = {5..2};\nvoid main() { }");
  EXPECT_TRUE(unit->ok());
  bool warned = false;
  for (const auto& d : unit->diags.diagnostics()) {
    warned = warned || d.severity == support::Severity::kWarning;
  }
  EXPECT_TRUE(warned);
}

TEST(Sema, IndexSetShadowingAcrossScopes) {
  // Paper §3.4: reuse of an index set in a nested construct rebinds the
  // element; redeclaration in an inner scope hides the outer set.
  sema_ok(
      "index_set I:i = {0..9};\n"
      "int a[10];\n"
      "void main() {\n"
      "  par (I) st (i%2==0) a[i] = $+(I; i);\n"
      "}");
}

TEST(Sema, PaperFigure1Compiles) {
  sema_ok(
      "#define N 10\n"
      "index_set I:i = {0..9}, J:j = I;\n"
      "int s, mn, first, arb, last, a[N];\n"
      "float avg;\n"
      "void main() {\n"
      "  s = $+(I; i);\n"
      "  avg = s / 10.0;\n"
      "  mn = $<(I; a[i]);\n"
      "  first = $<(I st (a[i]==mn) i);\n"
      "  arb = $,(I st (a[i]==mn) i);\n"
      "  last = $>(I st (a[i] == $>(J; a[j])) i);\n"
      "}");
}

TEST(Sema, PaperRanksortCompiles) {
  sema_ok(
      "#define N 16\n"
      "index_set I:i = {0..N-1}, J:j = I;\n"
      "int a[N];\n"
      "void main() {\n"
      "  par (I)\n"
      "  { int rank;\n"
      "    rank = $+(J st (a[j]<a[i]) 1);\n"
      "    a[rank] = a[i];\n"
      "  }\n"
      "}");
}

TEST(Sema, PaperPrefixSumCompiles) {
  sema_ok(
      "#define N 16\n"
      "index_set I:i = {0..N-1};\n"
      "int a[N], cnt[N];\n"
      "void main() {\n"
      "  par (I) { a[i] = i; cnt[i] = 0; }\n"
      "  *par (I) st (i >= power2(cnt[i]))\n"
      "  { a[i] = a[i] + a[i-power2(cnt[i])];\n"
      "    cnt[i] = cnt[i] + 1;\n"
      "  }\n"
      "}");
}

TEST(Sema, PaperShortestPathOn2Compiles) {
  sema_ok(
      "#define N 8\n"
      "index_set I:i = {0..N-1}, J:j = I, K:k = I;\n"
      "int d[N][N];\n"
      "void main() {\n"
      "  par (I, J) st (i==j) d[i][j] = 0;\n"
      "    others d[i][j] = rand()%N + 1;\n"
      "  seq (K)\n"
      "    par (I, J)\n"
      "      st (d[i][k]+d[k][j] < d[i][j]) d[i][j] = d[i][k]+d[k][j];\n"
      "}");
}

TEST(Sema, PaperShortestPathOn3Compiles) {
  sema_ok(
      "#define N 8\n"
      "#define LOGN 3\n"
      "index_set I:i = {0..N-1}, J:j = I, K:k = I;\n"
      "index_set L:l = {0..LOGN-1};\n"
      "int d[N][N];\n"
      "void main() {\n"
      "  seq (L)\n"
      "    par (I, J)\n"
      "      d[i][j] = $<(K; d[i][k]+d[k][j]);\n"
      "}");
}

TEST(Sema, PaperWavefrontSolveCompiles) {
  sema_ok(
      "#define N 8\n"
      "index_set I:i = {0..N-1}, J:j = I;\n"
      "int a[N][N];\n"
      "void main() {\n"
      "  solve (I, J)\n"
      "    a[i][j] = (i==0 || j==0) ? 1\n"
      "      : a[i-1][j]+a[i-1][j-1]+a[i][j-1];\n"
      "}");
}

TEST(Sema, PaperOddEvenSortCompiles) {
  sema_ok(
      "#define N 16\n"
      "int x[N];\n"
      "index_set I:i = {0..N-2};\n"
      "void main() {\n"
      "  *oneof (I)\n"
      "    st (i%2==0 && x[i]>x[i+1]) swap(x[i], x[i+1]);\n"
      "    st (i%2!=0 && x[i]>x[i+1]) swap(x[i], x[i+1]);\n"
      "}");
}

TEST(Sema, PaperHistogramCompiles) {
  sema_ok(
      "#define N 32\n"
      "int samples[N];\n"
      "int count[10];\n"
      "index_set I:i = {0..N-1}, J:j = {0..9};\n"
      "void main() {\n"
      "  par (J)\n"
      "    count[j] = $+(I st (samples[i]==j) 1);\n"
      "}");
}

}  // namespace
}  // namespace uc::lang
