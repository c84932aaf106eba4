// `ucc analyze`'s communication classes against the charges of a run
// (docs/ANALYSIS.md): for a statement whose accesses analyze places in
// local, news or router, a bytecode run issues a NEWS instruction exactly
// when one access is news and a router instruction exactly when one is
// router.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "analysis/pass.hpp"
#include "uc/uc.hpp"

namespace {

using uc::analysis::CommClass;

struct Observed {
  // (array, class) of every access analyze classified, in source order.
  std::vector<std::pair<std::string, CommClass>> classes;
  uc::cm::CostStats stats;  // of a bytecode run
};

// Analyzes `decls` + main() { `stmt` } and runs it on bytecode.
Observed observe(const std::string& decls, const std::string& stmt) {
  const auto program = uc::Program::compile(
      "comm.uc", decls + "void main() {\n  " + stmt + "\n}\n");
  Observed o;
  const auto report = uc::analysis::run_default_analysis(program.unit());
  for (const auto& fn : report.functions) {
    for (const auto& access : fn.accesses) {
      o.classes.emplace_back(access.array, access.cls);
    }
  }
  uc::vm::ExecOptions eopts;
  eopts.engine = uc::vm::ExecEngine::kBytecode;
  o.stats = program.run({}, eopts).stats();
  return o;
}

void expect_agree(const Observed& o) {
  bool news = false;
  bool router = false;
  for (const auto& [array, cls] : o.classes) {
    ASSERT_NE(cls, CommClass::kScan) << array;
    news |= cls == CommClass::kNews;
    router |= cls == CommClass::kRouter;
  }
  EXPECT_EQ(o.stats.news_ops, news ? 1u : 0u);
  EXPECT_EQ(o.stats.router_ops, router ? 1u : 0u);
}

using Classes = std::vector<std::pair<std::string, CommClass>>;
constexpr CommClass kLocal = CommClass::kLocal;
constexpr CommClass kNews = CommClass::kNews;
constexpr CommClass kRouter = CommClass::kRouter;

// Lane position p of {1..N} binds p + 1: g[k-1] is the lane's own
// element, and g[k] is one hop away.
TEST(Comm, OneBasedSetShiftsTheOwnElement) {
  const std::string decls =
      "#define N 16\nindex_set K:k = {1..N};\nint g[N], h[N];\n";
  const Observed own = observe(decls, "par (K) h[k-1] = g[k-1];");
  EXPECT_EQ(own.classes, (Classes{{"h", kLocal}, {"g", kLocal}}));
  expect_agree(own);
  const Observed next = observe(decls, "par (K) st (k < N) h[k-1] = g[k];");
  EXPECT_EQ(next.classes, (Classes{{"h", kLocal}, {"g", kNews}}));
  expect_agree(next);
}

// 50 hops cost 50 × news_op = 600 cycles, one router delivery: NEWS.
// 51 hops route.
TEST(Comm, NewsLimitIsFiftyHops) {
  const std::string decls =
      "#define L 64\nindex_set X:x = {0..L-1};\nint line[L], far[L];\n";
  const Observed at =
      observe(decls, "par (X) st (x < 14) far[x] = line[x + 50];");
  EXPECT_EQ(at.classes, (Classes{{"far", kLocal}, {"line", kNews}}));
  expect_agree(at);
  // The NEWS instruction is charged per hop.
  const Observed hop =
      observe(decls, "par (X) st (x < 14) far[x] = line[x + 1];");
  EXPECT_EQ(at.stats.cycles - hop.stats.cycles, 49u * 12u);
  const Observed past =
      observe(decls, "par (X) st (x > 50) far[x] = line[x - 51];");
  EXPECT_EQ(past.classes, (Classes{{"far", kLocal}, {"line", kRouter}}));
  expect_agree(past);
  EXPECT_EQ(past.stats.router_messages, 13u);
}

// Six lanes over an eight-element array: lane t binds i = t + 1 and is
// VP t, so a[i-1] is local, and a[i+1] and the store to b[i] route
// (no NEWS: the lane geometry is not the array's shape).
TEST(Comm, LaneGeometryOffTheArrayShape) {
  const Observed o = observe(
      "const int N = 8;\nindex_set I:i = {1..N-2};\nint a[N], b[N];\n",
      "par (I) b[i] = a[i-1] + a[i+1];");
  EXPECT_EQ(o.classes,
            (Classes{{"b", kRouter}, {"a", kLocal}, {"a", kRouter}}));
  expect_agree(o);
  EXPECT_EQ(o.stats.router_messages, 12u);
}

// Each lane reads across the diagonal: the lanes on it are local, and
// every other one routes.
TEST(Comm, TransposedReadRoutes) {
  const Observed o = observe(
      "#define N 16\nindex_set I:i = {0..N-1}, J:j = I;\n"
      "int g[N][N], t[N][N];\n",
      "par (I, J) t[i][j] = g[j][i];");
  EXPECT_EQ(o.classes, (Classes{{"t", kLocal}, {"g", kRouter}}));
  expect_agree(o);
  EXPECT_EQ(o.stats.router_messages, 16u * 16u - 16u);
}

// A solve equation charges its accesses through the same
// Machine::charge_access as a par: a per-lane call that writes a copied
// array broadcasts in both.
TEST(Comm, SolveEquationBroadcastsLikeAPar) {
  const std::string decls =
      "#define N 8\nindex_set I:i = {0..N-1};\nint a[N], c[N];\n"
      "map (I) { copy (I) c; }\n"
      "int f(int x) { c[x] = x; return x + 1; }\n";
  const Observed solve = observe(decls, "solve (I) a[i] = f(i);");
  const Observed par = observe(decls, "par (I) a[i] = f(i);");
  EXPECT_EQ(solve.stats.broadcasts, 1u);
  EXPECT_EQ(par.stats.broadcasts, 1u);
}

}  // namespace
