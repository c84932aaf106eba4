// Differential property testing: random integer expression trees are
// pretty-printed into a UC program, compiled with constant folding on and
// off, executed on the walk, bytecode and native engines and compared
// against a direct host-side evaluation of the same tree.  This exercises
// the printer/parser round trip, both constant folders and the engines' C
// semantics (short-circuiting, truncation, precedence, two's-complement
// wrap at the int64 edges) on inputs nobody hand-wrote.  The reference
// evaluator does not share the engines' operator definitions
// (uclang/arith.hpp): it wraps with its own uint64 arithmetic.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "codegen/pretty.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"
#include "uc/uc.hpp"
#include "uclang/ast.hpp"

namespace uc {
namespace {

using lang::BinaryOp;
using lang::Expr;
using lang::ExprPtr;
using lang::UnaryOp;

constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t k2To53 = std::int64_t{1} << 53;

struct Env {
  std::int64_t x, y, z;
};

// ---- random expression generation -----------------------------------------

ExprPtr make_binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  auto b = std::make_unique<lang::BinaryExpr>();
  b->op = op;
  b->lhs = std::move(lhs);
  b->rhs = std::move(rhs);
  return b;
}

ExprPtr make_int(std::int64_t v) {
  if (v == kMin) {
    // No literal spells INT64_MIN: 0 - 9223372036854775807 - 1.
    return make_binary(BinaryOp::kSub,
                       make_binary(BinaryOp::kSub, make_int(0),
                                   make_int(kMax)),
                       make_int(1));
  }
  if (v < 0) {
    // The printer would render a negative literal anyway, but UC sources
    // spell negatives as unary minus; keep the tree canonical.
    auto u = std::make_unique<lang::UnaryExpr>();
    u->op = UnaryOp::kNeg;
    auto lit = std::make_unique<lang::IntLitExpr>();
    lit->value = -v;
    u->operand = std::move(lit);
    return u;
  }
  auto lit = std::make_unique<lang::IntLitExpr>();
  lit->value = v;
  return lit;
}

// Trial t's variables are x<t>, y<t>, z<t>.
ExprPtr make_var(int which, int trial) {
  auto id = std::make_unique<lang::IdentExpr>();
  id->name = std::string(1, "xyz"[which]) + std::to_string(trial);
  return id;
}

// A quarter of the literals sit at the int64 edges or where doubles stop
// holding every int.
ExprPtr gen_literal(support::SplitMix64& rng) {
  static const std::int64_t kEdges[] = {kMin, kMax, k2To53 - 1, k2To53,
                                        k2To53 + 1};
  if (rng.next_below(4) == 0) {
    return make_int(kEdges[rng.next_below(std::size(kEdges))]);
  }
  return make_int(static_cast<std::int64_t>(rng.next_below(21)) - 10);
}

ExprPtr gen_expr(support::SplitMix64& rng, int depth, int trial) {
  if (depth <= 0 || rng.next_below(5) == 0) {
    if (rng.next_below(2) == 0) return gen_literal(rng);
    return make_var(static_cast<int>(rng.next_below(3)), trial);
  }
  switch (rng.next_below(4)) {
    case 0: {  // unary
      auto u = std::make_unique<lang::UnaryExpr>();
      const auto pick = rng.next_below(3);
      u->op = pick == 0 ? UnaryOp::kNeg
                        : pick == 1 ? UnaryOp::kNot : UnaryOp::kBitNot;
      u->operand = gen_expr(rng, depth - 1, trial);
      return u;
    }
    case 1: {  // ternary
      auto t = std::make_unique<lang::TernaryExpr>();
      t->cond = gen_expr(rng, depth - 1, trial);
      t->then_expr = gen_expr(rng, depth - 1, trial);
      t->else_expr = gen_expr(rng, depth - 1, trial);
      return t;
    }
    default: {
      static const BinaryOp kOps[] = {
          BinaryOp::kAdd,    BinaryOp::kSub,    BinaryOp::kMul,
          BinaryOp::kDiv,    BinaryOp::kMod,    BinaryOp::kEq,
          BinaryOp::kNe,     BinaryOp::kLt,     BinaryOp::kGt,
          BinaryOp::kLe,     BinaryOp::kGe,     BinaryOp::kLogAnd,
          BinaryOp::kLogOr,  BinaryOp::kBitAnd, BinaryOp::kBitOr,
          BinaryOp::kBitXor, BinaryOp::kShl,    BinaryOp::kShr};
      const BinaryOp op = kOps[rng.next_below(std::size(kOps))];
      ExprPtr lhs = gen_expr(rng, depth - 1, trial);
      ExprPtr rhs = gen_expr(rng, depth - 1, trial);
      if (op == BinaryOp::kDiv || op == BinaryOp::kMod) {
        // Division by zero is its own test: an odd divisor is never 0
        // (and is -1 now and then).
        rhs = make_binary(BinaryOp::kBitOr, std::move(rhs), make_int(1));
      }
      return make_binary(op, std::move(lhs), std::move(rhs));
    }
  }
}

// ---- reference evaluation ---------------------------------------------------

// UC's ints wrap in two's complement where C leaves overflow undefined.
std::int64_t wrapped(std::uint64_t v) { return static_cast<std::int64_t>(v); }
std::uint64_t bits(std::int64_t v) { return static_cast<std::uint64_t>(v); }

std::int64_t eval_ref(const Expr& e, const Env& env) {
  switch (e.kind) {
    case lang::ExprKind::kIntLit:
      return static_cast<const lang::IntLitExpr&>(e).value;
    case lang::ExprKind::kIdent: {
      const char name = static_cast<const lang::IdentExpr&>(e).name[0];
      return name == 'x' ? env.x : name == 'y' ? env.y : env.z;
    }
    case lang::ExprKind::kUnary: {
      const auto& u = static_cast<const lang::UnaryExpr&>(e);
      const auto v = eval_ref(*u.operand, env);
      switch (u.op) {
        case UnaryOp::kNeg: return wrapped(0 - bits(v));
        case UnaryOp::kNot: return v == 0 ? 1 : 0;
        case UnaryOp::kBitNot: return ~v;
        case UnaryOp::kPlus: return v;
      }
      return v;
    }
    case lang::ExprKind::kBinary: {
      const auto& b = static_cast<const lang::BinaryExpr&>(e);
      if (b.op == BinaryOp::kLogAnd) {
        return eval_ref(*b.lhs, env) != 0 && eval_ref(*b.rhs, env) != 0 ? 1
                                                                        : 0;
      }
      if (b.op == BinaryOp::kLogOr) {
        return eval_ref(*b.lhs, env) != 0 || eval_ref(*b.rhs, env) != 0 ? 1
                                                                        : 0;
      }
      const auto l = eval_ref(*b.lhs, env);
      const auto r = eval_ref(*b.rhs, env);
      switch (b.op) {
        case BinaryOp::kAdd: return wrapped(bits(l) + bits(r));
        case BinaryOp::kSub: return wrapped(bits(l) - bits(r));
        case BinaryOp::kMul: return wrapped(bits(l) * bits(r));
        case BinaryOp::kDiv: return r == -1 ? wrapped(0 - bits(l)) : l / r;
        case BinaryOp::kMod: return r == -1 ? 0 : l % r;
        case BinaryOp::kEq: return l == r ? 1 : 0;
        case BinaryOp::kNe: return l != r ? 1 : 0;
        case BinaryOp::kLt: return l < r ? 1 : 0;
        case BinaryOp::kGt: return l > r ? 1 : 0;
        case BinaryOp::kLe: return l <= r ? 1 : 0;
        case BinaryOp::kGe: return l >= r ? 1 : 0;
        case BinaryOp::kBitAnd: return l & r;
        case BinaryOp::kBitOr: return l | r;
        case BinaryOp::kBitXor: return l ^ r;
        case BinaryOp::kShl: return wrapped(bits(l) << (r & 63));
        case BinaryOp::kShr: return l >> (r & 63);
        default: return 0;
      }
    }
    case lang::ExprKind::kTernary: {
      const auto& t = static_cast<const lang::TernaryExpr&>(e);
      return eval_ref(*t.cond, env) != 0 ? eval_ref(*t.then_expr, env)
                                         : eval_ref(*t.else_expr, env);
    }
    default:
      return 0;
  }
}

class DifferentialP : public ::testing::TestWithParam<std::uint64_t> {};

// Each seed's 25 trials are one program: trial t stores its expression
// over its own globals into r[t], in one lane, so the expressions run as
// lane kernels on every engine.
TEST_P(DifferentialP, RandomExpressionsAgreeWithReference) {
  constexpr int kTrials = 25;
  support::SplitMix64 rng(GetParam());
  std::vector<ExprPtr> exprs;
  std::vector<Env> envs;
  std::vector<std::string> printed;
  std::string source = "index_set L:l = {0..0};\n";
  std::string body;
  for (int t = 0; t < kTrials; ++t) {
    exprs.push_back(gen_expr(rng, 5, t));
    const auto draw = [&] {
      return static_cast<std::int64_t>(rng.next_below(41)) - 20;
    };
    envs.push_back(Env{draw(), draw(), draw()});
    printed.push_back(codegen::print_expr(*exprs.back()));
    source += support::format(
        "int x%d = %lld;\nint y%d = %lld;\nint z%d = %lld;\n", t,
        static_cast<long long>(envs[t].x), t,
        static_cast<long long>(envs[t].y), t,
        static_cast<long long>(envs[t].z));
    body += support::format("    r[%d] = %s;\n", t, printed[t].c_str());
  }
  source += support::format(
      "int r[%d];\nvoid main() {\n  par (L) {\n%s  }\n}\n", kTrials,
      body.c_str());

  const auto cache_dir =
      std::filesystem::temp_directory_path() /
      ("uc-differential-" + std::to_string(::getpid()) + "-" +
       std::to_string(GetParam()));
  for (const bool fold : {true, false}) {
    CompileOptions copts;
    copts.fold_constants = fold;
    const auto program = Program::compile("fuzz.uc", source, copts);
    for (const auto engine : {vm::ExecEngine::kWalk, vm::ExecEngine::kBytecode,
                              vm::ExecEngine::kNative}) {
      vm::ExecOptions eopts;
      eopts.engine = engine;
      eopts.native_cache_dir = cache_dir.string();
      const auto run = program.run({}, eopts);
      // With a working toolchain every statement runs native.
      if (run.native_dispatches() > 0) {
        EXPECT_EQ(run.native_fallbacks(), 0u);
      }
      const auto r = run.global_array("r");
      ASSERT_EQ(r.size(), static_cast<std::size_t>(kTrials));
      for (int t = 0; t < kTrials; ++t) {
        EXPECT_EQ(r[t].as_int(), eval_ref(*exprs[t], envs[t]))
            << "expr: " << printed[t] << "\nfold " << fold << ", engine "
            << static_cast<int>(engine);
      }
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(cache_dir, ec);
}

// 8 seeds x 25 trials = 200 random expressions through the whole pipeline.
INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialP,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u,
                                           606u, 707u, 808u));

// Same trees, but round-tripped through the printer twice and evaluated
// under both CSE settings — printer canonicalisation must not change
// values.
TEST(Differential, PrinterRoundTripAndCseStable) {
  support::SplitMix64 rng(999);
  for (int trial = 0; trial < 20; ++trial) {
    auto expr = gen_expr(rng, 4, 0);
    const auto printed = codegen::print_expr(*expr);
    const auto source =
        "int x0 = 3;\nint y0 = -5;\nint z0 = 7;\nint r;\n"
        "void main() { r = " + printed + "; }";
    SCOPED_TRACE("expr: " + printed);
    auto program = Program::compile("fuzz.uc", source);
    const auto reprinted = program.to_uc_source();
    auto again = Program::compile("fuzz2.uc", reprinted);
    vm::ExecOptions no_cse;
    no_cse.common_subexpression_elimination = false;
    auto v1 = program.run().global_scalar("r").as_int();
    auto v2 = again.run().global_scalar("r").as_int();
    auto v3 = program.run({}, no_cse).global_scalar("r").as_int();
    EXPECT_EQ(v1, v2);
    EXPECT_EQ(v1, v3);
    EXPECT_EQ(v1, eval_ref(*expr, Env{3, -5, 7}));
  }
}

}  // namespace
}  // namespace uc
