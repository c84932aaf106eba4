#include "cm/ops.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <vector>

namespace uc::cm {
namespace {

struct OpsFixture : ::testing::Test {
  Machine m;
  GeomId g = m.create_geometry({8});
  ContextStack ctx{&m.geometry(g)};

  Field& make_int_field(const char* name) {
    return m.field(m.allocate_field(g, name, ElemType::kInt));
  }
  Field& make_float_field(const char* name) {
    return m.field(m.allocate_field(g, name, ElemType::kFloat));
  }
};

TEST_F(OpsFixture, ElementwiseWritesActiveOnly) {
  auto& a = make_int_field("a");
  a.fill(from_int(-1));
  ctx.where([](VpIndex vp) { return vp % 2 == 0; });
  elementwise(m, ctx, a, [](VpIndex vp) { return from_int(vp * 10); });
  ctx.end();
  EXPECT_EQ(as_int(a.get(0)), 0);
  EXPECT_EQ(as_int(a.get(1)), -1);  // inactive: untouched
  EXPECT_EQ(as_int(a.get(2)), 20);
  EXPECT_EQ(m.stats().vector_ops, 1u);
}

TEST_F(OpsFixture, NewsShiftPositiveDelta) {
  auto& a = make_int_field("a");
  auto& b = make_int_field("b");
  for (VpIndex vp = 0; vp < 8; ++vp) b.set(vp, from_int(vp));
  a.fill(from_int(99));
  news_shift(m, ctx, a, b, 0, 1);  // a[i] = b[i+1]
  for (VpIndex vp = 0; vp < 7; ++vp) EXPECT_EQ(as_int(a.get(vp)), vp + 1);
  EXPECT_EQ(as_int(a.get(7)), 99);  // edge keeps old value
  EXPECT_EQ(m.stats().news_ops, 1u);
}

TEST_F(OpsFixture, NewsShiftInPlaceAliasesSafely) {
  auto& a = make_int_field("a");
  for (VpIndex vp = 0; vp < 8; ++vp) a.set(vp, from_int(vp));
  news_shift(m, ctx, a, a, 0, -1);  // a[i] = a[i-1]
  for (VpIndex vp = 1; vp < 8; ++vp) EXPECT_EQ(as_int(a.get(vp)), vp - 1);
  EXPECT_EQ(as_int(a.get(0)), 0);
}

TEST_F(OpsFixture, RouterGetGathersArbitraryPattern) {
  auto& a = make_int_field("a");
  auto& b = make_int_field("b");
  for (VpIndex vp = 0; vp < 8; ++vp) b.set(vp, from_int(100 + vp));
  router_get(m, ctx, a, b, [](VpIndex vp) -> std::optional<VpIndex> {
    return 7 - vp;  // reversal: not a NEWS pattern
  });
  for (VpIndex vp = 0; vp < 8; ++vp) {
    EXPECT_EQ(as_int(a.get(vp)), 100 + (7 - vp));
  }
  EXPECT_EQ(m.stats().router_ops, 1u);
  EXPECT_EQ(m.stats().router_messages, 8u);
}

TEST_F(OpsFixture, RouterGetSkipsNullopt) {
  auto& a = make_int_field("a");
  auto& b = make_int_field("b");
  b.fill(from_int(5));
  a.fill(from_int(-1));
  router_get(m, ctx, a, b, [](VpIndex vp) -> std::optional<VpIndex> {
    if (vp < 4) return vp;
    return std::nullopt;
  });
  EXPECT_EQ(as_int(a.get(0)), 5);
  EXPECT_EQ(as_int(a.get(6)), -1);
  EXPECT_EQ(m.stats().router_messages, 4u);
}

TEST_F(OpsFixture, RouterGetRejectsBadAddress) {
  auto& a = make_int_field("a");
  auto& b = make_int_field("b");
  EXPECT_THROW(router_get(m, ctx, a, b,
                          [](VpIndex) -> std::optional<VpIndex> { return 42; }),
               support::UcRuntimeError);
}

TEST_F(OpsFixture, ReduceAddInt) {
  auto& a = make_int_field("a");
  for (VpIndex vp = 0; vp < 8; ++vp) a.set(vp, from_int(vp));
  EXPECT_EQ(as_int(reduce(m, ctx, a, ReduceOp::kAdd)), 28);
  EXPECT_EQ(m.stats().reductions, 1u);
}

TEST_F(OpsFixture, ReduceRespectsContext) {
  auto& a = make_int_field("a");
  for (VpIndex vp = 0; vp < 8; ++vp) a.set(vp, from_int(vp));
  ctx.where([](VpIndex vp) { return vp >= 4; });
  EXPECT_EQ(as_int(reduce(m, ctx, a, ReduceOp::kAdd)), 4 + 5 + 6 + 7);
  ctx.end();
}

TEST_F(OpsFixture, ReduceEmptySetGivesIdentity) {
  auto& a = make_int_field("a");
  a.fill(from_int(9));
  ctx.where([](VpIndex) { return false; });
  EXPECT_EQ(as_int(reduce(m, ctx, a, ReduceOp::kAdd)), 0);
  EXPECT_EQ(as_int(reduce(m, ctx, a, ReduceOp::kMul)), 1);
  EXPECT_EQ(as_int(reduce(m, ctx, a, ReduceOp::kMax)),
            -std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(as_int(reduce(m, ctx, a, ReduceOp::kMin)),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(as_int(reduce(m, ctx, a, ReduceOp::kAnd)), 1);
  EXPECT_EQ(as_int(reduce(m, ctx, a, ReduceOp::kOr)), 0);
  EXPECT_EQ(as_int(reduce(m, ctx, a, ReduceOp::kXor)), 0);
  ctx.end();
}

TEST_F(OpsFixture, ReduceMinMaxFloat) {
  auto& a = make_float_field("a");
  for (VpIndex vp = 0; vp < 8; ++vp) {
    a.set(vp, from_float(1.5 * static_cast<double>(vp) - 3.0));
  }
  EXPECT_DOUBLE_EQ(as_float(reduce(m, ctx, a, ReduceOp::kMin)), -3.0);
  EXPECT_DOUBLE_EQ(as_float(reduce(m, ctx, a, ReduceOp::kMax)), 7.5);
}

TEST_F(OpsFixture, ReduceLogicalOps) {
  auto& a = make_int_field("a");
  a.fill(from_int(1));
  EXPECT_EQ(as_int(reduce(m, ctx, a, ReduceOp::kAnd)), 1);
  a.set(3, from_int(0));
  EXPECT_EQ(as_int(reduce(m, ctx, a, ReduceOp::kAnd)), 0);
  EXPECT_EQ(as_int(reduce(m, ctx, a, ReduceOp::kOr)), 1);
}

TEST_F(OpsFixture, ReduceXorInt) {
  auto& a = make_int_field("a");
  for (VpIndex vp = 0; vp < 8; ++vp) a.set(vp, from_int(vp));
  EXPECT_EQ(as_int(reduce(m, ctx, a, ReduceOp::kXor)),
            0 ^ 1 ^ 2 ^ 3 ^ 4 ^ 5 ^ 6 ^ 7);
}

TEST_F(OpsFixture, ScanInclusivePrefixSums) {
  auto& a = make_int_field("a");
  auto& out = make_int_field("out");
  for (VpIndex vp = 0; vp < 8; ++vp) a.set(vp, from_int(vp + 1));
  scan(m, ctx, out, a, ReduceOp::kAdd);
  std::int64_t expect = 0;
  for (VpIndex vp = 0; vp < 8; ++vp) {
    expect += vp + 1;
    EXPECT_EQ(as_int(out.get(vp)), expect);
  }
}

TEST_F(OpsFixture, ScanSkipsInactive) {
  auto& a = make_int_field("a");
  auto& out = make_int_field("out");
  a.fill(from_int(1));
  out.fill(from_int(-7));
  ctx.where([](VpIndex vp) { return vp % 2 == 0; });
  scan(m, ctx, out, a, ReduceOp::kAdd);
  ctx.end();
  EXPECT_EQ(as_int(out.get(0)), 1);
  EXPECT_EQ(as_int(out.get(1)), -7);  // inactive untouched
  EXPECT_EQ(as_int(out.get(2)), 2);
  EXPECT_EQ(as_int(out.get(6)), 4);
}

TEST_F(OpsFixture, GlobalOrAndBroadcast) {
  auto& a = make_int_field("a");
  EXPECT_TRUE(global_or(m, ctx));
  broadcast(m, ctx, a, from_int(11));
  EXPECT_EQ(as_int(a.get(5)), 11);
  ctx.where([](VpIndex) { return false; });
  EXPECT_FALSE(global_or(m, ctx));
  broadcast(m, ctx, a, from_int(22));
  ctx.end();
  EXPECT_EQ(as_int(a.get(5)), 11);  // inactive broadcast changed nothing
  EXPECT_EQ(m.stats().global_ors, 2u);
  EXPECT_EQ(m.stats().broadcasts, 2u);
}

TEST_F(OpsFixture, GeometryMismatchThrows) {
  auto g2 = m.create_geometry({4});
  auto& small = m.field(m.allocate_field(g2, "s", ElemType::kInt));
  auto& a = make_int_field("a");
  EXPECT_THROW(elementwise(m, ctx, small, [](VpIndex) { return Bits{0}; }),
               support::ApiError);
  EXPECT_THROW(news_shift(m, ctx, a, small, 0, 1), support::ApiError);
  EXPECT_THROW(scan(m, ctx, a, small, ReduceOp::kAdd), support::ApiError);
}

TEST(OpsBitcast, RoundTrips) {
  EXPECT_EQ(as_int(from_int(-12345)), -12345);
  EXPECT_DOUBLE_EQ(as_float(from_float(3.25)), 3.25);
}

// Property-style sweep: reduce(op) over random data must agree with a serial
// fold, for every operator, on int fields.
class ReducePropertyP : public ::testing::TestWithParam<ReduceOp> {};

TEST_P(ReducePropertyP, AgreesWithSerialFold) {
  Machine m;
  auto g = m.create_geometry({64});
  ContextStack ctx(&m.geometry(g));
  auto& a = m.field(m.allocate_field(g, "a", ElemType::kInt));
  support::SplitMix64 rng(2026);
  const auto op = GetParam();
  for (int trial = 0; trial < 20; ++trial) {
    for (VpIndex vp = 0; vp < 64; ++vp) {
      // Small values so kMul does not overflow.
      a.set(vp, from_int(static_cast<std::int64_t>(rng.next_below(3))));
    }
    Bits expect = reduce_identity(op, ElemType::kInt);
    for (VpIndex vp = 0; vp < 64; ++vp) {
      expect = apply_reduce_op(op, ElemType::kInt, expect, a.get(vp));
    }
    EXPECT_EQ(as_int(reduce(m, ctx, a, op)), as_int(expect));
  }
}

INSTANTIATE_TEST_SUITE_P(AllOps, ReducePropertyP,
                         ::testing::Values(ReduceOp::kAdd, ReduceOp::kMul,
                                           ReduceOp::kMax, ReduceOp::kMin,
                                           ReduceOp::kAnd, ReduceOp::kOr,
                                           ReduceOp::kXor));

TEST(OpsWrap, IntAddMulWrapTwosComplement) {
  // Integer reductions wrap like the two's-complement hardware adder and
  // multiplier instead of overflowing (signed overflow is UB in C++).
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  Machine m;
  auto g = m.create_geometry({2});
  ContextStack ctx(&m.geometry(g));
  auto& a = m.field(m.allocate_field(g, "a", ElemType::kInt));
  a.set(0, from_int(kMax));
  a.set(1, from_int(1));
  EXPECT_EQ(as_int(reduce(m, ctx, a, ReduceOp::kAdd)), kMin);
  EXPECT_EQ(as_int(reduce(m, ctx, a, ReduceOp::kMul)), kMax);
  a.set(1, from_int(2));
  EXPECT_EQ(as_int(reduce(m, ctx, a, ReduceOp::kMul)), -2);
  a.set(0, from_int(kMin));
  a.set(1, from_int(-1));
  EXPECT_EQ(as_int(reduce(m, ctx, a, ReduceOp::kMul)), kMin);
  EXPECT_EQ(as_int(reduce(m, ctx, a, ReduceOp::kAdd)), kMax);
}

// Host-thread differential: the primitives split per-VP work across the
// pool, which must never change a field word, a front-end scalar or a cost
// counter.  One mixed scenario — masked and aliased NEWS shifts, router
// gathers, every reduction and scan, broadcasts — runs on a geometry large
// enough to be chunked across workers, at 1 and 4 host threads.
struct OpsScenarioResult {
  std::vector<Bits> words;    // all field contents, concatenated
  std::vector<Bits> scalars;  // reduce results + global_or
  CostStats stats;
};

OpsScenarioResult run_ops_scenario(unsigned threads) {
  MachineOptions opts;
  opts.host_threads = threads;
  Machine m(opts);
  const GeomId g = m.create_geometry({64, 65});  // 4160 VPs: several chunks
  const Geometry& geom = m.geometry(g);
  const std::int64_t n = geom.size();
  ContextStack ctx(&geom);
  Field& a = m.field(m.allocate_field(g, "a", ElemType::kInt));
  Field& b = m.field(m.allocate_field(g, "b", ElemType::kInt));
  Field& x = m.field(m.allocate_field(g, "x", ElemType::kFloat));
  Field& y = m.field(m.allocate_field(g, "y", ElemType::kFloat));

  elementwise(m, ctx, b, [](VpIndex vp) { return from_int(vp * 7 - 3); });
  elementwise(m, ctx, x,
              [](VpIndex vp) { return from_float(vp * 0.5 - 3.25); });
  a.fill(from_int(-1));
  y.fill(from_float(0.0));

  OpsScenarioResult r;
  news_shift(m, ctx, a, b, 0, 1);
  ctx.where([](VpIndex vp) { return vp % 3 != 0; });
  news_shift(m, ctx, a, b, 1, -1);
  ctx.end();
  news_shift(m, ctx, a, a, 1, 2);   // dst aliases src
  news_shift(m, ctx, y, x, 0, -3);  // float payloads, multi-hop
  router_get(m, ctx, a, b,
             [n](VpIndex vp) -> std::optional<VpIndex> { return n - 1 - vp; });
  ctx.where([](VpIndex vp) { return vp % 5 == 1; });
  router_get(m, ctx, y, x, [n](VpIndex vp) -> std::optional<VpIndex> {
    if (vp % 2 == 0) return std::nullopt;
    return (vp * 13) % n;
  });
  ctx.end();
  for (const ReduceOp op : {ReduceOp::kAdd, ReduceOp::kMul, ReduceOp::kMin,
                            ReduceOp::kMax, ReduceOp::kAnd, ReduceOp::kOr,
                            ReduceOp::kXor}) {
    r.scalars.push_back(reduce(m, ctx, b, op));
  }
  for (const ReduceOp op : {ReduceOp::kAdd, ReduceOp::kMin, ReduceOp::kMax}) {
    r.scalars.push_back(reduce(m, ctx, x, op));
  }
  scan(m, ctx, a, b, ReduceOp::kAdd);
  scan(m, ctx, y, x, ReduceOp::kMax);
  ctx.where([](VpIndex vp) { return vp % 2 == 1; });
  scan(m, ctx, a, b, ReduceOp::kMin);
  ctx.end();
  ctx.where([](VpIndex vp) { return vp % 7 == 3; });
  broadcast(m, ctx, a, from_int(4242));
  r.scalars.push_back(from_int(global_or(m, ctx) ? 1 : 0));
  ctx.end();

  for (const Field* f : {&a, &b, &x, &y}) {
    for (VpIndex vp = 0; vp < n; ++vp) r.words.push_back(f->get(vp));
  }
  r.stats = m.stats();
  return r;
}

TEST(OpsThreads, BitIdenticalAcrossHostThreadCounts) {
  const OpsScenarioResult base = run_ops_scenario(1);
  const OpsScenarioResult got = run_ops_scenario(4);
  ASSERT_EQ(base.words.size(), got.words.size());
  for (std::size_t i = 0; i < base.words.size(); ++i) {
    ASSERT_EQ(base.words[i], got.words[i]) << "field word " << i;
  }
  EXPECT_EQ(base.scalars, got.scalars);
  EXPECT_EQ(base.stats, got.stats);
}

}  // namespace
}  // namespace uc::cm
