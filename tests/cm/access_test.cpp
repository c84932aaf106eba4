#include "cm/access.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "cm/machine.hpp"

namespace uc::cm {
namespace {

AccessClass between(const Geometry& g, VpIndex owner, VpIndex lane,
                    const CostModel& cost = {}) {
  const auto o = g.unflatten(owner);
  const auto l = g.unflatten(lane);
  return access_class(o.data(), l.data(), o.size(), cost).cls;
}

TEST(AccessRule, OneMovedAxisWithinTheLimitIsNews) {
  Geometry g({4, 4});
  const auto a = g.flatten({1, 1});
  EXPECT_EQ(between(g, g.flatten({1, 2}), a), AccessClass::kNews);
  EXPECT_EQ(between(g, g.flatten({0, 1}), a), AccessClass::kNews);
  EXPECT_EQ(between(g, g.flatten({1, 3}), a), AccessClass::kNews);  // 2 hops
  EXPECT_EQ(between(g, a, a), AccessClass::kLocal);
  EXPECT_EQ(between(g, g.flatten({2, 2}), a), AccessClass::kRouter);
  // Row-major adjacency across a row boundary moves two axes.
  EXPECT_EQ(between(g, g.flatten({0, 3}), g.flatten({1, 0})),
            AccessClass::kRouter);
}

TEST(AccessRule, HopsPastTheRouterCostRoute) {
  const CostModel cost;  // news_op 12, router_op 600
  EXPECT_EQ(access_class(1, 50, cost).cls, AccessClass::kNews);
  EXPECT_EQ(access_class(1, 50, cost).hops, 50u);
  EXPECT_EQ(access_class(1, 51, cost).cls, AccessClass::kRouter);
  CostModel dear;
  dear.news_op = 700;
  EXPECT_EQ(access_class(1, 1, dear).cls, AccessClass::kRouter);
}

TEST(AccessRule, LaneRelativeClosedForm) {
  const CostModel cost;
  const std::int64_t shape[2] = {8, 8};
  const std::int64_t one[2] = {0, 1};
  const auto news = lane_relative_access(one, shape, 2, shape, 2, cost);
  ASSERT_TRUE(news.has_value());
  EXPECT_EQ(news->cls, AccessClass::kNews);
  EXPECT_EQ(news->hops, 1u);
  const std::int64_t out[2] = {8, 0};  // no lane in range
  EXPECT_FALSE(lane_relative_access(out, shape, 2, shape, 2, cost));
  // Six lanes over eight elements: local at delta 0, routed otherwise.
  const std::int64_t dims[1] = {8};
  const std::int64_t lanes[1] = {6};
  const std::int64_t zero[1] = {0};
  const std::int64_t two[1] = {2};
  EXPECT_EQ(lane_relative_access(zero, dims, 1, lanes, 1, cost)->cls,
            AccessClass::kLocal);
  EXPECT_EQ(lane_relative_access(two, dims, 1, lanes, 1, cost)->cls,
            AccessClass::kRouter);
  // Trailing extents that differ make the class lane-dependent.
  const std::int64_t narrow[2] = {8, 4};
  const std::int64_t none[2] = {0, 0};
  EXPECT_FALSE(lane_relative_access(none, shape, 2, narrow, 2, cost));
}

TEST(AccessRule, ChargeAccessIssuesNewsRouterBroadcastFrontend) {
  MachineOptions opts;
  opts.record_paris_trace = true;
  Machine m(opts);
  AccessStats stats;
  stats.count({AccessClass::kNews, 3}, 4);
  stats.count({AccessClass::kRouter, 0}, 5);
  stats.broadcast = 1;
  stats.frontend = 2;
  m.charge_access(64, stats);
  const auto& t = m.paris_trace();
  ASSERT_EQ(t.size(), 4u);
  EXPECT_NE(t[0].find("get-news      vp-set=64 hops=3"), std::string::npos);
  EXPECT_NE(t[1].find("send-general  vp-set=64 msgs=5"), std::string::npos);
  EXPECT_NE(t[2].find("broadcast"), std::string::npos);
  EXPECT_NE(t[3].find("fe-op            count=2"), std::string::npos);
  EXPECT_EQ(m.stats().news_ops, 1u);
  EXPECT_EQ(m.stats().router_messages, 5u);
}

}  // namespace
}  // namespace uc::cm
