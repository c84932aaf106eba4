#include "cm/geometry.hpp"

#include <gtest/gtest.h>

namespace uc::cm {
namespace {

TEST(Geometry, SizeAndRank) {
  Geometry g({4, 8});
  EXPECT_EQ(g.rank(), 2u);
  EXPECT_EQ(g.size(), 32);
  EXPECT_EQ(g.dim(0), 4);
  EXPECT_EQ(g.dim(1), 8);
}

TEST(Geometry, FlattenUnflattenRoundTrip2D) {
  Geometry g({3, 5});
  for (std::int64_t i = 0; i < 3; ++i) {
    for (std::int64_t j = 0; j < 5; ++j) {
      auto vp = g.flatten({i, j});
      auto coords = g.unflatten(vp);
      EXPECT_EQ(coords[0], i);
      EXPECT_EQ(coords[1], j);
    }
  }
}

TEST(Geometry, RowMajorOrder) {
  Geometry g({2, 3});
  EXPECT_EQ(g.flatten({0, 0}), 0);
  EXPECT_EQ(g.flatten({0, 2}), 2);
  EXPECT_EQ(g.flatten({1, 0}), 3);
  EXPECT_EQ(g.flatten({1, 2}), 5);
}

TEST(Geometry, FlattenUnflattenRoundTrip3D) {
  Geometry g({2, 3, 4});
  EXPECT_EQ(g.size(), 24);
  for (std::int64_t vp = 0; vp < g.size(); ++vp) {
    EXPECT_EQ(g.flatten(g.unflatten(vp)), vp);
  }
}

TEST(Geometry, InvalidConstruction) {
  EXPECT_THROW(Geometry({}), support::ApiError);
  EXPECT_THROW(Geometry({0}), support::ApiError);
  EXPECT_THROW(Geometry({4, -1}), support::ApiError);
}

TEST(Geometry, FlattenRejectsOutOfRange) {
  Geometry g({4});
  EXPECT_THROW(g.flatten({4}), support::ApiError);
  EXPECT_THROW(g.flatten({-1}), support::ApiError);
  EXPECT_THROW(g.flatten({1, 1}), support::ApiError);
}

TEST(Geometry, Contains) {
  Geometry g({4, 4});
  EXPECT_TRUE(g.contains({0, 0}));
  EXPECT_TRUE(g.contains({3, 3}));
  EXPECT_FALSE(g.contains({4, 0}));
  EXPECT_FALSE(g.contains({0, -1}));
  EXPECT_FALSE(g.contains({1}));
}

TEST(Geometry, Neighbor1D) {
  Geometry g({10});
  EXPECT_EQ(g.neighbor(3, 0, 1).value(), 4);
  EXPECT_EQ(g.neighbor(3, 0, -1).value(), 2);
  EXPECT_EQ(g.neighbor(3, 0, 4).value(), 7);
  EXPECT_FALSE(g.neighbor(9, 0, 1).has_value());
  EXPECT_FALSE(g.neighbor(0, 0, -1).has_value());
}

TEST(Geometry, Neighbor2D) {
  Geometry g({4, 4});
  auto vp = g.flatten({1, 2});
  EXPECT_EQ(g.neighbor(vp, 0, 1).value(), g.flatten({2, 2}));
  EXPECT_EQ(g.neighbor(vp, 1, -1).value(), g.flatten({1, 1}));
  EXPECT_FALSE(g.neighbor(g.flatten({0, 0}), 0, -1).has_value());
  EXPECT_THROW((void)g.neighbor(vp, 2, 1), support::ApiError);
}

TEST(Geometry, ToString) {
  EXPECT_EQ(Geometry({16}).to_string(), "Geometry(16)");
  EXPECT_EQ(Geometry({4, 8}).to_string(), "Geometry(4x8)");
}

TEST(Geometry, Equality) {
  EXPECT_EQ(Geometry({2, 2}), Geometry({2, 2}));
  EXPECT_FALSE(Geometry({2, 2}) == Geometry({4}));
}

}  // namespace
}  // namespace uc::cm
