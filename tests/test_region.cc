#include "geometry/region.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace utk {
namespace {

TEST(Region, BoxInsideSimplexUsesFastPath) {
  ConvexRegion r = ConvexRegion::FromBox({0.1, 0.1}, {0.3, 0.2});
  EXPECT_TRUE(r.is_box());
  EXPECT_EQ(r.dim(), 2);
  EXPECT_EQ(r.constraints().size(), 4u);
}

TEST(Region, BoxOutsideSimplexGetsClipped) {
  ConvexRegion r = ConvexRegion::FromBox({0.5, 0.5}, {0.9, 0.9});
  EXPECT_FALSE(r.is_box());
  // 4 box + 2 nonneg + 1 simplex constraints.
  EXPECT_EQ(r.constraints().size(), 7u);
  // (0.55, 0.55) has sum > 1: outside the clipped region.
  EXPECT_FALSE(r.Contains({0.55, 0.55}));
  EXPECT_TRUE(r.Contains({0.5, 0.5}));
}

TEST(Region, FullDomainIsSimplex) {
  ConvexRegion r = ConvexRegion::FullDomain(3);
  EXPECT_TRUE(r.Contains({0.2, 0.3, 0.4}));
  EXPECT_FALSE(r.Contains({0.5, 0.5, 0.2}));
  EXPECT_FALSE(r.Contains({-0.1, 0.3, 0.3}));
}

TEST(Region, ContainsBoundary) {
  ConvexRegion r = ConvexRegion::FromBox({0.1, 0.1}, {0.2, 0.2});
  EXPECT_TRUE(r.Contains({0.1, 0.1}));
  EXPECT_TRUE(r.Contains({0.2, 0.2}));
  EXPECT_FALSE(r.Contains({0.21, 0.15}));
}

TEST(Region, PivotOfBoxIsCenter) {
  ConvexRegion r = ConvexRegion::FromBox({0.1, 0.3}, {0.2, 0.5});
  auto pivot = r.Pivot();
  ASSERT_TRUE(pivot.has_value());
  EXPECT_NEAR((*pivot)[0], 0.15, 1e-12);
  EXPECT_NEAR((*pivot)[1], 0.4, 1e-12);
}

TEST(Region, PivotOfGeneralRegionIsInterior) {
  ConvexRegion r = ConvexRegion::FullDomain(2);
  auto pivot = r.Pivot();
  ASSERT_TRUE(pivot.has_value());
  EXPECT_TRUE(r.Contains(*pivot));
  EXPECT_GT((*pivot)[0], 0.0);
  EXPECT_GT((*pivot)[1], 0.0);
}

TEST(Region, PivotOfEmptyRegionIsNull) {
  std::vector<Halfspace> cons;
  Halfspace a, b;
  a.a = {1.0};
  a.b = 0.0;
  b.a = {-1.0};
  b.b = -1.0;  // x >= 1 and x <= 0
  cons.push_back(a);
  cons.push_back(b);
  ConvexRegion r(cons);
  EXPECT_FALSE(r.Pivot().has_value());
  EXPECT_FALSE(r.HasInteriorPoint());
}

TEST(Region, BoxVerticesEnumeration) {
  ConvexRegion r = ConvexRegion::FromBox({0.0, 0.1, 0.2}, {0.1, 0.2, 0.3});
  auto verts = r.BoxVertices();
  EXPECT_EQ(verts.size(), 8u);
  for (const Vec& v : verts) EXPECT_TRUE(r.Contains(v));
}

TEST(Region, RangeOfBoxClosedForm) {
  ConvexRegion r = ConvexRegion::FromBox({0.1, 0.2}, {0.3, 0.4});
  auto range = r.RangeOf({2.0, -1.0}, 5.0);
  ASSERT_TRUE(range.has_value());
  EXPECT_NEAR(range->first, 5.0 + 2.0 * 0.1 - 1.0 * 0.4, 1e-12);
  EXPECT_NEAR(range->second, 5.0 + 2.0 * 0.3 - 1.0 * 0.2, 1e-12);
}

TEST(Region, RangeOfGeneralRegionMatchesBoxWhenClipped) {
  // A box region and the equivalent explicitly-constrained region must give
  // the same ranges (fast path vs LP path agreement).
  ConvexRegion box = ConvexRegion::FromBox({0.05, 0.1}, {0.25, 0.2});
  ConvexRegion general(box.constraints());
  ASSERT_FALSE(general.is_box());  // constructed from raw constraints
  Rng rng(3);
  for (int t = 0; t < 20; ++t) {
    Vec coef = {rng.Uniform(-3, 3), rng.Uniform(-3, 3)};
    auto rb = box.RangeOf(coef, 1.0);
    auto rg = general.RangeOf(coef, 1.0);
    ASSERT_TRUE(rb.has_value());
    ASSERT_TRUE(rg.has_value());
    EXPECT_NEAR(rb->first, rg->first, 1e-7);
    EXPECT_NEAR(rb->second, rg->second, 1e-7);
  }
}

TEST(Region, AddConstraintDisablesBoxPath) {
  ConvexRegion r = ConvexRegion::FromBox({0.1, 0.1}, {0.2, 0.2});
  ASSERT_TRUE(r.is_box());
  Halfspace h;
  h.a = {1.0, 1.0};
  h.b = 0.35;
  r.AddConstraint(h);
  EXPECT_FALSE(r.is_box());
  EXPECT_TRUE(r.Contains({0.1, 0.1}));
  EXPECT_FALSE(r.Contains({0.2, 0.2}));  // cut off by the new constraint
}

TEST(Region, DegenerateBoxHasNoInterior) {
  ConvexRegion r = ConvexRegion::FromBox({0.1, 0.1}, {0.1, 0.2});
  EXPECT_FALSE(r.HasInteriorPoint());
}

}  // namespace
}  // namespace utk
