#include "skyline/rdominance.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/generator.h"
#include "geometry/linear.h"
#include "skyline/dominance.h"

namespace utk {
namespace {

Record Rec(int id, Vec attrs) {
  Record r;
  r.id = id;
  r.attrs = std::move(attrs);
  return r;
}

TEST(RDominance, ClassicDominanceImpliesRDominance) {
  // A record that dominates another r-dominates it for any region.
  Rng rng(5);
  Dataset data = Generate(Distribution::kIndependent, 50, 3, 2);
  ConvexRegion r = ConvexRegion::FromBox({0.2, 0.3}, {0.4, 0.5});
  for (const Record& a : data)
    for (const Record& b : data) {
      if (Dominates(a.attrs, b.attrs)) {
        EXPECT_EQ(RDominance(a, b, r), RDom::kDominates);
      }
    }
}

TEST(RDominance, FigureFourThreeCases) {
  // Two incomparable records; the relation flips with the region.
  const Record p = Rec(0, {0.9, 0.1, 0.5});  // strong when w1 large
  const Record q = Rec(1, {0.1, 0.9, 0.5});  // strong when w2 large
  // Case (a): R in the w1-heavy corner -> p r-dominates q.
  EXPECT_EQ(RDominance(p, q, ConvexRegion::FromBox({0.6, 0.05}, {0.8, 0.15})),
            RDom::kDominates);
  // Case (b): R straddling the boundary w1 == w2 -> r-incomparable.
  EXPECT_EQ(RDominance(p, q, ConvexRegion::FromBox({0.2, 0.2}, {0.5, 0.4})),
            RDom::kIncomparable);
  // Case (c): R in the w2-heavy corner -> p r-dominated by q.
  EXPECT_EQ(RDominance(p, q, ConvexRegion::FromBox({0.05, 0.6}, {0.15, 0.8})),
            RDom::kDominatedBy);
}

TEST(RDominance, EqualScoresEverywhere) {
  const Record p = Rec(0, {0.5, 0.5, 0.5});
  const Record q = Rec(1, {0.5, 0.5, 0.5});
  ConvexRegion r = ConvexRegion::FromBox({0.1, 0.1}, {0.3, 0.3});
  EXPECT_EQ(RDominance(p, q, r), RDom::kEqual);
}

TEST(RDominance, AntisymmetryAndConsistencyWithSampling) {
  // The r-dominance verdict must agree with dense score sampling inside R.
  Rng rng(6);
  Dataset data = Generate(Distribution::kAnticorrelated, 30, 3, 3);
  ConvexRegion region = ConvexRegion::FromBox({0.15, 0.25}, {0.35, 0.45});
  auto verts = region.BoxVertices();
  for (const Record& a : data) {
    for (const Record& b : data) {
      if (a.id == b.id) continue;
      const RDom rel = RDominance(a, b, region);
      // Sample scores at vertices and interior points.
      bool a_ge_everywhere = true, b_ge_everywhere = true;
      bool a_gt_somewhere = false, b_gt_somewhere = false;
      auto probe = [&](const Vec& w) {
        const Scalar sa = Score(a, w), sb = Score(b, w);
        if (sa < sb - kEps) a_ge_everywhere = false;
        if (sb < sa - kEps) b_ge_everywhere = false;
        if (sa > sb + kEps) a_gt_somewhere = true;
        if (sb > sa + kEps) b_gt_somewhere = true;
      };
      for (const Vec& v : verts) probe(v);
      for (int t = 0; t < 30; ++t)
        probe({rng.Uniform(0.15, 0.35), rng.Uniform(0.25, 0.45)});
      // For affine functions on a box, the extrema are at vertices, so the
      // sampled verdict is exact.
      switch (rel) {
        case RDom::kDominates:
          EXPECT_TRUE(a_ge_everywhere && a_gt_somewhere);
          break;
        case RDom::kDominatedBy:
          EXPECT_TRUE(b_ge_everywhere && b_gt_somewhere);
          break;
        case RDom::kIncomparable:
          EXPECT_TRUE(a_gt_somewhere && b_gt_somewhere);
          break;
        case RDom::kEqual:
          EXPECT_TRUE(a_ge_everywhere && b_ge_everywhere);
          break;
      }
    }
  }
}

TEST(RDominance, BoxFastPathAgreesWithLpPath) {
  Rng rng(8);
  Dataset data = Generate(Distribution::kIndependent, 40, 4, 4);
  ConvexRegion box = ConvexRegion::FromBox({0.1, 0.15, 0.2}, {0.2, 0.3, 0.25});
  ConvexRegion general(box.constraints());  // same geometry, no fast path
  ASSERT_TRUE(box.is_box());
  ASSERT_FALSE(general.is_box());
  for (const Record& a : data)
    for (const Record& b : data) {
      if (a.id == b.id) continue;
      EXPECT_EQ(RDominance(a, b, box), RDominance(a, b, general))
          << "records " << a.id << ", " << b.id;
    }
}

TEST(RDominance, ShrinkingRegionOnlyAddsDominance) {
  // If p r-dominates q over R, it also r-dominates q over any subregion.
  Rng rng(9);
  Dataset data = Generate(Distribution::kIndependent, 30, 3, 5);
  ConvexRegion big = ConvexRegion::FromBox({0.1, 0.1}, {0.5, 0.4});
  ConvexRegion small = ConvexRegion::FromBox({0.2, 0.15}, {0.3, 0.25});
  for (const Record& a : data)
    for (const Record& b : data) {
      if (a.id == b.id) continue;
      if (RDominance(a, b, big) == RDom::kDominates) {
        const RDom sub = RDominance(a, b, small);
        EXPECT_TRUE(sub == RDom::kDominates || sub == RDom::kEqual);
      }
    }
}

TEST(RDominance, CornerTest) {
  const Record q = Rec(0, {0.9, 0.9, 0.9});
  ConvexRegion r = ConvexRegion::FromBox({0.2, 0.2}, {0.4, 0.4});
  EXPECT_TRUE(RDominatesCorner(q, {0.5, 0.5, 0.5}, r));
  EXPECT_FALSE(RDominatesCorner(q, {1.0, 1.0, 1.0}, r));
  // Corner beating q in one heavily-weighted dim but not others.
  EXPECT_FALSE(RDominatesCorner(q, {2.0, 0.0, 0.0},
                                ConvexRegion::FromBox({0.6, 0.1}, {0.8, 0.15})));
}

TEST(RDominance, StatsCounted) {
  QueryStats stats;
  const Record a = Rec(0, {0.5, 0.6, 0.7});
  const Record b = Rec(1, {0.6, 0.5, 0.7});
  ConvexRegion r = ConvexRegion::FromBox({0.1, 0.1}, {0.2, 0.2});
  RDominance(a, b, r, &stats);
  RDominance(b, a, r, &stats);
  EXPECT_EQ(stats.rdom_tests, 2);
}

}  // namespace
}  // namespace utk
