// Numeric-robustness boundary tests: one epsilon convention everywhere.
//
// The library routes every tolerance comparison through the named
// predicates in common/types.h (EpsGe/EpsGt/...). These tests pin down the
// property the unification is for: a point sitting EXACTLY on a halfspace
// boundary is judged consistently by every entry point that answers
// "inside?" — Halfspace::Contains, ConvexRegion::Contains,
// CellArrangement::Locate, and LP feasibility — and attribute-wise
// dominance uses the same yardstick (kEps) as the geometry.
#include <gtest/gtest.h>

#include "arrangement/arrangement.h"
#include "common/types.h"
#include "geometry/lp.h"
#include "geometry/region.h"
#include "skyline/dominance.h"

namespace utk {
namespace {

// Pins w to `point` (two inequalities per coordinate) on top of `cons`;
// feasibility of the resulting LP is exactly "point satisfies cons".
bool LpFeasibleAt(const std::vector<Halfspace>& cons, const Vec& point) {
  std::vector<Halfspace> pinned = cons;
  const int d = static_cast<int>(point.size());
  for (int i = 0; i < d; ++i) {
    Halfspace up, down;
    up.a.assign(d, 0.0);
    up.a[i] = 1.0;
    up.b = point[i];
    down.a.assign(d, 0.0);
    down.a[i] = -1.0;
    down.b = -point[i];
    pinned.push_back(std::move(up));
    pinned.push_back(std::move(down));
  }
  Vec zero(d, 0.0);
  return SolveLp(zero, pinned).status == LpStatus::kOptimal;
}

TEST(Epsilon, PredicatesAcceptTheBoundary) {
  EXPECT_TRUE(EpsGe(0.5, 0.5));
  EXPECT_TRUE(EpsLe(0.5, 0.5));
  EXPECT_TRUE(EpsEq(0.5, 0.5));
  EXPECT_FALSE(EpsGt(0.5, 0.5));
  EXPECT_FALSE(EpsLt(0.5, 0.5));
  // Within eps of the boundary: closed predicates keep accepting, open
  // predicates keep rejecting.
  EXPECT_TRUE(EpsGe(0.5 - 0.5 * kEps, 0.5));
  EXPECT_TRUE(EpsLe(0.5 + 0.5 * kEps, 0.5));
  EXPECT_FALSE(EpsGt(0.5 + 0.5 * kEps, 0.5));
  // Beyond eps they flip.
  EXPECT_FALSE(EpsGe(0.5 - 2e-9, 0.5));
  EXPECT_TRUE(EpsGt(0.5 + 2e-9, 0.5));
}

TEST(Epsilon, HalfspaceBoundaryMembership) {
  Halfspace h;
  h.a = {1.0, 0.0};
  h.b = 0.5;
  EXPECT_TRUE(h.Contains({0.5, 0.3}));            // exactly on the boundary
  EXPECT_TRUE(h.Contains({0.5 + 0.5 * kEps, 0.3}));  // within eps outside
  EXPECT_FALSE(h.Contains({0.5 + 1e-8, 0.3}));    // clearly outside
}

TEST(Epsilon, RegionContainsAgreesWithLpFeasibilityOnBoundary) {
  const ConvexRegion box = ConvexRegion::FromBox({0.2, 0.2}, {0.5, 0.5});
  const std::vector<Vec> points = {
      {0.5, 0.3},    // on one face
      {0.5, 0.5},    // on a corner
      {0.2, 0.2},    // opposite corner
      {0.35, 0.35},  // interior
      {0.5 + 0.5 * kEps, 0.3},  // within kEps outside a face
  };
  for (const Vec& w : points) {
    EXPECT_TRUE(box.Contains(w)) << w[0] << "," << w[1];
    EXPECT_TRUE(LpFeasibleAt(box.constraints(), w)) << w[0] << "," << w[1];
  }
  const Vec outside = {0.5 + 1e-7, 0.3};
  EXPECT_FALSE(box.Contains(outside));
  EXPECT_FALSE(LpFeasibleAt(box.constraints(), outside));
}

TEST(Epsilon, ArrangementLocateAgreesOnCellBoundary) {
  // Split [0.2, 0.6]^2 with the hyperplane w0 = 0.4; probe points ON the
  // cut. Locate must place them in a cell, and that cell's own bounds —
  // under both Halfspace::Contains and ConvexRegion::Contains — as well as
  // LP feasibility must accept the point. Cell membership therefore agrees
  // across all three mechanisms on the measure-zero seam.
  const ConvexRegion base = ConvexRegion::FromBox({0.2, 0.2}, {0.6, 0.6});
  CellArrangement arr(base);
  Halfspace cut;
  cut.a = {1.0, 0.0};
  cut.b = 0.4;
  arr.Insert(0, cut);
  ASSERT_EQ(arr.cells().size(), 2u);

  const std::vector<Vec> seam_points = {{0.4, 0.3}, {0.4, 0.6}, {0.4, 0.2}};
  for (const Vec& w : seam_points) {
    const int c = arr.Locate(w);
    ASSERT_GE(c, 0) << "seam point fell between cells";
    const Cell& cell = arr.cells()[c];
    for (const Halfspace& h : cell.bounds.ToVector())
      EXPECT_TRUE(h.Contains(w)) << "cell bound rejects its seam point";
    EXPECT_TRUE(ConvexRegion(cell.bounds.ToVector()).Contains(w));
    EXPECT_TRUE(LpFeasibleAt(cell.bounds.ToVector(), w));
  }
  // Both sides of the seam accept the boundary point under eps: the seam
  // is shared, not owned, and Locate just reports the first match.
  int owners = 0;
  for (const Cell& cell : arr.cells())
    if (ConvexRegion(cell.bounds.ToVector()).Contains({0.4, 0.3})) ++owners;
  EXPECT_EQ(owners, 2);
}

TEST(Epsilon, DominanceUsesTheGeometricYardstick) {
  // Attribute gaps at or below kEps are ties for Dominates — the same
  // convention the halfspace membership uses — so a record beating another
  // only within numeric noise does not dominate it.
  const Vec a = {0.5, 0.5, 0.5};
  Vec noise_better = a;
  noise_better[0] += 0.5 * kEps;
  EXPECT_FALSE(Dominates(noise_better, a));
  EXPECT_FALSE(Dominates(a, noise_better));
  EXPECT_TRUE(WeaklyDominates(noise_better, a));
  EXPECT_TRUE(WeaklyDominates(a, noise_better));

  Vec clearly_better = a;
  clearly_better[0] += 1e-6;
  EXPECT_TRUE(Dominates(clearly_better, a));
  EXPECT_FALSE(Dominates(a, clearly_better));
  // Exact comparisons remain available by passing eps = 0 explicitly.
  EXPECT_TRUE(Dominates(noise_better, a, 0.0));
}

TEST(Epsilon, PivotEpsIsStrictlyTighterThanGeometricEps) {
  // The simplex solver must keep resolving differences the geometric
  // predicates consider ties, or LP feasibility and Contains() could
  // disagree on boundary points.
  EXPECT_LT(kPivotEps, kEps);
}

}  // namespace
}  // namespace utk
