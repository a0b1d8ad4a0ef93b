#include "geometry/lp.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace utk {
namespace {

Halfspace Hs(Vec a, Scalar b) {
  Halfspace h;
  h.a = std::move(a);
  h.b = b;
  return h;
}

TEST(Lp, SimpleBox2d) {
  // max x + y s.t. 0 <= x <= 2, 0 <= y <= 3 -> 5 at (2, 3).
  std::vector<Halfspace> cons = {Hs({1, 0}, 2), Hs({-1, 0}, 0), Hs({0, 1}, 3),
                                 Hs({0, -1}, 0)};
  LpResult r = SolveLp({1, 1}, cons);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 5.0, 1e-8);
  EXPECT_NEAR(r.x[0], 2.0, 1e-8);
  EXPECT_NEAR(r.x[1], 3.0, 1e-8);
}

TEST(Lp, Minimization) {
  std::vector<Halfspace> cons = {Hs({1, 0}, 2), Hs({-1, 0}, -1),
                                 Hs({0, 1}, 3), Hs({0, -1}, -1)};
  LpResult r = SolveLp({1, 2}, cons, /*maximize=*/false);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 3.0, 1e-8);  // x=1, y=1
}

TEST(Lp, NegativeRhsPhase1) {
  // Feasible region requires x >= 1: negative right-hand sides, so the
  // origin is infeasible and the solve starts from the Chebyshev centre.
  std::vector<Halfspace> cons = {Hs({-1, 0}, -1), Hs({1, 0}, 4),
                                 Hs({0, -1}, -2), Hs({0, 1}, 5)};
  LpResult r = SolveLp({-1, -1}, cons);  // minimize x + y
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 1.0, 1e-8);
  EXPECT_NEAR(r.x[1], 2.0, 1e-8);
}

TEST(Lp, Infeasible) {
  std::vector<Halfspace> cons = {Hs({1, 0}, 1), Hs({-1, 0}, -2)};  // x<=1, x>=2
  LpResult r = SolveLp({1, 0}, cons);
  EXPECT_EQ(r.status, LpStatus::kInfeasible);
}

TEST(Lp, TriviallyInfeasibleZeroNormal) {
  std::vector<Halfspace> cons = {Hs({0, 0}, -1)};
  EXPECT_EQ(SolveLp({1, 0}, cons).status, LpStatus::kInfeasible);
}

TEST(Lp, Unbounded) {
  std::vector<Halfspace> cons = {Hs({-1, 0}, 0), Hs({0, -1}, 0)};  // x,y >= 0
  LpResult r = SolveLp({1, 1}, cons);
  EXPECT_EQ(r.status, LpStatus::kUnbounded);
}

TEST(Lp, FreeVariablesNegativeOptimum) {
  // max -x s.t. x >= -5 -> x = -5, objective 5. Exercises the u-v split.
  std::vector<Halfspace> cons = {Hs({-1.0}, 5.0), Hs({1.0}, 10.0)};
  LpResult r = SolveLp({-1.0}, cons);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], -5.0, 1e-8);
  EXPECT_NEAR(r.objective, 5.0, 1e-8);
}

TEST(Lp, DegenerateRedundantConstraints) {
  // Multiple copies of the same constraint (classic degeneracy trigger).
  std::vector<Halfspace> cons;
  for (int i = 0; i < 8; ++i) cons.push_back(Hs({1, 1}, 1));
  cons.push_back(Hs({-1, 0}, 0));
  cons.push_back(Hs({0, -1}, 0));
  LpResult r = SolveLp({1, 1}, cons);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 1.0, 1e-8);
}

TEST(Lp, SimplexDiagonalObjective) {
  // max 3x + 2y over the unit simplex: optimum at (1, 0).
  std::vector<Halfspace> cons = {Hs({1, 1}, 1), Hs({-1, 0}, 0),
                                 Hs({0, -1}, 0)};
  LpResult r = SolveLp({3, 2}, cons);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 3.0, 1e-8);
  EXPECT_NEAR(r.x[0], 1.0, 1e-8);
}

TEST(Lp, InteriorPointOfSquare) {
  std::vector<Halfspace> cons = {Hs({1, 0}, 1), Hs({-1, 0}, 0), Hs({0, 1}, 1),
                                 Hs({0, -1}, 0)};
  auto ip = FindInteriorPoint(cons, {2.0, -1.0});
  ASSERT_TRUE(ip.has_value());
  EXPECT_NEAR(ip->radius, 0.5, 1e-7);
  EXPECT_NEAR(ip->x[0], 0.5, 1e-6);
  EXPECT_NEAR(ip->x[1], 0.5, 1e-6);
}

TEST(Lp, InteriorPointDegenerateSegment) {
  // x in [0,1], y == 0.3 exactly: zero-width region -> radius ~ 0.
  std::vector<Halfspace> cons = {Hs({1, 0}, 1), Hs({-1, 0}, 0),
                                 Hs({0, 1}, 0.3), Hs({0, -1}, -0.3)};
  auto ip = FindInteriorPoint(cons, {0.0, 0.0});
  ASSERT_TRUE(ip.has_value());
  EXPECT_NEAR(ip->radius, 0.0, 1e-7);
  EXPECT_FALSE(HasInterior(cons));
}

TEST(Lp, InteriorPointInfeasible) {
  std::vector<Halfspace> cons = {Hs({1, 0}, 0), Hs({-1, 0}, -1)};
  EXPECT_FALSE(HasInterior(cons));
}

TEST(Lp, RadiusCapOnUnboundedRegion) {
  std::vector<Halfspace> cons = {Hs({-1, 0}, 0), Hs({0, -1}, 0)};
  auto ip = FindInteriorPoint(cons, {-3.0, 0.5});
  ASSERT_TRUE(ip.has_value());
  EXPECT_NEAR(ip->radius, kRadiusCap, 1e-7);
  // Solved from a start outside the region: the centre is kRadiusCap deep.
  EXPECT_GE(ip->x[0], kRadiusCap - 1e-7);
  EXPECT_GE(ip->x[1], kRadiusCap - 1e-7);
}

// Randomized cross-check: LP optimum over a random box must match the
// closed-form corner optimum.
TEST(Lp, RandomBoxesMatchClosedForm) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const int dim = rng.UniformInt(1, 5);
    Vec lo(dim), hi(dim), c(dim);
    std::vector<Halfspace> cons;
    for (int i = 0; i < dim; ++i) {
      lo[i] = rng.Uniform(-2.0, 1.0);
      hi[i] = lo[i] + rng.Uniform(0.1, 3.0);
      c[i] = rng.Uniform(-5.0, 5.0);
      Vec up(dim, 0.0), down(dim, 0.0);
      up[i] = 1.0;
      down[i] = -1.0;
      Halfspace hu, hl;
      hu.a = up;
      hu.b = hi[i];
      hl.a = down;
      hl.b = -lo[i];
      cons.push_back(hu);
      cons.push_back(hl);
    }
    Scalar expect = 0.0;
    for (int i = 0; i < dim; ++i) expect += c[i] * (c[i] >= 0 ? hi[i] : lo[i]);
    LpResult r = SolveLp(c, cons);
    ASSERT_EQ(r.status, LpStatus::kOptimal) << "trial " << trial;
    EXPECT_NEAR(r.objective, expect, 1e-6) << "trial " << trial;
  }
}

}  // namespace
}  // namespace utk
