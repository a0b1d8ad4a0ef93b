// Randomized cross-validation of the simplex solver against an independent
// 2D reference: enumerate all constraint-pair intersection vertices, keep
// the feasible ones, and take the best objective. For bounded feasible 2D
// programs this is exact, so any disagreement is a solver bug.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>

#include "chebyshev_oracle.h"
#include "common/rng.h"
#include "diff_env.h"
#include "geometry/lp.h"
#include "lp_oracle.h"

namespace utk {
namespace {

struct Reference2d {
  bool feasible = false;
  bool bounded = true;
  Scalar best = 0.0;
};

// Exact reference for: maximize c.x subject to cons, all |x| <= box_bound
// (the box keeps the program bounded so vertex enumeration is complete).
Reference2d SolveByVertexEnumeration(const Vec& c,
                                     std::vector<Halfspace> cons,
                                     Scalar box_bound) {
  // Add the bounding box explicitly.
  for (int i = 0; i < 2; ++i) {
    Halfspace up, down;
    up.a = {i == 0 ? 1.0 : 0.0, i == 1 ? 1.0 : 0.0};
    up.b = box_bound;
    down.a = {i == 0 ? -1.0 : 0.0, i == 1 ? -1.0 : 0.0};
    down.b = box_bound;
    cons.push_back(up);
    cons.push_back(down);
  }
  Reference2d ref;
  const int m = static_cast<int>(cons.size());
  for (int i = 0; i < m; ++i) {
    for (int j = i + 1; j < m; ++j) {
      const Scalar a1 = cons[i].a[0], b1 = cons[i].a[1], c1 = cons[i].b;
      const Scalar a2 = cons[j].a[0], b2 = cons[j].a[1], c2 = cons[j].b;
      const Scalar det = a1 * b2 - a2 * b1;
      if (std::fabs(det) < 1e-12) continue;
      const Vec x = {(c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det};
      bool ok = true;
      for (const Halfspace& h : cons) {
        if (h.Slack(x) < -1e-7) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      const Scalar v = c[0] * x[0] + c[1] * x[1];
      if (!ref.feasible || v > ref.best) ref.best = v;
      ref.feasible = true;
    }
  }
  return ref;
}

TEST(LpFuzz, RandomBounded2dProgramsMatchVertexEnumeration) {
  Rng rng(2024);
  int feasible_seen = 0, infeasible_seen = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const int m = rng.UniformInt(1, 8);
    std::vector<Halfspace> cons;
    for (int i = 0; i < m; ++i) {
      Halfspace h;
      h.a = {rng.Uniform(-1, 1), rng.Uniform(-1, 1)};
      if (std::fabs(h.a[0]) + std::fabs(h.a[1]) < 1e-3) h.a[0] = 1.0;
      h.b = rng.Uniform(-0.5, 1.0);
      cons.push_back(h);
    }
    const Vec c = {rng.Uniform(-2, 2), rng.Uniform(-2, 2)};
    constexpr Scalar kBox = 5.0;
    Reference2d ref = SolveByVertexEnumeration(c, cons, kBox);

    std::vector<Halfspace> with_box = cons;
    for (int i = 0; i < 2; ++i) {
      Halfspace up, down;
      up.a = {i == 0 ? 1.0 : 0.0, i == 1 ? 1.0 : 0.0};
      up.b = kBox;
      down.a = {i == 0 ? -1.0 : 0.0, i == 1 ? -1.0 : 0.0};
      down.b = kBox;
      with_box.push_back(up);
      with_box.push_back(down);
    }
    LpResult got = SolveLp(c, with_box);

    if (ref.feasible) {
      ++feasible_seen;
      ASSERT_EQ(got.status, LpStatus::kOptimal) << "trial " << trial;
      EXPECT_NEAR(got.objective, ref.best, 1e-5) << "trial " << trial;
      // The reported optimizer must satisfy all constraints.
      for (const Halfspace& h : with_box)
        EXPECT_GE(h.Slack(got.x), -1e-6) << "trial " << trial;
    } else {
      ++infeasible_seen;
      EXPECT_EQ(got.status, LpStatus::kInfeasible) << "trial " << trial;
    }
  }
  // The generator must exercise both outcomes.
  EXPECT_GT(feasible_seen, 50);
  EXPECT_GT(infeasible_seen, 5);
}

TEST(LpFuzz, DegenerateAndDuplicateConstraintsMatchVertexEnumeration) {
  // Stress the ratio test's tie handling: constraint sets deliberately
  // full of exact duplicates, scaled copies (same hyperplane, different
  // normal length), and constraints through a common vertex. These make
  // many rows tie in the ratio test within kPivotEps; the tie-break must
  // never drift the incumbent ratio upward (the bug this guards against
  // picked a row whose ratio was *larger* than the incumbent and
  // overwrote best_ratio with it, walking the basis out of the feasible
  // region on degenerate instances).
  Rng rng(3030);
  int feasible_seen = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Halfspace> cons;
    const int m = rng.UniformInt(2, 5);
    for (int i = 0; i < m; ++i) {
      Halfspace h;
      h.a = {rng.Uniform(-1, 1), rng.Uniform(-1, 1)};
      if (std::fabs(h.a[0]) + std::fabs(h.a[1]) < 1e-3) h.a[0] = 1.0;
      h.b = rng.Uniform(-0.3, 1.0);
      cons.push_back(h);
      // Exact duplicate of every constraint.
      cons.push_back(h);
      // Scaled copy: same half-plane, different row scaling, so its ratio
      // ties the original's without being bit-identical.
      const Scalar s = rng.Uniform(0.5, 3.0);
      Halfspace scaled;
      scaled.a = {h.a[0] * s, h.a[1] * s};
      scaled.b = h.b * s;
      cons.push_back(scaled);
    }
    // A pencil of constraints through one vertex: at that vertex every one
    // of them is tight simultaneously (maximal degeneracy).
    const Vec apex = {rng.Uniform(-0.5, 0.5), rng.Uniform(-0.5, 0.5)};
    for (int i = 0; i < 3; ++i) {
      Halfspace h;
      h.a = {rng.Uniform(-1, 1), rng.Uniform(-1, 1)};
      if (std::fabs(h.a[0]) + std::fabs(h.a[1]) < 1e-3) h.a[1] = 1.0;
      h.b = h.a[0] * apex[0] + h.a[1] * apex[1];  // tight at the apex
      cons.push_back(h);
    }
    const Vec c = {rng.Uniform(-2, 2), rng.Uniform(-2, 2)};
    constexpr Scalar kBox = 4.0;
    Reference2d ref = SolveByVertexEnumeration(c, cons, kBox);

    std::vector<Halfspace> with_box = cons;
    for (int i = 0; i < 2; ++i) {
      Halfspace up, down;
      up.a = {i == 0 ? 1.0 : 0.0, i == 1 ? 1.0 : 0.0};
      up.b = kBox;
      down.a = {i == 0 ? -1.0 : 0.0, i == 1 ? -1.0 : 0.0};
      down.b = kBox;
      with_box.push_back(up);
      with_box.push_back(down);
    }
    LpResult got = SolveLp(c, with_box);

    if (ref.feasible) {
      ++feasible_seen;
      ASSERT_EQ(got.status, LpStatus::kOptimal) << "trial " << trial;
      EXPECT_NEAR(got.objective, ref.best, 1e-5) << "trial " << trial;
      for (const Halfspace& h : with_box)
        EXPECT_GE(h.Slack(got.x), -1e-6) << "trial " << trial;
    } else {
      EXPECT_EQ(got.status, LpStatus::kInfeasible) << "trial " << trial;
    }
  }
  EXPECT_GT(feasible_seen, 100);
}

TEST(LpFuzz, MinimizeAgreesWithNegatedMaximize) {
  Rng rng(2025);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<Halfspace> cons;
    for (int i = 0; i < 5; ++i) {
      Halfspace h;
      h.a = {rng.Uniform(-1, 1), rng.Uniform(-1, 1), rng.Uniform(-1, 1)};
      h.b = rng.Uniform(0.1, 1.0);  // origin feasible
      cons.push_back(h);
    }
    for (int i = 0; i < 3; ++i) {
      Halfspace up, down;
      up.a = {0, 0, 0};
      up.a[i] = 1.0;
      up.b = 2.0;
      down.a = {0, 0, 0};
      down.a[i] = -1.0;
      down.b = 2.0;
      cons.push_back(up);
      cons.push_back(down);
    }
    const Vec c = {rng.Uniform(-1, 1), rng.Uniform(-1, 1), rng.Uniform(-1, 1)};
    Vec neg = {-c[0], -c[1], -c[2]};
    LpResult mn = SolveLp(c, cons, /*maximize=*/false);
    LpResult mx = SolveLp(neg, cons, /*maximize=*/true);
    ASSERT_EQ(mn.status, LpStatus::kOptimal);
    ASSERT_EQ(mx.status, LpStatus::kOptimal);
    EXPECT_NEAR(mn.objective, -mx.objective, 1e-6) << "trial " << trial;
  }
}

TEST(LpFuzz, ChebyshevCenterDeepInside) {
  // The Chebyshev ball must fit: slack of every constraint at the center is
  // at least radius * ||a||.
  Rng rng(2026);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<Halfspace> cons;
    for (int i = 0; i < 8; ++i) {
      Halfspace h;
      h.a = {rng.Uniform(-1, 1), rng.Uniform(-1, 1)};
      if (std::fabs(h.a[0]) + std::fabs(h.a[1]) < 1e-3) h.a[1] = 1.0;
      h.b = rng.Uniform(0.2, 1.0);  // origin strictly feasible
      cons.push_back(h);
    }
    auto ip = FindInteriorPoint(cons, {rng.Uniform(-2, 2), rng.Uniform(-2, 2)});
    ASSERT_TRUE(ip.has_value()) << "trial " << trial;
    ASSERT_GT(ip->radius, 0.0);
    for (const Halfspace& h : cons) {
      EXPECT_GE(h.Slack(ip->x) + 1e-7, ip->radius * Norm(h.a))
          << "trial " << trial;
    }
  }
}


// --- FindInteriorPoint against the two-phase oracle ----------------------

Halfspace RandomHalfspace(Rng& rng, int nv, Scalar lo_b, Scalar hi_b) {
  Halfspace h;
  h.a.resize(nv);
  for (Scalar& v : h.a) v = rng.Uniform(-1, 1);
  h.b = rng.Uniform(lo_b, hi_b);
  return h;
}

Halfspace Scaled(const Halfspace& h, Scalar s) {
  Halfspace g = h;
  for (Scalar& v : g.a) v *= s;
  g.b *= s;
  return g;
}

// The box [-r, r]^nv as 2 * nv half-spaces.
void AddBox(std::vector<Halfspace>& cons, int nv, Scalar r) {
  for (int i = 0; i < nv; ++i) {
    Halfspace up, down;
    up.a.assign(nv, 0.0);
    up.a[i] = 1.0;
    up.b = r;
    down.a.assign(nv, 0.0);
    down.a[i] = -1.0;
    down.b = r;
    cons.push_back(up);
    cons.push_back(down);
  }
}

// The rows overload for `bounds` plus `extra`, as CellArrangement::Insert
// solves a side of a cut: the bounds as rows, the cut as row 0 of its own.
std::optional<InteriorPoint> SolveSide(const std::vector<Halfspace>& bounds,
                                       const Halfspace& extra,
                                       const Vec& start) {
  HalfspaceRows cut;
  cut.push_back(extra);
  return FindInteriorPoint(HalfspaceRows(bounds), cut, 0, start);
}

// The solver's contract for bounds + {extra} solved from x0: no optimum
// exactly where the oracle has none (a trivially infeasible zero-normal
// row), otherwise the oracle's radius within 1e-10 and a centre whose ball
// keeps every row. The one-list overload must give the same result.
std::optional<InteriorPoint> ExpectMatchesOracle(
    const std::vector<Halfspace>& bounds, const Halfspace& extra,
    const Vec& x0, const std::string& label) {
  std::vector<Halfspace> cons = bounds;
  cons.push_back(extra);
  const std::optional<InteriorPoint> ip = SolveSide(bounds, extra, x0);
  const std::optional<InteriorPoint> ref = TwoPhaseInteriorPoint(cons);
  EXPECT_EQ(ip.has_value(), ref.has_value()) << label;
  const std::optional<InteriorPoint> joined = FindInteriorPoint(cons, x0);
  EXPECT_EQ(joined.has_value(), ip.has_value()) << label;
  if (!ip.has_value()) return ip;
  if (joined.has_value()) {
    EXPECT_EQ(joined->x, ip->x) << label;
    EXPECT_EQ(joined->radius, ip->radius) << label;
  }
  if (ref.has_value()) {
    EXPECT_NEAR(ip->radius, ref->radius, 1e-10) << label;
  }
  ExpectValidCentre(cons, *ip, label);
  return ip;
}

TEST(LpFuzz, ChebyshevRadiusMatchesReferenceOnRandomRegions) {
  const uint64_t seed = EnvSeed();
  for (int draw = 0; draw < EnvDraws(); ++draw) {
    Rng rng(seed + static_cast<uint64_t>(draw));
    const int nv = rng.UniformInt(2, 6);
    std::vector<Halfspace> bounds;
    if (rng.UniformInt(0, 1) == 1) AddBox(bounds, nv, rng.Uniform(0.1, 1.0));
    const int m = rng.UniformInt(1, 12);
    for (int i = 0; i < m; ++i)
      bounds.push_back(RandomHalfspace(rng, nv, -0.2, 0.6));
    const Halfspace extra = RandomHalfspace(rng, nv, -0.5, 0.5);
    const std::string label = "UTK_DIFF_SEED=" + std::to_string(seed + draw);
    // From the bounds' own centre, as the arrangement calls it, and from an
    // arbitrary point, which the contract also allows.
    Vec x(nv);
    for (Scalar& v : x) v = rng.Uniform(-1.5, 1.5);
    const std::optional<InteriorPoint> centre = FindInteriorPoint(bounds, x);
    ASSERT_TRUE(centre.has_value()) << label;
    ExpectMatchesOracle(bounds, extra, centre->x, label + " centre");
    ExpectMatchesOracle(bounds, extra, x, label + " arbitrary x0");
    ExpectMatchesOracle(bounds, extra.Complement(), x, label + " complement");
  }
}

TEST(LpFuzz, ChebyshevRadiusMatchesReferenceOnTallRegions) {
  // Tableaux taller than the other draws make: a box plus 20-48 random
  // rows, so every solve has 24-60 rows where the others stop at
  // 2 * nv + 12. The same rows also go to SolveLp against the two-phase
  // oracle.
  const uint64_t seed = EnvSeed();
  int optimal = 0;
  for (int draw = 0; draw < EnvDraws(); ++draw) {
    Rng rng(seed + static_cast<uint64_t>(draw));
    const int nv = rng.UniformInt(2, 6);
    std::vector<Halfspace> bounds;
    AddBox(bounds, nv, rng.Uniform(0.1, 1.0));
    const int m = rng.UniformInt(20, 48);
    for (int i = 0; i < m; ++i)
      bounds.push_back(RandomHalfspace(rng, nv, -0.05, 0.6));
    const Halfspace extra = RandomHalfspace(rng, nv, -0.3, 0.3);
    const std::string label = "UTK_DIFF_SEED=" + std::to_string(seed + draw);
    Vec x(nv);
    for (Scalar& v : x) v = rng.Uniform(-1.5, 1.5);
    const std::optional<InteriorPoint> centre = FindInteriorPoint(bounds, x);
    ASSERT_TRUE(centre.has_value()) << label;
    ExpectMatchesOracle(bounds, extra, centre->x, label + " centre");
    ExpectMatchesOracle(bounds, extra, x, label + " arbitrary x0");

    std::vector<Halfspace> cons = bounds;
    cons.push_back(extra);
    Vec c(nv);
    for (Scalar& v : c) v = rng.Uniform(-1, 1);
    const bool maximize = rng.UniformInt(0, 1) == 1;
    const LpResult want = TwoPhaseLp(c, cons, maximize);
    const LpResult got = SolveLp(c, cons, maximize);
    ASSERT_EQ(got.status, want.status) << label;
    if (got.status != LpStatus::kOptimal) continue;
    ++optimal;
    EXPECT_NEAR(got.objective, want.objective, 1e-6) << label;
  }
  // Most draws keep a feasible region; the solves above must not all be
  // infeasible ones.
  EXPECT_GT(optimal, 0);
}

TEST(LpFuzz, ChebyshevRadiusMatchesReferenceOnDegenerateRegions) {
  const uint64_t seed = EnvSeed();
  for (int draw = 0; draw < EnvDraws(); ++draw) {
    Rng rng(seed + static_cast<uint64_t>(draw));
    const int nv = rng.UniformInt(2, 6);
    const std::string label = "UTK_DIFF_SEED=" + std::to_string(seed + draw);
    std::vector<Halfspace> bounds;
    AddBox(bounds, nv, 0.5);
    for (int i = 0; i < 3; ++i) {
      const Halfspace h = RandomHalfspace(rng, nv, -0.1, 0.4);
      bounds.push_back(h);
      bounds.push_back(h);                                  // duplicate
      bounds.push_back(Scaled(h, rng.Uniform(0.5, 3.0)));  // parallel copy
    }
    Vec x(nv);
    for (Scalar& v : x) v = rng.Uniform(-0.5, 0.5);
    const Halfspace extra = RandomHalfspace(rng, nv, -0.3, 0.3);
    ExpectMatchesOracle(bounds, extra, x, label + " duplicates");
    // Extra duplicating, scaling or complementing a bound: the complement
    // closes a zero-width slab.
    ExpectMatchesOracle(bounds, bounds.back(), x, label + " duplicate extra");
    ExpectMatchesOracle(bounds, Scaled(bounds.back(), 2.5), x,
                        label + " parallel extra");
    ExpectMatchesOracle(bounds, bounds.back().Complement(), x,
                        label + " zero-width slab");

    // A zero-width slab inside the bounds, and an extra that crosses it.
    std::vector<Halfspace> slab = bounds;
    const Halfspace cut = RandomHalfspace(rng, nv, -0.1, 0.1);
    slab.push_back(cut);
    slab.push_back(cut.Complement());
    ExpectMatchesOracle(slab, extra, x, label + " slab bounds");

    // Zero-normal rows: dropped for b >= -kEps (including b in [-kEps, 0)),
    // trivially infeasible for b < -kEps, in the bounds or as the extra.
    Halfspace zero;
    zero.a.assign(nv, 0.0);
    for (Scalar b : {1.0, 0.0, -0.5 * kEps, -1.0}) {
      zero.b = b;
      std::vector<Halfspace> with_zero = bounds;
      with_zero.push_back(zero);
      const std::string z = " zero-normal b=" + std::to_string(b);
      ExpectMatchesOracle(with_zero, extra, x, label + z + " in bounds");
      ExpectMatchesOracle(bounds, zero, x, label + z + " as extra");
    }

    // Cap-bound: the ball of [-5, 5]^nv has radius 5 > cap, both from a
    // centre whose own radius exceeds the cap and from an off-centre point.
    std::vector<Halfspace> big;
    AddBox(big, nv, 5.0);
    const Halfspace far = RandomHalfspace(rng, nv, 3.0, 4.0);
    ExpectMatchesOracle(big, far, Vec(nv, 0.0), label + " cap at centre");
    ExpectMatchesOracle(big, far, x, label + " cap off centre");
  }
}

TEST(LpFuzz, ChebyshevRadiusKeepsEveryThresholdDecision) {
  // Slabs whose half-width straddles kInteriorEps by up to 3e-9, rotated at
  // random: the radius > kInteriorEps decision must equal the oracle's
  // exactly where it is closest, unless the two radii sit within rounding
  // of the threshold.
  const uint64_t seed = EnvSeed();
  for (int draw = 0; draw < EnvDraws(); ++draw) {
    Rng rng(seed + static_cast<uint64_t>(draw));
    const int nv = rng.UniformInt(2, 6);
    const std::string label = "UTK_DIFF_SEED=" + std::to_string(seed + draw);
    std::vector<Halfspace> bounds;
    AddBox(bounds, nv, rng.Uniform(0.05, 0.5));
    Halfspace dir = RandomHalfspace(rng, nv, 0.0, 0.0);
    const Scalar norm = Norm(dir.a);
    if (norm < 1e-3) continue;
    for (Scalar& v : dir.a) v /= norm;
    const Scalar mid = rng.Uniform(-0.02, 0.02);
    const Scalar half = kInteriorEps + rng.Uniform(-3e-9, 3e-9);
    Halfspace upper = dir;  // dir.x <= mid + half
    upper.b = mid + half;
    Halfspace lower = dir;  // dir.x >= mid - half
    lower.b = mid - half;
    bounds.push_back(upper);
    const std::optional<InteriorPoint> centre =
        FindInteriorPoint(bounds, Vec(nv, 0.0));
    ASSERT_TRUE(centre.has_value()) << label;
    std::vector<Halfspace> cons = bounds;
    cons.push_back(lower.Complement());
    const std::optional<InteriorPoint> ref = TwoPhaseInteriorPoint(cons);
    ASSERT_TRUE(ref.has_value()) << label;
    const std::optional<InteriorPoint> ip =
        ExpectMatchesOracle(bounds, lower.Complement(), centre->x, label);
    ASSERT_TRUE(ip.has_value()) << label;
    if (std::fabs(ref->radius - kInteriorEps) > 1e-10) {
      EXPECT_EQ(ip->radius > kInteriorEps, ref->radius > kInteriorEps)
          << label << " radius " << ip->radius << " oracle " << ref->radius;
    }
  }
}


TEST(LpFuzz, ChebyshevRadiusOnRecordedArrangementSide) {
  // One side LP recorded from an anti-refine UTK2 query (ANTI n=10k d=4,
  // data seed 4242, query seed 407, request 499): a cell's 26 bounds, the
  // cut side, and the cell's cached centre. The side misses the cell: its
  // optimal Chebyshev radius is about -5.54e-4. Given the rows in this
  // order, the two-phase solve returns radius 2.4e-4 with a centre whose
  // ball crosses a bound by 9e-3, which once kept the side as a cell; given
  // them reversed, it returns the optimum with a valid centre. The solver
  // must reach that optimum in the original order.
  auto Hs = [](Vec a, Scalar b) {
    Halfspace h;
    h.a = std::move(a);
    h.b = b;
    return h;
  };
  const std::vector<Halfspace> bounds = {
      Hs({1, 0, 0}, 0.18059352309585058),
      Hs({-1, 0, 0}, -0.16059352309585059),
      Hs({0, 1, 0}, 0.56815698779920876),
      Hs({0, -1, 0}, -0.54815698779920874),
      Hs({0, 0, 1}, 0.12429299954338438),
      Hs({0, 0, -1}, -0.10429299954338438),
      Hs({0.060531750243486893, -0.035245297234001383, -0.53605221239943202},
         -0.066066235278922691),
      Hs({0.24198643770350442, 0.010704678364905185, -0.64313221947288879},
         -0.023454456201724538),
      Hs({0.2181526324675428, -0.017972500442905326, -0.78465515393930474},
         -0.060274694324443351),
      Hs({1.3566579066441098, 0.79270139083762814, 0.36441821281804693},
         0.71714326349345914),
      Hs({1.258272769470439, 0.50322567078573877, -0.013641558594578329},
         0.4932374228908678),
      Hs({1.1385052741765669, 0.81067389128053347, 1.1490733667573516},
         0.77741795781790246),
      Hs({1.2696092834453587, 0.78144105118346963, 1.0115112249948193},
         0.76501506816541398),
      Hs({1.0401201370028961, 0.52119817122864409, 0.77101359534472647},
         0.55351211721531113),
      Hs({-0.070285434656240098, 0.15574720941722042, 0.72875571328247979},
         0.16179493881491055),
      Hs({-0.1576208822240559, -0.017272796791096057, 0.24860294153987278},
         -0.0057915409544793406),
      Hs({0.023833805235961625, 0.028677178807810511, 0.14152293446641601},
         0.036820238122718812),
      Hs({-0.32080457670861784, -0.0048614151443795439, 0.37939690805382614},
         -0.010956319774774265),
      Hs({1.2961261564006228, 0.82794668807162952, 0.90047042521747889},
         0.78320949877238188),
      Hs({-1.4272301656694146, -0.79871384797456568, -0.76290828345494655},
         -0.77080660911989329),
      Hs({-1.1977410192269522, -0.53847096801974015, -0.52241065380485363},
         -0.55930365816979055),
      Hs({0.087335447567815805, 0.17302000620831648, 0.48015277174260707},
         0.1675864797693899),
      Hs({-0.16318369448456194, 0.012411381646716513, 0.13079396651395336},
         -0.0051647788202949241),
      Hs({-1.245775478209397, -0.75276387237565912, -0.86998829052840332},
         -0.72819483004269525),
      Hs({-1.0162863317669346, -0.49252099242083358, -0.6294906608783104},
         -0.51669187909259229),
      Hs({-0.22948914644246254, -0.26024287995482553, -0.24049762965009291},
         -0.21150295095010285),
  };
  const Halfspace extra =
      Hs({-0.36688697053021246, -0.059842515056399814, 0.4823713097350989},
         -0.042799703146225276);
  const Vec x0 = {0.16680043889243637, 0.56284838925638303,
                  0.11166396350436368};

  std::vector<Halfspace> reversed = bounds;
  reversed.push_back(extra);
  std::reverse(reversed.begin(), reversed.end());
  const std::optional<InteriorPoint> ref = TwoPhaseInteriorPoint(reversed);
  ASSERT_TRUE(ref.has_value());
  ExpectValidCentre(reversed, *ref, "oracle, reversed rows");
  ASSERT_LT(ref->radius, 0.0);

  std::vector<Halfspace> cons = bounds;
  cons.push_back(extra);
  for (const Vec& start : {x0, Vec(3, 0.0)}) {
    const std::optional<InteriorPoint> ip = SolveSide(bounds, extra, start);
    ASSERT_TRUE(ip.has_value());
    EXPECT_NEAR(ip->radius, ref->radius, 1e-10);
    ExpectValidCentre(cons, *ip, "original rows");
  }
}

TEST(LpFuzz, ChebyshevCentreOnNearParallelSlab) {
  // A side recorded from an arrangement draw: two pairs of parallel rows
  // 2e-8 apart close a slab of radius ~1.164e-7 through a clipped box. The
  // third pivot's ratio test sees both rows of the lower pair at ratios
  // 1.5e-8 apart, with coefficient ~242 after the earlier pivots. A tie
  // band of kPivotEps in ratio units let the larger-index row stay basic
  // and go infeasible by 2.1e-8, so the ball crossed it and the radius
  // read 1.24e-7. The band is now kPivotEps in right-hand-side units.
  auto Hs = [](Vec a, Scalar b) {
    Halfspace h;
    h.a = std::move(a);
    h.b = b;
    return h;
  };
  const Vec n = {0.95629206785483212, -0.98719662150521992};
  const Vec neg = {-n[0], -n[1]};
  const std::vector<Halfspace> bounds = {
      Hs({1, 0}, 0.77485923988132221),  Hs({-1, 0}, -0.069534719384521632),
      Hs({0, 1}, 1.0820894186935646),   Hs({0, -1}, -0.28848883088602501),
      Hs({-1, 0}, 0),                   Hs({0, -1}, 0),
      Hs({1, 1}, 1),                    Hs(n, -0.56477620217822788),
      Hs(n, -0.56477656634651008),
      Hs({-0.44343385356868614, -0.6367303090044254}, -0.58413189613174743),
      Hs({-0.80421889789854806, -0.41059455299452152},
         -0.42839953650379226),
      Hs(neg, 0.56477690725639307),
  };
  const Halfspace extra = Hs(neg, 0.56477688629162481);
  const Vec x0 = {0.21735126888205053, 0.78264856651463921};

  std::vector<Halfspace> cons = bounds;
  cons.push_back(extra);
  const std::optional<InteriorPoint> ref = TwoPhaseInteriorPoint(cons);
  ASSERT_TRUE(ref.has_value());
  const std::optional<InteriorPoint> ip = SolveSide(bounds, extra, x0);
  ASSERT_TRUE(ip.has_value());
  EXPECT_NEAR(ip->radius, ref->radius, 1e-10);
  EXPECT_NEAR(ip->radius, 1.1639e-7, 1e-11);
  ExpectValidCentre(cons, *ip, "near-parallel slab");
}

// --- SolveLp against the two-phase oracle ----------------------------------

TEST(LpFuzz, SolveLpMatchesTwoPhaseOracle) {
  // Programs around a point p: every random row keeps p strictly inside.
  // Bounded ones add a box; infeasible ones add a slab that excludes a
  // band around its own hyperplane; unbounded ones drop the box, keep
  // every row's normal <= 0 and maximize a positive objective, so
  // x = p + s * (1, ..., 1) stays feasible for every s >= 0.
  const uint64_t seed = EnvSeed();
  int seen[3] = {0, 0, 0};
  for (int draw = 0; draw < EnvDraws(); ++draw) {
    Rng rng(seed + static_cast<uint64_t>(draw));
    const int nv = rng.UniformInt(1, 6);
    const int kind = rng.UniformInt(0, 2);  // feasible, infeasible, unbounded
    const std::string label = "UTK_DIFF_SEED=" + std::to_string(seed + draw) +
                              " kind " + std::to_string(kind);
    Vec p(nv), c(nv);
    for (Scalar& v : p) v = rng.Uniform(-0.5, 0.5);
    for (Scalar& v : c) v = rng.Uniform(-1, 1);
    std::vector<Halfspace> cons;
    if (kind != 2) AddBox(cons, nv, 1.0);
    const int m = rng.UniformInt(1, 10);
    for (int i = 0; i < m; ++i) {
      Halfspace h = RandomHalfspace(rng, nv, 0.0, 0.0);
      if (kind == 2)
        for (Scalar& v : h.a) v = -std::fabs(v);
      h.b = Dot(h.a, p) + rng.Uniform(0.01, 0.5);
      cons.push_back(h);
    }
    bool maximize = rng.UniformInt(0, 1) == 1;
    if (kind == 2) {
      for (Scalar& v : c) v = std::fabs(v) + 0.1;
      maximize = true;
    }
    if (kind == 1) {
      Halfspace lo = RandomHalfspace(rng, nv, 0.0, 0.0);
      lo.a[0] = 1.0;  // keep the slab's normal away from zero
      const Scalar mid = Dot(lo.a, p) + rng.Uniform(-0.3, 0.3);
      Halfspace hi = lo.Complement();
      lo.b = mid - 0.05;  // lo.a . x <= mid - 0.05
      hi.b = -(mid + 0.05);  // lo.a . x >= mid + 0.05
      cons.push_back(lo);
      cons.push_back(hi);
    }

    const LpResult want = TwoPhaseLp(c, cons, maximize);
    const LpResult got = SolveLp(c, cons, maximize);
    ASSERT_EQ(got.status, want.status) << label;
    ++seen[static_cast<int>(want.status)];
    if (got.status != LpStatus::kOptimal) continue;
    EXPECT_NEAR(got.objective, want.objective, 1e-6) << label;
    for (const Halfspace& h : cons) EXPECT_GE(h.Slack(got.x), -1e-6) << label;
    // From a second feasible start, the same optimum.
    const LpResult again = SolveLp(c, cons, maximize, &p);
    ASSERT_EQ(again.status, LpStatus::kOptimal) << label;
    EXPECT_NEAR(again.objective, want.objective, 1e-6) << label;
    for (const Halfspace& h : cons)
      EXPECT_GE(h.Slack(again.x), -1e-6) << label;
  }
  // Every outcome is exercised once there are a few dozen draws.
  if (EnvDraws() >= 30) {
    EXPECT_GT(seen[static_cast<int>(LpStatus::kOptimal)], 0);
    EXPECT_GT(seen[static_cast<int>(LpStatus::kInfeasible)], 0);
    EXPECT_GT(seen[static_cast<int>(LpStatus::kUnbounded)], 0);
  }
}

}  // namespace
}  // namespace utk
