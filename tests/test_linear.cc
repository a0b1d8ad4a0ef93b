#include "geometry/linear.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/rng.h"

namespace utk {
namespace {

Record MakeRecord(int id, Vec attrs) {
  Record r;
  r.id = id;
  r.attrs = std::move(attrs);
  return r;
}

// Lifts a reduced (d-1)-dimensional weight vector to the full d-dimensional
// vector with w_d = 1 - sum(w).
Vec LiftWeights(const Vec& w) {
  Vec full(w.size() + 1);
  Scalar sum = 0.0;
  for (size_t i = 0; i < w.size(); ++i) {
    full[i] = w[i];
    sum += w[i];
  }
  full[w.size()] = 1.0 - sum;
  return full;
}

TEST(Linear, DotAndNorm) {
  EXPECT_DOUBLE_EQ(Dot({1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}), 32.0);
  EXPECT_DOUBLE_EQ(Norm({3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(Norm({0.0, 0.0}), 0.0);
}

TEST(Linear, ReducedScoreMatchesFullWeights) {
  // S(p) = w1*x1 + w2*x2 + (1-w1-w2)*x3 must equal the reduced evaluation.
  const Record p = MakeRecord(0, {8.3, 9.1, 7.2});
  const Vec w = {0.3, 0.5};
  const Scalar full = 0.3 * 8.3 + 0.5 * 9.1 + 0.2 * 7.2;
  EXPECT_NEAR(Score(p, w), full, 1e-12);
  EXPECT_NEAR(MakeScore(p).Eval(w), full, 1e-12);
}

TEST(Linear, ScoreAtSimplexCorners) {
  const Record p = MakeRecord(0, {1.0, 2.0, 3.0});
  // w = (1, 0): pure weight on x1.
  EXPECT_NEAR(Score(p, {1.0, 0.0}), 1.0, 1e-12);
  // w = (0, 1): pure weight on x2.
  EXPECT_NEAR(Score(p, {0.0, 1.0}), 2.0, 1e-12);
  // w = (0, 0): all weight on the dropped dimension x3.
  EXPECT_NEAR(Score(p, {0.0, 0.0}), 3.0, 1e-12);
}

TEST(Linear, LiftWeights) {
  const Vec full = LiftWeights({0.3, 0.5});
  ASSERT_EQ(full.size(), 3u);
  EXPECT_NEAR(full[0], 0.3, 1e-12);
  EXPECT_NEAR(full[1], 0.5, 1e-12);
  EXPECT_NEAR(full[2], 0.2, 1e-12);
}

TEST(Linear, BetterOrEqualHalfspaceBoundary) {
  const Record p = MakeRecord(0, {2.0, 0.0, 1.0});
  const Record q = MakeRecord(1, {0.0, 2.0, 1.0});
  const Halfspace h = BetterOrEqual(p, q);
  // Scores are equal at w1 == w2, p wins when w1 > w2.
  EXPECT_TRUE(h.Contains({0.6, 0.2}));
  EXPECT_FALSE(h.Contains({0.2, 0.6}));
  // Boundary: equal weights.
  EXPECT_NEAR(h.Slack({0.4, 0.4}), 0.0, 1e-12);
}

TEST(Linear, BetterOrEqualConsistentWithScores) {
  const Record p = MakeRecord(0, {0.3, 0.9, 0.5});
  const Record q = MakeRecord(1, {0.8, 0.1, 0.4});
  const Halfspace h = BetterOrEqual(p, q);
  for (Scalar w1 = 0.05; w1 < 0.9; w1 += 0.17) {
    for (Scalar w2 = 0.05; w1 + w2 < 1.0; w2 += 0.13) {
      const Vec w = {w1, w2};
      EXPECT_EQ(h.Contains(w), Score(p, w) >= Score(q, w) - kEps)
          << "w1=" << w1 << " w2=" << w2;
    }
  }
}

TEST(Linear, TrivialHalfspace) {
  const Record p = MakeRecord(0, {1.0, 1.0});
  const Record q = MakeRecord(1, {1.0, 1.0});
  EXPECT_TRUE(IsTrivial(BetterOrEqual(p, q)));
  Halfspace h;
  h.a = {0.0, 0.0};
  h.b = -1.0;
  EXPECT_FALSE(IsTrivial(h));  // infeasible, not trivial
}

TEST(Linear, ComplementFlipsContainment) {
  Halfspace h;
  h.a = {1.0, 1.0};
  h.b = 0.5;
  const Halfspace c = h.Complement();
  EXPECT_TRUE(h.Contains({0.1, 0.1}));
  EXPECT_FALSE(c.Contains({0.1, 0.1}));
  EXPECT_TRUE(c.Contains({0.4, 0.4}));
  EXPECT_FALSE(h.Contains({0.4, 0.4}));
}

// --- HalfspaceRows: every stored value bit for bit ------------------------

bool SameBits(Scalar x, Scalar y) {
  return std::memcmp(&x, &y, sizeof(Scalar)) == 0;
}

bool SameBits(const Halfspace& x, const Halfspace& y) {
  return x.a.size() == y.a.size() &&
         std::memcmp(x.a.data(), y.a.data(), x.a.size() * sizeof(Scalar)) ==
             0 &&
         SameBits(x.b, y.b);
}

// A coefficient or offset: mostly uniform, sometimes +0, -0, tiny or large,
// so signed zeros and wide magnitudes reach every check.
Scalar DrawEntry(Rng& rng) {
  switch (rng.UniformInt(0, 7)) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    case 2:
      return rng.Uniform(-1e-12, 1e-12);
    case 3:
      return rng.Uniform(-1e6, 1e6);
    default:
      return rng.Uniform(-1, 1);
  }
}

// Random lists of 1-12 half-spaces at dims 2-9, with complement rows
// appended: ToVector round-trips, each complement row equals Complement(),
// each stored norm equals Norm of the row's a, and each row's Slack equals
// Halfspace::Slack, all compared with memcmp.
TEST(HalfspaceRows, RowsMatchHalfspacesBitForBit) {
  Rng rng(20261020);
  for (int draw = 0; draw < 400; ++draw) {
    const int dim = 2 + draw % 8;
    const std::string label =
        "draw " + std::to_string(draw) + " dim " + std::to_string(dim);
    std::vector<Halfspace> hs(rng.UniformInt(1, 12));
    for (Halfspace& h : hs) {
      h.a.resize(dim);
      for (Scalar& v : h.a) v = DrawEntry(rng);
      h.b = DrawEntry(rng);
    }
    HalfspaceRows rows(hs);
    ASSERT_EQ(rows.dim(), dim) << label;
    ASSERT_EQ(rows.size(), static_cast<int>(hs.size())) << label;
    std::vector<Halfspace> back = rows.ToVector();
    ASSERT_EQ(back.size(), hs.size()) << label;
    for (size_t i = 0; i < hs.size(); ++i)
      EXPECT_TRUE(SameBits(back[i], hs[i])) << label << " row " << i;

    const int n = rows.size();
    for (int i = 0; i < n; ++i) {
      rows.PushComplement(i);
      hs.push_back(hs[i].Complement());
    }
    back = rows.ToVector();
    Vec w(dim);
    for (Scalar& x : w) x = rng.Uniform(-1, 1);
    for (int i = 0; i < rows.size(); ++i) {
      EXPECT_TRUE(SameBits(back[i], hs[i])) << label << " row " << i;
      EXPECT_TRUE(SameBits(rows.b(i), hs[i].b)) << label << " row " << i;
      EXPECT_TRUE(SameBits(rows.norm(i), Norm(hs[i].a)))
          << label << " row " << i;
      EXPECT_TRUE(SameBits(rows.Slack(i, w), hs[i].Slack(w)))
          << label << " row " << i;
    }
    // A complement's slack is the exact negation of its row's.
    for (int i = 0; i < n; ++i)
      EXPECT_TRUE(SameBits(rows.Slack(n + i, w), -rows.Slack(i, w)))
          << label << " row " << i;
  }
}

TEST(HalfspaceRows, CopiesKeepEveryRow) {
  Halfspace h;
  h.a = {3.0, -4.0, 0.0};
  h.b = -0.0;
  HalfspaceRows src;
  src.push_back(h);
  src.PushComplement(0);
  HalfspaceRows copy;
  copy.Reserve(3, src.size() + 1);
  copy.Append(src);
  copy.PushRow(src, 1);
  ASSERT_EQ(copy.size(), 3);
  EXPECT_EQ(copy.Bytes(), static_cast<int64_t>(3 * 5 * sizeof(Scalar)));
  const std::vector<Halfspace> got = copy.ToVector();
  EXPECT_TRUE(SameBits(got[0], h));
  EXPECT_TRUE(SameBits(got[1], h.Complement()));
  EXPECT_TRUE(SameBits(got[2], h.Complement()));
  EXPECT_TRUE(SameBits(copy.norm(2), 5.0));
  copy.Reserve(3, 1);
  EXPECT_TRUE(copy.empty());
  EXPECT_EQ(HalfspaceRows(std::vector<Halfspace>{}).size(), 0);
}

}  // namespace
}  // namespace utk
