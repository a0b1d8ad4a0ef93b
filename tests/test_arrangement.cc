#include "arrangement/arrangement.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <string>

#include "chebyshev_oracle.h"
#include "common/rng.h"
#include "diff_env.h"
#include "geometry/linear.h"

namespace utk {
namespace {

Halfspace Hs(Vec a, Scalar b) {
  Halfspace h;
  h.a = std::move(a);
  h.b = b;
  return h;
}

ConvexRegion UnitBox() { return ConvexRegion::FromBox({0.0, 0.0}, {0.4, 0.4}); }

TEST(Arrangement, StartsWithOneCell) {
  CellArrangement arr(UnitBox());
  EXPECT_EQ(arr.cells().size(), 1u);
  EXPECT_EQ(arr.MinCount(), 0);
}

TEST(Arrangement, SplitByDiagonal) {
  CellArrangement arr(UnitBox());
  arr.Insert(7, Hs({1.0, 1.0}, 0.4));  // w1 + w2 <= 0.4 cuts the box corner
  ASSERT_EQ(arr.cells().size(), 2u);
  // One cell covered by half-space 7, one not.
  int covered = 0;
  for (const Cell& c : arr.cells()) {
    if (c.Count() == 1) {
      ++covered;
      EXPECT_EQ(c.covering[0], 7);
    }
  }
  EXPECT_EQ(covered, 1);
}

TEST(Arrangement, NonCrossingHalfspaceJustCounts) {
  CellArrangement arr(UnitBox());
  arr.Insert(1, Hs({1.0, 0.0}, 10.0));  // w1 <= 10 covers everything
  EXPECT_EQ(arr.cells().size(), 1u);
  EXPECT_EQ(arr.cells()[0].Count(), 1);
  arr.Insert(2, Hs({1.0, 0.0}, -1.0));  // w1 <= -1 misses everything
  EXPECT_EQ(arr.cells().size(), 1u);
  EXPECT_EQ(arr.cells()[0].Count(), 1);
}

TEST(Arrangement, TrivialZeroNormalHalfspace) {
  CellArrangement arr(UnitBox());
  arr.Insert(3, Hs({0.0, 0.0}, 1.0));  // always true
  EXPECT_EQ(arr.cells().size(), 1u);
  EXPECT_EQ(arr.cells()[0].Count(), 1);
  arr.Insert(4, Hs({0.0, 0.0}, -1.0));  // never true
  EXPECT_EQ(arr.cells()[0].Count(), 1);
}

TEST(Arrangement, TwoCrossingLinesMakeFourCells) {
  CellArrangement arr(UnitBox());
  arr.Insert(0, Hs({1.0, 0.0}, 0.2));   // w1 <= 0.2
  arr.Insert(1, Hs({0.0, 1.0}, 0.2));   // w2 <= 0.2
  EXPECT_EQ(arr.cells().size(), 4u);
  std::vector<int> counts;
  for (const Cell& c : arr.cells()) counts.push_back(c.Count());
  std::sort(counts.begin(), counts.end());
  EXPECT_EQ(counts, (std::vector<int>{0, 1, 1, 2}));
}

TEST(Arrangement, CountsMatchPointwiseEvaluation) {
  // Property: the covering count of the cell containing a sample point must
  // equal the number of inserted half-spaces containing that point.
  Rng rng(12);
  CellArrangement arr(UnitBox());
  std::vector<Halfspace> inserted;
  for (int i = 0; i < 6; ++i) {
    Halfspace h = Hs({rng.Uniform(-1, 1), rng.Uniform(-1, 1)},
                     rng.Uniform(-0.3, 0.6));
    inserted.push_back(h);
    arr.Insert(i, h);
  }
  for (int t = 0; t < 300; ++t) {
    Vec w = {rng.Uniform(0.0, 0.4), rng.Uniform(0.0, 0.4)};
    const int cell = arr.Locate(w);
    ASSERT_GE(cell, 0);
    int expect = 0;
    for (const Halfspace& h : inserted)
      if (h.Contains(w)) ++expect;
    // Boundary-adjacent samples may disagree by the eps policy; skip points
    // within 1e-6 of any hyperplane.
    bool near_boundary = false;
    for (const Halfspace& h : inserted)
      if (std::abs(h.Slack(w)) < 1e-6) near_boundary = true;
    if (!near_boundary) {
      EXPECT_EQ(arr.cells()[cell].Count(), expect) << "at sample " << t;
    }
  }
}

TEST(Arrangement, CellsCoverRegionAndAreDisjoint) {
  Rng rng(13);
  CellArrangement arr(UnitBox());
  for (int i = 0; i < 5; ++i)
    arr.Insert(i, Hs({rng.Uniform(-1, 1), rng.Uniform(-1, 1)},
                     rng.Uniform(-0.2, 0.5)));
  for (int t = 0; t < 200; ++t) {
    Vec w = {rng.Uniform(0.0, 0.4), rng.Uniform(0.0, 0.4)};
    int owners = 0;
    for (const Cell& c : arr.cells()) {
      bool inside = true;
      for (const Halfspace& h : c.bounds.ToVector())
        if (h.Slack(w) < -1e-7) {
          inside = false;
          break;
        }
      if (inside) ++owners;
    }
    // Interior points belong to exactly one cell; boundary points to more.
    EXPECT_GE(owners, 1);
  }
}

TEST(Arrangement, FreezeThresholdStopsSplitting) {
  CellArrangement arr(UnitBox());
  arr.set_freeze_threshold(1);
  arr.Insert(0, Hs({1.0, 0.0}, 0.2));  // split: cells {inside, outside}
  ASSERT_EQ(arr.cells().size(), 2u);
  // Inserting another crossing half-space must not split the frozen cell.
  arr.Insert(1, Hs({0.0, 1.0}, 0.2));
  // The covered (frozen) cell stays whole: 3 cells instead of 4.
  EXPECT_EQ(arr.cells().size(), 3u);
  EXPECT_TRUE(std::any_of(arr.cells().begin(), arr.cells().end(),
                          [](const Cell& c) { return c.frozen; }));
}

TEST(Arrangement, AllFrozenDetection) {
  CellArrangement arr(UnitBox());
  arr.set_freeze_threshold(1);
  EXPECT_FALSE(arr.AllFrozen());
  arr.Insert(0, Hs({1.0, 0.0}, 10.0));  // covers everything -> count 1
  EXPECT_TRUE(arr.AllFrozen());
}

TEST(Arrangement, InteriorPointsValid) {
  Rng rng(14);
  CellArrangement arr(UnitBox());
  for (int i = 0; i < 7; ++i)
    arr.Insert(i, Hs({rng.Uniform(-1, 1), rng.Uniform(-1, 1)},
                     rng.Uniform(-0.2, 0.5)));
  for (const Cell& c : arr.cells()) {
    for (const Halfspace& h : c.bounds.ToVector()) {
      EXPECT_GE(h.Slack(c.interior), -kEps) << "interior point outside cell";
    }
    EXPECT_GT(c.radius, 0.0);
  }
}

TEST(Arrangement, StatsPlumbing) {
  QueryStats stats;
  CellArrangement arr(UnitBox(), &stats);
  arr.Insert(0, Hs({1.0, 0.0}, 0.2));
  arr.Insert(1, Hs({0.0, 1.0}, 0.2));
  EXPECT_EQ(stats.halfspaces_inserted, 2);
  EXPECT_EQ(stats.cells_created, 4);  // 1 base + 3 splits
  EXPECT_GT(stats.lp_calls, 0);
  EXPECT_GT(stats.peak_bytes, 0);
  EXPECT_GT(arr.MemoryBytes(), 0);
}

TEST(Arrangement, LocateOutsideRegion) {
  CellArrangement arr(UnitBox());
  EXPECT_EQ(arr.Locate({0.9, 0.9}), -1);
}

class Arrangement3dParamTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(Arrangement3dParamTest, CountsMatchPointwiseIn3d) {
  const auto [num_hs, seed] = GetParam();
  Rng rng(seed);
  ConvexRegion base =
      ConvexRegion::FromBox({0.05, 0.05, 0.05}, {0.3, 0.3, 0.3});
  CellArrangement arr(base);
  std::vector<Halfspace> inserted;
  for (int i = 0; i < num_hs; ++i) {
    Halfspace h = Hs({rng.Uniform(-1, 1), rng.Uniform(-1, 1),
                      rng.Uniform(-1, 1)},
                     rng.Uniform(-0.1, 0.3));
    inserted.push_back(h);
    arr.Insert(i, h);
  }
  int checked = 0;
  for (int t = 0; t < 150; ++t) {
    Vec w = {rng.Uniform(0.05, 0.3), rng.Uniform(0.05, 0.3),
             rng.Uniform(0.05, 0.3)};
    bool near_boundary = false;
    int expect = 0;
    for (const Halfspace& h : inserted) {
      if (std::abs(h.Slack(w)) < 1e-6) near_boundary = true;
      if (h.Contains(w)) ++expect;
    }
    if (near_boundary) continue;
    const int cell = arr.Locate(w);
    ASSERT_GE(cell, 0);
    EXPECT_EQ(arr.cells()[cell].Count(), expect) << "sample " << t;
    ++checked;
  }
  EXPECT_GT(checked, 100);
}

INSTANTIATE_TEST_SUITE_P(Sweep, Arrangement3dParamTest,
                         ::testing::Combine(::testing::Values(3, 8, 14),
                                            ::testing::Values(uint64_t{1},
                                                              uint64_t{2},
                                                              uint64_t{3})));


// Recomputes MemoryBytes() from scratch.
int64_t RecountBytes(const CellArrangement& arr) {
  int64_t bytes = 0;
  for (const Cell& c : arr.cells()) {
    bytes += static_cast<int64_t>(sizeof(Cell));
    // One row per bound: its coefficients, b and the norm.
    bytes += static_cast<int64_t>(c.bounds.size() * (c.bounds.dim() + 2) *
                                  sizeof(Scalar));
    bytes += static_cast<int64_t>(c.covering.size() * sizeof(int) +
                                  c.interior.size() * sizeof(Scalar));
    bytes += static_cast<int64_t>(c.verts.size() * sizeof(Scalar) +
                                  c.tight.size() * sizeof(uint64_t));
  }
  return bytes;
}

TEST(Arrangement, MemoryBytesMatchesFullRecount) {
  Rng rng(15);
  for (int freeze : {std::numeric_limits<int>::max(), 2}) {
    QueryStats stats;
    CellArrangement arr(
        ConvexRegion::FromBox({0.05, 0.05, 0.05}, {0.3, 0.3, 0.3}), &stats);
    arr.set_freeze_threshold(freeze);
    EXPECT_EQ(arr.MemoryBytes(), RecountBytes(arr));
    int64_t peak = 0;
    for (int i = 0; i < 12; ++i) {
      Halfspace h = Hs({rng.Uniform(-1, 1), rng.Uniform(-1, 1),
                        rng.Uniform(-1, 1)},
                       rng.Uniform(-0.1, 0.3));
      if (i % 5 == 4) h.a.assign(3, 0.0);  // degenerate: covers or misses all
      const size_t before = arr.cells().size();
      arr.Insert(i, h);
      ASSERT_EQ(arr.MemoryBytes(), RecountBytes(arr)) << "insert " << i;
      if (arr.cells().size() > before) peak = std::max(peak, arr.MemoryBytes());
    }
    // peak_bytes is sampled after every split; the last split of an insert
    // sees the largest store.
    EXPECT_EQ(stats.peak_bytes, peak);
  }
}

// --- Insert against a two-phase oracle arrangement -----------------------

// CellArrangement::Insert with every side decision and every centre taken
// from the two-phase oracle (chebyshev_oracle.h) instead of FindInteriorPoint.
class TwoPhaseArrangement {
 public:
  explicit TwoPhaseArrangement(const ConvexRegion& base) {
    const std::optional<InteriorPoint> ip =
        TwoPhaseInteriorPoint(base.constraints());
    Cell c;
    c.bounds = HalfspaceRows(base.constraints());
    c.interior = ip->x;
    c.radius = ip->radius;
    cells_.push_back(std::move(c));
    slivers_.push_back(0);
  }

  void set_freeze_threshold(int t) { freeze_threshold_ = t; }
  const std::vector<Cell>& cells() const { return cells_; }
  // Rejected sides with radius in (0, kInteriorEps] met on the way to cell
  // i while its other side was kept. Above kEps the kept side's half-space
  // becomes a bound, as in Insert; at or below kEps the cut stays within
  // the membership tolerance and leaves none, so the stored radius depends
  // on whether the kept side was solved or settled by the cached ball, by
  // up to the rejected radius. Near-parallel bounds also cost the two
  // solvers agreement on the radius: both effects stay under kEps each.
  int slivers(size_t i) const { return slivers_[i]; }

  void Insert(int hs_id, const Halfspace& hs) {
    const Scalar norm = Norm(hs.a);
    if (EpsLe(norm, 0.0)) {
      if (EpsGe(hs.b, 0.0)) {
        for (Cell& c : cells_)
          if (!c.frozen) {
            c.covering.push_back(hs_id);
            c.frozen = c.Count() >= freeze_threshold_;
          }
      }
      return;
    }
    const size_t n = cells_.size();
    for (size_t i = 0; i < n; ++i) {
      if (cells_[i].frozen) continue;
      Scalar rejected = -1.0;  // radius of a rejected side, if solved
      auto side_interior = [&](const Halfspace& h) {
        std::vector<Halfspace> cons = cells_[i].bounds.ToVector();
        cons.push_back(h);
        auto ip = TwoPhaseInteriorPoint(cons);
        if (ip.has_value() && ip->radius > kInteriorEps) return ip;
        if (ip.has_value()) rejected = ip->radius;
        return std::optional<InteriorPoint>{};
      };
      const Scalar slack = hs.Slack(cells_[i].interior);
      std::optional<InteriorPoint> in_ip, out_ip;
      if (slack >= norm * cells_[i].radius) {
        in_ip = InteriorPoint{cells_[i].interior, cells_[i].radius};
        out_ip = side_interior(hs.Complement());
      } else if (slack <= -norm * cells_[i].radius) {
        out_ip = InteriorPoint{cells_[i].interior, cells_[i].radius};
        in_ip = side_interior(hs);
      } else {
        in_ip = side_interior(hs);
        out_ip = side_interior(hs.Complement());
      }
      if (in_ip.has_value() && out_ip.has_value()) {
        Cell outside;
        outside.bounds = cells_[i].bounds;
        outside.bounds.push_back(hs.Complement());
        outside.covering = cells_[i].covering;
        outside.interior = out_ip->x;
        outside.radius = out_ip->radius;
        cells_[i].bounds.push_back(hs);
        cells_[i].covering.push_back(hs_id);
        cells_[i].interior = in_ip->x;
        cells_[i].radius = in_ip->radius;
        cells_[i].frozen = cells_[i].Count() >= freeze_threshold_;
        cells_.push_back(std::move(outside));
        slivers_.push_back(slivers_[i]);
      } else if (in_ip.has_value()) {
        if (rejected > kEps) cells_[i].bounds.push_back(hs);
        cells_[i].covering.push_back(hs_id);
        cells_[i].interior = in_ip->x;
        cells_[i].radius = in_ip->radius;
        cells_[i].frozen = cells_[i].Count() >= freeze_threshold_;
        if (rejected > 0.0) ++slivers_[i];
      } else if (out_ip.has_value()) {
        if (rejected > kEps) cells_[i].bounds.push_back(hs.Complement());
        cells_[i].interior = out_ip->x;
        cells_[i].radius = out_ip->radius;
        if (rejected > 0.0) ++slivers_[i];
      } else if (slack >= 0.0) {  // neither side: the centre's side decides
        cells_[i].covering.push_back(hs_id);
        cells_[i].frozen = cells_[i].Count() >= freeze_threshold_;
      }
    }
  }

 private:
  std::vector<Cell> cells_;
  std::vector<int> slivers_;
  int freeze_threshold_ = std::numeric_limits<int>::max();
};

// Cells equal the oracle's exactly in count, bounds, covering and frozen
// flags. The oracle keeps maximal radii; Insert keeps one only where its LP
// ran, and elsewhere a vertex certificate's smaller ball. So each radius
// exceeds kInteriorEps and is at most the oracle's plus 1e-10, widened by
// kEps per sliver the oracle met on the cell's path (see
// TwoPhaseArrangement::slivers). Centres differ, so each centre's ball must
// instead lie within its bounds.
void ExpectSameCells(const TwoPhaseArrangement& oracle,
                     const std::vector<Cell>& got, const std::string& label) {
  const std::vector<Cell>& want = oracle.cells();
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    const std::vector<Halfspace> got_bounds = got[i].bounds.ToVector();
    const std::vector<Halfspace> want_bounds = want[i].bounds.ToVector();
    ASSERT_EQ(got_bounds.size(), want_bounds.size()) << label;
    for (size_t j = 0; j < want_bounds.size(); ++j) {
      EXPECT_EQ(got_bounds[j].a, want_bounds[j].a) << label;
      EXPECT_EQ(got_bounds[j].b, want_bounds[j].b) << label;
    }
    EXPECT_EQ(got[i].covering, want[i].covering) << label << " cell " << i;
    EXPECT_GT(got[i].radius, kInteriorEps) << label << " cell " << i;
    EXPECT_LE(got[i].radius,
              want[i].radius + 1e-10 + oracle.slivers(i) * kEps)
        << label << " cell " << i;
    ExpectValidCentre(got_bounds,
                      InteriorPoint{got[i].interior, got[i].radius},
                      label + " cell " + std::to_string(i));
    EXPECT_EQ(got[i].frozen, want[i].frozen) << label << " cell " << i;
  }
}

// One draw's base region: a box of `dim` preference dims, or with
// `clipped` a box that pokes out of the weight simplex and is clipped by
// it. sum(lo) <= 0.6 keeps an interior; a clipped box has sum(hi) > 1.
ConvexRegion DrawRegion(Rng& rng, int dim, bool clipped, Vec* lo, Vec* hi) {
  const Scalar side = rng.Uniform(0.05, 0.2);
  lo->assign(dim, 0.0);
  hi->assign(dim, 0.0);
  for (int j = 0; j < dim; ++j) {
    (*lo)[j] = rng.Uniform(0.0, 0.6 / dim);
    (*hi)[j] = (*lo)[j] +
               (clipped ? 1.0 / dim + rng.Uniform(0.05, 0.3) : side / dim);
  }
  return ConvexRegion::FromBox(*lo, *hi);
}

// The next half-space of a stream like RSA/JAA insert over the box
// [lo, hi]: record-pair score hyperplanes, cuts through the region, exact
// repeats and complements of earlier ones, near-parallel cuts a few
// kInteriorEps away (slivers at the threshold), and zero-normal rows.
// Returns nullopt for a repeat or a shift drawn before any half-space.
std::optional<Halfspace> DrawCut(Rng& rng, const Vec& lo, const Vec& hi,
                                 const std::vector<Halfspace>& stream) {
  const int dim = static_cast<int>(lo.size());
  Halfspace h;
  switch (rng.UniformInt(0, 5)) {
    case 0:
    case 1: {  // score hyperplane of two random records
      Record p, q;
      p.attrs.resize(dim + 1);
      q.attrs.resize(dim + 1);
      for (Scalar& v : p.attrs) v = rng.Uniform();
      for (Scalar& v : q.attrs) v = rng.Uniform();
      return BetterOrEqual(p, q);
    }
    case 2: {  // a cut through a random point of the box
      h.a.resize(dim);
      for (Scalar& v : h.a) v = rng.Uniform(-1, 1);
      Vec w(dim);
      for (int j = 0; j < dim; ++j) w[j] = rng.Uniform(lo[j], hi[j]);
      h.b = Dot(h.a, w);
      return h;
    }
    case 3:  // an exact repeat or complement of an earlier half-space
      if (stream.empty()) return std::nullopt;
      h = stream[rng.UniformInt(0, static_cast<int>(stream.size()) - 1)];
      if (rng.UniformInt(0, 1) == 1) h = h.Complement();
      return h;
    case 4:  // an earlier hyperplane shifted by a few kInteriorEps
      if (stream.empty()) return std::nullopt;
      h = stream[rng.UniformInt(0, static_cast<int>(stream.size()) - 1)];
      h.b += Norm(h.a) * rng.Uniform(-3.0, 3.0) * kInteriorEps;
      return h;
    default:  // zero normal: covers everything or nothing
      h.a.assign(dim, 0.0);
      h.b = rng.Uniform(-1, 1);
      return h;
  }
}

// One draw: a DrawRegion base and a DrawCut stream.
TEST(ArrangementOracle, MatchesTwoPhaseInsert) {
  const uint64_t seed = EnvSeed();
  constexpr int kPrefDims[] = {2, 3, 5, 6};
  for (int draw = 0; draw < EnvDraws(); ++draw) {
    Rng rng(seed + static_cast<uint64_t>(draw));
    const int dim = kPrefDims[draw % 4];
    Vec lo, hi;
    const ConvexRegion base =
        DrawRegion(rng, dim, /*clipped=*/(draw / 4) % 2 == 1, &lo, &hi);
    const int freeze = (draw / 8) % 2 == 0 ? std::numeric_limits<int>::max()
                                           : rng.UniformInt(1, 4);
    const std::string label = "UTK_DIFF_SEED=" + std::to_string(seed + draw) +
                              " dim=" + std::to_string(dim);

    CellArrangement arr(base);
    TwoPhaseArrangement reference(base);
    arr.set_freeze_threshold(freeze);
    reference.set_freeze_threshold(freeze);
    std::vector<Halfspace> stream;
    const int count = dim <= 3 ? 24 : 14;
    for (int i = 0; i < count; ++i) {
      const std::optional<Halfspace> h = DrawCut(rng, lo, hi, stream);
      if (!h.has_value()) continue;
      stream.push_back(*h);
      arr.Insert(i, *h);
      reference.Insert(i, *h);
      ExpectSameCells(reference, arr.cells(),
                      label + " insert " + std::to_string(i));
      if (HasFailure()) return;
    }
  }
}

// --- Vertex lists against the cell geometry ------------------------------

// A cell's vertex list must be sound (every vertex satisfies every bound)
// and complete (the maximum of any linear function over the vertices is
// its maximum over the cell, which SolveLp finds from the centre). The two
// together make Insert's miss test exact; the oracle test above checks
// that every decision equals the two-phase LP's.
void ExpectListMatchesGeometry(const Cell& c, Rng& rng,
                               const std::string& label) {
  const size_t dim = c.interior.size();
  ASSERT_EQ(c.verts.size(), c.tight.size() * dim) << label;
  for (int v = 0; v < c.NumVertices(); ++v) {
    const Vec x(c.verts.begin() + v * dim, c.verts.begin() + (v + 1) * dim);
    const std::vector<Halfspace> bounds = c.bounds.ToVector();
    for (size_t j = 0; j < bounds.size(); ++j)
      EXPECT_GE(bounds[j].Slack(x) / Norm(bounds[j].a), -1e-9)
          << label << " vertex " << v << " bound " << j;
  }
  for (int t = 0; t < 8; ++t) {
    Vec dir(dim);
    for (Scalar& x : dir) x = rng.Uniform(-1, 1);
    Scalar best = -std::numeric_limits<Scalar>::infinity();
    for (int v = 0; v < c.NumVertices(); ++v) {
      const Vec x(c.verts.begin() + v * dim, c.verts.begin() + (v + 1) * dim);
      best = std::max(best, Dot(dir, x));
    }
    const LpResult lp = SolveLp(dir, c.bounds, /*maximize=*/true, &c.interior);
    ASSERT_EQ(lp.status, LpStatus::kOptimal) << label;
    EXPECT_NEAR(best, lp.objective, 1e-9) << label << " direction " << t;
  }
}

TEST(ArrangementVertices, ListsMatchCellGeometry) {
  const uint64_t seed = EnvSeed();
  constexpr int kPrefDims[] = {2, 3, 4, 5, 6};
  int checked = 0;
  for (int draw = 0; draw < EnvDraws(); ++draw) {
    Rng rng(seed + static_cast<uint64_t>(draw));
    const int dim = kPrefDims[draw % 5];
    Vec lo, hi;
    const ConvexRegion base =
        DrawRegion(rng, dim, /*clipped=*/(draw / 5) % 2 == 1, &lo, &hi);
    const std::string label = "UTK_DIFF_SEED=" + std::to_string(seed + draw) +
                              " dim=" + std::to_string(dim);
    CellArrangement arr(base);
    std::vector<Halfspace> stream;
    const int count = dim <= 3 ? 24 : 14;
    for (int i = 0; i < count; ++i) {
      const std::optional<Halfspace> h = DrawCut(rng, lo, hi, stream);
      if (!h.has_value()) continue;
      stream.push_back(*h);
      arr.Insert(i, *h);
      for (size_t c = 0; c < arr.cells().size(); ++c) {
        if (!arr.cells()[c].HasVertices()) continue;
        ExpectListMatchesGeometry(arr.cells()[c], rng,
                                  label + " insert " + std::to_string(i) +
                                      " cell " + std::to_string(c));
        ++checked;
      }
      if (HasFailure()) return;
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(ArrangementVertices, BoxCellCarriesCorners) {
  const Cell box = BaseCell(ConvexRegion::FromBox({0.1, 0.2}, {0.3, 0.5}));
  ASSERT_EQ(box.NumVertices(), 4);
  EXPECT_EQ(box.verts, (Vec{0.1, 0.2, 0.3, 0.2, 0.1, 0.5, 0.3, 0.5}));
  // A box poking out of the simplex is clipped by w1 + w2 <= 1.
  const Cell clipped = BaseCell(ConvexRegion::FromBox({0.3, 0.3}, {0.8, 0.8}));
  EXPECT_EQ(clipped.NumVertices(), 3);
  // A region without box rows carries no list.
  EXPECT_FALSE(BaseCell(ConvexRegion::FullDomain(3)).HasVertices());
}

}  // namespace
}  // namespace utk
