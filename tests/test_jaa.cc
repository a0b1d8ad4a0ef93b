#include "core/jaa.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/naive.h"
#include "core/rsa.h"
#include "core/topk.h"
#include "data/generator.h"
#include "data/workload.h"
#include "index/rtree.h"

namespace utk {
namespace {

// Finds the UTK2 cell containing w (with a loose boundary eps).
const Utk2Cell* LocateCell(const Utk2Result& r, const Vec& w,
                           Scalar eps = 1e-7) {
  for (const Utk2Cell& cell : r.cells) {
    bool inside = true;
    for (const Halfspace& h : cell.bounds.ToVector()) {
      if (!h.Contains(w, eps)) {
        inside = false;
        break;
      }
    }
    if (inside) return &cell;
  }
  return nullptr;
}

class JaaSweepTest
    : public ::testing::TestWithParam<
          std::tuple<Distribution, int, int, int, double, uint64_t>> {};

TEST_P(JaaSweepTest, CellsMatchPointwiseTopk) {
  const auto [dist, n, dim, k, sigma, seed] = GetParam();
  Dataset data = Generate(dist, n, dim, seed);
  RTree tree = RTree::BulkLoad(data);
  Rng rng(seed + 500);
  ConvexRegion region = RandomQueryBox(dim - 1, sigma, rng);

  Utk2Result r = Jaa().Run(data, tree, region, k);
  ASSERT_FALSE(r.cells.empty());

  int checked = 0;
  for (const auto& [w, topk] : SampleTopkSets(data, region, k, 50,
                                              seed + 999)) {
    const Utk2Cell* cell = LocateCell(r, w);
    ASSERT_NE(cell, nullptr) << "weight vector not covered by any UTK2 cell";
    std::vector<int32_t> expect = topk;
    std::sort(expect.begin(), expect.end());
    // Skip samples where the k-th score ties the (k+1)-th (cell boundary).
    std::vector<int32_t> extended = TopK(data, w, k + 1);
    if (extended.size() > static_cast<size_t>(k)) {
      const Scalar sk = Score(data[extended[k - 1]], w);
      const Scalar sk1 = Score(data[extended[k]], w);
      if (sk - sk1 < 1e-7) continue;
    }
    EXPECT_EQ(cell->topk, expect);
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST_P(JaaSweepTest, UnionEqualsUtk1) {
  const auto [dist, n, dim, k, sigma, seed] = GetParam();
  Dataset data = Generate(dist, n, dim, seed);
  RTree tree = RTree::BulkLoad(data);
  Rng rng(seed + 501);
  ConvexRegion region = RandomQueryBox(dim - 1, sigma, rng);
  Utk2Result two = Jaa().Run(data, tree, region, k);
  Utk1Result one = Rsa().Run(data, tree, region, k);
  EXPECT_EQ(two.AllRecords(), one.ids);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, JaaSweepTest,
    ::testing::Combine(::testing::Values(Distribution::kIndependent,
                                         Distribution::kAnticorrelated,
                                         Distribution::kCorrelated),
                       ::testing::Values(100, 600),
                       ::testing::Values(3, 4),
                       ::testing::Values(1, 3, 5),
                       ::testing::Values(0.08, 0.18),
                       ::testing::Values(uint64_t{3}, uint64_t{4})));

TEST(Jaa, WitnessTopkConsistent) {
  // Each cell's witness point must reproduce the cell's own top-k label.
  Dataset data = Generate(Distribution::kAnticorrelated, 800, 3, 21);
  RTree tree = RTree::BulkLoad(data);
  ConvexRegion region = ConvexRegion::FromBox({0.25, 0.3}, {0.4, 0.45});
  const int k = 4;
  Utk2Result r = Jaa().Run(data, tree, region, k);
  for (const Utk2Cell& cell : r.cells) {
    std::vector<int32_t> expect = TopK(data, cell.witness, k);
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(cell.topk, expect);
  }
}

TEST(Jaa, CellsWithinRegion) {
  Dataset data = Generate(Distribution::kIndependent, 400, 3, 22);
  RTree tree = RTree::BulkLoad(data);
  ConvexRegion region = ConvexRegion::FromBox({0.2, 0.15}, {0.35, 0.3});
  Utk2Result r = Jaa().Run(data, tree, region, 3);
  for (const Utk2Cell& cell : r.cells) {
    EXPECT_TRUE(region.Contains(cell.witness, 1e-7));
  }
}

TEST(Jaa, CellsInteriorDisjoint) {
  // No cell's witness lies strictly inside another cell.
  Dataset data = Generate(Distribution::kIndependent, 500, 3, 23);
  RTree tree = RTree::BulkLoad(data);
  ConvexRegion region = ConvexRegion::FromBox({0.2, 0.2}, {0.4, 0.35});
  Utk2Result r = Jaa().Run(data, tree, region, 3);
  for (size_t i = 0; i < r.cells.size(); ++i) {
    for (size_t j = 0; j < r.cells.size(); ++j) {
      if (i == j) continue;
      bool strictly_inside = true;
      for (const Halfspace& h : r.cells[j].bounds.ToVector()) {
        if (h.Slack(r.cells[i].witness) < 1e-9) {
          strictly_inside = false;
          break;
        }
      }
      EXPECT_FALSE(strictly_inside)
          << "witness of cell " << i << " inside cell " << j;
    }
  }
}

TEST(Jaa, KOneSingleRecordPerCell) {
  Dataset data = Generate(Distribution::kAnticorrelated, 600, 3, 24);
  RTree tree = RTree::BulkLoad(data);
  ConvexRegion region = ConvexRegion::FromBox({0.2, 0.25}, {0.45, 0.4});
  Utk2Result r = Jaa().Run(data, tree, region, 1);
  ASSERT_FALSE(r.cells.empty());
  for (const Utk2Cell& cell : r.cells) EXPECT_EQ(cell.topk.size(), 1u);
}

TEST(Jaa, KLargerThanDatasetSingleCell) {
  Dataset data = Generate(Distribution::kIndependent, 5, 3, 25);
  RTree tree = RTree::BulkLoad(data);
  ConvexRegion region = ConvexRegion::FromBox({0.2, 0.2}, {0.3, 0.3});
  Utk2Result r = Jaa().Run(data, tree, region, 9);
  ASSERT_EQ(r.cells.size(), 1u);
  EXPECT_EQ(r.cells[0].topk.size(), 5u);
}

TEST(Jaa, Lemma1OffStillCorrect) {
  Dataset data = Generate(Distribution::kIndependent, 300, 3, 26);
  RTree tree = RTree::BulkLoad(data);
  ConvexRegion region = ConvexRegion::FromBox({0.15, 0.2}, {0.3, 0.35});
  Utk2Result fast = Jaa().Run(data, tree, region, 3);
  Jaa::Options off;
  off.use_lemma1 = false;
  Utk2Result slow = Jaa(off).Run(data, tree, region, 3);
  // Cell decompositions may differ, but the distinct top-k sets must match.
  std::set<std::vector<int32_t>> a, b;
  for (const auto& c : fast.cells) a.insert(c.topk);
  for (const auto& c : slow.cells) b.insert(c.topk);
  EXPECT_EQ(a, b);
}

TEST(Jaa, DistinctTopkSetsCountsDeduplicated) {
  Dataset data = Generate(Distribution::kIndependent, 300, 3, 27);
  RTree tree = RTree::BulkLoad(data);
  ConvexRegion region = ConvexRegion::FromBox({0.2, 0.2}, {0.35, 0.3});
  Utk2Result r = Jaa().Run(data, tree, region, 2);
  EXPECT_LE(r.NumDistinctTopkSets(), static_cast<int64_t>(r.cells.size()));
  EXPECT_GE(r.NumDistinctTopkSets(), 1);
}

TEST(Jaa, OneDimensionalCellsTileRegionExactly) {
  // d=2: cells are intervals of the 1D preference domain; they must tile R
  // with matching endpoints — an exact (not sampled) coverage check.
  Dataset data = Generate(Distribution::kAnticorrelated, 500, 2, 29);
  RTree tree = RTree::BulkLoad(data);
  const Scalar lo = 0.2, hi = 0.7;
  ConvexRegion region = ConvexRegion::FromBox({lo}, {hi});
  const int k = 4;
  Utk2Result r = Jaa().Run(data, tree, region, k);
  ASSERT_FALSE(r.cells.empty());
  std::vector<std::pair<Scalar, Scalar>> intervals;
  for (const Utk2Cell& cell : r.cells) {
    ConvexRegion cr{cell.bounds.ToVector()};
    auto range = cr.RangeOf({1.0}, 0.0);
    ASSERT_TRUE(range.has_value());
    intervals.push_back(*range);
  }
  std::sort(intervals.begin(), intervals.end());
  EXPECT_NEAR(intervals.front().first, lo, 1e-6);
  EXPECT_NEAR(intervals.back().second, hi, 1e-6);
  for (size_t i = 1; i < intervals.size(); ++i) {
    EXPECT_NEAR(intervals[i].first, intervals[i - 1].second, 1e-6)
        << "gap or overlap between cells " << i - 1 << " and " << i;
  }
  // Adjacent intervals produced by different anchors may repeat a top-k set,
  // but consecutive intervals with the same set imply a missed merge only;
  // correctness requires distinct neighbours *somewhere* when sets change.
  // Verify each interval's midpoint reproduces its label.
  for (size_t i = 0; i < intervals.size(); ++i) {
    const Vec mid = {0.5 * (intervals[i].first + intervals[i].second)};
    std::vector<int32_t> expect = TopK(data, mid, k);
    std::sort(expect.begin(), expect.end());
    // Find the cell whose interval this is (same order as intervals after
    // sort is lost; recompute directly).
    bool matched = false;
    for (const Utk2Cell& cell : r.cells) {
      bool inside = true;
      for (const Halfspace& h : cell.bounds.ToVector())
        if (!h.Contains(mid, 1e-9)) {
          inside = false;
          break;
        }
      if (inside) {
        EXPECT_EQ(cell.topk, expect);
        matched = true;
        break;
      }
    }
    EXPECT_TRUE(matched);
  }
}

TEST(Jaa, StatsPopulated) {
  Dataset data = Generate(Distribution::kIndependent, 400, 3, 28);
  RTree tree = RTree::BulkLoad(data);
  ConvexRegion region = ConvexRegion::FromBox({0.2, 0.2}, {0.35, 0.3});
  Utk2Result r = Jaa().Run(data, tree, region, 3);
  EXPECT_GT(r.stats.candidates, 0);
  EXPECT_GT(r.stats.cells_created, 0);
  EXPECT_GT(r.stats.elapsed_ms, 0.0);
}

}  // namespace
}  // namespace utk
