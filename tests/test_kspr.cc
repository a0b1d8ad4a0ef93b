// Focused tests for the constrained kSPR component (the baselines' engine).
#include "core/kspr.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/naive.h"
#include "data/generator.h"
#include "data/realistic.h"
#include "geometry/linear.h"
#include "index/rtree.h"
#include "skyline/skyband.h"

namespace utk {
namespace {

TEST(Kspr, FigureOneHotelP2) {
  // p2 (id 1) is in the top-2 only in the low-w1 part of R (Figure 1(b)).
  Dataset data = FigureOneHotels();
  ConvexRegion region = ConvexRegion::FromBox({0.05, 0.05}, {0.45, 0.25});
  std::vector<int32_t> all = {0, 1, 2, 3, 4, 5, 6};
  KsprResult r = Kspr(data, 1, all, region, 2, /*early_exit=*/false);
  EXPECT_TRUE(r.qualifies);
  ASSERT_FALSE(r.topk_cells.empty());
  for (const Cell& c : r.topk_cells) {
    // In every reported cell, at most 1 hotel scores above p2.
    int better = 0;
    const Scalar s = Score(data[1], c.interior);
    for (const Record& q : data)
      if (q.id != 1 && Score(q, c.interior) > s + kEps) ++better;
    EXPECT_LT(better, 2);
  }
}

TEST(Kspr, FigureOneHotelP7NeverQualifies) {
  Dataset data = FigureOneHotels();
  ConvexRegion region = ConvexRegion::FromBox({0.05, 0.05}, {0.45, 0.25});
  std::vector<int32_t> all = {0, 1, 2, 3, 4, 5, 6};
  EXPECT_FALSE(Kspr(data, 6, all, region, 2, true).qualifies);
  EXPECT_FALSE(Kspr(data, 6, all, region, 2, false).qualifies);
}

TEST(Kspr, EarlyExitLeavesCellsEmpty) {
  Dataset data = Generate(Distribution::kIndependent, 60, 3, 41);
  ConvexRegion region = ConvexRegion::FromBox({0.2, 0.2}, {0.3, 0.3});
  RTree tree = RTree::BulkLoad(data);
  std::vector<int32_t> cands = KSkyband(data, tree, 2);
  for (int32_t p : cands) {
    KsprResult r = Kspr(data, p, cands, region, 2, /*early_exit=*/true);
    EXPECT_TRUE(r.topk_cells.empty());
  }
}

TEST(Kspr, KOneIsTopOneRegions) {
  // For k=1, qualifying <=> the record is top-1 somewhere in R.
  Dataset data = Generate(Distribution::kAnticorrelated, 80, 3, 42);
  ConvexRegion region = ConvexRegion::FromBox({0.25, 0.3}, {0.4, 0.45});
  RTree tree = RTree::BulkLoad(data);
  std::vector<int32_t> cands = KSkyband(data, tree, 1);
  for (int32_t p : cands) {
    EXPECT_EQ(Kspr(data, p, cands, region, 1, true).qualifies,
              NaiveUtk1Member(data, p, region, 1))
        << "record " << p;
  }
}

TEST(Kspr, SelfInCompetitorListIgnored) {
  Dataset data = FigureOneHotels();
  ConvexRegion region = ConvexRegion::FromBox({0.05, 0.05}, {0.45, 0.25});
  std::vector<int32_t> with_self = {0, 1, 2, 3, 4, 5, 6};
  std::vector<int32_t> without_self = {1, 2, 3, 4, 5, 6};
  KsprResult a = Kspr(data, 0, with_self, region, 2, false);
  KsprResult b = Kspr(data, 0, without_self, region, 2, false);
  EXPECT_EQ(a.qualifies, b.qualifies);
  EXPECT_EQ(a.topk_cells.size(), b.topk_cells.size());
}

TEST(Kspr, CellsDisjointInteriors) {
  Dataset data = Generate(Distribution::kIndependent, 50, 3, 43);
  ConvexRegion region = ConvexRegion::FromBox({0.2, 0.2}, {0.35, 0.3});
  RTree tree = RTree::BulkLoad(data);
  std::vector<int32_t> cands = KSkyband(data, tree, 3);
  ASSERT_FALSE(cands.empty());
  KsprResult r = Kspr(data, cands[0], cands, region, 3, false);
  for (size_t i = 0; i < r.topk_cells.size(); ++i) {
    for (size_t j = 0; j < r.topk_cells.size(); ++j) {
      if (i == j) continue;
      // Cell i's interior point must violate at least one bound of cell j.
      bool strictly_inside_j = true;
      for (const Halfspace& h : r.topk_cells[j].bounds.ToVector()) {
        if (h.Slack(r.topk_cells[i].interior) < 1e-9) {
          strictly_inside_j = false;
          break;
        }
      }
      EXPECT_FALSE(strictly_inside_j);
    }
  }
}

TEST(Kspr, StatsAccumulate) {
  Dataset data = Generate(Distribution::kIndependent, 40, 3, 44);
  ConvexRegion region = ConvexRegion::FromBox({0.2, 0.2}, {0.3, 0.3});
  RTree tree = RTree::BulkLoad(data);
  std::vector<int32_t> cands = KSkyband(data, tree, 2);
  QueryStats stats;
  Kspr(data, cands[0], cands, region, 2, false, &stats);
  EXPECT_GT(stats.halfspaces_inserted, 0);
  EXPECT_GT(stats.cells_created, 0);
}

}  // namespace
}  // namespace utk
