// End-to-end validation against the paper's worked examples (Figures 1-3)
// plus cross-algorithm agreement on the example data. Everything runs
// through the utk::Engine facade, the way external callers do.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "api/engine.h"
#include "core/naive.h"
#include "data/realistic.h"
#include "skyline/onion.h"
#include "skyline/skyband.h"

namespace utk {
namespace {

// Figure 1: hotels p1..p7 (ids 0..6), k = 2, R = [0.05,0.45] x [0.05,0.25].
// Expected UTK1 output: {p1, p2, p4, p6} = ids {0, 1, 3, 5}.
class FigureOneTest : public ::testing::Test {
 protected:
  FigureOneTest() : engine_(FigureOneHotels()) {
    spec_.k = 2;
    spec_.region = ConvexRegion::FromBox({0.05, 0.05}, {0.45, 0.25});
  }

  QueryResult RunWith(QueryMode mode, Algorithm algo) {
    QuerySpec spec = spec_;
    spec.mode = mode;
    spec.algorithm = algo;
    QueryResult r = engine_.Run(spec);
    EXPECT_TRUE(r.ok) << r.error;
    return r;
  }

  Engine engine_;
  QuerySpec spec_;
};

TEST_F(FigureOneTest, RsaMatchesPaper) {
  QueryResult r = RunWith(QueryMode::kUtk1, Algorithm::kRsa);
  EXPECT_EQ(r.ids, (std::vector<int32_t>{0, 1, 3, 5}));
}

TEST_F(FigureOneTest, NaiveOracleMatchesPaper) {
  QueryResult r = RunWith(QueryMode::kUtk1, Algorithm::kNaive);
  EXPECT_EQ(r.ids, (std::vector<int32_t>{0, 1, 3, 5}));
}

TEST_F(FigureOneTest, AutoPlansRsaForSevenHotels) {
  QueryResult r = RunWith(QueryMode::kUtk1, Algorithm::kAuto);
  EXPECT_EQ(r.algorithm, Algorithm::kRsa);
  EXPECT_EQ(r.stats.plan_reason,
            static_cast<int64_t>(PlanReason::kHeuristicDefault));
  EXPECT_EQ(r.ids, (std::vector<int32_t>{0, 1, 3, 5}));
}

TEST_F(FigureOneTest, BaselinesMatchPaper) {
  EXPECT_EQ(RunWith(QueryMode::kUtk1, Algorithm::kBaselineSk).ids,
            (std::vector<int32_t>{0, 1, 3, 5}));
  EXPECT_EQ(RunWith(QueryMode::kUtk1, Algorithm::kBaselineOn).ids,
            (std::vector<int32_t>{0, 1, 3, 5}));
}

TEST_F(FigureOneTest, JaaCoversPaperPartitions) {
  QueryResult r = RunWith(QueryMode::kUtk2, Algorithm::kJaa);
  EXPECT_EQ(r.ids, (std::vector<int32_t>{0, 1, 3, 5}));
  // Figure 1(b): the partitioning contains exactly the top-2 sets
  // {p2,p4}, {p1,p4}, {p1,p2}, {p1,p6} (left to right).
  std::set<std::vector<int32_t>> sets;
  for (const auto& cell : r.utk2.cells) sets.insert(cell.topk);
  EXPECT_EQ(sets.size(), 4u);
  EXPECT_TRUE(sets.count({1, 3}));  // p2, p4
  EXPECT_TRUE(sets.count({0, 3}));  // p1, p4
  EXPECT_TRUE(sets.count({0, 1}));  // p1, p2
  EXPECT_TRUE(sets.count({0, 5}));  // p1, p6
}

TEST_F(FigureOneTest, JaaCellsAgreeWithPointwiseTopk) {
  QueryResult r = RunWith(QueryMode::kUtk2, Algorithm::kAuto);
  EXPECT_EQ(r.algorithm, Algorithm::kJaa);
  for (const auto& [w, topk] :
       SampleTopkSets(engine_.data(), spec_.region, 2, 100, 11)) {
    // Find the cell containing w.
    const Utk2Cell* owner = nullptr;
    for (const auto& cell : r.utk2.cells) {
      bool inside = true;
      for (const Halfspace& h : cell.bounds.ToVector())
        if (!h.Contains(w, 1e-7)) {
          inside = false;
          break;
        }
      if (inside) {
        owner = &cell;
        break;
      }
    }
    ASSERT_NE(owner, nullptr) << "sampled weight not covered by any cell";
    std::vector<int32_t> expect = topk;
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(owner->topk, expect);
  }
}

TEST_F(FigureOneTest, PaperExampleLeftmostPartition) {
  // For w = (0.05, 0.05) (leftmost part of R), the top-2 hotels are p2, p4.
  std::vector<int32_t> topk = engine_.TopK({0.05, 0.05}, 2);
  std::sort(topk.begin(), topk.end());
  EXPECT_EQ(topk, (std::vector<int32_t>{1, 3}));
}

TEST_F(FigureOneTest, P7NeverQualifiesDespiteBeingUndominated) {
  // Section 2: p7 is in no UTK result although no hotel dominates it.
  std::vector<int32_t> band = KSkybandBruteForce(engine_.data(), 1);
  EXPECT_TRUE(std::find(band.begin(), band.end(), 6) != band.end());
  QueryResult r = RunWith(QueryMode::kUtk1, Algorithm::kRsa);
  EXPECT_TRUE(std::find(r.ids.begin(), r.ids.end(), 6) == r.ids.end());
}

// Figure 3: the 10-record 2D example for k-skyband vs onion layers.
class FigureThreeTest : public ::testing::Test {
 protected:
  static Dataset MakeData() {
    // Coordinates chosen to match the figure's qualitative layout:
    // p1..p6 on the outer staircase, p7, p8 dominated by exactly one,
    // p9, p10 dominated by two or more.
    const Scalar pts[10][2] = {
        {0.95, 0.10},  // p1
        {0.90, 0.40},  // p2
        {0.72, 0.55},  // p3
        {0.60, 0.70},  // p4
        {0.45, 0.85},  // p5
        {0.10, 0.95},  // p6
        {0.80, 0.45},  // p7  (dominated by p2 only)
        {0.30, 0.80},  // p8  (dominated by p5 only)
        {0.55, 0.50},  // p9  (dominated by p3, p4)
        {0.20, 0.60},  // p10 (dominated by p4, p5, p8)
    };
    Dataset data;
    for (int i = 0; i < 10; ++i) {
      Record r;
      r.id = i;
      r.attrs = {pts[i][0], pts[i][1]};
      data.push_back(r);
    }
    return data;
  }

  FigureThreeTest() : engine_(MakeData()) {}
  Engine engine_;
};

TEST_F(FigureThreeTest, TwoSkybandIsP1ToP8) {
  std::vector<int32_t> band = KSkyband(engine_.data(), engine_.tree(), 2);
  std::sort(band.begin(), band.end());
  EXPECT_EQ(band, (std::vector<int32_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST_F(FigureThreeTest, OnionLayersSubsetOfSkyband) {
  QueryStats stats;
  auto cands = OnionCandidates(engine_.data(), engine_.tree(), 2, &stats);
  std::vector<int32_t> band = KSkyband(engine_.data(), engine_.tree(), 2);
  std::sort(band.begin(), band.end());
  for (int32_t id : cands)
    EXPECT_TRUE(std::find(band.begin(), band.end(), id) != band.end());
  EXPECT_LE(cands.size(), band.size());
}

}  // namespace
}  // namespace utk
