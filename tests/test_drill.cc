#include "core/drill.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/topk.h"
#include "data/generator.h"
#include "index/rtree.h"

namespace utk {
namespace {

TEST(Drill, VectorMaximizesCandidateScore) {
  // For a record strong in dimension 1, the drill vector within a box should
  // sit at the box corner with maximal w1.
  Record p;
  p.id = 0;
  p.attrs = {1.0, 0.0, 0.0};
  ConvexRegion region = ConvexRegion::FromBox({0.1, 0.1}, {0.3, 0.2});
  auto w = DrillVector(MakeScore(p), region.constraints());
  ASSERT_TRUE(w.has_value());
  EXPECT_NEAR((*w)[0], 0.3, 1e-7);
}

TEST(Drill, StartAtPivotGivesTheSameObjective) {
  Record p;
  p.id = 0;
  p.attrs = {0.7, 0.2, 0.5};
  ConvexRegion region = ConvexRegion::FromBox({0.1, 0.15}, {0.35, 0.3});
  region.AddConstraint({{1.0, 1.0}, 0.55});  // pivot = Chebyshev centre
  const Vec pivot = *region.Pivot();
  const AffineScore score = MakeScore(p);
  auto from_centre = DrillVector(score, region.constraints());
  auto from_pivot = DrillVector(score, region.constraints(), &pivot);
  ASSERT_TRUE(from_centre.has_value());
  ASSERT_TRUE(from_pivot.has_value());
  EXPECT_NEAR(score.Eval(*from_pivot), score.Eval(*from_centre), 1e-9);
  EXPECT_TRUE(region.Contains(*from_pivot));
}

TEST(Drill, StatsCount) {
  Record p;
  p.id = 0;
  p.attrs = {0.4, 0.6, 0.2};
  ConvexRegion region = ConvexRegion::FromBox({0.1, 0.1}, {0.2, 0.2});
  QueryStats stats;
  DrillVector(MakeScore(p), region.constraints(), nullptr, &stats);
  EXPECT_EQ(stats.drills, 1);
  EXPECT_EQ(stats.lp_calls, 1);
}

class GraphTopKTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = Generate(Distribution::kAnticorrelated, 600, 3, 91);
    tree_ = RTree::BulkLoad(data_);
    region_ = ConvexRegion::FromBox({0.2, 0.25}, {0.4, 0.45});
    band_ = ComputeRSkyband(data_, tree_, region_, 8);
    graph_ = std::make_unique<RDominanceGraph>(RDominanceGraph::Build(band_));
  }

  Dataset data_;
  RTree tree_;
  ConvexRegion region_;
  RSkybandResult band_;
  std::unique_ptr<RDominanceGraph> graph_;
};

TEST_F(GraphTopKTest, MatchesScanTopKAtPivot) {
  // GraphTopK over the full r-skyband must equal a full-dataset top-k scan
  // at any weight vector inside R (the r-skyband contains all top-k sets).
  for (int k : {1, 3, 8}) {
    std::vector<int> nodes = GraphTopK(data_, band_, *graph_,
                                       graph_->Active(), band_.pivot, k);
    std::vector<int32_t> got;
    for (int i : nodes) got.push_back(band_.ids[i]);
    std::vector<int32_t> expect = TopK(data_, band_.pivot, k);
    // Compare as sets (tie order may differ).
    std::sort(got.begin(), got.end());
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(got, expect) << "k=" << k;
  }
}

TEST_F(GraphTopKTest, RespectsMask) {
  // Remove the top-1 node from the mask; the probe must return the next k.
  std::vector<int> full =
      GraphTopK(data_, band_, *graph_, graph_->Active(), band_.pivot, 3);
  Bitset mask = graph_->Active();
  mask.Reset(full[0]);
  std::vector<int> masked =
      GraphTopK(data_, band_, *graph_, mask, band_.pivot, 2);
  ASSERT_EQ(masked.size(), 2u);
  EXPECT_EQ(masked[0], full[1]);
  EXPECT_EQ(masked[1], full[2]);
}

TEST_F(GraphTopKTest, MaskedOutAncestorsAreTransparent) {
  // Mask out all graph roots; every top record must still be reachable.
  Bitset mask = graph_->Active();
  for (int i = 0; i < graph_->size(); ++i)
    if (graph_->Ancestors(i).Count() == 0) mask.Reset(i);
  if (mask.Count() == 0) GTEST_SKIP() << "degenerate band";
  std::vector<int> nodes = GraphTopK(data_, band_, *graph_, mask,
                                     band_.pivot, std::min(3, mask.Count()));
  // Expected: scan over masked-in candidates only.
  std::vector<std::pair<Scalar, int>> scores;
  mask.ForEach([&](int i) {
    scores.emplace_back(Score(data_[band_.ids[i]], band_.pivot), i);
  });
  std::sort(scores.begin(), scores.end(), [](const auto& a, const auto& b) {
    return a.first > b.first;
  });
  ASSERT_FALSE(nodes.empty());
  for (size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_NEAR(Score(data_[band_.ids[nodes[i]]], band_.pivot),
                scores[i].first, 1e-9);
  }
}

TEST_F(GraphTopKTest, KLargerThanBand) {
  std::vector<int> nodes =
      GraphTopK(data_, band_, *graph_, graph_->Active(), band_.pivot,
                graph_->size() + 10);
  EXPECT_EQ(static_cast<int>(nodes.size()), graph_->size());
}

}  // namespace
}  // namespace utk
