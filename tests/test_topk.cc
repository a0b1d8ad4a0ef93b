#include "core/topk.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "data/generator.h"
#include "geometry/linear.h"
#include "index/rtree.h"

namespace utk {
namespace {

class TopKRTreeParamTest
    : public ::testing::TestWithParam<std::tuple<Distribution, int, int>> {};

TEST_P(TopKRTreeParamTest, MatchesScan) {
  const auto [dist, n, dim] = GetParam();
  Dataset data = Generate(dist, n, dim, 85);
  RTree tree = RTree::BulkLoad(data);
  Rng rng(86);
  for (int t = 0; t < 10; ++t) {
    Vec w(dim - 1);
    Scalar budget = 1.0;
    for (int i = 0; i < dim - 1; ++i) {
      w[i] = rng.Uniform(0.0, budget);
      budget -= w[i];
    }
    for (int k : {1, 5, 25}) {
      EXPECT_EQ(TopKRTree(data, tree, w, k), TopK(data, w, k))
          << "trial " << t << " k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TopKRTreeParamTest,
    ::testing::Combine(::testing::Values(Distribution::kIndependent,
                                         Distribution::kCorrelated,
                                         Distribution::kAnticorrelated),
                       ::testing::Values(50, 1000),
                       ::testing::Values(2, 4)));

TEST(TopKRTree, VisitsFewNodesOnLargeData) {
  Dataset data = Generate(Distribution::kIndependent, 20000, 3, 87);
  RTree tree = RTree::BulkLoad(data);
  QueryStats stats;
  TopKRTree(data, tree, {0.3, 0.3}, 10, &stats);
  // Branch-and-bound should pop a tiny fraction of the ~20k records.
  EXPECT_LT(stats.heap_pops, 2000);
}

TEST(TopKRTree, EmptyTreeAndZeroK) {
  Dataset data;
  RTree tree = RTree::BulkLoad(data);
  EXPECT_TRUE(TopKRTree(data, tree, {0.5}, 3).empty());
  Dataset one = Generate(Distribution::kIndependent, 10, 2, 88);
  RTree tree1 = RTree::BulkLoad(one);
  EXPECT_TRUE(TopKRTree(one, tree1, {0.5}, 0).empty());
}

TEST(TopK, OrderedByScore) {
  Dataset data = Generate(Distribution::kIndependent, 200, 3, 81);
  const Vec w = {0.3, 0.4};
  std::vector<int32_t> top = TopK(data, w, 10);
  ASSERT_EQ(top.size(), 10u);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(Score(data[top[i - 1]], w) + kEps, Score(data[top[i]], w));
  }
  // No record outside the top-10 scores higher than the 10th.
  const Scalar s10 = Score(data[top.back()], w);
  std::set<int32_t> top_set(top.begin(), top.end());
  for (const Record& p : data) {
    if (!top_set.count(p.id)) {
      EXPECT_LE(Score(p, w), s10 + kEps);
    }
  }
}

TEST(TopK, KLargerThanDataset) {
  Dataset data = Generate(Distribution::kIndependent, 5, 3, 82);
  EXPECT_EQ(TopK(data, {0.2, 0.2}, 50).size(), 5u);
}

TEST(TopK, DeterministicTieBreak) {
  Dataset data;
  for (int i = 0; i < 3; ++i) {
    Record r;
    r.id = i;
    r.attrs = {0.5, 0.5};
    data.push_back(r);
  }
  EXPECT_EQ(TopK(data, {0.4}, 2), (std::vector<int32_t>{0, 1}));
}

TEST(IncrementalTopK, FullRankingConsistentWithTopK) {
  Dataset data = Generate(Distribution::kAnticorrelated, 150, 4, 83);
  const Vec w = {0.2, 0.3, 0.1};
  IncrementalTopK inc(data, w);
  ASSERT_EQ(inc.size(), 150);
  for (int k : {1, 5, 20}) {
    std::vector<int32_t> top = TopK(data, w, k);
    for (int i = 0; i < k; ++i) EXPECT_EQ(inc.Get(i), top[i]);
  }
}

TEST(IncrementalTopK, PrefixCovering) {
  Dataset data = Generate(Distribution::kIndependent, 100, 3, 84);
  const Vec w = {0.3, 0.3};
  IncrementalTopK inc(data, w);
  // Prefix covering the 7th-ranked record alone has length 7.
  EXPECT_EQ(inc.PrefixCovering({inc.Get(6)}), 7);
  EXPECT_EQ(inc.PrefixCovering({inc.Get(0), inc.Get(6)}), 7);
  EXPECT_EQ(inc.PrefixCovering({}), 0);
}

}  // namespace
}  // namespace utk
