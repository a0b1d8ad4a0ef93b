// The kAuto planner (src/api/planner.h): the band estimate behind EXPLAIN's
// est_rows, explicit passthrough, and the fixed RSA (UTK1) / JAA (UTK2)
// rule checked against the naive oracle on tiny inputs, where the rule
// has no size threshold to fall back on.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "api/engine.h"
#include "api/planner.h"
#include "data/generator.h"
#include "live/live_engine.h"

namespace utk {
namespace {

QuerySpec BoxSpec(int pref_dim, int k, QueryMode mode = QueryMode::kUtk1,
                  Algorithm algo = Algorithm::kAuto) {
  QuerySpec spec;
  spec.mode = mode;
  spec.algorithm = algo;
  spec.k = k;
  Vec lo(pref_dim), hi(pref_dim);
  for (int i = 0; i < pref_dim; ++i) {
    lo[i] = 0.2;
    hi[i] = 0.4;
  }
  spec.region = ConvexRegion::FromBox(lo, hi);
  return spec;
}

TEST(Planner, BandEstimateClampsAndTruncates) {
  // k * ln(n+1)^(d-1), truncated: 10 * ln(10001)^2 = 848.301... -> 848.
  const double raw = 10.0 * std::pow(std::log(10001.0), 2.0);
  EXPECT_EQ(EstimateBandSize(10000, 10, 3), static_cast<int64_t>(raw));
  // Never above n...
  EXPECT_EQ(EstimateBandSize(100, 10, 6), 100);
  // ...and never below min(k, n): pref_dim 1 gives k * (anything)^0 = k.
  EXPECT_EQ(EstimateBandSize(1000, 10, 1), 10);
  EXPECT_EQ(EstimateBandSize(5, 10, 1), 5);
}

TEST(Planner, DecidePlanKeepsExplicitAndPlansRsaOrJaa) {
  const PlanDecision forced = DecidePlan(
      BoxSpec(3, 10, QueryMode::kUtk1, Algorithm::kBaselineSk));
  EXPECT_EQ(forced.algorithm, Algorithm::kBaselineSk);
  EXPECT_EQ(forced.reason, PlanReason::kExplicit);
  const PlanDecision naive =
      DecidePlan(BoxSpec(3, 5, QueryMode::kUtk1, Algorithm::kNaive));
  EXPECT_EQ(naive.algorithm, Algorithm::kNaive);
  EXPECT_EQ(naive.reason, PlanReason::kExplicit);

  const PlanDecision utk1 = DecidePlan(BoxSpec(3, 10));
  EXPECT_EQ(utk1.algorithm, Algorithm::kRsa);
  EXPECT_EQ(utk1.reason, PlanReason::kHeuristicDefault);
  const PlanDecision utk2 = DecidePlan(BoxSpec(3, 10, QueryMode::kUtk2));
  EXPECT_EQ(utk2.algorithm, Algorithm::kJaa);
  EXPECT_EQ(utk2.reason, PlanReason::kHeuristicDefault);
}

// ---------------------------------------------------------------------------
// kAuto on tiny inputs, k >= n included: RSA / JAA must answer exactly what
// the naive oracle answers, on Engine and on a LiveEngine over the same
// rows, and the LiveEngine must never need its compact fallback engine.
// ---------------------------------------------------------------------------

class AutoRuleTest : public ::testing::TestWithParam<
                         std::tuple<Distribution, int, int, int>> {};

TEST_P(AutoRuleTest, MatchesNaiveOnEngineAndLiveEngine) {
  const auto [dist, n, dim, k] = GetParam();
  const Dataset data = Generate(dist, n, dim, 20261018 + n * 10 + dim);
  Engine engine(data);
  LiveEngine live(data);

  // A box inside the simplex for every pref_dim (coordinates sum to at most
  // 0.3), narrow enough that JAA's arrangement stays small at d=5, k=10.
  const int pref_dim = dim - 1;
  Vec lo(pref_dim, 0.1), hi(pref_dim, 0.1 + 0.2 / pref_dim);
  QuerySpec spec;
  spec.k = k;
  spec.region = ConvexRegion::FromBox(lo, hi);

  QuerySpec oracle = spec;
  oracle.algorithm = Algorithm::kNaive;
  const QueryResult want = engine.Run(oracle);
  ASSERT_TRUE(want.ok) << want.error;
  ASSERT_FALSE(want.ids.empty());

  const QueryEngine* engines[] = {&engine, &live};
  for (const QueryEngine* e : engines) {
    spec.mode = QueryMode::kUtk1;
    const QueryResult utk1 = e->Run(spec);
    ASSERT_TRUE(utk1.ok) << utk1.error;
    EXPECT_EQ(utk1.algorithm, Algorithm::kRsa);
    EXPECT_EQ(utk1.stats.plan_reason,
              static_cast<int64_t>(PlanReason::kHeuristicDefault));
    EXPECT_EQ(utk1.ids, want.ids);

    spec.mode = QueryMode::kUtk2;
    const QueryResult utk2 = e->Run(spec);
    ASSERT_TRUE(utk2.ok) << utk2.error;
    EXPECT_EQ(utk2.algorithm, Algorithm::kJaa);
    EXPECT_EQ(utk2.utk2.AllRecords(), want.ids);
  }
  EXPECT_EQ(live.counters().fallback_queries, 0);
}

std::string AutoRuleName(
    const ::testing::TestParamInfo<AutoRuleTest::ParamType>& info) {
  const auto [dist, n, dim, k] = info.param;
  return DistributionName(dist) + "_n" + std::to_string(n) + "_d" +
         std::to_string(dim) + "_k" + std::to_string(k);
}

INSTANTIATE_TEST_SUITE_P(
    TinyInputs, AutoRuleTest,
    ::testing::Combine(::testing::Values(Distribution::kIndependent,
                                         Distribution::kAnticorrelated),
                       ::testing::Values(1, 3, 12, 48),
                       ::testing::Values(2, 3, 5), ::testing::Values(1, 10)),
    AutoRuleName);

}  // namespace
}  // namespace utk
