// Cost-model planner (src/api/planner.h): feature math pinned against the
// Python calibrator, model JSON parsing, argmin/runner-up choice,
// envelope fallback, explicit passthrough, the forced-choice matrix, and
// the mispredict counter.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <string>

#include "api/engine.h"
#include "api/planner.h"
#include "data/generator.h"
#include "data/workload.h"
#include "obs/metrics.h"

namespace utk {
namespace {

/// A model whose envelope covers everything and whose per-algorithm cost is
/// the constant handed in — the planner must pick the smallest constant.
std::string ConstModelJson(double rsa_ms, double jaa_ms) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"version\":1,"
                "\"envelope\":{\"n\":[1,1000000],\"k\":[1,100],"
                "\"d\":[1,8]},"
                "\"algorithms\":{\"rsa\":[%g,0,0,0,0],"
                "\"jaa\":[%g,0,0,0,0]}}",
                rsa_ms, jaa_ms);
  return buf;
}

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

// ---------------------------------------------------------------------------
// Feature math — MUST stay in lockstep with tools/calibrate_planner.py.
// ---------------------------------------------------------------------------

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

TEST(Planner, FeatureVectorMatchesCalibratorDefinition) {
  const int64_t n = 10000;
  const int k = 10, d = 3;
  const double width = 0.25;
  const auto f = PlannerFeatures(n, k, d, width);
  const double band = static_cast<double>(EstimateBandSize(n, k, d));
  EXPECT_DOUBLE_EQ(f[0], 1.0);
  EXPECT_DOUBLE_EQ(f[1], n / 1000.0);
  EXPECT_DOUBLE_EQ(f[2], band / 1000.0);
  EXPECT_DOUBLE_EQ(f[3], band / 1000.0 * k);
  EXPECT_DOUBLE_EQ(f[4], band / 1000.0 * band / 1000.0 * width);
}

// ---------------------------------------------------------------------------
// Model JSON parsing.
// ---------------------------------------------------------------------------

TEST(Planner, ModelJsonRejectsMalformedInput) {
  std::string err;
  EXPECT_FALSE(CostModel::FromJson("", &err).has_value());
  EXPECT_FALSE(CostModel::FromJson("[]", &err).has_value());
  // Wrong version.
  EXPECT_FALSE(CostModel::FromJson(
                   "{\"version\":2,\"envelope\":{\"n\":[1,2],\"k\":[1,2],"
                   "\"d\":[1,2]},\"algorithms\":{\"rsa\":[0,0,0,0,0]}}",
                   &err)
                   .has_value());
  EXPECT_NE(err.find("version"), std::string::npos);
  // Missing envelope.
  EXPECT_FALSE(CostModel::FromJson("{\"version\":1,\"algorithms\":{\"rsa\":"
                                   "[0,0,0,0,0]}}",
                                   &err)
                   .has_value());
  // Envelope range inverted.
  EXPECT_FALSE(CostModel::FromJson(
                   "{\"version\":1,\"envelope\":{\"n\":[9,1],\"k\":[1,2],"
                   "\"d\":[1,2]},\"algorithms\":{\"rsa\":[0,0,0,0,0]}}",
                   &err)
                   .has_value());
  // Wrong coefficient arity.
  EXPECT_FALSE(CostModel::FromJson(
                   "{\"version\":1,\"envelope\":{\"n\":[1,2],\"k\":[1,2],"
                   "\"d\":[1,2]},\"algorithms\":{\"rsa\":[0,0,0]}}",
                   &err)
                   .has_value());
  // Unknown algorithm name.
  EXPECT_FALSE(CostModel::FromJson(
                   "{\"version\":1,\"envelope\":{\"n\":[1,2],\"k\":[1,2],"
                   "\"d\":[1,2]},\"algorithms\":{\"zzz\":[0,0,0,0,0]}}",
                   &err)
                   .has_value());
  // The happy path parses.
  EXPECT_TRUE(CostModel::FromJson(ConstModelJson(1, 2)).has_value());
  // Unknown keys are ignored, so a model file that still carries the
  // retired tile_overhead_ms key loads.
  EXPECT_TRUE(CostModel::FromJson(
                  "{\"version\":1,\"tile_overhead_ms\":2.0,"
                  "\"envelope\":{\"n\":[1,2],\"k\":[1,2],\"d\":[1,2]},"
                  "\"algorithms\":{\"rsa\":[0,0,0,0,0]}}")
                  .has_value());
}

TEST(Planner, EstimateMsIsLinearAndClamped) {
  // est = 4 + 2 * (n/1000) for rsa; missing algorithms answer -1.
  auto m = CostModel::FromJson(
      "{\"version\":1,\"envelope\":{\"n\":[1,1000000],\"k\":[1,100],"
      "\"d\":[1,8]},\"algorithms\":{\"rsa\":[4,2,0,0,0],"
      "\"jaa\":[-100,0,0,0,0]}}");
  ASSERT_TRUE(m.has_value());
  EXPECT_DOUBLE_EQ(m->EstimateMs(Algorithm::kRsa, 3000, 10, 3, 0.2), 10.0);
  // Negative predictions clamp to zero — a cost is not negative.
  EXPECT_DOUBLE_EQ(m->EstimateMs(Algorithm::kJaa, 3000, 10, 3, 0.2), 0.0);
  EXPECT_DOUBLE_EQ(m->EstimateMs(Algorithm::kNaive, 3000, 10, 3, 0.2), -1.0);
  EXPECT_TRUE(m->has(Algorithm::kRsa));
  EXPECT_FALSE(m->has(Algorithm::kNaive));
}

// ---------------------------------------------------------------------------
// Choice: argmin, runner-up, envelope.
// ---------------------------------------------------------------------------

TEST(Planner, ChoosePicksArgminWithRunnerUp) {
  auto m = CostModel::FromJson(ConstModelJson(5.0, 3.0));
  ASSERT_TRUE(m.has_value());
  auto d = m->Choose(QueryMode::kUtk1, 10000, 10, 3, 0.2);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->algorithm, Algorithm::kJaa);
  EXPECT_EQ(d->reason, PlanReason::kCostModel);
  EXPECT_DOUBLE_EQ(d->est_ms, 3.0);
  EXPECT_EQ(d->runner_up, Algorithm::kRsa);
  EXPECT_DOUBLE_EQ(d->runner_up_ms, 5.0);

  // Flip the constants, the argmin flips.
  auto m2 = CostModel::FromJson(ConstModelJson(3.0, 5.0));
  auto d2 = m2->Choose(QueryMode::kUtk1, 10000, 10, 3, 0.2);
  ASSERT_TRUE(d2.has_value());
  EXPECT_EQ(d2->algorithm, Algorithm::kRsa);

  // UTK2 excludes RSA even when it is cheaper on paper.
  auto d3 = m2->Choose(QueryMode::kUtk2, 10000, 10, 3, 0.2);
  ASSERT_TRUE(d3.has_value());
  EXPECT_EQ(d3->algorithm, Algorithm::kJaa);
}

TEST(Planner, OutsideEnvelopeFallsBackToHeuristic) {
  auto m = CostModel::FromJson(
      "{\"version\":1,\"envelope\":{\"n\":[100,1000],\"k\":[5,20],"
      "\"d\":[2,3]},\"algorithms\":{\"rsa\":[1,0,0,0,0],"
      "\"jaa\":[2,0,0,0,0]}}");
  ASSERT_TRUE(m.has_value());
  EXPECT_FALSE(m->Choose(QueryMode::kUtk1, 50000, 10, 3, 0.2).has_value());
  EXPECT_FALSE(m->Choose(QueryMode::kUtk1, 500, 50, 3, 0.2).has_value());
  EXPECT_TRUE(m->Choose(QueryMode::kUtk1, 500, 10, 3, 0.2).has_value());

  // Through DecidePlan the fallback is visible as kCostModelFallback and
  // agrees with the bare heuristic's pick.
  QuerySpec spec = BoxSpec(3, 10);
  const PlanDecision d = DecidePlan(&*m, spec, /*n=*/50000, /*pref_dim=*/3);
  EXPECT_EQ(d.reason, PlanReason::kCostModelFallback);
  EXPECT_EQ(d.algorithm, ChooseAlgorithm(QueryMode::kUtk1, 50000, 3));
}

TEST(Planner, DecidePlanRespectsExplicitAndMissingModel) {
  QuerySpec forced = BoxSpec(3, 10, QueryMode::kUtk1, Algorithm::kBaselineSk);
  const PlanDecision d = DecidePlan(nullptr, forced, 50000, 3);
  EXPECT_EQ(d.algorithm, Algorithm::kBaselineSk);
  EXPECT_EQ(d.reason, PlanReason::kExplicit);

  // No model installed: heuristic reasons, split by the naive-oracle gate.
  const PlanDecision big = DecidePlan(nullptr, BoxSpec(3, 10), 50000, 3);
  EXPECT_EQ(big.algorithm, Algorithm::kRsa);
  EXPECT_EQ(big.reason, PlanReason::kHeuristicDefault);
  const PlanDecision tiny = DecidePlan(nullptr, BoxSpec(3, 5), 20, 3);
  EXPECT_EQ(tiny.algorithm, Algorithm::kNaive);
  EXPECT_EQ(tiny.reason, PlanReason::kHeuristicSmallN);
}

// ---------------------------------------------------------------------------
// Forced-choice matrix through a real engine.
// ---------------------------------------------------------------------------

TEST(Planner, ForcedChoiceMatrixThroughEngine) {
  Engine engine(Generate(Distribution::kIndependent, 400, 3, 7));

  struct Case {
    double rsa_ms, jaa_ms;
    Algorithm want;
  };
  const Case matrix[] = {
      {1.0, 9.0, Algorithm::kRsa},
      {9.0, 1.0, Algorithm::kJaa},
      {2.0, 2.5, Algorithm::kRsa},
      {2.5, 2.0, Algorithm::kJaa},
  };
  for (const Case& c : matrix) {
    auto m = CostModel::FromJson(ConstModelJson(c.rsa_ms, c.jaa_ms));
    ASSERT_TRUE(m.has_value());
    engine.set_cost_model(std::make_shared<const CostModel>(std::move(*m)));
    const QuerySpec spec = BoxSpec(2, 10);
    EXPECT_EQ(engine.Plan(spec), c.want)
        << "rsa=" << c.rsa_ms << " jaa=" << c.jaa_ms;
    const PlanDecision d = engine.Decide(spec);
    EXPECT_EQ(d.reason, PlanReason::kCostModel);
    // The decision is surfaced in the stats of the run it planned.
    QueryResult r = engine.Run(spec);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.algorithm, c.want);
    EXPECT_EQ(r.stats.planned_algorithm, static_cast<int64_t>(c.want));
    EXPECT_EQ(r.stats.plan_reason,
              static_cast<int64_t>(PlanReason::kCostModel));
  }

  // Dropping the model reverts the same engine to the heuristic.
  engine.set_cost_model(nullptr);
  QueryResult r = engine.Run(BoxSpec(2, 10));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.stats.plan_reason,
            static_cast<int64_t>(PlanReason::kHeuristicDefault));
}

// ---------------------------------------------------------------------------
// Mispredict accounting.
// ---------------------------------------------------------------------------

TEST(Planner, NotePlanOutcomeCountsMispredicts) {
  obs::Counter& decisions = obs::MetricRegistry::Global().GetCounter(
      "utk_planner_model_decisions_total");
  obs::Counter& mispredicts = obs::MetricRegistry::Global().GetCounter(
      "utk_planner_mispredict_total");
  const int64_t d0 = decisions.Value(), m0 = mispredicts.Value();

  PlanDecision d;
  d.reason = PlanReason::kCostModel;
  d.est_ms = 1.0;
  d.runner_up = Algorithm::kJaa;
  d.runner_up_ms = 2.0;
  // Chosen plan beat the runner-up's estimate: decision counted, no
  // mispredict.
  NotePlanOutcome(d, /*actual_ms=*/1.5);
  EXPECT_EQ(decisions.Value(), d0 + 1);
  EXPECT_EQ(mispredicts.Value(), m0);
  // Slower than the runner-up's estimate: the model ranked the pair wrong.
  NotePlanOutcome(d, /*actual_ms=*/3.0);
  EXPECT_EQ(decisions.Value(), d0 + 2);
  EXPECT_EQ(mispredicts.Value(), m0 + 1);
  // Heuristic decisions never touch the counters.
  d.reason = PlanReason::kHeuristicDefault;
  NotePlanOutcome(d, 100.0);
  EXPECT_EQ(decisions.Value(), d0 + 2);
  EXPECT_EQ(mispredicts.Value(), m0 + 1);
}

}  // namespace
}  // namespace utk
