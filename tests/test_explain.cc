// EXPLAIN / EXPLAIN ANALYZE (src/api/plan.h): byte-pinned golden render,
// static-tree shape across engines, ANALYZE trees rebuilt from real span
// recordings (structure + child-time coverage, over every engine and the
// RSA / JAA / fallback paths), and CoalescePlan's rollup.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "api/planner.h"
#include "data/generator.h"
#include "data/workload.h"
#include "live/live_engine.h"
#include "obs/trace.h"

namespace utk {
namespace {

/// Restores tracing state on exit — ANALYZE flips it on internally and one
/// leaked flag would slow every later test.
struct TraceSandbox {
  TraceSandbox() {
    obs::SetTracingEnabled(false);
    obs::ClearTrace();
  }
  ~TraceSandbox() {
    obs::SetTracingEnabled(false);
    obs::ClearTrace();
  }
};

QuerySpec BoxSpec(int pref_dim, int k, QueryMode mode = QueryMode::kUtk1,
                  Algorithm algo = Algorithm::kAuto) {
  QuerySpec spec;
  spec.mode = mode;
  spec.algorithm = algo;
  spec.k = k;
  Vec lo(pref_dim), hi(pref_dim);
  for (int i = 0; i < pref_dim; ++i) {
    lo[i] = 0.25;
    hi[i] = 0.45;
  }
  spec.region = ConvexRegion::FromBox(lo, hi);
  return spec;
}

/// The op-name multiset of a tree, depth-tagged — the structural identity
/// ANALYZE must share with the raw span tree.
void OpShape(const PlanNode& n, int depth,
             std::map<std::pair<int, std::string>, int>* out) {
  ++(*out)[{depth, n.op}];
  for (const PlanNode& kid : n.children) OpShape(kid, depth + 1, out);
}

// ---------------------------------------------------------------------------
// Rendering — byte-pinned.
// ---------------------------------------------------------------------------

TEST(Explain, RenderIsBytePinned) {
  PlanNode root;
  root.op = "engine.run";
  root.detail = "algo=RSA reason=heuristic-default k=10 n=100000";
  PlanNode filter;
  filter.op = "filter.rskyband";
  filter.est_rows = 848;
  filter.actual_rows = 911;
  filter.actual_ms = 1.25;
  PlanNode refine;
  refine.op = "rsa.refine";
  refine.est_rows = 848;
  PlanNode drill;
  drill.op = "rsa.drill";
  drill.actual_ms = 0.5;
  refine.children.push_back(drill);
  root.children.push_back(filter);
  root.children.push_back(refine);

  EXPECT_EQ(RenderPlan(root),
            "engine.run  (algo=RSA reason=heuristic-default k=10 n=100000)\n"
            "├─ filter.rskyband  [est_rows=848 rows=911 ms=1.250]\n"
            "└─ rsa.refine  [est_rows=848]\n"
            "   └─ rsa.drill  [ms=0.500]\n");
  // A bare node renders as just its op and a newline.
  PlanNode bare;
  bare.op = "x";
  EXPECT_EQ(RenderPlan(bare), "x\n");
}

// ---------------------------------------------------------------------------
// Static EXPLAIN.
// ---------------------------------------------------------------------------

TEST(Explain, StaticTreeCarriesDecisionAndEstimates) {
  Engine engine(Generate(Distribution::kIndependent, 400, 3, 7));

  const PlanNode plan = engine.Explain(BoxSpec(2, 10));
  EXPECT_EQ(plan.op, "engine.run");
  EXPECT_NE(plan.detail.find("algo=RSA"), std::string::npos);
  EXPECT_NE(plan.detail.find("reason=heuristic-default"), std::string::npos);
  EXPECT_NE(plan.detail.find("n=400"), std::string::npos);
  ASSERT_EQ(plan.children.size(), 2u);
  EXPECT_EQ(plan.children[0].op, "filter.rskyband");
  EXPECT_EQ(plan.children[1].op, "rsa.refine");
  const int64_t band = EstimateBandSize(400, 10, 2);
  EXPECT_EQ(plan.children[0].est_rows, band);
  // Nothing ran: no actuals anywhere.
  EXPECT_LT(plan.actual_ms, 0);
  EXPECT_LT(plan.children[0].actual_ms, 0);

  // An invalid spec explains its rejection instead of a plan.
  QuerySpec bad = BoxSpec(2, 0);
  const PlanNode rejected = engine.Explain(bad);
  EXPECT_NE(rejected.detail.find("invalid:"), std::string::npos);
  EXPECT_TRUE(rejected.children.empty());
}

TEST(Explain, BaselinePlanNestsKsprUnderRefine) {
  Engine engine(Generate(Distribution::kIndependent, 200, 3, 7));
  const PlanNode plan =
      engine.Explain(BoxSpec(2, 5, QueryMode::kUtk1, Algorithm::kBaselineSk));
  ASSERT_EQ(plan.children.size(), 2u);
  EXPECT_EQ(plan.children[0].op, "filter.skyband");
  EXPECT_EQ(plan.children[1].op, "baseline.refine");
  ASSERT_EQ(plan.children[1].children.size(), 1u);
  EXPECT_EQ(plan.children[1].children[0].op, "kspr.decide");
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE.
// ---------------------------------------------------------------------------

TEST(Explain, AnalyzeTreeMatchesSpanTreeStructurally) {
  TraceSandbox sandbox;
  const Dataset data = Generate(Distribution::kIndependent, 2000, 3, 11);

  // The engine x path matrix.
  auto engine = std::make_shared<const Engine>(data);
  auto live = std::make_shared<LiveEngine>(data);
  for (int32_t id = 0; id < 2000; id += 7) ASSERT_TRUE(live->Erase(id));

  const std::vector<std::pair<std::string, std::shared_ptr<const QueryEngine>>>
      engines = {{"engine.run", engine}, {"live.run", live}};
  const std::vector<QuerySpec> paths = {
      BoxSpec(2, 8, QueryMode::kUtk1, Algorithm::kRsa),
      BoxSpec(2, 4, QueryMode::kUtk2, Algorithm::kJaa),
      BoxSpec(2, 4, QueryMode::kUtk1, Algorithm::kBaselineSk)};

  for (const auto& [root_op, e] : engines) {
    for (const QuerySpec& spec : paths) {
      SCOPED_TRACE(root_op + " " + AlgorithmName(spec.algorithm));
      // Warm-up: one-time work (the compact fallback engine) stays out of
      // both trees compared below.
      ASSERT_TRUE(e->Run(spec).ok);

      // Reference: record the span tree of a plain run by hand.
      obs::SetTracingEnabled(true);
      obs::ClearTrace();
      const int64_t t0 = obs::NowMicros();
      QueryResult direct = e->Run(spec);
      ASSERT_TRUE(direct.ok) << direct.error;
      const PlanNode span_tree = PlanFromTrace(obs::TraceSnapshot(), t0);
      obs::SetTracingEnabled(false);

      // The static plan is rooted where execution is.
      const PlanNode static_plan = e->Explain(spec);
      EXPECT_EQ(span_tree.op, root_op);
      EXPECT_EQ(static_plan.op, span_tree.op);
      ASSERT_FALSE(static_plan.children.empty());

      // ExplainAnalyze of the same deterministic query must rebuild the
      // same operator structure (and return the same answer).
      QueryResult analyzed_result;
      const PlanNode analyzed = e->ExplainAnalyze(spec, &analyzed_result);
      ASSERT_TRUE(analyzed_result.ok);
      EXPECT_EQ(analyzed_result.ids, direct.ids);

      std::map<std::pair<int, std::string>, int> want, got;
      OpShape(span_tree, 0, &want);
      OpShape(analyzed, 0, &got);
      EXPECT_EQ(got, want);

      // The root is the engine span, measured, and its direct children
      // cover a sane share of it: more than nothing, never more than the
      // whole.
      EXPECT_EQ(analyzed.op, root_op);
      ASSERT_GT(analyzed.actual_ms, 0.0);
      const double coverage = analyzed.ChildActualMs() / analyzed.actual_ms;
      EXPECT_GT(coverage, 0.0);
      EXPECT_LE(coverage, 1.0 + 1e-9);

      // Estimates were grafted from the static plan onto executed
      // operators.
      if (e == engine && spec.algorithm == Algorithm::kRsa) {
        bool found_estimate = false;
        for (const PlanNode& kid : analyzed.children)
          if (kid.op == "filter.rskyband" && kid.est_rows >= 0)
            found_estimate = true;
        EXPECT_TRUE(found_estimate);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// CoalescePlan.
// ---------------------------------------------------------------------------

TEST(Explain, CoalesceMergesSameOpSiblings) {
  PlanNode root;
  root.op = "engine.run";
  root.actual_ms = 10.0;
  for (int i = 0; i < 3; ++i) {
    PlanNode kid;
    kid.op = "kspr.decide";
    kid.actual_ms = 1.0;
    kid.actual_rows = 5;
    root.children.push_back(kid);
  }
  PlanNode odd;
  odd.op = "filter.skyband";
  odd.actual_ms = 2.0;
  root.children.push_back(odd);

  const PlanNode rolled = CoalescePlan(root);
  ASSERT_EQ(rolled.children.size(), 2u);
  EXPECT_EQ(rolled.children[0].op, "kspr.decide");
  EXPECT_EQ(rolled.children[0].detail, "x3");
  EXPECT_DOUBLE_EQ(rolled.children[0].actual_ms, 3.0);
  EXPECT_EQ(rolled.children[0].actual_rows, 15);
  // Unset metrics stay unset (-1), they do not become 0.
  EXPECT_LT(rolled.children[0].est_rows, 0);
  EXPECT_EQ(rolled.children[1].op, "filter.skyband");
  EXPECT_EQ(rolled.children[1].detail, "");

  // Totals are preserved: the rollup renames nodes, it never drops time.
  EXPECT_DOUBLE_EQ(rolled.ChildActualMs(), root.ChildActualMs());

  // Merging recurses: grandchildren of merged siblings coalesce too.
  PlanNode deep = root;
  deep.children[0].children.push_back(odd);
  deep.children[1].children.push_back(odd);
  const PlanNode deep_rolled = CoalescePlan(deep);
  ASSERT_GE(deep_rolled.children.size(), 1u);
  ASSERT_EQ(deep_rolled.children[0].children.size(), 1u);
  EXPECT_EQ(deep_rolled.children[0].children[0].detail, "x2");
}

TEST(Explain, CoalesceIsIdempotentOnStaticTrees) {
  Engine engine(Generate(Distribution::kIndependent, 300, 3, 17));
  const PlanNode plan = engine.Explain(BoxSpec(2, 10));
  EXPECT_EQ(RenderPlan(CoalescePlan(plan)), RenderPlan(plan));
  EXPECT_EQ(RenderPlan(CoalescePlan(CoalescePlan(plan))),
            RenderPlan(CoalescePlan(plan)));
}

}  // namespace
}  // namespace utk
