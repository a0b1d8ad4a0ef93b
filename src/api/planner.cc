#include "api/planner.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "obs/history.h"
#include "obs/trace.h"

namespace utk {

const char* PlanReasonName(PlanReason reason) {
  switch (reason) {
    case PlanReason::kNone: return "none";
    case PlanReason::kExplicit: return "explicit";
    case PlanReason::kHeuristicSmallN: return "heuristic-small-n";
    case PlanReason::kHeuristicDefault: return "heuristic-default";
    case PlanReason::kCostModel: return "cost-model";
    case PlanReason::kCostModelFallback: return "cost-model-fallback";
  }
  return "?";
}

int64_t EstimateBandSize(int64_t n, int k, int pref_dim) {
  // The classic k-skyband expectation for uniform data: k * ln(n)^(d-1)
  // records survive the filter. Clamped to [k, n].
  const double log_n = std::log(static_cast<double>(n) + 1.0);
  double est = static_cast<double>(k) *
               std::pow(log_n, static_cast<double>(pref_dim - 1));
  est = std::min(est, static_cast<double>(n));
  est = std::max(est, static_cast<double>(std::min<int64_t>(k, n)));
  return static_cast<int64_t>(est);
}

double RegionWidth(const ConvexRegion& region) {
  if (region.is_box()) {
    const Vec& lo = region.box_lo();
    const Vec& hi = region.box_hi();
    if (lo.empty()) return 0.0;
    double sum = 0.0;
    for (size_t i = 0; i < lo.size(); ++i)
      sum += static_cast<double>(hi[i] - lo[i]);
    return sum / static_cast<double>(lo.size());
  }
  // General convex region: more constraints means a tighter region. This is
  // a coarse monotone proxy, good enough for a history column.
  return 1.0 / (1.0 + static_cast<double>(region.constraints().size()));
}

PlanDecision DecidePlan(const QuerySpec& spec) {
  if (spec.algorithm != Algorithm::kAuto)
    return {spec.algorithm, PlanReason::kExplicit};
  return {spec.mode == QueryMode::kUtk2 ? Algorithm::kJaa : Algorithm::kRsa,
          PlanReason::kHeuristicDefault};
}

std::vector<PlanNode> AlgorithmPlanChildren(Algorithm algo, QueryMode mode,
                                            int64_t n, int k, int pref_dim) {
  const int64_t band = EstimateBandSize(n, k, pref_dim);
  auto node = [](const char* op, int64_t est_rows) {
    PlanNode p;
    p.op = op;
    p.est_rows = est_rows;
    return p;
  };
  std::vector<PlanNode> kids;
  switch (algo) {
    case Algorithm::kAuto:
      break;  // unresolved plans have no operator structure
    case Algorithm::kRsa:
      kids.push_back(node("filter.rskyband", band));
      kids.push_back(node("rsa.refine", band));
      break;
    case Algorithm::kJaa:
      kids.push_back(node("filter.rskyband", band));
      kids.push_back(node("jaa.refine", band));
      break;
    case Algorithm::kBaselineSk:
    case Algorithm::kBaselineOn: {
      kids.push_back(node(algo == Algorithm::kBaselineSk ? "filter.skyband"
                                                         : "filter.onion",
                          band));
      PlanNode refine = node("baseline.refine", band);
      refine.children.push_back(node("kspr.decide", band));
      refine.detail = mode == QueryMode::kUtk2 ? "per-record cells" : "";
      kids.push_back(std::move(refine));
      break;
    }
    case Algorithm::kNaive:
      kids.push_back(node("naive.enumerate", n));
      break;
  }
  return kids;
}

std::string PlanDetail(const PlanDecision& d, int k, int64_t n) {
  std::string out = "algo=";
  out += AlgorithmName(d.algorithm);
  out += " reason=";
  out += PlanReasonName(d.reason);
  out += " k=" + std::to_string(k);
  out += " n=" + std::to_string(n);
  return out;
}

// ---------------------------------------------------------------------------
// History glue.
// ---------------------------------------------------------------------------

namespace {
thread_local int t_history_depth = 0;
}  // namespace

QueryHistoryScope::QueryHistoryScope() {
  owner_ = t_history_depth == 0;
  ++t_history_depth;
  if (owner_) t0_us_ = obs::NowMicros();
}

QueryHistoryScope::~QueryHistoryScope() { --t_history_depth; }

void QueryHistoryScope::Record(const QuerySpec& spec,
                               const QueryResult& result, int64_t n,
                               int pref_dim) const {
  if (!owner_ || !result.ok) return;
  std::shared_ptr<obs::HistoryWriter> sink = obs::QueryHistory();
  if (sink == nullptr) return;

  obs::HistoryRecord rec;
  rec.ts_us = obs::NowMicros();
  rec.fingerprint = SpecFingerprint(spec);
  rec.mode = static_cast<uint8_t>(spec.mode);
  rec.k = spec.k;
  rec.n = n;
  rec.pref_dim = pref_dim;
  rec.region_width = RegionWidth(spec.region);
  rec.ran_algorithm = static_cast<uint8_t>(result.algorithm);
  rec.planned_algorithm = static_cast<uint8_t>(result.stats.planned_algorithm);
  rec.plan_reason = static_cast<uint8_t>(result.stats.plan_reason);
  rec.stats_csv = result.stats.CsvRow();

  // Top-span rollup: per-name duration totals within this query's window.
  // Only available when tracing is on; an empty rollup is fine.
  if (obs::TracingEnabled()) {
    std::vector<std::pair<std::string, double>> totals;
    for (const obs::TraceEvent& e : obs::TraceSnapshot()) {
      if (e.ts_us < t0_us_) continue;
      const double ms = static_cast<double>(e.dur_us) / 1000.0;
      auto it = std::find_if(totals.begin(), totals.end(), [&](const auto& p) {
        return p.first == e.name;
      });
      if (it == totals.end())
        totals.emplace_back(e.name, ms);
      else
        it->second += ms;
    }
    std::sort(totals.begin(), totals.end(), [](const auto& a, const auto& b) {
      return a.second > b.second;
    });
    if (totals.size() > 16) totals.resize(16);
    rec.top_spans = std::move(totals);
  }

  sink->Append(rec);
}

}  // namespace utk
