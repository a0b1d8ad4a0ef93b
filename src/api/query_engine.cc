#include "api/query_engine.h"

#include <utility>

#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace utk {

std::optional<std::string> QueryEngine::Prepare(const QuerySpec& spec,
                                                PlanDecision* decision) const {
  if (size() == 0) return "engine holds an empty dataset";
  if (std::optional<std::string> error = DataError()) return error;
  if (spec.k < 1) return "k must be >= 1";
  if (spec.wave_cap < 0) return "wave_cap must be >= 0";
  if (spec.region.dim() != pref_dim())
    return "region has " + std::to_string(spec.region.dim()) +
           " preference dims, dataset needs " + std::to_string(pref_dim());
  if (!spec.region.HasInteriorPoint())
    return "query region has empty interior";
  *decision = Decide(spec);
  const Algorithm algo = decision->algorithm;
  if (spec.mode == QueryMode::kUtk2 &&
      (algo == Algorithm::kRsa || algo == Algorithm::kNaive))
    return std::string(AlgorithmName(algo)) +
           " answers UTK1 only; use JAA or a baseline for UTK2";
  return std::nullopt;
}

std::optional<std::string> QueryEngine::Validate(const QuerySpec& spec) const {
  PlanDecision decision;
  return Prepare(spec, &decision);
}

QueryResult QueryEngine::Run(const QuerySpec& spec) const {
  UTK_SPAN(root_op_);
  obs::QueryLogScope slow_log(root_op_);
  QueryHistoryScope history;
  QueryResult r;  // ok == false until Execute answers
  r.mode = spec.mode;
  r.algorithm = spec.algorithm;
  PlanDecision decision;
  int64_t n = 0;
  ReadPinned([&] {
    n = size();
    if (std::optional<std::string> error = Prepare(spec, &decision)) {
      r.error = std::move(*error);
      return;
    }
    r = Execute(spec, decision);
    r.stats.epoch = static_cast<int64_t>(epoch());
  });
  if (!r.ok) return r;
  r.stats.planned_algorithm = static_cast<int64_t>(decision.algorithm);
  r.stats.plan_reason = static_cast<int64_t>(decision.reason);

  static obs::Counter& queries =
      obs::MetricRegistry::Global().GetCounter("utk_engine_queries_total");
  static obs::Histogram& latency = obs::MetricRegistry::Global().GetHistogram(
      "utk_engine_query_latency_us");
  queries.Add();
  latency.Observe(static_cast<int64_t>(r.stats.elapsed_ms * 1000.0));
  slow_log.Finish(r.stats, [&spec] { return SpecFingerprint(spec); });
  history.Record(spec, r, n, pref_dim());
  return r;
}

PlanNode QueryEngine::Explain(const QuerySpec& spec) const {
  PlanNode root;
  root.op = root_op_;
  PlanDecision d;
  if (std::optional<std::string> error = Prepare(spec, &d)) {
    root.detail = "invalid: " + *error;
    return root;
  }
  root.detail = PlanDetail(d, spec.k, size());
  root.children = ExplainChildren(spec, d);
  return root;
}

std::vector<PlanNode> QueryEngine::ExplainChildren(
    const QuerySpec& spec, const PlanDecision& decision) const {
  return AlgorithmPlanChildren(decision.algorithm, spec.mode, size(), spec.k,
                               pref_dim());
}

PlanNode QueryEngine::ExplainAnalyze(const QuerySpec& spec,
                                     QueryResult* result) const {
  return AnalyzeWithTrace(Explain(spec), [&] { return Run(spec); }, result);
}

BatchQueryResult QueryEngine::RunBatch(std::span<const QuerySpec> specs,
                                       int threads) const {
  UTK_SPAN_VAL("engine.batch", static_cast<int64_t>(specs.size()));
  return AnswerBatch(specs, threads, [this](const QuerySpec& spec) {
    return Run(spec);
  });
}

BatchQueryResult AnswerBatch(
    std::span<const QuerySpec> specs, int threads,
    const std::function<QueryResult(const QuerySpec&)>& answer) {
  BatchQueryResult batch;
  batch.results.resize(specs.size());
  ParallelFor(static_cast<int>(specs.size()),
              threads <= 0 ? DefaultThreads() : threads,
              [&](int i) { batch.results[i] = answer(specs[i]); });
  std::vector<QueryStats> stats;
  stats.reserve(batch.results.size());
  for (const QueryResult& r : batch.results) {
    stats.push_back(r.stats);
    if (!r.ok) ++batch.failed;
  }
  batch.total = QueryStats::Merge(stats);
  return batch;
}

}  // namespace utk
