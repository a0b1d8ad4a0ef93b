#include "serve/server.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace utk {

Server::Server(std::shared_ptr<const QueryEngine> engine, CacheConfig config)
    : engine_(std::move(engine)), cache_(config) {}

Server::Server(Engine engine, CacheConfig config)
    : engine_(std::make_shared<const Engine>(std::move(engine))),
      cache_(config) {}

QueryResult Server::Query(const QuerySpec& spec) {
  UTK_SPAN("serve.query");
  // One slow-log line and history row per served query, whichever path
  // answers it; the engine's own scope on the miss path nests inside this
  // one and stays silent. Cache-hit rows carry cache_hits=1 in their stats
  // CSV, so a reader of the history can tell them from engine runs.
  obs::QueryScope scope("serve.query");
  auto& reg = obs::MetricRegistry::Global();
  static obs::Counter& queries = reg.GetCounter("utk_serve_queries_total");
  static obs::Counter& hits = reg.GetCounter("utk_serve_cache_hits_total");
  static obs::Counter& misses = reg.GetCounter("utk_serve_cache_misses_total");
  static obs::Histogram& latency =
      reg.GetHistogram("utk_serve_query_latency_us");
  queries.Add();
  Timer timer;
  auto record = [&](QueryResult r) {
    latency.Observe(static_cast<int64_t>(r.stats.elapsed_ms * 1000.0));
    scope.Finish(r.stats, [&spec] { return SpecFingerprint(spec); });
    RecordHistory(scope, spec, r, engine_->size(), engine_->pref_dim());
    return r;
  };
  // Requests the engine would reject bypass the cache entirely so the
  // diagnostic is the engine's own, and failures are never cached.
  if (engine_->Validate(spec).has_value()) return record(engine_->Run(spec));

  const Algorithm planned = engine_->Plan(spec);
  // The dataset epoch is read *before* the query runs: if an update commits
  // mid-flight, the admit below carries the superseded epoch and the cache
  // refuses it — a racing query can never plant a stale answer.
  const uint64_t epoch = engine_->epoch();
  std::optional<QueryResult> hit = [&] {
    UTK_SPAN("serve.cache_probe");
    return cache_.Lookup(spec, planned, epoch);
  }();
  if (hit.has_value()) {
    hits.Add();
    QueryResult r = std::move(*hit);
    // The stats describe *this* serving, not the original run.
    r.stats = QueryStats{};
    r.stats.cache_hits = 1;
    r.stats.epoch = static_cast<int64_t>(epoch);
    r.stats.elapsed_ms = timer.ElapsedMs();
    return record(std::move(r));
  }
  misses.Add();
  QueryResult r = engine_->Run(spec);
  if (r.ok) {
    UTK_SPAN("serve.admit");
    r.stats.cache_evictions = cache_.Admit(spec, planned, r, epoch);
  }
  r.stats.cache_misses = 1;
  return record(std::move(r));
}

PlanNode Server::Explain(const QuerySpec& spec) const {
  PlanNode root;
  root.op = "serve.query";
  PlanNode engine_plan = engine_->Explain(spec);
  if (engine_->Validate(spec).has_value()) {
    // Invalid specs bypass the cache; the engine tree carries the
    // diagnostic already.
    root.detail = "cache bypass (invalid spec)";
    root.children.push_back(std::move(engine_plan));
    return root;
  }
  root.detail = "cache-first; miss cost below";
  PlanNode probe;
  probe.op = "serve.cache_probe";
  probe.detail = "exact fingerprint";
  root.children.push_back(std::move(probe));
  root.children.push_back(std::move(engine_plan));
  return root;
}

PlanNode Server::ExplainAnalyze(const QuerySpec& spec, QueryResult* result) {
  return AnalyzeWithTrace(Explain(spec), [&] { return Query(spec); }, result);
}

BatchQueryResult Server::QueryBatch(std::span<const QuerySpec> specs,
                                    int threads) {
  UTK_SPAN_VAL("serve.batch", static_cast<int64_t>(specs.size()));
  return AnswerBatch(specs, threads,
                     [this](const QuerySpec& spec) { return Query(spec); });
}

}  // namespace utk
