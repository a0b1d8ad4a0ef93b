#include "serve/server.h"

#include <utility>

#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace utk {
namespace {

struct ServeMetrics {
  obs::Counter& queries;
  obs::Counter& exact_hits;
  obs::Counter& misses;
  obs::Histogram& latency;

  static ServeMetrics& Get() {
    auto& reg = obs::MetricRegistry::Global();
    static ServeMetrics m{
        reg.GetCounter("utk_serve_queries_total"),
        reg.GetCounter("utk_serve_cache_hits_total"),
        reg.GetCounter("utk_serve_cache_misses_total"),
        reg.GetHistogram("utk_serve_query_latency_us")};
    return m;
  }
};

}  // namespace

Server::Server(std::shared_ptr<const QueryEngine> engine, CacheConfig config)
    : engine_(std::move(engine)), cache_(config) {}

Server::Server(Engine engine, CacheConfig config)
    : engine_(std::make_shared<const Engine>(std::move(engine))),
      cache_(config) {}

QueryResult Server::Query(const QuerySpec& spec) {
  UTK_SPAN("serve.query");
  obs::QueryLogScope slow_log("serve.query");
  // One history row per served query, whichever path answers it; the
  // engine's own scope on the miss path nests inside this one and stays
  // silent. Cache-hit rows carry cache_hits=1 in their stats CSV, so the
  // calibration fit (tools/calibrate_planner.py) can filter them out.
  QueryHistoryScope history;
  ServeMetrics& metrics = ServeMetrics::Get();
  metrics.queries.Add();
  Timer timer;
  auto record = [&](QueryResult r) {
    metrics.latency.Observe(static_cast<int64_t>(r.stats.elapsed_ms * 1000.0));
    slow_log.Finish(r.stats, [&spec] { return SpecFingerprint(spec); });
    history.Record(spec, r, engine_->size(), engine_->pref_dim());
    return r;
  };
  // Requests the engine would reject bypass the cache entirely so the
  // diagnostic is identical to Engine::Run's, and failures are never cached.
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
    metrics.exact_hits.Add();
    QueryResult r = std::move(*hit);
    // The stats describe *this* serving, not the original run.
    r.stats = QueryStats{};
    r.stats.cache_hits = 1;
    r.stats.epoch = static_cast<int64_t>(epoch);
    r.stats.elapsed_ms = timer.ElapsedMs();
    return record(std::move(r));
  }
  metrics.misses.Add();
  QueryResult r = RunAndAdmit(spec, planned, epoch);
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
  root.est_ms = engine_plan.est_ms;
  PlanNode probe;
  probe.op = "serve.cache_probe";
  probe.detail = "exact fingerprint";
  root.children.push_back(std::move(probe));
  root.children.push_back(std::move(engine_plan));
  return root;
}

PlanNode Server::ExplainAnalyze(const QuerySpec& spec, QueryResult* result) {
  const PlanNode static_plan = Explain(spec);
  QueryResult local;
  PlanNode analyzed = AnalyzeWithTrace(static_plan, [&]() {
    local = Query(spec);
    return local.stats.elapsed_ms;
  });
  if (result != nullptr) *result = std::move(local);
  return analyzed;
}

QueryResult Server::RunAndAdmit(const QuerySpec& spec, Algorithm planned,
                                uint64_t epoch) {
  QueryResult r = engine_->Run(spec);
  if (r.ok) {
    UTK_SPAN("serve.admit");
    r.stats.cache_evictions = cache_.Admit(spec, planned, r, epoch);
  }
  return r;
}

BatchQueryResult Server::QueryBatch(std::span<const QuerySpec> specs,
                                    int threads) {
  UTK_SPAN_VAL("serve.batch", static_cast<int64_t>(specs.size()));
  BatchQueryResult batch;
  batch.results.resize(specs.size());
  ParallelFor(static_cast<int>(specs.size()),
              threads <= 0 ? DefaultThreads() : threads,
              [&](int i) { batch.results[i] = Query(specs[i]); });
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
