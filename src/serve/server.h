// Server — a serving session that answers UTK queries cache-first.
//
// A Server wraps a shared QueryEngine (api/query_engine.h) — utk::Engine
// or a live/catalog-backed engine, all const-thread-safe, so one engine can
// back many concurrent sessions — and a ResultCache. Query resolution has two
// paths:
//   1. exact fingerprint hit -> return the cached result verbatim;
//   2. miss                  -> QueryEngine::Run, then Admit the fresh
//                               result under the epoch read before running.
//
// Every served answer is therefore byte-identical to the backing engine's
// Run for the same spec, UTK2 cell geometry and witnesses included. `stats`
// describes the *serving*: exactly one of cache_hits / cache_misses is 1
// and evictions are charged to the admitting query.
//
// Thread-safety: Query/QueryBatch may be called concurrently from any number
// of threads; the cache is internally synchronized and the engine is
// read-only. Answers are deterministic — cache state changes which *path*
// serves a query, never the answer.
#ifndef UTK_SERVE_SERVER_H_
#define UTK_SERVE_SERVER_H_

#include <memory>
#include <span>

#include "api/engine.h"
#include "serve/result_cache.h"

namespace utk {

class Server {
 public:
  /// Shares `engine` (it must outlive the server if the caller keeps using
  /// it; the shared_ptr keeps it alive otherwise). Accepts any QueryEngine
  /// implementation — Engine and LiveEngine both qualify.
  explicit Server(std::shared_ptr<const QueryEngine> engine,
                  CacheConfig config = {});

  /// Convenience: takes ownership of a single-machine engine.
  explicit Server(Engine engine, CacheConfig config = {});

  /// Answers one query cache-first. Invalid specs bypass the cache and come
  /// back with the engine's diagnostic; failures are never cached.
  QueryResult Query(const QuerySpec& spec);

  /// EXPLAIN through the serving layer: serve.query over the cache probe
  /// and the engine's plan subtree — the cache can only change which path
  /// serves the answer, so the engine subtree is always the miss-path cost.
  PlanNode Explain(const QuerySpec& spec) const;

  /// EXPLAIN ANALYZE through the serving layer: runs Query with tracing on
  /// and rebuilds the executed tree (a cache hit shows serve.cache_probe
  /// and no engine subtree; a miss the full run + admit). `result`, when
  /// non-null, receives the answer.
  PlanNode ExplainAnalyze(const QuerySpec& spec,
                          QueryResult* result = nullptr);

  /// Answers independent queries concurrently through the cache (threads
  /// <= 0 means DefaultThreads()). results[i] always answers specs[i]; the
  /// merged stats include the cache counters of every query.
  BatchQueryResult QueryBatch(std::span<const QuerySpec> specs,
                              int threads = 0);

  const QueryEngine& engine() const { return *engine_; }
  std::shared_ptr<const QueryEngine> shared_engine() const { return engine_; }
  ResultCache& cache() { return cache_; }
  CacheCounters cache_counters() const { return cache_.Counters(); }

 private:
  std::shared_ptr<const QueryEngine> engine_;
  ResultCache cache_;
};

}  // namespace utk

#endif  // UTK_SERVE_SERVER_H_
