// QueryEngine — the one query pipeline behind both engines: utk::Engine
// (api/engine.h) and utk::LiveEngine (live/). Callers that only *submit*
// queries (serve/server.h, utk_cli) depend on this interface, so either
// engine can back them.
//
// Run is a template method, the same for every engine:
//
//   Run = Validate -> Decide -> Execute -> stamp/record
//
//   1. open the engine's root span (engine.run / live.run), the slow-query
//      scope and the history scope;
//   2. apply the rejection rules against size(), the LIVE record count;
//   3. plan once (DecidePlan);
//   4. Execute(spec, decision) — the only step an engine supplies;
//   5. stamp epoch / planned_algorithm / plan_reason, count
//      utk_engine_queries_total + utk_engine_query_latency_us, emit the
//      slow-log line and the history row.
//
// Steps 2-4 and the epoch stamp run inside ReadPinned, so a mutating
// engine (LiveEngine) answers a whole query at one epoch. Explain has the
// same shape with ExplainChildren in place of Execute. Implementations must
// be const-thread-safe: every query entry point may run concurrently.
#ifndef UTK_API_QUERY_ENGINE_H_
#define UTK_API_QUERY_ENGINE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "api/plan.h"
#include "api/planner.h"
#include "api/query.h"
#include "common/types.h"

namespace utk {

/// Results of a RunBatch / Server::QueryBatch call, input-ordered.
struct BatchQueryResult {
  std::vector<QueryResult> results;  ///< results[i] answers specs[i]
  QueryStats total;                  ///< stats merged over all results
  int failed = 0;                    ///< number of results with !ok
};

/// Answers independent specs concurrently (threads <= 0 means
/// DefaultThreads()); results[i] answers specs[i] whatever the thread count.
BatchQueryResult AnswerBatch(
    std::span<const QuerySpec> specs, int threads,
    const std::function<QueryResult(const QuerySpec&)>& answer);

class QueryEngine {
 public:
  virtual ~QueryEngine() = default;

  /// The dataset queries are answered over (data[i].id == i invariant).
  virtual const Dataset& data() const = 0;

  /// The plain top-k for reduced weight vector `w`.
  virtual std::vector<int32_t> TopK(const Vec& w, int k) const = 0;

  /// Version of the dataset answers are computed against: 0 forever for
  /// immutable engines, the committed update batch count for a live one.
  /// The serving layer tags cached results with it (serve/result_cache.h).
  virtual uint64_t epoch() const { return 0; }

  /// LIVE records (tombstones excluded: what Validate, the planner and the
  /// history row's `n` see) and attribute dimensionality. Neither touches
  /// data(), so both are safe during live updates and lazy datasets.
  virtual int64_t size() const = 0;
  virtual int dim() const = 0;
  int pref_dim() const { return PrefDim(dim()); }

  /// The planning verdict for `spec` (api/planner.h) and its algorithm.
  PlanDecision Decide(const QuerySpec& spec) const { return DecidePlan(spec); }
  Algorithm Plan(const QuerySpec& spec) const {
    return Decide(spec).algorithm;
  }

  /// The rejection rules Run applies, without running: nullopt when `spec`
  /// would execute, otherwise the exact diagnostic Run would return.
  std::optional<std::string> Validate(const QuerySpec& spec) const;

  /// Answers one query; invalid specs come back with ok == false and a
  /// diagnostic, never a crash.
  QueryResult Run(const QuerySpec& spec) const;

  /// EXPLAIN: the static operator tree `spec` would execute — the root op
  /// with the decision in its detail (the diagnostic for a rejected spec)
  /// over ExplainChildren, in span vocabulary (DESIGN.md §12).
  PlanNode Explain(const QuerySpec& spec) const;

  /// EXPLAIN ANALYZE: runs the query traced and returns the executed
  /// operator tree with Explain's estimates grafted on (AnalyzeWithTrace).
  PlanNode ExplainAnalyze(const QuerySpec& spec,
                          QueryResult* result = nullptr) const;

  /// AnswerBatch over Run: results[i] equals Run(specs[i]).
  BatchQueryResult RunBatch(std::span<const QuerySpec> specs,
                            int threads = 0) const;

 protected:
  /// `root_op` (a static string) names Run's root span and Explain's root.
  explicit QueryEngine(const char* root_op) : root_op_(root_op) {}

  /// Answers a validated `spec` with the algorithm `decision` chose: ok,
  /// mode, algorithm, answer and execution stats; Run stamps the rest.
  virtual QueryResult Execute(const QuerySpec& spec,
                              const PlanDecision& decision) const = 0;

  /// The static counterpart of Execute: the subtree under Explain's root.
  /// Defaults to the planned algorithm's filter/refine subtree.
  virtual std::vector<PlanNode> ExplainChildren(
      const QuerySpec& spec, const PlanDecision& decision) const;

  /// Why the engine's dataset cannot be queried (ValidateDataset's
  /// diagnostic), or nullopt; Validate returns it after the empty check.
  virtual std::optional<std::string> DataError() const { return std::nullopt; }

  /// Runs `body` (Run's steps 2-4 + epoch stamp) with the catalog pinned;
  /// LiveEngine holds its shared lock, immutable engines need nothing.
  virtual void ReadPinned(const std::function<void()>& body) const {
    body();
  }

 private:
  /// Validate's rules; on success fills `decision` (the rules need it).
  std::optional<std::string> Prepare(const QuerySpec& spec,
                                     PlanDecision* decision) const;

  const char* root_op_;
};

}  // namespace utk

#endif  // UTK_API_QUERY_ENGINE_H_
