// The planner behind Algorithm::kAuto, and the plan metadata every engine
// shares.
//
// kAuto is a fixed rule: RSA for UTK1 (Section 4) and JAA for UTK2
// (Section 5), whatever the input size. An explicit algorithm in the spec
// always passes through. Every decision records WHY in PlanReason, which
// rides in QueryStats (planned_algorithm / plan_reason), EXPLAIN roots and
// the history file.
#ifndef UTK_API_PLANNER_H_
#define UTK_API_PLANNER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "api/plan.h"
#include "api/query.h"

namespace utk {

/// Why the planner chose what it chose. Values are persisted (QueryStats
/// gauges, history rows) — append only, never renumber. Only kExplicit and
/// kHeuristicDefault are produced today; the retired values stay so that
/// older history files still decode and print.
enum class PlanReason : uint8_t {
  kNone = 0,              ///< no decision recorded
  kExplicit = 1,          ///< the spec forced an algorithm
  kHeuristicSmallN = 2,   ///< retired: tiny input, naive oracle
  kHeuristicDefault = 3,  ///< kAuto: RSA (UTK1) / JAA (UTK2)
  kCostModel = 4,         ///< retired: calibrated cost model's argmin
  kCostModelFallback = 5, ///< retired: cost model not applicable
};

const char* PlanReasonName(PlanReason reason);

/// The planner's full verdict for one query.
struct PlanDecision {
  Algorithm algorithm = Algorithm::kRsa;
  PlanReason reason = PlanReason::kNone;
};

/// The expected k-skyband size k * ln(n+1)^(pref_dim-1), clamped to
/// [min(k, n), n]: the cardinality estimate in EXPLAIN trees.
int64_t EstimateBandSize(int64_t n, int k, int pref_dim);

/// The history row's region-size column: mean box extent for a box region,
/// 1 / (1 + #constraints) for a general convex region.
double RegionWidth(const ConvexRegion& region);

/// The one planning entry point every engine uses: an explicit algorithm
/// passes through (kExplicit); kAuto runs RSA for UTK1 and JAA for UTK2
/// (kHeuristicDefault).
PlanDecision DecidePlan(const QuerySpec& spec);

/// The algorithm-core subtree every engine's EXPLAIN shares: the filter
/// operator feeding the refine operator for `algo`, in span vocabulary
/// (filter.rskyband -> rsa.refine, filter.onion -> baseline.refine, ...),
/// with cardinality estimates from the k-skyband expectation. Engines hang
/// these under their own root (engine.run, live.run, ...).
std::vector<PlanNode> AlgorithmPlanChildren(Algorithm algo, QueryMode mode,
                                            int64_t n, int k, int pref_dim);

/// The one-line `detail` every EXPLAIN root carries for decision `d`:
/// "algo=RSA reason=heuristic-default k=10 n=100000".
std::string PlanDetail(const PlanDecision& d, int k, int64_t n);

/// Always nullptr: there is no cost model. Kept only because perfbench
/// prints it in its environment line; ROADMAP.md item 9 deletes that call
/// and this stub together.
constexpr std::nullptr_t DefaultCostModel() { return nullptr; }

// ---------------------------------------------------------------------------
// Query-history glue (obs/history.h is api-free; the conversion from
// QuerySpec/QueryResult to a HistoryRecord lives here).
// ---------------------------------------------------------------------------

/// RAII marker for one top-level query. QueryEngine::Run and Server::Query
/// each open one; only the outermost scope on the thread appends a history
/// row, so a query served through a Server's miss path is one row.
class QueryHistoryScope {
 public:
  QueryHistoryScope();
  ~QueryHistoryScope();
  QueryHistoryScope(const QueryHistoryScope&) = delete;
  QueryHistoryScope& operator=(const QueryHistoryScope&) = delete;

  /// Appends one history row iff this scope is outermost, a global writer
  /// is installed (obs::SetQueryHistory), and the result ran (result.ok).
  /// `n` / `pref_dim` are the catalog features the planner saw.
  void Record(const QuerySpec& spec, const QueryResult& result, int64_t n,
              int pref_dim) const;

 private:
  bool owner_ = false;
  int64_t t0_us_ = 0;
};

}  // namespace utk

#endif  // UTK_API_PLANNER_H_
