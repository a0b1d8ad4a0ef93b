// Telemetry-calibrated cost-model planner behind Algorithm::kAuto.
//
// The heuristic ChooseAlgorithm (api/query.cc) knows two constants; this
// planner knows measured costs. tools/calibrate_planner.py fits one linear
// model per algorithm over a small feature vector (see PlannerFeatures)
// from the query-stats history (obs/history.h) and bench JSON, and writes
// a model file (bench/baselines/planner_model.json ships a calibrated
// one). Engines load the process-default model at construction; per query
// the model scores every eligible algorithm, picks the argmin, remembers
// the runner-up (so a `utk_planner_mispredict_total` counter can compare
// the chosen plan's ACTUAL time against the runner-up's estimate after the
// fact).
//
// The heuristic stays as the safe fallback: no model installed, a query
// outside the envelope the model was fit on, or an algorithm set the model
// has no coefficients for all fall back to ChooseAlgorithm — and every
// decision records WHY in PlanReason, which rides in QueryStats
// (planned_algorithm / plan_reason) and the history file.
#ifndef UTK_API_PLANNER_H_
#define UTK_API_PLANNER_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "api/plan.h"
#include "api/query.h"

namespace utk {

/// Why the planner chose what it chose. Values are persisted (QueryStats
/// gauges, history rows) — append only, never renumber.
enum class PlanReason : uint8_t {
  kNone = 0,              ///< no decision recorded
  kExplicit = 1,          ///< the spec forced an algorithm
  kHeuristicSmallN = 2,   ///< heuristic: tiny input, naive oracle wins
  kHeuristicDefault = 3,  ///< heuristic: RSA (UTK1) / JAA (UTK2) default
  kCostModel = 4,         ///< calibrated model picked the argmin
  kCostModelFallback = 5, ///< model installed but not applicable -> heuristic
};

const char* PlanReasonName(PlanReason reason);

/// The planner's full verdict for one query.
struct PlanDecision {
  Algorithm algorithm = Algorithm::kRsa;
  PlanReason reason = PlanReason::kNone;
  double est_ms = -1.0;       ///< model's estimate for `algorithm`; -1 none
  Algorithm runner_up = Algorithm::kAuto;  ///< kAuto = no runner-up
  double runner_up_ms = -1.0; ///< model's estimate for the runner-up
};

/// Planner feature vector, shared verbatim with calibrate_planner.py (the
/// Python fit and this C++ evaluation MUST compute identical features):
///   f0 = 1
///   f1 = n / 1000
///   f2 = band_est / 1000, band_est = min(n, k * ln(n+1)^(pref_dim-1))
///   f3 = f2 * k
///   f4 = f2^2 * region_width
inline constexpr int kPlannerFeatures = 5;
std::array<double, kPlannerFeatures> PlannerFeatures(int64_t n, int k,
                                                     int pref_dim,
                                                     double region_width);

/// The expected r-skyband size behind feature f2, exposed for cardinality
/// estimates in EXPLAIN trees.
int64_t EstimateBandSize(int64_t n, int k, int pref_dim);

/// The planner's region-size feature: mean box extent for a box region,
/// 1 / (1 + #constraints) for a general convex region.
double RegionWidth(const ConvexRegion& region);

/// Can `algo` answer (mode, n, pref_dim) at all? Mirrors
/// QueryEngine::Validate's mode rules and caps the naive oracle (LP
/// enumeration is quadratic in n and exponential in pref_dim) so a
/// miscalibrated model can never pick a plan that cannot finish.
bool AlgorithmEligible(Algorithm algo, QueryMode mode, int64_t n,
                       int pref_dim);

/// A calibrated per-algorithm linear cost model. Immutable once parsed;
/// share via shared_ptr<const CostModel>.
class CostModel {
 public:
  /// Parses the calibration JSON (see tools/calibrate_planner.py for the
  /// schema). Returns nullopt with a diagnostic on malformed input.
  static std::optional<CostModel> FromJson(const std::string& text,
                                          std::string* error = nullptr);
  static std::optional<CostModel> LoadFile(const std::string& path,
                                           std::string* error = nullptr);

  /// True when (n, k, pref_dim) lies inside the ranges the model was fit
  /// on; outside, estimates are extrapolation and the planner falls back.
  bool InEnvelope(int64_t n, int k, int pref_dim) const;

  /// Predicted milliseconds for `algo`, clamped >= 0; -1 when the model
  /// has no coefficients for it.
  double EstimateMs(Algorithm algo, int64_t n, int k, int pref_dim,
                    double region_width) const;

  /// Scores every eligible algorithm with coefficients and returns the
  /// argmin + runner-up. Returns nullopt when out of envelope or fewer
  /// than one candidate scores (callers fall back).
  std::optional<PlanDecision> Choose(QueryMode mode, int64_t n, int k,
                                     int pref_dim, double region_width) const;

  bool has(Algorithm algo) const {
    return coeffs_.count(static_cast<int>(algo)) != 0;
  }

 private:
  std::map<int, std::array<double, kPlannerFeatures>> coeffs_;
  int64_t n_min_ = 0, n_max_ = 0;
  int k_min_ = 0, k_max_ = 0;
  int d_min_ = 0, d_max_ = 0;
};

/// The one planning entry point every engine uses: explicit algorithms
/// pass through (kExplicit), a usable model decides (kCostModel), anything
/// else falls back to ChooseAlgorithm (kHeuristic* / kCostModelFallback).
/// `model` may be null.
PlanDecision DecidePlan(const CostModel* model, const QuerySpec& spec,
                        int64_t n, int pref_dim);

/// The algorithm-core subtree every engine's EXPLAIN shares: the filter
/// operator feeding the refine operator for `algo`, in span vocabulary
/// (filter.rskyband -> rsa.refine, filter.onion -> baseline.refine, ...),
/// with cardinality estimates from the k-skyband expectation. Engines hang
/// these under their own root (engine.run, live.run, ...).
std::vector<PlanNode> AlgorithmPlanChildren(Algorithm algo, QueryMode mode,
                                            int64_t n, int k, int pref_dim);

/// The one-line `detail` every EXPLAIN root carries for decision `d`:
/// "algo=RSA reason=cost-model k=10 n=100000" (est fields ride in the
/// node's numeric columns, not here).
std::string PlanDetail(const PlanDecision& d, int k, int64_t n);

/// Post-hoc model check, called by every engine once a planned query has
/// run: bumps utk_planner_model_decisions_total for each cost-model
/// decision and utk_planner_mispredict_total when the chosen plan ran
/// slower than the model's estimate for the runner-up (the model ranked
/// the two wrong for this query). No-op for heuristic/explicit decisions.
void NotePlanOutcome(const PlanDecision& decision, double actual_ms);

/// Process-default model, loaded lazily from $UTK_PLANNER_MODEL on first
/// use (nullptr when unset or unparseable) and overridable for tests and
/// the CLI. Engines capture it at construction.
void SetDefaultCostModel(std::shared_ptr<const CostModel> model);
std::shared_ptr<const CostModel> DefaultCostModel();

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
