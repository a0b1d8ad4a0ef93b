// EXPLAIN / EXPLAIN ANALYZE plan trees.
//
// A PlanNode tree is the introspectable answer to "what will (or did) this
// query execute, and why?". EXPLAIN builds the tree statically from the
// planner's decision and the engine's cardinality estimates; EXPLAIN
// ANALYZE runs the query with span tracing on (src/obs/trace.h), rebuilds
// the *executed* operator tree from the spans its thread recorded, and
// copies the static estimates onto it so estimated and actual columns sit
// side by side per operator.
//
// Node `op` names reuse the span naming scheme `<subsystem>.<phase>`
// (DESIGN.md §12) — an ANALYZE tree is structurally the span tree, so the
// two vocabularies must match by construction.
//
// RenderPlan() is deterministic byte-for-byte for a given tree (the golden
// test in tests/test_explain.cc pins it): fields that are unset (negative)
// are omitted, milliseconds print with three decimals.
#ifndef UTK_API_PLAN_H_
#define UTK_API_PLAN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "api/query.h"
#include "obs/trace.h"

namespace utk {

/// One operator in an EXPLAIN / EXPLAIN ANALYZE tree.
struct PlanNode {
  std::string op;      ///< operator name, span vocabulary ("engine.run")
  std::string detail;  ///< free-form annotation ("algo=RSA reason=...")
  int64_t est_rows = -1;    ///< estimated cardinality; -1 = not estimated
  int64_t actual_rows = -1; ///< measured cardinality (span arg); -1 = none
  double actual_ms = -1.0;  ///< measured duration; -1 = not measured
  std::vector<PlanNode> children;

  /// Total measured time of direct children (skips unmeasured ones) —
  /// the coverage numerator for "how much of this operator is explained
  /// by its children".
  double ChildActualMs() const;
  /// Nodes in the subtree, this one included.
  int64_t TreeSize() const;
};

/// Deterministic text rendering: one line per node, box-drawing indents,
/// `op  (detail)  [est_rows=… rows=… ms=…]` with unset fields
/// omitted and an empty bracket section dropped entirely.
std::string RenderPlan(const PlanNode& root);

/// Rebuilds the executed operator tree from one thread's spans in close
/// order (obs::SpansSince), nested by the depth each span recorded at open.
/// The last span closed is the root (an empty PlanNode when there is
/// none). actual_ms is the span duration, actual_rows its arg.
PlanNode PlanFromTrace(const std::vector<obs::TraceEvent>& events);

/// Copies est_rows / detail from `reference` onto `tree` by
/// operator name (first unclaimed reference node with the same op wins, in
/// DFS order), so an ANALYZE tree carries the EXPLAIN estimates of the
/// operators that actually ran.
void AnnotateEstimates(PlanNode* tree, const PlanNode& reference);

/// Merges same-op sibling runs into one aggregate node per op: actual_ms /
/// actual_rows / est_rows sum over the merged nodes (staying -1 when every
/// source was unset), detail becomes "xN" (keeping the first node's detail
/// as a prefix when present), and the merged children coalesce recursively.
/// EXPLAIN ANALYZE trees carry one node per recorded span — hundreds of
/// kspr.decide / rsa.candidate siblings — and this is the readable rollup
/// the CLI prints. Single-occurrence ops pass through unchanged, so
/// coalescing is idempotent and leaves static EXPLAIN trees alone.
PlanNode CoalescePlan(const PlanNode& root);

/// The ANALYZE routine shared by every engine and the Server: holds tracing
/// on (obs::TracingHold), answers the query with `run` on this thread,
/// rebuilds the executed tree from the spans this thread recorded meanwhile,
/// and copies `static_plan`'s estimates onto it. When no spans were
/// recorded (e.g. compiled out), returns `static_plan` with actual_ms set
/// on the root — never an empty tree. `result`, when non-null, receives the
/// answer. Safe to call from several threads at once.
PlanNode AnalyzeWithTrace(const PlanNode& static_plan,
                          const std::function<QueryResult()>& run,
                          QueryResult* result);

}  // namespace utk

#endif  // UTK_API_PLAN_H_
