// Execution counters and wall-clock timing shared by all UTK algorithms.
//
// Every algorithm fills a QueryStats so benchmarks can report the same
// breakdowns the paper discusses (candidate counts, LP calls, arrangement
// cells, memory estimate).
#ifndef UTK_COMMON_STATS_H_
#define UTK_COMMON_STATS_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

namespace utk {

/// Counters describing one UTK query execution.
struct QueryStats {
  int64_t candidates = 0;        ///< records surviving the filtering step
  /// LP solves charged to the query: drill and onion-margin LPs, plus every
  /// Chebyshev solve (FindInteriorPoint) of a base cell (BaseCell) and of
  /// each cell side neither the cached ball nor the cell's vertices settle.
  /// A side the vertices miss or certify interior and a drill taken at a
  /// vertex solve nothing, so they are not counted.
  int64_t lp_calls = 0;
  int64_t rdom_tests = 0;        ///< r-dominance tests performed
  int64_t cells_created = 0;     ///< arrangement leaves materialized
  int64_t halfspaces_inserted = 0;  ///< half-space insertions (all indices)
  int64_t drills = 0;            ///< drill top-k probes
  int64_t verify_calls = 0;      ///< recursive Verify/Partition invocations
  int64_t heap_pops = 0;         ///< BBS heap pops during filtering
  int64_t peak_bytes = 0;        ///< estimated peak arrangement memory
  // Serving-layer counters (src/serve): how the result was obtained. An
  // engine-only execution leaves all four at zero; the Server sets exactly
  // one of hits/misses to 1 per query and charges evictions to the query
  // whose admission caused them.
  int64_t cache_hits = 0;           ///< exact fingerprint cache hits
  /// Always 0: the serving cache reuses exact matches only. Kept so the
  /// CSV layout (history files) stays stable.
  int64_t cache_semantic_hits = 0;
  int64_t cache_misses = 0;         ///< full engine executions
  int64_t cache_evictions = 0;      ///< LRU evictions during admission
  /// Dataset epoch the answer was computed at (QueryEngine::epoch()): 0 for
  /// immutable engines, the number of committed update batches for a live
  /// engine (src/live/). A gauge, not a counter — Merge takes the max.
  int64_t epoch = 0;
  /// Always 0, like mapped_bytes: no engine answers off a mapped segment
  /// (recovery materializes into a LiveEngine). Both are kept so the CSV
  /// layout (history files) stays stable.
  int64_t rows_materialized = 0;
  int64_t mapped_bytes = 0;
  // Planner provenance (src/api/planner.h): the Algorithm enum value the
  // planner resolved kAuto to (0 = unset / explicit kAuto never runs) and
  // the PlanReason enum value saying WHY (explicit or the kAuto rule).
  // Both are gauges — Merge takes the max, so a batch total reports the
  // "most informed" decision seen rather than a meaningless sum.
  int64_t planned_algorithm = 0;  ///< Algorithm the planner chose (enum value)
  int64_t plan_reason = 0;        ///< PlanReason behind the choice (enum value)
  /// Always 0: refinement runs on one thread, so there are no refinement
  /// tasks to count. Ignored / kept only because perfbench reads them
  /// (ROADMAP item 9), and so the CSV layout (history files) stays stable.
  int64_t refine_tasks = 0;
  int64_t refine_task_us = 0;
  int64_t refine_critical_us = 0;
  double elapsed_ms = 0.0;       ///< wall-clock time of the whole query

  QueryStats& operator+=(const QueryStats& o);

  /// Merges per-part stats into one: counters (and elapsed_ms) sum, peak
  /// gauges take the max. This is the one aggregation rule for the one
  /// fan-out, AnswerBatch over a batch's queries (QueryEngine::RunBatch
  /// and Server::QueryBatch). An empty span merges to default-constructed
  /// stats.
  static QueryStats Merge(std::span<const QueryStats> parts);

  std::string ToString() const;

  /// CSV serialization: a fixed header and one row per QueryStats, every
  /// counter in declaration order, elapsed_ms last at full precision.
  /// FromCsvRow parses a row back; it returns nullopt on a malformed row
  /// (wrong field count or a non-numeric field).
  static std::string CsvHeader();
  std::string CsvRow() const;
  static std::optional<QueryStats> FromCsvRow(const std::string& row);
};

/// Simple wall-clock stopwatch (milliseconds).
class Timer {
 public:
  Timer() : start_(Clock::now()) {}
  void Reset() { start_ = Clock::now(); }
  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace utk

#endif  // UTK_COMMON_STATS_H_
