// Structured tracer: RAII span guards forming per-query span trees, plus a
// threshold-gated slow-query log.
//
// Usage at an instrumentation site:
//
//   void Engine::Run(...) {
//     UTK_SPAN("engine.run");            // closes when the scope exits
//     ...
//     { UTK_SPAN_VAL("filter.rskyband", band.size()); ... }
//   }
//
// Span names follow `<subsystem>.<phase>` (DESIGN.md §12). Spans opened on
// the same thread nest by scope; each event records its depth at open time,
// and per-thread nesting is what Perfetto uses to rebuild the tree. Worker
// threads (RunBatch, QueryBatch) record onto their own thread track.
//
// Overhead contract:
//  - Compile-time off (-DUTK_OBS_ENABLED=0): UTK_SPAN expands to ((void)0);
//    zero code at the call site.
//  - Runtime off (default): one relaxed atomic load per span site. The
//    bench_obs gate holds this under 1% on the query path.
//  - Runtime on: two clock reads + one buffered event per span; spans are
//    placed on per-query phases, never on per-record inner loops, so the
//    gate holds end-to-end overhead under 10%.
//
// Export: TraceJson() is Chrome trace-event JSON ("X" complete events) —
// load it at https://ui.perfetto.dev or chrome://tracing. Buffers are
// per-thread (own mutex each) and capped; events past the cap are counted
// in TraceDroppedCount() instead of silently vanishing.
#ifndef UTK_OBS_TRACE_H_
#define UTK_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace utk {
struct QueryStats;
}

// Compile-time master switch. Shipped default is on: runtime-off overhead is
// one relaxed load per site. Build with -DUTK_OBS_ENABLED=0 to compile every
// span site out entirely.
#ifndef UTK_OBS_ENABLED
#define UTK_OBS_ENABLED 1
#endif

namespace utk {
namespace obs {

namespace internal {
extern std::atomic<bool> g_tracing_enabled;
}  // namespace internal

/// Runtime switch for span recording. Off by default.
void SetTracingEnabled(bool on);
inline bool TracingEnabled() {
  return internal::g_tracing_enabled.load(std::memory_order_relaxed);
}

/// Microseconds on the process-wide monotonic clock (a single utk::Timer
/// started at first use — the same clock QueryStats::elapsed_ms uses).
int64_t NowMicros();

/// One closed span, as recorded. `arg` is an optional numeric payload
/// (row/candidate counts); negative means absent.
struct TraceEvent {
  const char* name;  ///< static string at the span site
  int64_t ts_us;     ///< open time
  int64_t dur_us;    ///< close - open
  uint32_t tid;      ///< dense per-thread id (registration order)
  int depth;         ///< nesting depth at open (0 = top level)
  int64_t arg;       ///< optional payload; -1 = none
};

/// RAII span. When tracing is off at open time this is a single relaxed
/// load; the span stays inert even if tracing flips on mid-scope.
class SpanGuard {
 public:
  explicit SpanGuard(const char* name) {
    if (TracingEnabled()) Open(name, -1);
  }
  SpanGuard(const char* name, int64_t arg) {
    if (TracingEnabled()) Open(name, arg);
  }
  ~SpanGuard() {
    if (active_) Close();
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  void Open(const char* name, int64_t arg);
  void Close();

  const char* name_ = nullptr;
  int64_t start_us_ = 0;
  int64_t arg_ = -1;
  bool active_ = false;
};

#define UTK_OBS_CONCAT_(a, b) a##b
#define UTK_OBS_CONCAT(a, b) UTK_OBS_CONCAT_(a, b)
#if UTK_OBS_ENABLED
#define UTK_SPAN(name) \
  ::utk::obs::SpanGuard UTK_OBS_CONCAT(utk_span_, __LINE__)(name)
#define UTK_SPAN_VAL(name, value) \
  ::utk::obs::SpanGuard UTK_OBS_CONCAT(utk_span_, __LINE__)(name, (value))
#else
#define UTK_SPAN(name) ((void)0)
#define UTK_SPAN_VAL(name, value) ((void)0)
#endif

/// Chrome trace-event JSON of everything recorded since ClearTrace().
std::string TraceJson();
/// Drops all recorded events (buffers stay registered) and zeroes the
/// dropped-event count.
void ClearTrace();
/// Events currently buffered across all threads.
size_t TraceEventCount();
/// Events discarded because a thread hit its buffer cap.
int64_t TraceDroppedCount();
/// Copy of all buffered events, for tests. Order is per-thread recording
/// order (i.e. close order within a thread), threads concatenated.
std::vector<TraceEvent> TraceSnapshot();

// ---------------------------------------------------------------------------
// Slow-query log: each top-level query opens a QueryLogScope; closed spans
// on the same thread feed per-name duration totals into the innermost..
// actually the *outermost* active scope (nested scopes are inert, so a
// Server query that calls into Engine internals logs once). Finish() emits
// one line to the sink when the query's elapsed time crosses the threshold:
//
//   slow-query label=<label> fp=<fingerprint> elapsed_ms=<t>
//     top_spans=[name:ms name:ms name:ms] stats={...}   (one line)
//
// The fingerprint callback runs only on emission — keep it lazy.
// ---------------------------------------------------------------------------

/// Queries at or above this many milliseconds are logged. Negative disables
/// (the default).
void SetSlowQueryThresholdMs(double ms);
double SlowQueryThresholdMs();
/// Where slow-query lines go. Default writes to stderr. Pass nullptr to
/// restore the default.
void SetSlowQuerySink(std::function<void(const std::string&)> sink);

class QueryLogScope {
 public:
  explicit QueryLogScope(const char* label);
  ~QueryLogScope();
  QueryLogScope(const QueryLogScope&) = delete;
  QueryLogScope& operator=(const QueryLogScope&) = delete;

  /// Call once, after stats are final. Emits iff this scope is the
  /// outermost on its thread and stats.elapsed_ms >= threshold.
  void Finish(const QueryStats& stats,
              const std::function<std::string()>& fingerprint);

 private:
  const char* label_;
  bool owner_ = false;
};

}  // namespace obs
}  // namespace utk

#endif  // UTK_OBS_TRACE_H_
