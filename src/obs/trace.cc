#include "obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>

#include "common/annotations.h"
#include "common/stats.h"

namespace utk {
namespace obs {

namespace internal {
std::atomic<uint32_t> g_tracing{0};
}  // namespace internal

void SetTracingEnabled(bool on) {
  if (on) {
    internal::g_tracing.fetch_or(1, std::memory_order_relaxed);
  } else {
    internal::g_tracing.fetch_and(~uint32_t{1}, std::memory_order_relaxed);
  }
}

TracingHold::TracingHold() {
  internal::g_tracing.fetch_add(2, std::memory_order_relaxed);
}

TracingHold::~TracingHold() {
  internal::g_tracing.fetch_sub(2, std::memory_order_relaxed);
}

int64_t NowMicros() {
  // One process-wide clock for every traced and reported time (never
  // destroyed: spans may close during static teardown).
  // utk-lint: allow(naked-new) intentional leak: the epoch timer must
  // outlive every static destructor that might still emit a span.
  static const Timer* epoch = new Timer();
  return static_cast<int64_t>(epoch->ElapsedMs() * 1000.0);
}

namespace {

// Per-thread cap; a runaway query that records more drops the excess and
// counts it, rather than growing without bound.
constexpr size_t kMaxEventsPerThread = size_t{1} << 20;

struct ThreadBuffer {
  Mutex mu;
  std::vector<TraceEvent> events UTK_GUARDED_BY(mu);
  int64_t dropped UTK_GUARDED_BY(mu) = 0;
  /// Spans ClearTrace discarded: events[i] is the thread's span number
  /// cleared + i (ThreadState::recorded counts them all).
  int64_t cleared UTK_GUARDED_BY(mu) = 0;
};

struct Collector {
  Mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers UTK_GUARDED_BY(mu);
  uint32_t next_tid UTK_GUARDED_BY(mu) = 0;
};

Collector& GlobalCollector() {
  // utk-lint: allow(naked-new) intentional leak: thread buffers flush
  // through the collector during static destruction.
  static Collector* c = new Collector();  // never destroyed
  return *c;
}

struct ThreadState {
  std::shared_ptr<ThreadBuffer> buffer;
  uint32_t tid = 0;
  int span_depth = 0;
  int query_depth = 0;    // open QueryScopes; the outermost owns the query
  int64_t recorded = 0;   // spans this thread ever buffered (SpanMark)

  ThreadState() : buffer(std::make_shared<ThreadBuffer>()) {
    Collector& c = GlobalCollector();
    MutexLock lock(c.mu);
    tid = c.next_tid++;
    c.buffers.push_back(buffer);
  }
};

ThreadState& TLS() {
  thread_local ThreadState state;
  return state;
}

std::atomic<double> g_slow_threshold_ms{-1.0};

Mutex g_sink_mu;
std::function<void(const std::string&)> g_slow_sink
    UTK_GUARDED_BY(g_sink_mu);  // empty => stderr

void EmitSlowLine(const std::string& line) {
  std::function<void(const std::string&)> sink;
  {
    MutexLock lock(g_sink_mu);
    sink = g_slow_sink;
  }
  if (sink) {
    sink(line);
  } else {
    std::fprintf(stderr, "%s\n", line.c_str());
  }
}

}  // namespace

void SpanGuard::Open(const char* name, int64_t arg) {
  name_ = name;
  arg_ = arg;
  start_us_ = NowMicros();
  ++TLS().span_depth;
  active_ = true;
}

void SpanGuard::Close() {
  int64_t end_us = NowMicros();
  ThreadState& tls = TLS();
  int depth = --tls.span_depth;
  int64_t dur = end_us - start_us_;
  {
    MutexLock lock(tls.buffer->mu);
    if (tls.buffer->events.size() < kMaxEventsPerThread) {
      tls.buffer->events.push_back(
          TraceEvent{name_, start_us_, dur, tls.tid, depth, arg_});
      ++tls.recorded;
    } else {
      ++tls.buffer->dropped;
    }
  }
}

std::string TraceJson() {
  // Copy buffers out under their locks, then serialize unlocked.
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    Collector& c = GlobalCollector();
    MutexLock lock(c.mu);
    buffers = c.buffers;
  }
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& buf : buffers) {
    MutexLock lock(buf->mu);
    for (const TraceEvent& e : buf->events) {
      if (!first) out << ",";
      first = false;
      out << "{\"name\":\"" << e.name << "\",\"ph\":\"X\",\"ts\":" << e.ts_us
          << ",\"dur\":" << e.dur_us << ",\"pid\":1,\"tid\":" << e.tid
          << ",\"args\":{\"depth\":" << e.depth;
      if (e.arg >= 0) out << ",\"value\":" << e.arg;
      out << "}}";
    }
  }
  out << "]}";
  return out.str();
}

void ClearTrace() {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    Collector& c = GlobalCollector();
    MutexLock lock(c.mu);
    buffers = c.buffers;
  }
  for (const auto& buf : buffers) {
    MutexLock lock(buf->mu);
    buf->cleared += static_cast<int64_t>(buf->events.size());
    buf->events.clear();
    buf->dropped = 0;
  }
}

size_t TraceEventCount() {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    Collector& c = GlobalCollector();
    MutexLock lock(c.mu);
    buffers = c.buffers;
  }
  size_t n = 0;
  for (const auto& buf : buffers) {
    MutexLock lock(buf->mu);
    n += buf->events.size();
  }
  return n;
}

int64_t TraceDroppedCount() {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    Collector& c = GlobalCollector();
    MutexLock lock(c.mu);
    buffers = c.buffers;
  }
  int64_t n = 0;
  for (const auto& buf : buffers) {
    MutexLock lock(buf->mu);
    n += buf->dropped;
  }
  return n;
}

std::vector<TraceEvent> TraceSnapshot() {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    Collector& c = GlobalCollector();
    MutexLock lock(c.mu);
    buffers = c.buffers;
  }
  std::vector<TraceEvent> all;
  for (const auto& buf : buffers) {
    MutexLock lock(buf->mu);
    all.insert(all.end(), buf->events.begin(), buf->events.end());
  }
  return all;
}

int64_t SpanMark() { return TLS().recorded; }

std::vector<TraceEvent> SpansSince(int64_t mark) {
  ThreadBuffer& buf = *TLS().buffer;
  MutexLock lock(buf.mu);
  const int64_t size = static_cast<int64_t>(buf.events.size());
  const int64_t begin = std::clamp(mark - buf.cleared, int64_t{0}, size);
  return std::vector<TraceEvent>(buf.events.begin() + begin,
                                 buf.events.end());
}

void SetSlowQueryThresholdMs(double ms) {
  g_slow_threshold_ms.store(ms, std::memory_order_relaxed);
}

double SlowQueryThresholdMs() {
  return g_slow_threshold_ms.load(std::memory_order_relaxed);
}

void SetSlowQuerySink(std::function<void(const std::string&)> sink) {
  MutexLock lock(g_sink_mu);
  g_slow_sink = std::move(sink);
}

QueryScope::QueryScope(const char* label) : label_(label) {
  ThreadState& tls = TLS();
  owner_ = tls.query_depth++ == 0;
  if (owner_) mark_ = tls.recorded;
}

QueryScope::~QueryScope() { --TLS().query_depth; }

std::vector<std::pair<const char*, int64_t>> QueryScope::TopSpans(
    size_t limit) const {
  // Linear-scanned: a query touches a couple dozen distinct names at most.
  std::vector<std::pair<const char*, int64_t>> totals;
  if (!owner_) return totals;
  for (const TraceEvent& e : SpansSince(mark_)) {
    auto it = std::find_if(totals.begin(), totals.end(), [&](const auto& t) {
      // By content: one name may be a literal in several translation units.
      return std::strcmp(t.first, e.name) == 0;
    });
    if (it == totals.end()) {
      totals.emplace_back(e.name, e.dur_us);
    } else {
      it->second += e.dur_us;
    }
  }
  std::stable_sort(totals.begin(), totals.end(), [](const auto& a,
                                                    const auto& b) {
    return a.second > b.second;
  });
  if (totals.size() > limit) totals.resize(limit);
  return totals;
}

void QueryScope::Finish(const QueryStats& stats,
                        const std::function<std::string()>& fingerprint) const {
  if (!owner_) return;
  double threshold = SlowQueryThresholdMs();
  if (threshold < 0 || stats.elapsed_ms < threshold) return;

  // Without tracing on, there are no spans and the line still carries
  // fingerprint + stats.
  const std::vector<std::pair<const char*, int64_t>> top = TopSpans(3);
  std::ostringstream line;
  line << "slow-query label=" << label_ << " fp=" << fingerprint()
       << " elapsed_ms=" << stats.elapsed_ms << " top_spans=[";
  for (size_t i = 0; i < top.size(); ++i) {
    if (i) line << " ";
    char ms[32];
    std::snprintf(ms, sizeof(ms), "%.3f",
                  static_cast<double>(top[i].second) / 1000.0);
    line << top[i].first << ":" << ms;
  }
  line << "] stats={" << stats.ToString() << "}";
  EmitSlowLine(line.str());
}

}  // namespace obs
}  // namespace utk
