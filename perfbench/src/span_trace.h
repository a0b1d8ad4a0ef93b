// In-memory span recorder for the traced run. The benchmark opens a span
// around each public call it makes into a layer of the program, so the
// per-layer numbers need no change to the program itself. Spans carry a
// name, start, end, parent span and request id; they stay in memory and are
// written out as Chrome-trace JSON once the run ends. Single-threaded: the
// benchmark is one closed-loop client.
#ifndef PERFBENCH_SPAN_TRACE_H_
#define PERFBENCH_SPAN_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;       ///< index of the enclosing span, -1 at the root
  int64_t request = -1;  ///< request the span belongs to, -1 for set-up
  int64_t child_ns = 0;  ///< time covered by direct children

  double DurMs() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
  /// Duration minus the part of it the span's children cover.
  double SelfMs() const {
    return DurMs() - static_cast<double>(child_ns) / 1e6;
  }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Request id stamped on spans opened from now on.
  void set_request(int64_t request) { request_ = request; }

  int Begin(const char* name);
  void End(int span);

  const std::vector<Span>& spans() const { return spans_; }
  /// Self time (ms) of every span named `name`, in recording order.
  std::vector<double> SelfMs(const std::string& name) const;
  /// Writes the spans as Chrome-trace JSON; false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  int64_t request_ = -1;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
};

/// RAII span; a no-op when the tracer is disabled.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), span_(tracer.enabled() ? tracer.Begin(name) : -1) {}
  ~Scope() {
    if (span_ >= 0) tracer_.End(span_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int span_;
};

/// Runs `fn` inside a span named `name` of an enabled tracer; returns the
/// span's duration (ms).
template <typename Fn>
double Timed(Tracer& tracer, const char* name, Fn&& fn) {
  const int span = tracer.Begin(name);
  fn();
  tracer.End(span);
  return tracer.spans()[static_cast<size_t>(span)].DurMs();
}

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_TRACE_H_
