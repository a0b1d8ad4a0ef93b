#include "span_trace.h"

#include <cstdio>

namespace perfbench {

int Tracer::Begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request_;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - t0_)
                      .count();
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int index) {
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0_)
                    .count();
  open_.pop_back();
  if (span.parent >= 0)
    spans_[static_cast<size_t>(span.parent)].child_ns +=
        span.end_ns - span.start_ns;
}

std::vector<double> Tracer::SelfMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_)
    if (name == span.name) out.push_back(span.SelfMs());
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"request\":%lld,\"self_us\":%.3f}}\n",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.start_ns) / 1e3, s.DurMs() * 1e3, i,
                 s.parent, static_cast<long long>(s.request),
                 s.SelfMs() * 1e3);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
