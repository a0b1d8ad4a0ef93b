// utk_perfbench — the end-to-end benchmark program.
//
//   utk_perfbench --workload ind-filter|anti-refine|serve-live --seed N
//                 --seconds S --trace 0|1 [--trace-out FILE]
//                 [--work-dir DIR] [--inject-fault]
//   utk_perfbench --self-check
//
// Prints a line recording the pinned environment, then as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Any failed
// operation or answer check is printed to stderr with the seed and request,
// and makes the exit code 1. perfbench/run.py builds and runs this binary.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "api/planner.h"
#include "common/parallel.h"
#include "exec/simd.h"
#include "measure.h"
#include "span_trace.h"
#include "workloads.h"

namespace {

using perfbench::MetricDef;
using perfbench::RunResult;

int Usage(const char* why) {
  std::fprintf(stderr,
               "utk_perfbench: %s\nusage: utk_perfbench --workload "
               "ind-filter|anti-refine|serve-live --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE] [--work-dir DIR] "
               "[--inject-fault] | --self-check\n",
               why);
  return 2;
}

// Pins the three environment knobs the library reads, before anything reads
// them: the SIMD tier (best supported), the pool width (4 lanes; only the
// traced pool diagnostic uses it) and the planner (no cost model, so kAuto
// resolves by the built-in heuristic).
void PinEnvironment() {
  ::setenv("UTK_SIMD", "auto", 1);
  ::setenv("UTK_THREADS", "4", 1);
  ::unsetenv("UTK_PLANNER_MODEL");
}

void PrintEnvironment() {
  std::printf(
      "env UTK_SIMD=auto (active %s) UTK_THREADS=4 (default lanes %d) "
      "UTK_PLANNER_MODEL unset (planner %s)\n",
      utk::SimdTierName(utk::ActiveSimdTier()), utk::DefaultThreads(),
      utk::DefaultCostModel() == nullptr ? "heuristic" : "cost-model");
}

void PrintResult(const RunResult& r, bool trace) {
  const bool correct = r.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<long long>(r.Attempted()),
              static_cast<long long>(r.failed));
  const auto& defs =
      trace ? perfbench::PerLayerMetrics() : perfbench::EndToEndMetrics();
  for (size_t i = 0; i < defs.size(); ++i) {
    const MetricDef& d = defs[i];
    const auto it = r.metrics.find(d.name);
    const double v = it == r.metrics.end() ? 0.0 : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", d.name, v, d.unit);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  PinEnvironment();
  std::string workload, trace_out;
  perfbench::RunOptions opt;
  opt.work_dir = ".";
  int trace = -1;
  bool have_seed = false, have_seconds = false, self_check = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--self-check") {
      self_check = true;
    } else if (a == "--inject-fault") {
      opt.inject_fault = true;
    } else if ((a == "--workload" || a == "--seed" || a == "--seconds" ||
                a == "--trace" || a == "--trace-out" || a == "--work-dir") &&
               (v = value()) != nullptr) {
      if (a == "--workload") workload = v;
      if (a == "--trace-out") trace_out = v;
      if (a == "--work-dir") opt.work_dir = v;
      if (a == "--seed") {
        opt.seed = std::strtoull(v, nullptr, 10);
        have_seed = true;
      }
      if (a == "--seconds") {
        opt.seconds = std::atof(v);
        have_seconds = opt.seconds > 0.0;
      }
      if (a == "--trace") trace = std::atoi(v);
    } else {
      return Usage(("bad argument " + a).c_str());
    }
  }

  const int broken = perfbench::RunSelfCheck();
  if (self_check || broken != 0) {
    std::printf("self-check: %d failed\n", broken);
    return broken == 0 ? 0 : 1;
  }
  if (!have_seed || !have_seconds || (trace != 0 && trace != 1))
    return Usage("--seed, --seconds > 0 and --trace 0|1 are required");

  perfbench::RunResult (*run)(const perfbench::RunOptions&,
                              perfbench::Tracer&) = nullptr;
  if (workload == "ind-filter") run = perfbench::RunIndFilter;
  if (workload == "anti-refine") run = perfbench::RunAntiRefine;
  if (workload == "serve-live") run = perfbench::RunServeLive;
  if (run == nullptr)
    return Usage(("unknown workload '" + workload + "'").c_str());

  PrintEnvironment();
  perfbench::Tracer tracer(trace == 1);
  RunResult r = run(opt, tracer);
  r.metrics["failed_frac"] =
      perfbench::FailedFrac(r.failed, r.queries, r.batches, r.reopens);
  if (trace == 0) {
    for (const MetricDef& d : perfbench::EndToEndMetrics())
      if (r.metrics.count(d.name) == 0)
        r.Fail(std::string("end-to-end metric ") + d.name + " not measured");
  }
  if (trace == 1 && !trace_out.empty()) {
    if (tracer.WriteJson(trace_out))
      std::printf("trace: %zu spans written to %s\n", tracer.spans().size(),
                  trace_out.c_str());
    else
      r.Fail("cannot write trace to " + trace_out);
  }
  for (const std::string& f : r.failures)
    std::fprintf(stderr, "FAILED %s: %s\n", workload.c_str(), f.c_str());
  std::fflush(stderr);
  PrintResult(r, trace == 1);
  return r.failed == 0 ? 0 : 1;
}
