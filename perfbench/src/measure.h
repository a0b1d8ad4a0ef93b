// Statistics and reporting helpers of the end-to-end benchmark.
//
// Every timing is summarised by its median and its 90th percentile. The
// percentile is reported only when at least kMinTail samples lie beyond it
// (n >= 100 for p90); a run that cannot meet that rule fails instead of
// printing a percentile resting on a handful of samples.
#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinTail = 10;

/// Nearest-rank q-quantile: the sorted sample at rank ceil(q * n) (1-based).
/// Empty input gives 0.
double Quantile(std::vector<double> samples, double q);

/// True iff at least kMinTail of `n` samples rank strictly above the
/// nearest-rank q-quantile, i.e. n - ceil(q * n) >= kMinTail.
bool HasTail(std::size_t n, double q);

double Mean(const std::vector<double>& samples);

/// num / den, or 0 when den is 0 (a ratio whose base never occurred).
double Ratio(double num, double den);

/// Share of failed operations. The base is every operation the run
/// attempted: queries + update batches + catalog reopens.
double FailedFrac(int64_t failed, int64_t queries, int64_t batches,
                  int64_t reopens);

/// Seconds since `t0` on the steady clock.
inline double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One metric the benchmark can print: its name and unit, in the order of
/// BENCHMARK.json.
struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics (printed with --trace 0).
const std::vector<MetricDef>& EndToEndMetrics();
/// The per-layer metrics (printed with --trace 1). A metric that does not
/// apply to a workload reads 0.
const std::vector<MetricDef>& PerLayerMetrics();

/// What one workload run measured and checked.
struct RunResult {
  std::map<std::string, double> metrics;  ///< by MetricDef name
  int64_t queries = 0;
  int64_t batches = 0;
  int64_t reopens = 0;
  int64_t failed = 0;
  /// One line per failed operation or check (seed and request included).
  std::vector<std::string> failures;

  int64_t Attempted() const { return queries + batches + reopens; }
  void Fail(std::string why) {
    ++failed;
    failures.push_back(std::move(why));
  }
};

/// Sets `<prefix>_p50` and `<prefix>_p90` from `samples`; records a failure
/// when the percentile rule cannot be met.
void SetP50P90(RunResult& out, const std::string& prefix,
               const std::vector<double>& samples);

/// Checks of the helpers above and of the answer comparison, including a
/// deliberately wrong answer that must be flagged. Returns the number of
/// failed checks (each printed to stderr).
int RunSelfCheck();

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
