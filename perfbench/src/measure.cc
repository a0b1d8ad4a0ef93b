#include "measure.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "checks.h"

namespace perfbench {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

bool HasTail(std::size_t n, double q) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n >= rank + kMinTail;
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double FailedFrac(int64_t failed, int64_t queries, int64_t batches,
                  int64_t reopens) {
  return Ratio(static_cast<double>(failed),
               static_cast<double>(queries + batches + reopens));
}

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},       {"utk1_ms_p50", "ms"}, {"utk1_ms_p90", "ms"},
      {"ops_per_s", "1/s"},   {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"qps", "1/s"},
      {"utk2_ms_p50", "ms"},
      {"utk2_ms_p90", "ms"},
      {"update_ms_p50", "ms"},
      {"update_ms_p90", "ms"},
      {"recover_ms", "ms"},
      {"failed_frac", "fail/op"},
      {"api.decide_us_p50", "us"},
      {"api.run_overhead_ms_p50", "ms"},
      {"skyline.rskyband_ms_p50", "ms"},
      {"skyline.rskyband_ms_p90", "ms"},
      {"skyline.band_size_mean", "rec/query"},
      {"skyline.rdom_tests_mean", "test/query"},
      {"skyline.heap_pops_mean", "pop/query"},
      {"core.refine_ms_p50", "ms"},
      {"core.refine_ms_p90", "ms"},
      {"core.lp_calls_mean", "lp/query"},
      {"core.drills_mean", "drill/query"},
      {"core.verify_calls_mean", "call/query"},
      {"arrangement.cells_mean", "cell/query"},
      {"arrangement.halfspaces_mean", "hs/query"},
      {"arrangement.peak_bytes_max", "B"},
      {"exec.topk_us_p50", "us"},
      {"data.generate_s", "s"},
      {"index.engine_build_s", "s"},
      {"storage.catalog_create_s", "s"},
      {"serve.exact_hit_us_p50", "us"},
      {"serve.semantic_hit_us_p50", "us"},
      {"serve.miss_ms_p50", "ms"},
      {"serve.hit_ratio", "hit/req"},
      {"serve.invalidated_per_batch", "entry/batch"},
      {"live.apply_ms_p50", "ms"},
      {"live.apply_ms_p90", "ms"},
      {"live.band_rebuilds_per_batch", "rebuild/batch"},
      {"live.pool_query_frac", "pool/query"},
      {"storage.wal_bytes_per_op", "B/op"},
      {"storage.segment_bytes_per_row", "B/row"},
      {"storage.replayed_ops", "op"},
      {"pool.rsa_refine_wall_ratio", "serial/par4"},
      {"pool.rsa_makespan_ratio", "task/critical"},
      {"trace.overhead_frac", "frac"},
  };
  return defs;
}

void SetP50P90(RunResult& out, const std::string& prefix,
               const std::vector<double>& samples) {
  out.metrics[prefix + "_p50"] = Quantile(samples, 0.5);
  if (!HasTail(samples.size(), 0.9)) {
    out.Fail(prefix + "_p90: only " + std::to_string(samples.size()) +
             " samples, the percentile rule needs 100");
    return;
  }
  out.metrics[prefix + "_p90"] = Quantile(samples, 0.9);
}

int RunSelfCheck() {
  int bad = 0;
  auto expect = [&bad](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "self-check failed: %s\n", what);
      ++bad;
    }
  };
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(101 - i);  // unsorted
  expect(Quantile(hundred, 0.5) == 50.0, "nearest-rank p50 of 1..100 is 50");
  expect(Quantile(hundred, 0.9) == 90.0, "nearest-rank p90 of 1..100 is 90");
  expect(Quantile({7.0}, 0.9) == 7.0, "quantile of one sample");
  expect(Quantile({}, 0.5) == 0.0, "quantile of no samples");
  expect(HasTail(100, 0.9), "p90 of 100 samples has 10 beyond it");
  expect(!HasTail(99, 0.9), "p90 of 99 samples has only 9 beyond it");
  expect(HasTail(20, 0.5) && !HasTail(19, 0.5), "p50 needs 20 samples");
  expect(Ratio(3.0, 0.0) == 0.0, "ratio over an empty base is 0");
  expect(Ratio(1.0, 4.0) == 0.25, "ratio keeps its base");
  expect(FailedFrac(1, 6, 2, 2) == 0.1,
         "failed_frac base is queries + batches + reopens");
  expect(FailedFrac(0, 0, 0, 0) == 0.0, "failed_frac of nothing");

  RunResult few;
  SetP50P90(few, "x", std::vector<double>(99, 1.0));
  expect(few.failed == 1 && few.metrics.count("x_p90") == 0,
         "p90 over 99 samples is refused");
  RunResult enough;
  SetP50P90(enough, "x", hundred);
  expect(enough.failed == 0 && enough.metrics.at("x_p90") == 90.0,
         "p90 over 100 samples is reported");

  // The answer comparison must flag a deliberately wrong answer.
  const std::vector<int32_t> right = {3, 1, 2};
  std::vector<int32_t> wrong = right;
  InjectFault(wrong);
  expect(SameIds(right, {1, 2, 3}), "id sets compare unordered");
  expect(!SameIds(right, wrong), "an injected wrong answer is flagged");
  return bad;
}

}  // namespace perfbench
