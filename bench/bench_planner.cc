// Planner-quality gate (DESIGN.md §13), enforced in CI by
// tools/check_bench.py against bench/baselines/bench_planner.json. It checks
// kAuto's fixed rule (RSA for UTK1, JAA for UTK2) against measurement:
//
//   * chosen_over_best_median <= 1.10: across a (mode, k, sigma) cell matrix
//     on the 100k IND corpus, the plan kAuto picks must run within 10% of
//     the best measured plan for that cell.
//   * mispredict_rate: fraction of cells where the chosen algorithm is not
//     the measured argmin. Some mispredicts are tolerable as long as the
//     chosen plan stays near-best (a 2ms-vs-2.1ms coin flip is not a planning
//     failure); the ceiling catches systematic inversion.
//
// The candidate plan set per cell is the set of algorithms worth running at
// this scale (rsa/jaa for UTK1, jaa for UTK2 — the sk/on/naive baselines are
// minutes-per-query at 100k). If the planner nevertheless picks something
// outside the set, that plan is measured too: a pathological choice then
// blows the ratio gate instead of being invisible.
#include <algorithm>
#include <vector>

#include "bench_common.h"

namespace utk {
namespace bench {
namespace {

constexpr int kDim = 3;

double MedianOf(std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  const size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  return samples[mid];
}

const Engine& Data() {
  return Corpus::Synthetic(Distribution::kIndependent, ScaledN(100000), kDim);
}

struct Cell {
  QueryMode mode;
  int k;
  double sigma;
};

constexpr Cell kCells[] = {
    {QueryMode::kUtk1, 5, 0.08},  {QueryMode::kUtk1, 10, 0.08},
    {QueryMode::kUtk1, 20, 0.08}, {QueryMode::kUtk1, 5, 0.15},
    {QueryMode::kUtk1, 10, 0.15}, {QueryMode::kUtk2, 5, 0.08},
    {QueryMode::kUtk2, 10, 0.08},
};

std::vector<Algorithm> CandidatePlans(QueryMode mode) {
  if (mode == QueryMode::kUtk1) return {Algorithm::kRsa, Algorithm::kJaa};
  return {Algorithm::kJaa};
}

/// Wall-clock of the cell's query batch under one pinned algorithm; negative
/// when the engine rejects a query (bubbles up as a skipped benchmark).
double BatchMs(const Engine& engine, const Cell& cell, Algorithm algo,
               const std::vector<ConvexRegion>& queries,
               benchmark::State& state) {
  QuerySpec spec = Spec(cell.mode, algo, cell.k);
  Timer t;
  for (const ConvexRegion& region : queries) {
    spec.region = region;
    QueryResult r = engine.Run(spec);
    if (!r.ok) {
      state.SkipWithError(r.error.c_str());
      return -1.0;
    }
    benchmark::DoNotOptimize(r.ids.data());
  }
  return t.ElapsedMs();
}

void Planner_ChosenVsBest100k(benchmark::State& state) {
  const Engine& engine = Data();
  std::vector<double> ratios;
  int64_t cells = 0, mispredicts = 0;
  for (auto _ : state) {
    ratios.clear();
    cells = mispredicts = 0;
    for (const Cell& cell : kCells) {
      const auto queries = Queries(kDim - 1, cell.sigma);

      // One auto-planned run tells us what the planner picked.
      QuerySpec probe = Spec(cell.mode, Algorithm::kAuto, cell.k);
      probe.region = queries.front();
      const QueryResult planned = engine.Run(probe);
      if (!planned.ok) {
        state.SkipWithError(planned.error.c_str());
        return;
      }
      const Algorithm chosen = planned.algorithm;

      std::vector<Algorithm> plans = CandidatePlans(cell.mode);
      if (std::find(plans.begin(), plans.end(), chosen) == plans.end())
        plans.push_back(chosen);

      double best = -1.0, chosen_ms = -1.0;
      Algorithm argmin = chosen;
      for (Algorithm algo : plans) {
        const double ms = BatchMs(engine, cell, algo, queries, state);
        if (ms < 0.0) return;
        if (best < 0.0 || ms < best) {
          best = ms;
          argmin = algo;
        }
        if (algo == chosen) chosen_ms = ms;
      }
      ratios.push_back(chosen_ms / best);
      if (argmin != chosen) ++mispredicts;
      ++cells;
    }
  }
  state.counters["chosen_over_best_median"] = MedianOf(ratios);
  state.counters["mispredict_rate"] =
      cells > 0 ? static_cast<double>(mispredicts) / cells : 0.0;
  state.counters["cells"] = static_cast<double>(cells);
}

// Repetition medians are what the CI gate reads; three repetitions keep one
// noisy window from deciding the 1.10 ratio ceiling.
BENCHMARK(Planner_ChosenVsBest100k)
    ->Unit(benchmark::kMillisecond)
    ->Repetitions(3)
    ->ReportAggregatesOnly(true);

}  // namespace
}  // namespace bench
}  // namespace utk

UTK_BENCH_MAIN()
