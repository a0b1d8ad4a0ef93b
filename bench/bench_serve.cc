// Serving-layer benchmark: hot (exact-hit) and cold (miss) latency of the
// ResultCache/Server under the overlapping-workload traces of
// data/workload.h. The headline counter is `speedup` on
// ExactHitSpeedup — cold ms/query over warm exact-hit ms/query — which the
// serving layer must keep >= 10x (see EXPERIMENTS.md and test_serve.cc).
//
// Env knobs (bench_common.h): UTK_BENCH_SCALE, UTK_BENCH_QUERIES (trace
// length multiplier here), UTK_BENCH_THREADS (QueryBatch width).
#include "bench_common.h"

#include <memory>

#include "serve/server.h"

namespace utk {
namespace bench {
namespace {

/// Wraps a Corpus-memoized engine for a Server without copying it. Corpus
/// owns the engine for the process lifetime, so the no-op deleter is safe.
std::shared_ptr<const Engine> Borrow(const Engine& engine) {
  return {&engine, [](const Engine*) {}};
}

ServeTrace Trace(int count, double repeat, double sub, uint64_t seed) {
  ServeTraceOptions opt;
  opt.pref_dim = 2;
  opt.sigma = 0.1;
  opt.hot_regions = 6;
  opt.repeat_fraction = repeat;
  opt.subregion_fraction = sub;
  opt.seed = seed;
  return MakeServeTrace(count, opt);
}

std::vector<QuerySpec> SpecsFor(const std::vector<ConvexRegion>& regions,
                                QueryMode mode, int k) {
  std::vector<QuerySpec> specs(regions.size(), Spec(mode, Algorithm::kAuto, k));
  for (size_t i = 0; i < regions.size(); ++i) specs[i].region = regions[i];
  return specs;
}

/// Cold vs hot: first pass over distinct regions misses, repeated passes are
/// exact hits. Reports both latencies and their ratio.
void ExactHitSpeedup(benchmark::State& state) {
  const int n = ScaledN(2000);
  const int k = static_cast<int>(state.range(0));
  const Engine& engine = Corpus::Synthetic(Distribution::kAnticorrelated, n, 3);
  ServeTrace trace = Trace(4 * NumQueries(), 0.0, 0.0, 101);
  auto specs = SpecsFor(trace.queries, QueryMode::kUtk1, k);

  double cold_ms = 0.0, warm_ms = 0.0;
  int64_t warm_queries = 0;
  for (auto _ : state) {
    Server server(Borrow(engine));
    Timer cold;
    for (const QuerySpec& spec : specs) {
      QueryResult r = server.Query(spec);
      if (!r.ok) {
        state.SkipWithError(r.error.c_str());
        return;
      }
    }
    cold_ms += cold.ElapsedMs();
    Timer warm;
    for (int round = 0; round < 5; ++round) {
      for (const QuerySpec& spec : specs) {
        benchmark::DoNotOptimize(server.Query(spec));
        ++warm_queries;
      }
    }
    warm_ms += warm.ElapsedMs();
  }
  const double cold_per_q = cold_ms / (state.iterations() * specs.size());
  const double warm_per_q = warm_ms / warm_queries;
  state.counters["cold_ms_per_query"] = cold_per_q;
  state.counters["warm_ms_per_query"] = warm_per_q;
  state.counters["speedup"] = warm_per_q > 0 ? cold_per_q / warm_per_q : 0.0;
}
BENCHMARK(ExactHitSpeedup)->Arg(5)->Arg(10)->Unit(benchmark::kMillisecond)
    ->Iterations(1);

/// The mixed overlapping trace end to end through QueryBatch: the serving
/// scenario of ROADMAP.md. Reports hit rate and per-query latency.
void MixedTrace(benchmark::State& state) {
  const int n = ScaledN(2000);
  const Engine& engine = Corpus::Synthetic(Distribution::kAnticorrelated, n, 3);
  ServeTrace trace = Trace(16 * NumQueries(), 0.4, 0.3, 107);
  auto specs = SpecsFor(trace.queries, QueryMode::kUtk1, 10);

  for (auto _ : state) {
    Server server(Borrow(engine));
    BatchQueryResult batch = server.QueryBatch(specs, NumThreads());
    if (batch.failed != 0) {
      state.SkipWithError("query rejected by server");
      return;
    }
    CacheCounters counters = server.cache_counters();
    state.counters["hit_rate"] = counters.HitRate();
    state.counters["exact_hits"] = static_cast<double>(counters.exact_hits);
    state.counters["ms_per_query"] =
        batch.total.elapsed_ms / static_cast<double>(specs.size());
  }
}
BENCHMARK(MixedTrace)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace
}  // namespace bench
}  // namespace utk

UTK_BENCH_MAIN();
