// Live-update benchmark (src/live/): update throughput of the incremental
// R-tree maintenance, query latency on a mutating catalog vs the
// rebuild-from-scratch alternative, and the cost of an epoch invalidation
// sweep against a warm result cache.
//
// Headline numbers: LiveUpdateThroughput (ops/sec absorbed while staying
// queryable) and the Live-vs-Rebuild pair — the incremental engine answers
// right after an update by running the r-skyband filter over its live
// R-tree, where the rebuild baseline pays a full Engine (re-)construction
// per epoch.
//
// Env knobs (bench_common.h): UTK_BENCH_SCALE (dataset size multiplier).
#include "bench_common.h"

#include <memory>
#include <vector>

#include "data/workload.h"
#include "live/live_engine.h"
#include "obs/metrics.h"
#include "serve/server.h"

namespace utk {
namespace bench {
namespace {

std::vector<UpdateOp> Trace(const Dataset& initial, int count,
                            uint64_t seed) {
  UpdateTraceOptions opt;
  opt.seed = seed;
  return MakeUpdateTrace(initial, count, opt);
}

QuerySpec Utk1Spec(int k) {
  QuerySpec spec;
  spec.mode = QueryMode::kUtk1;
  spec.algorithm = Algorithm::kRsa;
  spec.k = k;
  spec.region = ConvexRegion::FromBox({0.2, 0.25}, {0.35, 0.4});
  return spec;
}

/// Sustained single-op update throughput (insert/erase mix, one epoch per
/// op — the worst case for commit overhead).
void LiveUpdateThroughput(benchmark::State& state) {
  const int n = ScaledN(static_cast<int>(state.range(0)));
  Dataset initial = Generate(Distribution::kIndependent, n, 3, 4242);
  std::vector<UpdateOp> ops = Trace(initial, 4096, 7);
  LiveEngine live(std::move(initial));
  size_t cursor = 0;
  for (auto _ : state) {
    const UpdateOp& op = ops[cursor++ % ops.size()];
    if (op.kind == UpdateKind::kInsert) {
      Record rec = op.record;
      if (rec.id >= 0 && live.IsLive(rec.id)) rec.id = -1;  // cycle reuse
      benchmark::DoNotOptimize(live.Insert(std::move(rec)));
    } else if (live.IsLive(op.id)) {
      benchmark::DoNotOptimize(live.Erase(op.id));
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(LiveUpdateThroughput)->Arg(2000)->Arg(20000)
    ->Unit(benchmark::kMicrosecond);

/// One update + one UTK1 query per iteration on the live engine: the
/// incremental path the subsystem exists for.
void QueryAfterUpdateLive(benchmark::State& state) {
  const int n = ScaledN(2000);
  Dataset initial = Generate(Distribution::kIndependent, n, 3, 4242);
  std::vector<UpdateOp> ops = Trace(initial, 4096, 11);
  LiveEngine live(std::move(initial));
  const QuerySpec spec = Utk1Spec(static_cast<int>(state.range(0)));
  size_t cursor = 0;
  for (auto _ : state) {
    const UpdateOp& op = ops[cursor++ % ops.size()];
    live.ApplyBatch({&op, 1});
    benchmark::DoNotOptimize(live.Run(spec));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(QueryAfterUpdateLive)->Arg(5)->Arg(10)
    ->Unit(benchmark::kMillisecond);

/// The alternative this subsystem replaces: rebuild the whole Engine
/// (dataset copy + STR bulk load) after every update, then query.
void QueryAfterUpdateRebuild(benchmark::State& state) {
  const int n = ScaledN(2000);
  Dataset data = Generate(Distribution::kIndependent, n, 3, 4242);
  const QuerySpec spec = Utk1Spec(static_cast<int>(state.range(0)));
  Rng rng(13);
  for (auto _ : state) {
    // Mutate one record in place (stand-in for insert/erase) and rebuild.
    Record& r = data[rng.UniformInt(0, n - 1)];
    r.attrs[0] = rng.Uniform();
    Engine rebuilt((Dataset(data)));
    benchmark::DoNotOptimize(rebuilt.Run(spec));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(QueryAfterUpdateRebuild)->Arg(5)->Arg(10)
    ->Unit(benchmark::kMillisecond);

/// Cost of committing one update through a warm serve cache: the epoch
/// sweep tests every resident entry with the could-affect predicate. The
/// entries a sweep drops are re-queried with the timer paused, so every
/// commit sweeps `entries` resident answers (reported as entries_resident).
void InvalidationSweep(benchmark::State& state) {
  const int n = ScaledN(2000);
  const int entries = static_cast<int>(state.range(0));
  Dataset initial = Generate(Distribution::kIndependent, n, 3, 4242);
  auto live = std::make_shared<LiveEngine>(std::move(initial));
  Server server(live);
  CacheAttachment link(*live, server.cache());
  // Warm the cache with `entries` distinct regions.
  std::vector<QuerySpec> specs;
  for (const ConvexRegion& region : QueryBatch(2, 0.08, entries, 17)) {
    QuerySpec spec = Utk1Spec(5);
    spec.region = region;
    server.Query(spec);
    specs.push_back(std::move(spec));
  }
  const Algorithm planned = live->Plan(specs.front());
  const obs::Counter& invalidated =
      obs::MetricRegistry::Global().GetCounter(
          "utk_serve_cache_invalidated_total");
  std::vector<UpdateOp> ops = Trace(live->CompactSnapshot(), 4096, 19);
  size_t cursor = 0;
  for (auto _ : state) {
    const UpdateOp& op = ops[cursor++ % ops.size()];
    if (op.kind == UpdateKind::kErase && !live->IsLive(op.id)) continue;
    const int64_t before = invalidated.Value();
    live->ApplyBatch({&op, 1});
    int64_t dropped = invalidated.Value() - before;
    if (dropped > 0) {
      state.PauseTiming();
      for (const QuerySpec& spec : specs) {
        if (server.cache().Lookup(spec, planned, live->epoch())) continue;
        server.Query(spec);  // re-admit the dropped region
        if (--dropped == 0) break;
      }
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["invalidated"] =
      static_cast<double>(server.cache_counters().invalidated);
  state.counters["entries_resident"] =
      static_cast<double>(server.cache_counters().entries);
}
BENCHMARK(InvalidationSweep)->Arg(16)->Arg(128)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace bench
}  // namespace utk

UTK_BENCH_MAIN();
