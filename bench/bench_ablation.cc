// Ablation study of the design choices DESIGN.md calls out (not a paper
// figure, but the paper motivates each knob in Sections 4.2-4.5):
//
//   * drill on/off           (Section 4.3 short-circuit)
//   * Lemma-1 on/off         (Section 4.2 competitor pruning)
//   * wave cap               (small local arrangements vs one big wave)
//   * filtering strength     (r-skyband vs k-skyband vs onion candidates)
//
// All knobs ride on QuerySpec; the engine maps them onto the executing
// algorithm's options.
//   * data-plane layout       (SoA columnar kernels vs AoS record loops)

#include "bench_common.h"
#include "common/rng.h"
#include "exec/kernels.h"
#include "exec/simd.h"
#include "skyline/onion.h"
#include "skyline/rskyband.h"
#include "skyline/skyband.h"

namespace utk {
namespace bench {
namespace {

// Anticorrelated data stresses the knobs hardest (flat r-dominance graph),
// but the unbounded-wave variant is exponential there, so this bench runs a
// deliberately small instance; scale with UTK_BENCH_SCALE to taste.
// A large region (sigma 15%) over anticorrelated data is the regime where
// the knobs matter most: the r-dominance graph is nearly flat, so an
// unbounded first wave inserts every competitor at once.
constexpr int kDim = 4;
constexpr int kK = 5;
constexpr double kSigma = 0.15;

const Engine& Data() {
  return Corpus::Synthetic(Distribution::kAnticorrelated, ScaledN(800), kDim);
}

void Utk1Variant(benchmark::State& state, QuerySpec spec) {
  const Engine& engine = Data();
  auto queries = Queries(kDim - 1, kSigma);
  for (auto _ : state) {
    double ms = 0, out = 0, lp = 0;
    for (const ConvexRegion& region : queries) {
      spec.region = region;
      QueryResult r = engine.Run(spec);
      ms += r.stats.elapsed_ms;
      out += static_cast<double>(r.ids.size());
      lp += static_cast<double>(r.stats.lp_calls);
    }
    state.counters["ms_per_query"] = ms / queries.size();
    state.counters["out_size"] = out / queries.size();
    state.counters["lp_calls"] = lp / queries.size();
  }
}

QuerySpec Utk1Spec() { return Spec(QueryMode::kUtk1, Algorithm::kRsa, kK); }

void Ablation_RSA_Full(benchmark::State& s) { Utk1Variant(s, Utk1Spec()); }
void Ablation_RSA_NoDrill(benchmark::State& s) {
  QuerySpec spec = Utk1Spec();
  spec.use_drill = false;
  Utk1Variant(s, spec);
}
void Ablation_RSA_NoLemma1(benchmark::State& s) {
  QuerySpec spec = Utk1Spec();
  spec.use_lemma1 = false;
  Utk1Variant(s, spec);
}
void Ablation_RSA_NoWaveCap(benchmark::State& s) {
  QuerySpec spec = Utk1Spec();
  spec.wave_cap = 0;
  Utk1Variant(s, spec);
}
void Ablation_RSA_Wave4(benchmark::State& s) {
  QuerySpec spec = Utk1Spec();
  spec.wave_cap = 4;
  Utk1Variant(s, spec);
}
void Ablation_RSA_Wave16(benchmark::State& s) {
  QuerySpec spec = Utk1Spec();
  spec.wave_cap = 16;
  Utk1Variant(s, spec);
}

BENCHMARK(Ablation_RSA_Full)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(Ablation_RSA_NoDrill)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(Ablation_RSA_NoLemma1)->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(Ablation_RSA_NoWaveCap)->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(Ablation_RSA_Wave4)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(Ablation_RSA_Wave16)->Unit(benchmark::kMillisecond)->Iterations(1);

// ---------------------------------------------------------------------------
// Data-plane layout ablation: the same operators through the AoS Record
// loops versus the SoA ColumnStore kernels (src/exec/), on a 100k-record
// IND corpus. These pairs are the perf contract of the columnar data
// plane — tools/check_bench.py gates CI on their speedup ratio.
// ---------------------------------------------------------------------------
constexpr int kLayoutN = 100000;
constexpr int kLayoutK = 5;
constexpr double kLayoutSigma = 0.1;

const Engine& LayoutData() {
  return Corpus::Synthetic(Distribution::kIndependent, ScaledN(kLayoutN),
                           kDim);
}

// r-skyband filter, AoS path (cols == nullptr: per-record Score() chases
// the attrs vector, per-pair RDominance allocates a coefficient vector).
void Ablation_Layout_Filter_AoS(benchmark::State& state) {
  const Engine& engine = LayoutData();
  auto queries = Queries(kDim - 1, kLayoutSigma);
  for (auto _ : state) {
    double out = 0;
    for (const ConvexRegion& region : queries)
      out += static_cast<double>(
          ComputeRSkyband(engine.data(), engine.tree(), region, kLayoutK)
              .ids.size());
    state.counters["band"] = out / queries.size();
  }
}

// r-skyband filter, SoA path (batched leaf scoring + allocation-free box
// gap ranges over the engine's ColumnStore).
void Ablation_Layout_Filter_SoA(benchmark::State& state) {
  const Engine& engine = LayoutData();
  auto queries = Queries(kDim - 1, kLayoutSigma);
  for (auto _ : state) {
    double out = 0;
    for (const ConvexRegion& region : queries)
      out += static_cast<double>(
          ComputeRSkyband(engine.data(), engine.tree(), region, kLayoutK,
                          nullptr, &engine.cols())
              .ids.size());
    state.counters["band"] = out / queries.size();
  }
}

BENCHMARK(Ablation_Layout_Filter_AoS)->Unit(benchmark::kMillisecond);
BENCHMARK(Ablation_Layout_Filter_SoA)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Explicit-SIMD ablation: the same SoA kernels with dispatch pinned to the
// scalar reference tier versus the best tier the host supports (exec/simd.h
// — AVX2 on x86-64). Both sides run back to back in this
// process on the 100k IND corpus, so their ratio is the vectorization
// speedup and nothing else; check_bench.py gates it. On a host with no
// SIMD tier both sides run the scalar kernels and the pair reads 1.0x —
// the baseline only applies where the report was produced (x86-64 CI).
// ---------------------------------------------------------------------------

/// Pins the dispatch tier for one benchmark's measurement loop.
class TierScope {
 public:
  explicit TierScope(SimdTier t) : prior_(ActiveSimdTier()) {
    SetSimdTier(t);
  }
  ~TierScope() { SetSimdTier(prior_); }

 private:
  SimdTier prior_;
};

void SimdScoreAllVariant(benchmark::State& state, SimdTier tier) {
  const Engine& engine = LayoutData();
  const Vec w = *Queries(kDim - 1, kLayoutSigma)[0].Pivot();
  TierScope scope(tier);
  std::vector<Scalar> out(engine.cols().size());
  for (auto _ : state) {
    ScoreAll(engine.cols(), w, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * engine.cols().size());
}

// The gathered form RSA/JAA actually hammer (scoring candidate pools and
// R-tree leaves): indexed loads defeat the auto-vectorizer on the scalar
// side, so this pair isolates the explicit-SIMD win on a compute-bound
// shape. The contiguous ScoreAll pair above it is informational only — at
// 100k x 4 doubles the sweep streams from beyond L2 and the ratio measures
// DRAM bandwidth, not the kernels.
void SimdScoreBatchVariant(benchmark::State& state, SimdTier tier) {
  const Engine& engine = LayoutData();
  const Vec w = *Queries(kDim - 1, kLayoutSigma)[0].Pivot();
  TierScope scope(tier);
  Rng rng(7);
  std::vector<int32_t> pool(4096);
  for (int32_t& r : pool) r = rng.UniformInt(0, engine.cols().size() - 1);
  std::vector<Scalar> out(pool.size());
  for (auto _ : state) {
    ScoreBatch(engine.cols(), w, pool, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(pool.size()));
}

void Ablation_Simd_ScoreAll_Scalar(benchmark::State& s) {
  SimdScoreAllVariant(s, SimdTier::kScalar);
}
void Ablation_Simd_ScoreAll_Simd(benchmark::State& s) {
  SimdScoreAllVariant(s, BestSupportedSimdTier());
}
void Ablation_Simd_ScoreBatch_Scalar(benchmark::State& s) {
  SimdScoreBatchVariant(s, SimdTier::kScalar);
}
void Ablation_Simd_ScoreBatch_Simd(benchmark::State& s) {
  SimdScoreBatchVariant(s, BestSupportedSimdTier());
}

BENCHMARK(Ablation_Simd_ScoreAll_Scalar)->Unit(benchmark::kMillisecond);
BENCHMARK(Ablation_Simd_ScoreAll_Simd)->Unit(benchmark::kMillisecond);
BENCHMARK(Ablation_Simd_ScoreBatch_Scalar)->Unit(benchmark::kMillisecond);
BENCHMARK(Ablation_Simd_ScoreBatch_Simd)->Unit(benchmark::kMillisecond);

// Filtering-step tightness: candidates surviving each filter for the same
// configuration (smaller = less refinement work downstream).
void Ablation_Filters(benchmark::State& state) {
  const Engine& engine = Data();
  auto queries = Queries(kDim - 1, kSigma);
  for (auto _ : state) {
    QueryStats tmp;
    double rband = 0;
    for (const ConvexRegion& region : queries)
      rband += static_cast<double>(
          ComputeRSkyband(engine.data(), engine.tree(), region, kK)
              .ids.size());
    state.counters["r_skyband"] = rband / queries.size();
    state.counters["k_skyband"] = static_cast<double>(
        KSkyband(engine.data(), engine.tree(), kK).size());
    state.counters["onion"] = static_cast<double>(
        OnionCandidates(engine.data(), engine.tree(), kK, &tmp).size());
  }
}
BENCHMARK(Ablation_Filters)->Unit(benchmark::kMillisecond)->Iterations(1);

// JAA wave-cap sensitivity.
void Utk2Variant(benchmark::State& state, QuerySpec spec) {
  const Engine& engine = Data();
  auto queries = Queries(kDim - 1, 0.02);
  for (auto _ : state) {
    double ms = 0, sets = 0;
    for (const ConvexRegion& region : queries) {
      spec.region = region;
      QueryResult r = engine.Run(spec);
      ms += r.stats.elapsed_ms;
      sets += static_cast<double>(r.utk2.NumDistinctTopkSets());
    }
    state.counters["ms_per_query"] = ms / queries.size();
    state.counters["topk_sets"] = sets / queries.size();
  }
}

QuerySpec Utk2Spec() { return Spec(QueryMode::kUtk2, Algorithm::kJaa, kK); }

void Ablation_JAA_Full(benchmark::State& s) { Utk2Variant(s, Utk2Spec()); }
void Ablation_JAA_NoLemma1(benchmark::State& s) {
  QuerySpec spec = Utk2Spec();
  spec.use_lemma1 = false;
  Utk2Variant(s, spec);
}
void Ablation_JAA_Wave4(benchmark::State& s) {
  QuerySpec spec = Utk2Spec();
  spec.wave_cap = 4;
  Utk2Variant(s, spec);
}
BENCHMARK(Ablation_JAA_Full)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(Ablation_JAA_NoLemma1)->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(Ablation_JAA_Wave4)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace
}  // namespace bench
}  // namespace utk

UTK_BENCH_MAIN();
