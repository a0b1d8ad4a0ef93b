// Differential fuzz harness: every execution path that claims to answer a
// QuerySpec must agree with every other. For seeded random (dataset,
// region, k, dim, mode) draws the suite cross-checks
//
//   Engine(rsa) == Engine(jaa-union)            (UTK1)
//   Engine == Server cold (miss) == Server warm (exact hit, byte-equal)
//   Engine == Server on a contained sub-region (a miss, byte-equal)
//   Engine == LiveEngine after replaying the same records as inserts
//   Engine == LiveEngine recovered from a written segment (the call
//             Catalog::Open makes)
//   SoA columnar filter == AoS scalar path (bit-for-bit, per draw)
//   Engine::TopK (R-tree branch-and-bound) == full-scan TopK (per tier)
//
// UTK1 answers must be byte-identical. UTK2 answers of a second engine are
// compared as the partition they describe — same record union, same
// distinct top-k set collection, every cell's top-k exact at its witness —
// which is what the UTK2 contract promises. Server answers are byte-equal
// to the engine's, cells and witnesses included. Every UTK2 result must
// arrive in canonical cell order (core/utk.h Canonicalize): the ordering is
// asserted here, once, instead of per-test sorts.
//
// Seeds: the base seed is fixed (UTK_DIFF_SEED overrides it; UTK_DIFF_DRAWS
// scales the draw count) and every failure message carries the failing
// draw's seed for replay.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "api/engine.h"
#include "common/rng.h"
#include "core/topk.h"
#include "data/generator.h"
#include "data/workload.h"
#include "diff_env.h"
#include "exec/simd.h"
#include "live/live_engine.h"
#include "obs/history.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "skyline/rskyband.h"
#include "storage/segment.h"

namespace utk {
namespace {

std::set<std::vector<int32_t>> TopkSets(const Utk2Result& r) {
  std::set<std::vector<int32_t>> sets;
  for (const Utk2Cell& c : r.cells) sets.insert(c.topk);
  return sets;
}

/// UTK2 equivalence as partitions of R: same union, same distinct top-k
/// sets, witnesses exact — and both in canonical cell order.
void ExpectSameUtk2(const Engine& ref, int k, const QueryResult& want,
                    const QueryResult& got) {
  EXPECT_EQ(got.ids, want.ids);
  ASSERT_FALSE(got.utk2.cells.empty());
  EXPECT_TRUE(want.utk2.IsCanonical());
  EXPECT_TRUE(got.utk2.IsCanonical());
  EXPECT_EQ(TopkSets(got.utk2), TopkSets(want.utk2));
  for (const Utk2Cell& cell : got.utk2.cells) {
    std::vector<int32_t> topk = ref.TopK(cell.witness, k);
    std::sort(topk.begin(), topk.end());
    EXPECT_EQ(topk, cell.topk);
  }
}

/// Byte-equal UTK2 cells: same top-k lists and bit-equal witnesses, in the
/// same order.
void ExpectSameCells(const QueryResult& want, const QueryResult& got) {
  ASSERT_EQ(got.utk2.cells.size(), want.utk2.cells.size());
  for (size_t c = 0; c < got.utk2.cells.size(); ++c) {
    EXPECT_EQ(got.utk2.cells[c].topk, want.utk2.cells[c].topk);
    EXPECT_EQ(got.utk2.cells[c].witness, want.utk2.cells[c].witness);
  }
}

struct Draw {
  uint64_t seed = 0;
  Distribution dist = Distribution::kIndependent;
  int n = 0;
  int dim = 3;
  int k = 1;
  QueryMode mode = QueryMode::kUtk1;
  ConvexRegion region;

  std::string Describe() const {
    return "seed=" + std::to_string(seed) + " dist=" + DistributionName(dist) +
           " n=" + std::to_string(n) + " dim=" + std::to_string(dim) +
           " k=" + std::to_string(k) + " mode=" + QueryModeName(mode);
  }
};

Draw NextDraw(Rng& rng, int index, uint64_t base_seed) {
  Draw d;
  d.seed = base_seed ^ (0x9e3779b97f4a7c15ull * (index + 1));
  d.dist = static_cast<Distribution>(rng.UniformInt(0, 2));
  d.dim = rng.UniformInt(0, 3) == 0 ? 4 : 3;  // mostly 3D, some 4D
  d.n = rng.UniformInt(50, 110);
  d.k = rng.UniformInt(1, 4);
  d.mode = index % 2 == 0 ? QueryMode::kUtk1 : QueryMode::kUtk2;
  const Scalar sigma = rng.Uniform(0.06, 0.2);
  d.region = RandomQueryBox(d.dim - 1, sigma, rng);
  return d;
}

QuerySpec SpecFor(const Draw& d) {
  QuerySpec spec;
  spec.mode = d.mode;
  spec.algorithm =
      d.mode == QueryMode::kUtk1 ? Algorithm::kRsa : Algorithm::kJaa;
  spec.k = d.k;
  spec.region = d.region;
  return spec;
}

TEST(Differential, AllExecutionPathsAgree) {
  const uint64_t base_seed = EnvSeed();
  const int draws = EnvDraws();
  Rng rng(base_seed);

  for (int i = 0; i < draws; ++i) {
    const Draw d = NextDraw(rng, i, base_seed);
    SCOPED_TRACE("draw " + std::to_string(i) + ": " + d.Describe());

    Dataset data = Generate(d.dist, d.n, d.dim, d.seed);
    auto engine = std::make_shared<const Engine>(Dataset(data));
    const QuerySpec spec = SpecFor(d);
    QueryResult want = engine->Run(spec);
    ASSERT_TRUE(want.ok) << want.error;
    ASSERT_FALSE(want.ids.empty());

    // --- Columnar data plane vs AoS, same draw ------------------------
    // The engines above all executed through the SoA ColumnStore path;
    // pin it against the AoS path explicitly: the r-skyband filter with
    // and without the store must agree on members AND dominator arcs, and
    // the R-tree top-k every engine serves must reproduce a full scan.
    {
      RSkybandResult aos = ComputeRSkyband(engine->data(), engine->tree(),
                                           d.region, d.k);
      RSkybandResult soa =
          ComputeRSkyband(engine->data(), engine->tree(), d.region, d.k,
                          nullptr, &engine->cols());
      EXPECT_EQ(soa.ids, aos.ids);
      EXPECT_EQ(soa.dominators, aos.dominators);
      const Vec pivot = *d.region.Pivot();
      EXPECT_EQ(engine->TopK(pivot, d.k), TopK(data, pivot, d.k));
    }

    // --- Engine(rsa) vs Engine(jaa union) -----------------------------
    if (d.mode == QueryMode::kUtk1) {
      QuerySpec jaa = spec;
      jaa.algorithm = Algorithm::kJaa;
      QueryResult via_jaa = engine->Run(jaa);
      ASSERT_TRUE(via_jaa.ok) << via_jaa.error;
      EXPECT_EQ(via_jaa.ids, want.ids);
    } else {
      EXPECT_TRUE(want.utk2.IsCanonical());
    }

    // --- Server: cold (miss), warm (exact hit), sub-box (miss) ---------
    Server server(engine);
    QueryResult cold = server.Query(spec);
    ASSERT_TRUE(cold.ok) << cold.error;
    EXPECT_EQ(cold.stats.cache_misses, 1);
    EXPECT_EQ(cold.ids, want.ids);
    ExpectSameCells(want, cold);

    QueryResult warm = server.Query(spec);
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_EQ(warm.stats.cache_hits, 1);
    EXPECT_EQ(warm.ids, cold.ids);
    // Exact hits return the cached result verbatim.
    ExpectSameCells(cold, warm);

    // A contained sub-box of the cached region is a miss, answered by the
    // engine byte for byte.
    Rng sub_rng(d.seed ^ 0x5bf03635ull);
    QuerySpec sub = spec;
    sub.region = RandomSubBox(d.region, 0.6, sub_rng);
    QueryResult via_cache = server.Query(sub);
    QueryResult fresh = engine->Run(sub);
    ASSERT_EQ(via_cache.ok, fresh.ok) << via_cache.error;
    if (fresh.ok) {
      EXPECT_EQ(via_cache.stats.cache_misses, 1);
      EXPECT_EQ(via_cache.ids, fresh.ids);
      ExpectSameCells(fresh, via_cache);
    }

    // --- LiveEngine: replay the same records as inserts ---------------
    LiveEngine live((Dataset()));
    std::vector<UpdateOp> inserts(data.size());
    for (size_t r = 0; r < data.size(); ++r) {
      inserts[r].kind = UpdateKind::kInsert;
      inserts[r].record = data[r];
      inserts[r].record.id = -1;  // sequential assignment recreates the ids
    }
    ASSERT_EQ(live.ApplyBatch(inserts), static_cast<int>(data.size()));
    // The incrementally maintained SoA mirror must be in lockstep with the
    // replayed catalog, bit for bit.
    ASSERT_EQ(live.cols().size(), static_cast<int32_t>(data.size()));
    for (int32_t row = 0; row < live.cols().size(); ++row)
      for (int dd = 0; dd < live.cols().dim(); ++dd)
        ASSERT_EQ(live.cols().at(row, dd), live.data()[row].attrs[dd]);
    QueryResult via_live = live.Run(spec);
    ASSERT_TRUE(via_live.ok) << via_live.error;
    if (d.mode == QueryMode::kUtk1) {
      EXPECT_EQ(via_live.ids, want.ids);
    } else {
      ExpectSameUtk2(*engine, d.k, want, via_live);
    }

    // --- LiveEngine recovered from a written segment ------------------
    // Exactly the materialization Catalog::Open performs: the segment's
    // columns, liveness bitmap and serialized R-tree go back into a
    // LiveEngine, which must answer like the engine that wrote them.
    {
      const std::string seg_path =
          ::testing::TempDir() + "utk_diff_" + std::to_string(i) + ".seg";
      std::vector<char> alive(data.size(), 1);
      ASSERT_EQ(WriteSegment(seg_path, data, alive, engine->tree(), 0),
                std::nullopt);
      std::string seg_error;
      auto seg = SegmentReader::Open(seg_path, &seg_error);
      ASSERT_NE(seg, nullptr) << seg_error;
      LiveEngine recovered(seg->MaterializeAll(), seg->AliveVector(),
                           seg->Tree(), seg->epoch());
      QueryResult via_recovered = recovered.Run(spec);
      ASSERT_TRUE(via_recovered.ok) << via_recovered.error;
      if (d.mode == QueryMode::kUtk1) {
        EXPECT_EQ(via_recovered.ids, want.ids);
      } else {
        ExpectSameUtk2(*engine, d.k, want, via_recovered);
      }
      EXPECT_EQ(recovered.TopK(*d.region.Pivot(), d.k),
                engine->TopK(*d.region.Pivot(), d.k));
      std::remove(seg_path.c_str());
    }

    if (HasFailure()) {
      ADD_FAILURE() << "differential mismatch — replay with UTK_DIFF_SEED="
                    << base_seed << " (failing draw: " << d.Describe() << ")";
      return;  // one broken draw is enough signal; keep the log readable
    }
  }
}

// Observability must be read-only: a draw executed with span tracing and
// the slow-query log armed returns results bit-identical to the untraced
// run — same ids, same cells, same witnesses, same execution counters.
TEST(Differential, TracingDoesNotPerturbExecution) {
  const uint64_t base_seed = EnvSeed();
  Rng rng(base_seed);
  const Draw d = NextDraw(rng, 1, base_seed);  // index 1: a UTK2/JAA draw
  SCOPED_TRACE("traced draw: " + d.Describe());

  Dataset data = Generate(d.dist, d.n, d.dim, d.seed);
  Engine engine((Dataset(data)));
  const QuerySpec spec = SpecFor(d);

  QueryResult plain = engine.Run(spec);
  ASSERT_TRUE(plain.ok) << plain.error;

  obs::ClearTrace();
  obs::SetTracingEnabled(true);
  obs::SetSlowQueryThresholdMs(0.0);
  std::vector<std::string> slow_lines;
  obs::SetSlowQuerySink([&slow_lines](const std::string& s) {
    slow_lines.push_back(s);
  });
  QueryResult traced = engine.Run(spec);
  obs::SetTracingEnabled(false);
  obs::SetSlowQueryThresholdMs(-1.0);
  obs::SetSlowQuerySink(nullptr);

  ASSERT_TRUE(traced.ok) << traced.error;
  EXPECT_EQ(traced.ids, plain.ids);
  EXPECT_EQ(traced.algorithm, plain.algorithm);
  ASSERT_EQ(traced.utk2.cells.size(), plain.utk2.cells.size());
  for (size_t c = 0; c < traced.utk2.cells.size(); ++c) {
    EXPECT_EQ(traced.utk2.cells[c].topk, plain.utk2.cells[c].topk);
    EXPECT_EQ(traced.utk2.cells[c].witness, plain.utk2.cells[c].witness);
  }
  // Deterministic execution counters match exactly (elapsed_ms and
  // peak_bytes may differ; everything the algorithms count must not).
  EXPECT_EQ(traced.stats.candidates, plain.stats.candidates);
  EXPECT_EQ(traced.stats.lp_calls, plain.stats.lp_calls);
  EXPECT_EQ(traced.stats.rdom_tests, plain.stats.rdom_tests);
  EXPECT_EQ(traced.stats.cells_created, plain.stats.cells_created);
  EXPECT_EQ(traced.stats.halfspaces_inserted,
            plain.stats.halfspaces_inserted);
  EXPECT_EQ(traced.stats.heap_pops, plain.stats.heap_pops);
  // And the instrumentation itself observed the run: spans were recorded,
  // the slow-query log fired exactly once.
  EXPECT_GT(obs::TraceEventCount(), 0u);
  EXPECT_EQ(slow_lines.size(), 1u);
  obs::ClearTrace();
}

TEST(Differential, ExplainAndHistoryDoNotPerturbExecution) {
  const uint64_t base_seed = EnvSeed();
  Rng rng(base_seed ^ 0xe1bba5);
  const std::string history_path =
      ::testing::TempDir() + "utk_differential_history";
  std::remove(history_path.c_str());

  for (int i = 0; i < 8; ++i) {
    const Draw d = NextDraw(rng, i, base_seed);
    SCOPED_TRACE("explain draw: " + d.Describe());
    Dataset data = Generate(d.dist, d.n, d.dim, d.seed);
    Engine engine((Dataset(data)));
    const QuerySpec spec = SpecFor(d);

    QueryResult plain = engine.Run(spec);
    ASSERT_TRUE(plain.ok) << plain.error;

    // EXPLAIN is static: running it must not execute anything, and the
    // observed lp_calls counter proves the query path stayed cold.
    const PlanNode static_plan = engine.Explain(spec);
    EXPECT_FALSE(static_plan.op.empty());

    // Re-run with the full observe loop on: history sink installed and the
    // same spec ANALYZEd. The answer and the deterministic counters must
    // be byte-identical to the plain run.
    std::shared_ptr<obs::HistoryWriter> writer =
        obs::HistoryWriter::Open(history_path);
    ASSERT_NE(writer, nullptr);
    obs::SetQueryHistory(writer);
    QueryResult observed;
    const PlanNode analyzed = engine.ExplainAnalyze(spec, &observed);
    obs::SetQueryHistory(nullptr);
    obs::ClearTrace();

    ASSERT_TRUE(observed.ok) << observed.error;
    EXPECT_EQ(observed.ids, plain.ids);
    EXPECT_EQ(observed.algorithm, plain.algorithm);
    if (d.mode == QueryMode::kUtk2)
      ExpectSameUtk2(engine, d.k, plain, observed);
    EXPECT_EQ(observed.stats.candidates, plain.stats.candidates);
    EXPECT_EQ(observed.stats.lp_calls, plain.stats.lp_calls);
    EXPECT_EQ(observed.stats.heap_pops, plain.stats.heap_pops);
    EXPECT_EQ(observed.stats.cells_created, plain.stats.cells_created);
    // The loop observed the run: a measured tree and one history row per
    // executed query.
    EXPECT_GT(analyzed.actual_ms, 0.0);
    EXPECT_EQ(writer->records(), 1);
  }
  std::remove(history_path.c_str());
}

// Every SIMD tier the host supports must reproduce the forced-scalar
// answer bit for bit at the engine level — ids, cells, witnesses, and the
// deterministic execution counters. Together with AllExecutionPathsAgree
// (which pins SoA against AoS on every draw under the active tier) this
// closes the triangle SIMD == forced-scalar == AoS across the full draw
// budget.
TEST(Differential, SimdTiersBitIdenticalAcrossEngineDraws) {
  const SimdTier best = BestSupportedSimdTier();
  if (best == SimdTier::kScalar)
    GTEST_SKIP() << "host has no SIMD tier; scalar==scalar is vacuous";

  const uint64_t base_seed = EnvSeed() ^ 0x51a4d;
  const int draws = EnvDraws();
  Rng rng(base_seed);
  const SimdTier prior = ActiveSimdTier();

  for (int i = 0; i < draws; ++i) {
    const Draw d = NextDraw(rng, i, base_seed);
    SCOPED_TRACE("draw " + std::to_string(i) + ": " + d.Describe());
    Dataset data = Generate(d.dist, d.n, d.dim, d.seed);
    Engine engine((Dataset(data)));
    const QuerySpec spec = SpecFor(d);

    SetSimdTier(SimdTier::kScalar);
    QueryResult scalar = engine.Run(spec);
    const Vec pivot = *d.region.Pivot();
    const std::vector<int32_t> full_scan_topk = TopK(data, pivot, d.k);
    EXPECT_EQ(engine.TopK(pivot, d.k), full_scan_topk);
    RSkybandResult scalar_band = ComputeRSkyband(
        engine.data(), engine.tree(), d.region, d.k, nullptr, &engine.cols());

    SetSimdTier(best);
    QueryResult simd = engine.Run(spec);
    ASSERT_EQ(simd.ok, scalar.ok) << simd.error;
    if (!scalar.ok) continue;

    EXPECT_EQ(simd.ids, scalar.ids);
    ASSERT_EQ(simd.utk2.cells.size(), scalar.utk2.cells.size());
    for (size_t c = 0; c < simd.utk2.cells.size(); ++c) {
      EXPECT_EQ(simd.utk2.cells[c].topk, scalar.utk2.cells[c].topk);
      EXPECT_EQ(simd.utk2.cells[c].witness, scalar.utk2.cells[c].witness);
    }
    EXPECT_EQ(simd.stats.candidates, scalar.stats.candidates);
    EXPECT_EQ(simd.stats.lp_calls, scalar.stats.lp_calls);
    EXPECT_EQ(simd.stats.rdom_tests, scalar.stats.rdom_tests);
    EXPECT_EQ(simd.stats.cells_created, scalar.stats.cells_created);
    EXPECT_EQ(simd.stats.heap_pops, scalar.stats.heap_pops);

    // Kernel-level spot checks on the same engine: the R-tree top-k (its
    // leaves score through ScoreBatch) and the r-skyband filter (dominator
    // arcs included) per tier.
    EXPECT_EQ(engine.TopK(pivot, d.k), full_scan_topk);
    RSkybandResult simd_band = ComputeRSkyband(
        engine.data(), engine.tree(), d.region, d.k, nullptr, &engine.cols());
    EXPECT_EQ(simd_band.ids, scalar_band.ids);
    EXPECT_EQ(simd_band.dominators, scalar_band.dominators);

    if (HasFailure()) {
      SetSimdTier(prior);
      ADD_FAILURE() << "tier mismatch — replay with UTK_DIFF_SEED="
                    << EnvSeed() << " (failing draw: " << d.Describe() << ")";
      return;
    }
  }
  SetSimdTier(prior);
}

}  // namespace
}  // namespace utk
