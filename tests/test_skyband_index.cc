// The engine's skyband index (api/engine.h, DESIGN.md §2): RSA and JAA
// filter a per-K superset of every r-skyband instead of the whole dataset.
//
// Differential.SkybandIndex* compares Engine::Run, which goes through the
// index, with RunRSkyband over the engine's full tree on draws built to
// break a careless superset: exact duplicates, records equal in all but
// one attribute, attribute gaps of 0.5-3 kEps, a non-box region, a 1e-6
// box against the plane w_j = 0, k >= n, and slots filled out of order.
// UTK1 ids, UTK2 cell top-k lists, witnesses and bound counts must be
// byte-equal. Each draw hides a degenerate cluster above a background the
// cluster beats by a wide margin, so the index exists (it keeps far fewer
// than 3/4 of the records) and the cluster is what it has to decide.
//
// EngineIndex.* pins the slot life cycle: one build per distinct K under
// concurrent first use, and counters that depend on the spec alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "api/engine.h"
#include "common/rng.h"
#include "data/generator.h"
#include "data/workload.h"
#include "diff_env.h"
#include "obs/metrics.h"
#include "scoped_threads.h"

namespace utk {
namespace {

QuerySpec MakeSpec(QueryMode mode, int k, const ConvexRegion& region) {
  QuerySpec spec;
  spec.mode = mode;
  spec.algorithm =
      mode == QueryMode::kUtk1 ? Algorithm::kRsa : Algorithm::kJaa;
  spec.k = k;
  spec.region = region;
  return spec;
}

/// `cluster` (points in [0.7, 0.9]^dim, a few kEps either way) shuffled
/// into `background` records drawn in [0, 0.5]^dim, ids renumbered to
/// positions.
Dataset WithBackground(const std::vector<Vec>& cluster, int dim, int background,
                       Rng& rng) {
  std::vector<Vec> points = cluster;
  for (int i = 0; i < background; ++i) {
    Vec v(dim);
    for (Scalar& x : v) x = rng.Uniform(0.0, 0.5);
    points.push_back(std::move(v));
  }
  for (size_t i = points.size(); i > 1; --i)
    std::swap(points[i - 1],
              points[rng.UniformInt(0, static_cast<int>(i) - 1)]);
  Dataset data(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    data[i].id = static_cast<int32_t>(i);
    data[i].attrs = std::move(points[i]);
  }
  return data;
}

Vec RandomTopPoint(int dim, Rng& rng) {
  Vec v(dim);
  for (Scalar& x : v) x = rng.Uniform(0.7, 0.9);
  return v;
}

/// Exact duplicates: a few top points, each repeated 1-3 times.
std::vector<Vec> Duplicates(int dim, Rng& rng) {
  std::vector<Vec> out;
  for (int i = 0; i < 6; ++i) {
    const Vec v = RandomTopPoint(dim, rng);
    for (int c = rng.UniformInt(1, 3); c > 0; --c) out.push_back(v);
  }
  return out;
}

/// Records equal to a base point in all but one attribute, which moves by
/// a random amount down to a few kEps.
std::vector<Vec> AllButOne(int dim, Rng& rng) {
  std::vector<Vec> out;
  for (int b = 0; b < 3; ++b) {
    const Vec base = RandomTopPoint(dim, rng);
    out.push_back(base);
    for (int i = 0; i < 4; ++i) {
      Vec v = base;
      const Scalar step = rng.UniformInt(0, 1) == 0 ? rng.Uniform(-0.05, 0.05)
                                                    : rng.UniformInt(-4, 4) *
                                                          kEps;
      v[rng.UniformInt(0, dim - 1)] += step;
      out.push_back(std::move(v));
    }
  }
  return out;
}

/// A base point and copies raised by 0.5, 1, 2 and 3 kEps in one attribute
/// and in every attribute.
std::vector<Vec> EpsGaps(int dim, Rng& rng) {
  std::vector<Vec> out;
  const Vec base = RandomTopPoint(dim, rng);
  out.push_back(base);
  const int j = rng.UniformInt(0, dim - 1);
  for (Scalar g : {0.5, 1.0, 2.0, 3.0}) {
    Vec one = base;
    one[j] += g * kEps;
    out.push_back(std::move(one));
    Vec all = base;
    for (Scalar& x : all) x += g * kEps;
    out.push_back(std::move(all));
  }
  out.push_back(RandomTopPoint(dim, rng));
  return out;
}

/// A box of side 1e-6 against the plane w_j = 0 (inside the simplex).
ConvexRegion SliverBox(int pref_dim, int j, Rng& rng) {
  Vec lo(pref_dim), hi(pref_dim);
  for (int i = 0; i < pref_dim; ++i) {
    lo[i] = i == j ? 0.0 : rng.Uniform(0.1, 0.3);
    hi[i] = lo[i] + 1e-6;
  }
  return ConvexRegion::FromBox(lo, hi);
}

/// A random box cut by one oblique half-space through its centre: not a
/// box, so the generic r-dominance path runs.
ConvexRegion NonBox(int pref_dim, Rng& rng) {
  const ConvexRegion box = RandomQueryBox(pref_dim, 0.15, rng);
  std::vector<Halfspace> cons = box.constraints();
  const Vec centre = *box.Pivot();
  Halfspace cut;
  cut.a.resize(pref_dim);
  for (int i = 0; i < pref_dim; ++i) {
    cut.a[i] = rng.Uniform(-1.0, 1.0);
    cut.b += cut.a[i] * centre[i];
  }
  cons.push_back(cut);
  return ConvexRegion(std::move(cons));
}

/// Runs `spec` on `engine` and through RunRSkyband over its full tree, and
/// expects byte-equal answers. Returns true when the two filters walked
/// different trees (the index was used).
bool ExpectSameAsFullTree(const Engine& engine, const QuerySpec& spec) {
  const QueryResult got = engine.Run(spec);
  EXPECT_TRUE(got.ok) << got.error;
  if (!got.ok) return false;
  const QueryResult want = RunRSkyband(engine.data(), engine.tree(),
                                       &engine.cols(), spec, spec.algorithm);
  EXPECT_EQ(got.ids, want.ids);
  EXPECT_EQ(got.stats.candidates, want.stats.candidates);
  EXPECT_EQ(got.utk2.cells.size(), want.utk2.cells.size());
  if (got.utk2.cells.size() == want.utk2.cells.size()) {
    for (size_t c = 0; c < got.utk2.cells.size(); ++c) {
      EXPECT_EQ(got.utk2.cells[c].topk, want.utk2.cells[c].topk) << c;
      EXPECT_EQ(got.utk2.cells[c].witness, want.utk2.cells[c].witness) << c;
      EXPECT_EQ(got.utk2.cells[c].bounds.size(),
                want.utk2.cells[c].bounds.size())
          << c;
    }
  }
  return got.stats.heap_pops != want.stats.heap_pops;
}

/// Both modes at every k in `ks` over each region, in order, on one engine.
int CompareAll(const Engine& engine, const std::vector<ConvexRegion>& regions,
               const std::vector<int>& ks) {
  int indexed = 0;
  for (const ConvexRegion& region : regions) {
    for (int k : ks) {
      for (QueryMode mode : {QueryMode::kUtk1, QueryMode::kUtk2}) {
        SCOPED_TRACE("k=" + std::to_string(k) + " mode=" +
                     QueryModeName(mode));
        if (ExpectSameAsFullTree(engine, MakeSpec(mode, k, region)))
          ++indexed;
      }
    }
  }
  return indexed;
}

using ClusterFn = std::vector<Vec> (*)(int, Rng&);

/// Draws a cluster per (dim, draw), then compares on random boxes, a
/// non-box region and a sliver box against each plane w_j = 0.
void RunClusterDraws(ClusterFn cluster, uint64_t salt) {
  const uint64_t seed = EnvSeed() ^ salt;
  int indexed = 0;
  for (int dim : {3, 4}) {
    for (int draw = 0; draw < 4; ++draw) {
      SCOPED_TRACE("dim=" + std::to_string(dim) + " draw=" +
                   std::to_string(draw) + " (UTK_DIFF_SEED=" +
                   std::to_string(EnvSeed()) + ")");
      Rng rng(seed + 1000 * dim + draw);
      const Engine engine(WithBackground(cluster(dim, rng), dim, 150, rng));
      std::vector<ConvexRegion> regions = {
          RandomQueryBox(dim - 1, 0.1, rng), NonBox(dim - 1, rng)};
      for (int j = 0; j < dim - 1; ++j)
        regions.push_back(SliverBox(dim - 1, j, rng));
      indexed += CompareAll(engine, regions, {1, 2, 3});
    }
  }
  EXPECT_GT(indexed, 0) << "no query ran through the index";
}

TEST(Differential, SkybandIndexExactDuplicates) {
  RunClusterDraws(&Duplicates, 0xd0b1e5);
}

TEST(Differential, SkybandIndexEqualInAllButOneAttribute) {
  RunClusterDraws(&AllButOne, 0xa11b07);
}

TEST(Differential, SkybandIndexEpsilonGaps) {
  RunClusterDraws(&EpsGaps, 0xe95);
}

TEST(Differential, SkybandIndexKAtLeastN) {
  Rng rng(EnvSeed() ^ 0x4b4e);
  // k >= n: K >= n stores no index, and the full tree answers.
  const Engine tiny(WithBackground(EpsGaps(3, rng), 3, 0, rng));
  const int n = static_cast<int>(tiny.size());
  CompareAll(tiny, {RandomQueryBox(2, 0.1, rng)}, {n, n + 5});
  // k >= the cluster's size but < n: the index reaches into the
  // background.
  const Engine engine(WithBackground(Duplicates(3, rng), 3, 60, rng));
  CompareAll(engine, {RandomQueryBox(2, 0.1, rng), SliverBox(2, 0, rng)},
             {20, 33});
}

TEST(Differential, SkybandIndexSlotsFilledOutOfOrder) {
  Rng rng(EnvSeed() ^ 0x5107);
  const Engine engine(WithBackground(AllButOne(3, rng), 3, 200, rng));
  const std::vector<ConvexRegion> regions = {RandomQueryBox(2, 0.1, rng),
                                             SliverBox(2, 1, rng)};
  // A k above every earlier K opens a new slot; a smaller k then reuses
  // an older one.
  EXPECT_GT(CompareAll(engine, regions, {2, 9, 3, 2, 1, 5}), 0);
}

TEST(EngineIndex, ConcurrentFirstUseBuildsOnce) {
  const Dataset data = Generate(Distribution::kIndependent, 3000, 3, 77);
  const std::vector<ConvexRegion> boxes = QueryBatch(2, 0.05, 24, 9);
  const int ks[] = {1, 2, 3, 5, 9};  // K = 1, 2, 4, 8, 16
  std::vector<QuerySpec> specs;
  for (size_t i = 0; i < boxes.size(); ++i) {
    const int k = ks[i % 5];
    specs.push_back(MakeSpec(
        k <= 3 && i % 2 == 1 ? QueryMode::kUtk2 : QueryMode::kUtk1, k,
        boxes[i]));
  }

  const Engine serial_engine((Dataset(data)));
  std::vector<QueryResult> serial;
  for (const QuerySpec& spec : specs) serial.push_back(serial_engine.Run(spec));

  obs::Counter& builds = obs::MetricRegistry::Global().GetCounter(
      "utk_skyband_index_builds_total");
  const Engine engine((Dataset(data)));
  const int64_t before = builds.Value();
  BatchQueryResult batch;
  {
    ScopedThreads threads(8);
    batch = engine.RunBatch(specs, 8);
  }
  EXPECT_EQ(builds.Value() - before, 5);
  ASSERT_EQ(batch.failed, 0);
  for (size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE("spec " + std::to_string(i));
    const QueryResult& got = batch.results[i];
    const QueryResult& want = serial[i];
    EXPECT_EQ(got.ids, want.ids);
    ASSERT_EQ(got.utk2.cells.size(), want.utk2.cells.size());
    for (size_t c = 0; c < got.utk2.cells.size(); ++c) {
      EXPECT_EQ(got.utk2.cells[c].topk, want.utk2.cells[c].topk);
      EXPECT_EQ(got.utk2.cells[c].witness, want.utk2.cells[c].witness);
    }
    EXPECT_EQ(got.stats.candidates, want.stats.candidates);
    EXPECT_EQ(got.stats.heap_pops, want.stats.heap_pops);
    EXPECT_EQ(got.stats.rdom_tests, want.stats.rdom_tests);
    EXPECT_EQ(got.stats.lp_calls, want.stats.lp_calls);
    EXPECT_EQ(got.stats.cells_created, want.stats.cells_created);
    EXPECT_EQ(got.stats.halfspaces_inserted, want.stats.halfspaces_inserted);
    EXPECT_EQ(got.stats.drills, want.stats.drills);
    EXPECT_EQ(got.stats.verify_calls, want.stats.verify_calls);
  }
}

TEST(EngineIndex, CountersDependOnTheSpecAlone) {
  const Dataset data = Generate(Distribution::kIndependent, 3000, 3, 78);
  const Engine engine((Dataset(data)));
  const ConvexRegion box = ConvexRegion::FromBox({0.2, 0.3}, {0.25, 0.35});
  const QuerySpec spec = MakeSpec(QueryMode::kUtk1, 3, box);

  const QueryResult first = engine.Run(spec);
  ASSERT_TRUE(engine.Run(MakeSpec(QueryMode::kUtk1, 12, box)).ok);
  const QueryResult again = engine.Run(spec);
  const QueryResult fresh = Engine((Dataset(data))).Run(spec);
  for (const QueryResult* r : {&first, &again, &fresh}) {
    ASSERT_TRUE(r->ok) << r->error;
    EXPECT_EQ(r->ids, first.ids);
    EXPECT_EQ(r->stats.heap_pops, first.stats.heap_pops);
    EXPECT_EQ(r->stats.rdom_tests, first.stats.rdom_tests);
    EXPECT_EQ(r->stats.lp_calls, first.stats.lp_calls);
  }
  // The index is what the filter walked: fewer pops than the full tree.
  const QueryResult full = RunRSkyband(engine.data(), engine.tree(),
                                       &engine.cols(), spec, Algorithm::kRsa);
  EXPECT_EQ(full.ids, first.ids);
  EXPECT_LT(first.stats.heap_pops, full.stats.heap_pops);
}

}  // namespace
}  // namespace utk
