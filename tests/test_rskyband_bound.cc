// The k-th-best score bound in the r-skyband BBS (skyline/rskyband.cc,
// DESIGN.md §2): ComputeRSkyband may skip a node or a record only when the
// unbounded BBS (tests/rskyband_oracle.h) would reject every record under
// it anyway.
//
// Differential.RSkybandBound* compares the two filters on draws built to
// break a careless bound: exact duplicates, records equal in all but one
// attribute, attribute gaps of 0.5-3 kEps, k flat members with flat copies
// 0.5-3 kEps below them at scales 1 and 1e6, a non-box region, a 1e-6 box
// against the plane w_j = 0, boxes FromBox accepts within kEps of the
// simplex boundary, d = 2 and 7, and k >= n. Each cluster hides above a
// background it beats by a wide margin, so the bound is what has to decide
// it. Member ids, their order and every dominator list must be equal on
// the columnar and the AoS path, and the bounded filter may pop no more
// heap entries than the oracle. With the margin set to 0 the flat-copy
// and all-but-one draws fail: the copies 0.5 and 1 kEps below the flat
// members drop out of the band.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "common/rng.h"
#include "core/jaa.h"
#include "core/rsa.h"
#include "data/generator.h"
#include "data/workload.h"
#include "diff_env.h"
#include "exec/column_store.h"
#include "index/rtree.h"
#include "rskyband_oracle.h"
#include "skyline/rskyband.h"

namespace utk {
namespace {

/// A dataset with the tree and column store the filter runs over.
struct Catalog {
  explicit Catalog(Dataset d)
      : data(std::move(d)), tree(RTree::BulkLoad(data)), cols(data) {}
  Dataset data;
  RTree tree;
  ColumnStore cols;
};

/// Pops summed over the calls, bounded filter and oracle.
struct Pops {
  int64_t bound = 0;
  int64_t oracle = 0;
  void Add(const Pops& o) {
    bound += o.bound;
    oracle += o.oracle;
  }
};

/// Runs the bounded filter and the oracle on `r` and `k`, with the column
/// store and without it, and expects equal bands.
Pops ExpectSameBand(const Catalog& c, const ConvexRegion& r, int k) {
  Pops pops;
  const ColumnStore* const paths[] = {&c.cols, nullptr};
  for (const ColumnStore* cols : paths) {
    SCOPED_TRACE(std::string(cols == nullptr ? "AoS" : "SoA") +
                 " k=" + std::to_string(k));
    QueryStats got_stats, want_stats;
    const RSkybandResult got =
        ComputeRSkyband(c.data, c.tree, r, k, &got_stats, cols);
    const RSkybandResult want = rskyband_oracle::ComputeRSkyband(
        c.data, c.tree, r, k, &want_stats, cols);
    EXPECT_EQ(got.ids, want.ids);
    EXPECT_EQ(got.dominators, want.dominators);
    EXPECT_EQ(got_stats.candidates, want_stats.candidates);
    EXPECT_LE(got_stats.heap_pops, want_stats.heap_pops);
    pops.bound += got_stats.heap_pops;
    pops.oracle += want_stats.heap_pops;
  }
  return pops;
}

Pops CompareAll(const Catalog& c, const std::vector<ConvexRegion>& regions,
                const std::vector<int>& ks) {
  Pops pops;
  for (size_t i = 0; i < regions.size(); ++i) {
    SCOPED_TRACE("region " + std::to_string(i));
    for (int k : ks) pops.Add(ExpectSameBand(c, regions[i], k));
  }
  return pops;
}

/// `cluster` (points in [0.7, 0.9]^dim, a few kEps either way) shuffled
/// into `background` records drawn in [0, 0.5]^dim, everything times
/// `scale`, ids renumbered to positions.
Dataset WithBackground(const std::vector<Vec>& cluster, int dim, int background,
                       Rng& rng, Scalar scale = 1.0) {
  std::vector<Vec> points = cluster;
  for (int i = 0; i < background; ++i) {
    Vec v(dim);
    for (Scalar& x : v) x = scale * rng.Uniform(0.0, 0.5);
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

/// `members` flat records at c = scale * U(0.7, 0.9) (every attribute c,
/// so S = c at every weight vector) and flat copies at
/// c - g * kEps * gap_scale for g in {0.5, 1, 1.5, 2, 3}. With gap_scale
/// 1 the copies score within a few kEps of the members everywhere, so the
/// unbounded BBS keeps the closest of them; a bound without its margin
/// would skip them.
std::vector<Vec> FlatCopies(int dim, int members, Scalar scale,
                            Scalar gap_scale, Rng& rng) {
  std::vector<Vec> out;
  const Scalar c = scale * rng.Uniform(0.7, 0.9);
  for (int i = 0; i < members; ++i) out.push_back(Vec(dim, c));
  for (Scalar g : {0.5, 1.0, 1.5, 2.0, 3.0})
    out.push_back(Vec(dim, c - g * kEps * gap_scale));
  return out;
}

/// A box of side 1e-6 against the plane w_j = 0 (inside the simplex).
ConvexRegion SliverBox(int pref_dim, int j, Rng& rng) {
  Vec lo(pref_dim), hi(pref_dim);
  for (int i = 0; i < pref_dim; ++i) {
    lo[i] = i == j ? 0.0 : rng.Uniform(0.1, 0.3) / pref_dim;
    hi[i] = lo[i] + 1e-6;
  }
  return ConvexRegion::FromBox(lo, hi);
}

/// Boxes that FromBox still accepts as inside the simplex although they
/// leave it by up to kEps: lower bounds at -0.5 or -1 kEps (one wide box,
/// one 1e-6 sliver), and upper bounds summing to 1 + 0.5 or 0.9 kEps.
std::vector<ConvexRegion> NearSimplexBoxes(int pref_dim, Rng& rng) {
  std::vector<ConvexRegion> out;
  const Scalar below = -kEps * (rng.UniformInt(0, 1) == 0 ? 0.5 : 1.0);
  Vec lo(pref_dim, below), hi(pref_dim);
  for (int i = 0; i < pref_dim; ++i)
    hi[i] = below + rng.Uniform(0.05, 0.9 / pref_dim);
  out.push_back(ConvexRegion::FromBox(lo, hi));

  const int j = rng.UniformInt(0, pref_dim - 1);
  for (int i = 0; i < pref_dim; ++i) {
    lo[i] = i == j ? below : rng.Uniform(0.1, 0.3) / pref_dim;
    hi[i] = lo[i] + 1e-6;
  }
  out.push_back(ConvexRegion::FromBox(lo, hi));

  // 0.9 rather than 1: the sum of the upper bounds rounds.
  const Scalar above = kEps * (rng.UniformInt(0, 1) == 0 ? 0.5 : 0.9);
  Scalar sum = 0.0;
  for (int i = 0; i + 1 < pref_dim; ++i) {
    hi[i] = rng.Uniform(0.1, 0.8) / pref_dim;
    lo[i] = hi[i] - rng.Uniform(0.02, 0.05) / pref_dim;
    sum += hi[i];
  }
  hi[pref_dim - 1] = 1.0 + above - sum;
  lo[pref_dim - 1] = hi[pref_dim - 1] - 0.02;
  out.push_back(ConvexRegion::FromBox(lo, hi));
  for (const ConvexRegion& r : out) EXPECT_TRUE(r.is_box());
  return out;
}

/// A random box cut by one oblique half-space through its centre: not a
/// box, so the bound stays off and the generic r-dominance path runs.
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

/// A random box, a non-box region, a sliver against each plane w_j = 0
/// and the near-simplex boxes.
std::vector<ConvexRegion> Regions(int pref_dim, Rng& rng) {
  std::vector<ConvexRegion> regions = {RandomQueryBox(pref_dim, 0.1, rng),
                                       NonBox(pref_dim, rng)};
  for (int j = 0; j < pref_dim; ++j)
    regions.push_back(SliverBox(pref_dim, j, rng));
  for (ConvexRegion& r : NearSimplexBoxes(pref_dim, rng))
    regions.push_back(std::move(r));
  return regions;
}

using ClusterFn = std::vector<Vec> (*)(int, Rng&);

/// Draws a cluster per (dim, draw) and compares over Regions().
void RunClusterDraws(ClusterFn cluster, uint64_t salt) {
  const uint64_t seed = EnvSeed() ^ salt;
  for (int dim : {2, 3, 4, 7}) {
    for (int draw = 0; draw < 3; ++draw) {
      SCOPED_TRACE("dim=" + std::to_string(dim) + " draw=" +
                   std::to_string(draw) + " (UTK_DIFF_SEED=" +
                   std::to_string(EnvSeed()) + ")");
      Rng rng(seed + 1000 * dim + draw);
      const Catalog c(WithBackground(cluster(dim, rng), dim, 150, rng));
      CompareAll(c, Regions(dim - 1, rng), {1, 2, 3});
    }
  }
}

TEST(Differential, RSkybandBoundExactDuplicates) {
  RunClusterDraws(&Duplicates, 0xd0b1e5);
}

TEST(Differential, RSkybandBoundEqualInAllButOneAttribute) {
  RunClusterDraws(&AllButOne, 0xa11b07);
}

TEST(Differential, RSkybandBoundEpsilonGaps) {
  RunClusterDraws(&EpsGaps, 0xe95);
}

TEST(Differential, RSkybandBoundFlatCopies) {
  const uint64_t seed = EnvSeed() ^ 0xf1a7;
  for (Scalar scale : {1.0, 1e6}) {
    for (Scalar gap_scale : {1.0, scale}) {
      for (int dim : {2, 3, 4, 7}) {
        for (int k : {1, 2, 3}) {
          SCOPED_TRACE("scale=" + std::to_string(scale) + " gap_scale=" +
                       std::to_string(gap_scale) + " dim=" +
                       std::to_string(dim) + " k=" + std::to_string(k) +
                       " (UTK_DIFF_SEED=" + std::to_string(EnvSeed()) + ")");
          Rng rng(seed + 100 * dim + k);
          const Catalog c(WithBackground(
              FlatCopies(dim, k, scale, gap_scale, rng), dim, 150, rng,
              scale));
          std::vector<ConvexRegion> regions = {
              RandomQueryBox(dim - 1, 0.1, rng),
              SliverBox(dim - 1, rng.UniformInt(0, dim - 2), rng)};
          for (ConvexRegion& r : NearSimplexBoxes(dim - 1, rng))
            regions.push_back(std::move(r));
          CompareAll(c, regions, {k});
        }
      }
    }
  }
}

TEST(Differential, RSkybandBoundKAtLeastN) {
  Rng rng(EnvSeed() ^ 0x4b4e);
  // k >= n: tau never fills, and every record is a member.
  const Catalog tiny(WithBackground(EpsGaps(3, rng), 3, 0, rng));
  const int n = static_cast<int>(tiny.data.size());
  CompareAll(tiny, {RandomQueryBox(2, 0.1, rng)}, {n, n + 5});
  // k >= the cluster's size but < n: the band reaches into the background.
  const Catalog c(WithBackground(Duplicates(3, rng), 3, 60, rng));
  CompareAll(c, {RandomQueryBox(2, 0.1, rng), SliverBox(2, 0, rng)},
             {20, 33});
}

TEST(Differential, RSkybandBoundGeneratedDraws) {
  const uint64_t seed = EnvSeed() ^ 0x6e4;
  Pops pops;
  for (Distribution dist :
       {Distribution::kIndependent, Distribution::kCorrelated,
        Distribution::kAnticorrelated}) {
    for (int dim : {2, 4, 7}) {
      SCOPED_TRACE("dist=" + std::to_string(static_cast<int>(dist)) +
                   " dim=" + std::to_string(dim) + " (UTK_DIFF_SEED=" +
                   std::to_string(EnvSeed()) + ")");
      const Catalog c(Generate(dist, 2000, dim, seed + dim));
      Rng rng(seed + 7 * dim);
      pops.Add(CompareAll(c,
                          {RandomQueryBox(dim - 1, 0.01, rng),
                           RandomQueryBox(dim - 1, 0.05, rng)},
                          {1, 10}));
    }
  }
  // The bound is live: over ordinary data it skips most of the tree.
  EXPECT_LT(2 * pops.bound, pops.oracle);
}

/// Engine::Run's answers equal refinement over the oracle's band, for a
/// mix of k on one engine (the bound keeps no per-k state).
TEST(Differential, RSkybandBoundEngineAnswers) {
  Rng rng(EnvSeed() ^ 0x5107);
  const Engine engine(WithBackground(AllButOne(3, rng), 3, 200, rng));
  const std::vector<ConvexRegion> regions = {RandomQueryBox(2, 0.1, rng),
                                             SliverBox(2, 1, rng)};
  for (const ConvexRegion& region : regions) {
    for (int k : {2, 9, 3, 2, 1, 5}) {
      SCOPED_TRACE("k=" + std::to_string(k));
      QuerySpec spec;
      spec.k = k;
      spec.region = region;
      Rsa::Options opt;
      opt.use_drill = spec.use_drill;
      opt.use_lemma1 = spec.use_lemma1;
      opt.wave_cap = spec.wave_cap;
      const RSkybandResult band = rskyband_oracle::ComputeRSkyband(
          engine.data(), engine.tree(), region, k, nullptr, &engine.cols());

      spec.mode = QueryMode::kUtk1;
      spec.algorithm = Algorithm::kRsa;
      const QueryResult utk1 = engine.Run(spec);
      ASSERT_TRUE(utk1.ok) << utk1.error;
      EXPECT_EQ(utk1.ids,
                Rsa(opt).RunFiltered(engine.data(), band, region, k).ids);
      EXPECT_EQ(utk1.stats.candidates, static_cast<int64_t>(band.ids.size()));

      spec.mode = QueryMode::kUtk2;
      spec.algorithm = Algorithm::kJaa;
      const QueryResult utk2 = engine.Run(spec);
      ASSERT_TRUE(utk2.ok) << utk2.error;
      const Utk2Result want =
          Jaa(opt).RunFiltered(engine.data(), band, region, k);
      ASSERT_EQ(utk2.utk2.cells.size(), want.cells.size());
      for (size_t i = 0; i < want.cells.size(); ++i) {
        EXPECT_EQ(utk2.utk2.cells[i].topk, want.cells[i].topk) << i;
        EXPECT_EQ(utk2.utk2.cells[i].witness, want.cells[i].witness) << i;
      }
    }
  }
}

}  // namespace
}  // namespace utk
