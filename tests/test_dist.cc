// The partitioned execution subsystem (src/dist/): partitioners, the region
// tiler, the sharded filter's superset guarantee, and — the load-bearing
// property — equality of sharded/tiled answers with Engine::Run across
// generators, modes, shard counts, and tile counts.
#include "dist/partitioned_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include "data/generator.h"
#include "data/realistic.h"
#include "dist/partition.h"
#include "dist/tiler.h"
#include "geometry/linear.h"
#include "skyline/rdominance.h"
#include "skyline/rskyband.h"

namespace utk {
namespace {

// Generator index 0-2: IND / COR / ANTI (3D); 3: the realistic HOTEL-like
// stand-in (4D), so the matrix covers both preference dimensionalities.
Dataset MakeData(int generator, int n = 110) {
  if (generator == 3) return GenerateHotelLike(n, 20250729);
  return Generate(static_cast<Distribution>(generator), n, 3, 20250729);
}

ConvexRegion RegionFor(int pref_dim) {
  if (pref_dim == 2) return ConvexRegion::FromBox({0.2, 0.25}, {0.35, 0.4});
  return ConvexRegion::FromBox({0.2, 0.2, 0.2}, {0.3, 0.3, 0.3});
}

QuerySpec MakeSpec(QueryMode mode, int k, ConvexRegion region,
                   Algorithm algo = Algorithm::kAuto) {
  QuerySpec spec;
  spec.mode = mode;
  spec.algorithm = algo;
  spec.k = k;
  spec.region = std::move(region);
  return spec;
}

// Every UTK2 cell must carry the exact top-k at its witness — an
// engine-independent ground-truth check that validates tiled partitions
// without comparing cell geometry.
void ExpectCellsMatchTopkAtWitness(const Engine& engine, int k,
                                   const Utk2Result& utk2) {
  for (const Utk2Cell& cell : utk2.cells) {
    std::vector<int32_t> topk = engine.TopK(cell.witness, k);
    std::sort(topk.begin(), topk.end());
    EXPECT_EQ(topk, cell.topk);
  }
}

TEST(DistPartition, RoundRobinAssignsByIndex) {
  Dataset data = MakeData(0, 10);
  auto parts = PartitionIds(data, 3, Partitioner::kRoundRobin);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], (std::vector<int32_t>{0, 3, 6, 9}));
  EXPECT_EQ(parts[1], (std::vector<int32_t>{1, 4, 7}));
  EXPECT_EQ(parts[2], (std::vector<int32_t>{2, 5, 8}));
}

TEST(DistPartition, SpatialCoversDisjointlyWithExactShardCount) {
  Dataset data = MakeData(2, 97);
  for (int shards : {1, 2, 4, 7}) {
    auto parts = PartitionIds(data, shards, Partitioner::kSpatial);
    ASSERT_EQ(parts.size(), static_cast<size_t>(shards));
    std::set<int32_t> seen;
    for (const auto& shard : parts)
      for (int32_t id : shard) EXPECT_TRUE(seen.insert(id).second) << id;
    EXPECT_EQ(seen.size(), data.size());
  }
}

TEST(DistPartition, MoreShardsThanRecordsYieldsEmptyShards)  {
  Dataset data = MakeData(0, 5);
  for (Partitioner p : {Partitioner::kRoundRobin, Partitioner::kSpatial}) {
    auto parts = PartitionIds(data, 7, p);
    ASSERT_EQ(parts.size(), 7u);
    size_t total = 0, empty = 0;
    for (const auto& shard : parts) {
      total += shard.size();
      empty += shard.empty() ? 1 : 0;
    }
    EXPECT_EQ(total, 5u);
    EXPECT_GE(empty, 2u) << PartitionerName(p);
  }
}

TEST(DistPartition, NamesRoundTrip) {
  for (Partitioner p : {Partitioner::kRoundRobin, Partitioner::kSpatial}) {
    auto parsed = ParsePartitioner(PartitionerName(p));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, p);
  }
  EXPECT_EQ(ParsePartitioner("STR"), Partitioner::kSpatial);
  EXPECT_EQ(ParsePartitioner("RoundRobin"), Partitioner::kRoundRobin);
  EXPECT_FALSE(ParsePartitioner("hash").has_value());
}

TEST(DistTiler, TilesPartitionABoxRegion) {
  ConvexRegion region = ConvexRegion::FromBox({0.1, 0.2}, {0.4, 0.4});
  for (int t : {1, 2, 3, 5}) {
    std::vector<ConvexRegion> tiles = TileRegion(region, t);
    ASSERT_EQ(tiles.size(), static_cast<size_t>(t));
    double volume = 0.0;
    for (const ConvexRegion& tile : tiles) {
      ASSERT_TRUE(tile.is_box());  // box tiles stay boxes
      EXPECT_TRUE(region.ContainsRegion(tile));
      EXPECT_TRUE(tile.HasInteriorPoint());
      volume += (tile.box_hi()[0] - tile.box_lo()[0]) *
                (tile.box_hi()[1] - tile.box_lo()[1]);
    }
    EXPECT_NEAR(volume, 0.3 * 0.2, 1e-9);  // no overlap, no gap
    // Interiors are pairwise disjoint: no tile's pivot lies strictly inside
    // another tile.
    for (size_t i = 0; i < tiles.size(); ++i) {
      auto pivot = tiles[i].Pivot();
      ASSERT_TRUE(pivot.has_value());
      for (size_t j = 0; j < tiles.size(); ++j) {
        if (i == j) continue;
        EXPECT_FALSE(tiles[j].Contains(*pivot, -1e-9));
      }
    }
  }
}

TEST(DistTiler, GeneralRegionAndDegenerateBudget) {
  // The full simplex is not a box; tiling must still partition it.
  ConvexRegion simplex = ConvexRegion::FullDomain(2);
  std::vector<ConvexRegion> tiles = TileRegion(simplex, 3);
  ASSERT_EQ(tiles.size(), 3u);
  for (const ConvexRegion& tile : tiles) {
    EXPECT_TRUE(tile.HasInteriorPoint());
    EXPECT_TRUE(simplex.ContainsRegion(tile));
  }
  // A region too thin to cut delivers fewer tiles rather than degenerate
  // ones.
  ConvexRegion thin = ConvexRegion::FromBox({0.2, 0.2}, {0.2 + 1e-8, 0.4});
  EXPECT_LE(TileRegion(thin, 4).size(), 2u);
  // Budget <= 1 is identity.
  EXPECT_EQ(TileRegion(simplex, 1).size(), 1u);
  EXPECT_EQ(TileRegion(simplex, 0).size(), 1u);
}

TEST(DistFilter, PooledCandidatesAreASupersetOfTheGlobalBand) {
  Engine engine(MakeData(2));
  ConvexRegion region = RegionFor(2);
  RSkybandResult global =
      ComputeRSkyband(engine.data(), engine.tree(), region, 4);

  for (Partitioner p : {Partitioner::kRoundRobin, Partitioner::kSpatial}) {
    DistConfig config;
    config.shards = 4;
    config.partitioner = p;
    config.threads = 2;
    PartitionedEngine dist(MakeData(2), config);
    ShardFilterReport report;
    QueryStats stats;
    std::vector<int32_t> pool = dist.FilterPool(region, 4, &report, &stats);
    EXPECT_TRUE(std::is_sorted(pool.begin(), pool.end()));
    for (int32_t id : global.ids)
      EXPECT_TRUE(std::binary_search(pool.begin(), pool.end(), id))
          << "global band member " << id << " missing from the pool ("
          << PartitionerName(p) << ")";
    ASSERT_EQ(report.shard_candidates.size(), 4u);
    int64_t sum = 0;
    for (int64_t c : report.shard_candidates) sum += c;
    EXPECT_EQ(sum, report.pool);  // shards are disjoint
    EXPECT_EQ(report.pool, static_cast<int64_t>(pool.size()));
    EXPECT_GT(stats.heap_pops, 0);
  }
}

TEST(DistFilter, SeededFilterMatchesBruteForceMembership) {
  // Seeded r-skyband semantics: {p in data : #r-dominators of p within
  // data ∪ pruners < k}, with pruners never emitted.
  Dataset full = MakeData(2, 80);
  ConvexRegion region = RegionFor(2);
  const int k = 3;

  Dataset shard;
  std::vector<Record> pool_odd;
  for (const Record& r : full) {
    if (r.id % 2 == 0) {
      Record copy = r;
      copy.id = static_cast<int32_t>(shard.size());
      shard.push_back(std::move(copy));
    } else {
      pool_odd.push_back(r);
    }
  }
  auto pivot = region.Pivot();
  ASSERT_TRUE(pivot.has_value());
  std::sort(pool_odd.begin(), pool_odd.end(),
            [&](const Record& a, const Record& b) {
              return Score(a, *pivot) > Score(b, *pivot);
            });
  std::vector<Record> pruners(pool_odd.begin(), pool_odd.begin() + 10);

  RTree tree = RTree::BulkLoad(shard);
  RSkybandResult band = ComputeRSkyband(shard, tree, region, k, pruners);
  std::set<int32_t> members(band.ids.begin(), band.ids.end());

  for (const Record& p : shard) {
    int count = 0;
    for (const Record& q : shard)
      if (q.id != p.id && RDominance(q, p, region) == RDom::kDominates)
        ++count;
    for (const Record& q : pruners)
      if (RDominance(q, p, region) == RDom::kDominates) ++count;
    EXPECT_EQ(count < k, members.count(p.id) > 0) << "record " << p.id;
  }
  // Pruners are never emitted: every band id is a shard-local id.
  for (int32_t id : band.ids)
    EXPECT_LT(id, static_cast<int32_t>(shard.size()));
}

TEST(DistFilter, PoolRefilterEqualsGlobalBandMembership) {
  // Re-filtering the pooled superset within itself prunes exactly the
  // members outside the global r-skyband.
  Engine engine(MakeData(0));
  ConvexRegion region = RegionFor(2);
  RSkybandResult global =
      ComputeRSkyband(engine.data(), engine.tree(), region, 3);
  DistConfig config;
  config.shards = 3;
  PartitionedEngine dist(MakeData(0), config);
  std::vector<int32_t> pool = dist.FilterPool(region, 3);
  RSkybandResult band =
      ComputeRSkybandFromPool(engine.data(), pool, region, 3);
  std::vector<int32_t> got = band.ids, want = global.ids;
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

// The equality matrix the subsystem stands on: (generator, shards, tiles).
class DistEqualityTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(DistEqualityTest, ShardedTiledAnswersEqualSingleEngine) {
  const auto [generator, shards, tiles] = GetParam();
  Dataset data = MakeData(generator);
  Engine reference(MakeData(generator));
  ConvexRegion region = RegionFor(reference.pref_dim());
  const int k = 3;

  DistConfig config;
  config.shards = shards;
  config.tiles = tiles;
  // Exercise both partitioners across the matrix without doubling it.
  config.partitioner = (generator + shards) % 2 == 0
                           ? Partitioner::kRoundRobin
                           : Partitioner::kSpatial;
  config.threads = 2;
  PartitionedEngine dist(std::move(data), config);

  // UTK1: byte-identical id sets.
  QuerySpec utk1 = MakeSpec(QueryMode::kUtk1, k, region);
  QueryResult want1 = reference.Run(utk1);
  QueryResult got1 = dist.Run(utk1);
  ASSERT_TRUE(want1.ok) << want1.error;
  ASSERT_TRUE(got1.ok) << got1.error;
  EXPECT_FALSE(got1.ids.empty());
  EXPECT_EQ(got1.ids, want1.ids);
  EXPECT_EQ(got1.algorithm, want1.algorithm);

  // UTK2: same record union, same distinct top-k sets, and every cell's
  // top-k is exact at its witness — the same partition of R, cell geometry
  // aside.
  QuerySpec utk2 = MakeSpec(QueryMode::kUtk2, k, region);
  QueryResult want2 = reference.Run(utk2);
  QueryResult got2 = dist.Run(utk2);
  ASSERT_TRUE(want2.ok) << want2.error;
  ASSERT_TRUE(got2.ok) << got2.error;
  EXPECT_EQ(got2.ids, want2.ids);
  EXPECT_EQ(got2.utk2.NumDistinctTopkSets(), want2.utk2.NumDistinctTopkSets());
  ExpectCellsMatchTopkAtWitness(reference, k, got2.utk2);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DistEqualityTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),  // IND/COR/ANTI/HOTEL
                       ::testing::Values(1, 2, 4, 7),  // shards
                       ::testing::Values(1, 3)));      // tiles

TEST(DistEngine, EmptyShardsAreHarmless) {
  // 5 records over 7 shards leaves shards empty; force RSA (the planner
  // would hand such a tiny input to the naive fallback).
  DistConfig config;
  config.shards = 7;
  config.tiles = 3;
  PartitionedEngine dist(MakeData(0, 5), config);
  Engine reference(MakeData(0, 5));
  QuerySpec spec = MakeSpec(QueryMode::kUtk1, 2, RegionFor(2),
                            Algorithm::kRsa);
  QueryResult got = dist.Run(spec);
  QueryResult want = reference.Run(spec);
  ASSERT_TRUE(got.ok) << got.error;
  ASSERT_TRUE(want.ok) << want.error;
  EXPECT_EQ(got.ids, want.ids);
}

TEST(DistEngine, ThreadCountNeverChangesTheAnswer) {
  Dataset data = MakeData(2);
  ConvexRegion region = RegionFor(2);
  QuerySpec spec = MakeSpec(QueryMode::kUtk2, 3, region);
  std::vector<int32_t> ids;
  int64_t distinct = 0;
  for (int threads : {1, 2, 8}) {
    DistConfig config;
    config.shards = 4;
    config.tiles = 3;
    config.threads = threads;
    PartitionedEngine dist(MakeData(2), config);
    QueryResult r = dist.Run(spec);
    ASSERT_TRUE(r.ok) << r.error;
    if (threads == 1) {
      ids = r.ids;
      distinct = r.utk2.NumDistinctTopkSets();
    } else {
      EXPECT_EQ(r.ids, ids) << "threads " << threads;
      EXPECT_EQ(r.utk2.NumDistinctTopkSets(), distinct);
    }
  }
  (void)data;
}

TEST(DistEngine, FallsBackForNonSkybandAlgorithmsAndInvalidSpecs) {
  DistConfig config;
  config.shards = 2;
  PartitionedEngine dist(MakeData(0), config);
  Engine reference(MakeData(0));
  // Baselines and the naive oracle run on the embedded engine unchanged.
  QuerySpec sk = MakeSpec(QueryMode::kUtk1, 3, RegionFor(2),
                          Algorithm::kBaselineSk);
  QueryResult got = dist.Run(sk);
  ASSERT_TRUE(got.ok) << got.error;
  EXPECT_EQ(got.algorithm, Algorithm::kBaselineSk);
  EXPECT_EQ(got.ids, reference.Run(sk).ids);
  // Invalid specs produce the engine's diagnostic, never a crash.
  QuerySpec bad = MakeSpec(QueryMode::kUtk1, 0, RegionFor(2));
  EXPECT_EQ(dist.Run(bad).error, reference.Run(bad).error);
  EXPECT_FALSE(dist.Run(bad).ok);
  // Validate/Plan delegate to the embedded engine.
  EXPECT_EQ(dist.Validate(bad), reference.Validate(bad));
  EXPECT_EQ(dist.Plan(sk), reference.Plan(sk));
}

TEST(DistEngine, DetailReportsTheDecomposition) {
  DistConfig config;
  config.shards = 4;
  config.tiles = 3;
  config.partitioner = Partitioner::kSpatial;
  PartitionedEngine dist(MakeData(0), config);
  QuerySpec spec = MakeSpec(QueryMode::kUtk1, 3, RegionFor(2));
  DistDetail detail;
  QueryResult r = dist.Run(spec, &detail);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(detail.tiles.size(), 3u);
  ASSERT_EQ(detail.filter.size(), 3u);
  ASSERT_EQ(detail.band_sizes.size(), 3u);
  int64_t bands = 0;
  for (size_t t = 0; t < detail.tiles.size(); ++t) {
    EXPECT_TRUE(spec.region.ContainsRegion(detail.tiles[t]));
    ASSERT_EQ(detail.filter[t].shard_candidates.size(), 4u);
    EXPECT_LE(detail.band_sizes[t], detail.filter[t].pool);
    EXPECT_GT(detail.band_sizes[t], 0);
    bands += detail.band_sizes[t];
  }
  EXPECT_EQ(r.stats.candidates, bands);
}

TEST(DistEngine, SharesABaseEngineWithoutRebuildingIt) {
  auto base = std::make_shared<const Engine>(MakeData(1));
  DistConfig config;
  config.shards = 3;
  config.tiles = 2;
  PartitionedEngine dist(base, config);
  EXPECT_EQ(&dist.base(), base.get());
  EXPECT_EQ(dist.data().size(), base->data().size());
  EXPECT_EQ(dist.num_shards(), 3);
  QuerySpec spec = MakeSpec(QueryMode::kUtk1, 4, RegionFor(2));
  EXPECT_EQ(dist.Run(spec).ids, base->Run(spec).ids);
  // TopK delegates to the shared engine's R-tree.
  Vec w = {0.25, 0.3};
  EXPECT_EQ(dist.TopK(w, 5), base->TopK(w, 5));
}

}  // namespace
}  // namespace utk
