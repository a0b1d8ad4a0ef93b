// The serving layer (src/serve): canonical fingerprints, exact-hit identity,
// misses answered byte-identically to the engine (sub-regions of cached
// regions included), LRU eviction under tight budgets, concurrency, and the
// warm/cold speedup the ResultCache exists to deliver.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

#include "data/generator.h"
#include "data/workload.h"

namespace utk {
namespace {

QuerySpec MakeSpec(QueryMode mode, int k, ConvexRegion region,
                   Algorithm algo = Algorithm::kAuto) {
  QuerySpec spec;
  spec.mode = mode;
  spec.algorithm = algo;
  spec.k = k;
  spec.region = std::move(region);
  return spec;
}

void ExpectSameBounds(const std::vector<Halfspace>& want,
                      const std::vector<Halfspace>& got) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].a, want[i].a);
    EXPECT_EQ(got[i].b, want[i].b);
  }
}

/// Byte-for-byte answer equality: ids, UTK2 cells (bounds, witnesses, top-k
/// lists) and per-record baseline cells.
void ExpectSameAnswer(const QueryResult& want, const QueryResult& got) {
  ASSERT_EQ(got.ok, want.ok) << got.error;
  EXPECT_EQ(got.mode, want.mode);
  EXPECT_EQ(got.algorithm, want.algorithm);
  EXPECT_EQ(got.ids, want.ids);
  ASSERT_EQ(got.utk2.cells.size(), want.utk2.cells.size());
  for (size_t i = 0; i < got.utk2.cells.size(); ++i) {
    EXPECT_EQ(got.utk2.cells[i].topk, want.utk2.cells[i].topk);
    EXPECT_EQ(got.utk2.cells[i].witness, want.utk2.cells[i].witness);
    ExpectSameBounds(want.utk2.cells[i].bounds.ToVector(),
                     got.utk2.cells[i].bounds.ToVector());
  }
  ASSERT_EQ(got.per_record.records.size(), want.per_record.records.size());
  for (size_t i = 0; i < got.per_record.records.size(); ++i) {
    const auto& g = got.per_record.records[i];
    const auto& w = want.per_record.records[i];
    EXPECT_EQ(g.id, w.id);
    ASSERT_EQ(g.cells.size(), w.cells.size());
    for (size_t c = 0; c < g.cells.size(); ++c) {
      EXPECT_EQ(g.cells[c].interior, w.cells[c].interior);
      EXPECT_EQ(g.cells[c].covering, w.cells[c].covering);
      ExpectSameBounds(w.cells[c].bounds.ToVector(),
                       g.cells[c].bounds.ToVector());
    }
  }
}

class ServeTestBase : public ::testing::Test {
 protected:
  ServeTestBase()
      : engine_(std::make_shared<const Engine>(
            Generate(Distribution::kAnticorrelated, 150, 3, 20260728))) {}

  std::shared_ptr<const Engine> engine_;
};

TEST(ServeFingerprint, CanonicalizesSpecs) {
  ConvexRegion box = ConvexRegion::FromBox({0.2, 0.25}, {0.3, 0.35});
  QuerySpec a = MakeSpec(QueryMode::kUtk1, 5, box);
  QuerySpec b = MakeSpec(QueryMode::kUtk1, 5, box);
  EXPECT_EQ(CanonicalFingerprint(a, Algorithm::kRsa),
            CanonicalFingerprint(b, Algorithm::kRsa));

  // kAuto fingerprints as its resolution, so auto and explicit specs share
  // entries.
  QuerySpec exp = MakeSpec(QueryMode::kUtk1, 5, box, Algorithm::kRsa);
  EXPECT_EQ(CanonicalFingerprint(a, Algorithm::kRsa),
            CanonicalFingerprint(exp, Algorithm::kRsa));

  // Mode, k, region, and planned algorithm all separate fingerprints.
  EXPECT_NE(CanonicalFingerprint(a, Algorithm::kRsa),
            CanonicalFingerprint(a, Algorithm::kJaa));
  QuerySpec k6 = MakeSpec(QueryMode::kUtk1, 6, box);
  EXPECT_NE(CanonicalFingerprint(a, Algorithm::kRsa),
            CanonicalFingerprint(k6, Algorithm::kRsa));
  QuerySpec utk2 = MakeSpec(QueryMode::kUtk2, 5, box);
  EXPECT_NE(CanonicalFingerprint(a, Algorithm::kRsa),
            CanonicalFingerprint(utk2, Algorithm::kRsa));
  QuerySpec other = MakeSpec(
      QueryMode::kUtk1, 5, ConvexRegion::FromBox({0.2, 0.25}, {0.3, 0.36}));
  EXPECT_NE(CanonicalFingerprint(a, Algorithm::kRsa),
            CanonicalFingerprint(other, Algorithm::kRsa));

  // Execution knobs are non-semantic: they never change the answer, so they
  // must not split cache entries.
  QuerySpec knobs = a;
  knobs.use_drill = false;
  knobs.wave_cap = 3;
  EXPECT_EQ(CanonicalFingerprint(a, Algorithm::kRsa),
            CanonicalFingerprint(knobs, Algorithm::kRsa));

  // General (non-box) regions: constraint order must not matter.
  ConvexRegion g1 = ConvexRegion::FromBox({0.2, 0.25}, {0.3, 0.35});
  g1.AddConstraint({{1.0, 1.0}, 0.6});
  std::vector<Halfspace> shuffled(g1.constraints().rbegin(),
                                  g1.constraints().rend());
  ConvexRegion g2(std::move(shuffled));
  QuerySpec s1 = MakeSpec(QueryMode::kUtk1, 5, g1);
  QuerySpec s2 = MakeSpec(QueryMode::kUtk1, 5, g2);
  EXPECT_EQ(CanonicalFingerprint(s1, Algorithm::kRsa),
            CanonicalFingerprint(s2, Algorithm::kRsa));
}

TEST_F(ServeTestBase, ExactHitReturnsIdenticalResult) {
  Server server(engine_);
  for (QueryMode mode : {QueryMode::kUtk1, QueryMode::kUtk2}) {
    QuerySpec spec =
        MakeSpec(mode, 4, ConvexRegion::FromBox({0.2, 0.25}, {0.3, 0.35}));
    QueryResult fresh = engine_->Run(spec);
    ASSERT_TRUE(fresh.ok) << fresh.error;

    QueryResult miss = server.Query(spec);
    ASSERT_TRUE(miss.ok) << miss.error;
    EXPECT_EQ(miss.stats.cache_misses, 1);
    EXPECT_EQ(miss.ids, fresh.ids);

    QueryResult hit = server.Query(spec);
    ASSERT_TRUE(hit.ok) << hit.error;
    EXPECT_EQ(hit.stats.cache_hits, 1);
    EXPECT_EQ(hit.stats.cache_misses, 0);
    ExpectSameAnswer(fresh, hit);
  }
  CacheCounters c = server.cache_counters();
  EXPECT_EQ(c.exact_hits, 2);
  EXPECT_EQ(c.misses, 2);
  EXPECT_DOUBLE_EQ(c.HitRate(), 0.5);
}

// The cache reuses exact fingerprints only: a sub-region of a cached region
// is a miss, answered by the engine byte for byte (cells and witnesses
// included), and its exact repeat is then a hit.
TEST_F(ServeTestBase, SubRegionOfACachedRegionIsAMiss) {
  Rng rng(11);
  for (QueryMode mode : {QueryMode::kUtk1, QueryMode::kUtk2}) {
    for (int trial = 0; trial < 4; ++trial) {
      Server server(engine_);
      ConvexRegion outer = RandomQueryBox(2, 0.12, rng);
      ConvexRegion inner = RandomSubBox(outer, rng.Uniform(0.3, 0.9), rng);

      QueryResult warm = server.Query(MakeSpec(mode, 3, outer));
      ASSERT_TRUE(warm.ok) << warm.error;
      EXPECT_EQ(warm.stats.cache_misses, 1);

      const QuerySpec sub = MakeSpec(mode, 3, inner);
      QueryResult served = server.Query(sub);
      EXPECT_EQ(served.stats.cache_misses, 1) << "trial " << trial;
      ExpectSameAnswer(engine_->Run(sub), served);

      QueryResult repeat = server.Query(sub);
      EXPECT_EQ(repeat.stats.cache_hits, 1) << "trial " << trial;
      ExpectSameAnswer(served, repeat);

      CacheCounters c = server.cache_counters();
      EXPECT_EQ(c.misses, 2);
      EXPECT_EQ(c.exact_hits, 1);
      EXPECT_EQ(c.semantic_hits, 0);
    }
  }
}

TEST_F(ServeTestBase, LruEvictionUnderTightCapacity) {
  CacheConfig config;
  config.max_entries = 2;
  config.shards = 1;
  Server server(engine_, config);

  auto spec_at = [](Scalar lo) {
    return MakeSpec(QueryMode::kUtk1, 3,
                    ConvexRegion::FromBox({lo, lo}, {lo + 0.05, lo + 0.05}));
  };
  ASSERT_TRUE(server.Query(spec_at(0.10)).ok);  // A
  ASSERT_TRUE(server.Query(spec_at(0.20)).ok);  // B
  ASSERT_TRUE(server.Query(spec_at(0.10)).ok);  // touch A -> LRU order B, A
  QueryResult c = server.Query(spec_at(0.30));  // evicts B
  ASSERT_TRUE(c.ok);
  EXPECT_EQ(c.stats.cache_evictions, 1);

  CacheCounters counters = server.cache_counters();
  EXPECT_EQ(counters.entries, 2);
  EXPECT_EQ(counters.evictions, 1);

  EXPECT_EQ(server.Query(spec_at(0.10)).stats.cache_hits, 1);   // A survived
  EXPECT_EQ(server.Query(spec_at(0.20)).stats.cache_misses, 1);  // B evicted
}

TEST_F(ServeTestBase, ByteBudgetEvicts) {
  CacheConfig config;
  config.max_bytes = 1;  // smaller than any result: every admission evicts
  config.shards = 1;
  Server server(engine_, config);
  ASSERT_TRUE(
      server
          .Query(MakeSpec(QueryMode::kUtk1, 3,
                          ConvexRegion::FromBox({0.1, 0.1}, {0.15, 0.15})))
          .ok);
  ASSERT_TRUE(
      server
          .Query(MakeSpec(QueryMode::kUtk1, 3,
                          ConvexRegion::FromBox({0.2, 0.2}, {0.25, 0.25})))
          .ok);
  // The second admission pushes the first entry out; the just-admitted entry
  // itself is never evicted.
  CacheCounters counters = server.cache_counters();
  EXPECT_EQ(counters.entries, 1);
  EXPECT_GE(counters.evictions, 1);
}

TEST_F(ServeTestBase, InvalidSpecsBypassCache) {
  Server server(engine_);
  ConvexRegion good = ConvexRegion::FromBox({0.2, 0.2}, {0.3, 0.3});

  QueryResult r = server.Query(MakeSpec(QueryMode::kUtk1, 0, good));
  EXPECT_FALSE(r.ok);
  r = server.Query(
      MakeSpec(QueryMode::kUtk2, 3, good, Algorithm::kRsa));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("UTK1"), std::string::npos);
  r = server.Query(
      MakeSpec(QueryMode::kUtk1, 3, ConvexRegion::FromBox({0.2}, {0.3})));
  EXPECT_FALSE(r.ok);

  CacheCounters counters = server.cache_counters();
  EXPECT_EQ(counters.Requests(), 0);
  EXPECT_EQ(counters.entries, 0);
}

TEST_F(ServeTestBase, ConcurrentMixedLoadIsDeterministic) {
  ServeTraceOptions opt;
  opt.pref_dim = 2;
  opt.sigma = 0.1;
  opt.hot_regions = 3;
  opt.seed = 23;
  ServeTrace trace = MakeServeTrace(24, opt);

  std::vector<QuerySpec> specs;
  for (size_t i = 0; i < trace.queries.size(); ++i) {
    specs.push_back(MakeSpec(i % 3 == 0 ? QueryMode::kUtk2 : QueryMode::kUtk1,
                             3, trace.queries[i]));
  }
  std::vector<QueryResult> fresh;
  for (const QuerySpec& spec : specs) fresh.push_back(engine_->Run(spec));

  for (int threads : {1, 2, 8}) {
    Server server(engine_);
    BatchQueryResult batch = server.QueryBatch(specs, threads);
    ASSERT_EQ(batch.results.size(), specs.size());
    EXPECT_EQ(batch.failed, 0);
    for (size_t i = 0; i < specs.size(); ++i) {
      ASSERT_TRUE(batch.results[i].ok) << batch.results[i].error;
      EXPECT_EQ(batch.results[i].ids, fresh[i].ids)
          << "threads " << threads << " query " << i;
    }
    // Conservation: every query was served exactly one way, and the merged
    // batch stats agree with the cache's own counters.
    CacheCounters counters = server.cache_counters();
    EXPECT_EQ(counters.Requests(), static_cast<int64_t>(specs.size()));
    EXPECT_EQ(batch.total.cache_hits + batch.total.cache_misses,
              static_cast<int64_t>(specs.size()));
    EXPECT_EQ(batch.total.cache_hits, counters.exact_hits);
    EXPECT_EQ(batch.total.cache_misses, counters.misses);
    if (threads == 1) {
      // Sequential execution makes the exact split deterministic: repeats of
      // an already-served hot region must be exact hits.
      EXPECT_GT(counters.exact_hits, 0);
    }
  }
}

// The speedup the cache exists for: serving a warm exact-hit query must be
// at least 10x faster than the cold execution on the default synthetic
// workload (the bench_serve acceptance bar, asserted here conservatively).
TEST(ServeSpeedup, WarmExactHitsBeatColdByTenX) {
  auto engine = std::make_shared<const Engine>(
      Generate(Distribution::kAnticorrelated, 1200, 3, 31));
  Server server(engine);

  ServeTraceOptions opt;
  opt.pref_dim = 2;
  opt.sigma = 0.1;
  opt.hot_regions = 5;
  opt.repeat_fraction = 0.0;
  opt.subregion_fraction = 0.0;
  opt.seed = 29;
  ServeTrace trace = MakeServeTrace(5, opt);  // 5 distinct fresh regions

  std::vector<QuerySpec> specs;
  for (const ConvexRegion& region : trace.queries)
    specs.push_back(MakeSpec(QueryMode::kUtk1, 10, region));

  Timer cold_timer;
  for (const QuerySpec& spec : specs) ASSERT_TRUE(server.Query(spec).ok);
  const double cold_ms = cold_timer.ElapsedMs();

  const int kWarmRounds = 10;
  Timer warm_timer;
  for (int round = 0; round < kWarmRounds; ++round)
    for (const QuerySpec& spec : specs) {
      QueryResult r = server.Query(spec);
      ASSERT_TRUE(r.ok);
      ASSERT_EQ(r.stats.cache_hits, 1);
    }
  const double warm_ms = warm_timer.ElapsedMs() / kWarmRounds;

  EXPECT_GE(cold_ms, 10.0 * warm_ms)
      << "cold " << cold_ms << "ms vs warm " << warm_ms << "ms";
}

// --------------------------------------------------------- epoch contract

TEST(ServeEpoch, LookupAtAnotherEpochMissesAndAdmitReplaces) {
  // The epoch is a tag on the entry, not part of its key: a lookup at any
  // other epoch misses without disturbing the entry, and a later admit of
  // the same spec replaces it.
  Engine engine(Generate(Distribution::kAnticorrelated, 150, 3, 20260728));
  ResultCache cache;
  QuerySpec spec = MakeSpec(
      QueryMode::kUtk1, 5, ConvexRegion::FromBox({0.2, 0.25}, {0.3, 0.35}));
  QueryResult res = engine.Run(spec);
  ASSERT_TRUE(res.ok);
  cache.Admit(spec, Algorithm::kRsa, res, /*epoch=*/3);
  EXPECT_FALSE(cache.Lookup(spec, Algorithm::kRsa, 2).has_value());
  EXPECT_FALSE(cache.Lookup(spec, Algorithm::kRsa, 4).has_value());
  EXPECT_FALSE(cache.Lookup(spec, Algorithm::kRsa, 0).has_value());
  std::optional<QueryResult> hit = cache.Lookup(spec, Algorithm::kRsa, 3);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->ids, res.ids);
  CacheCounters c = cache.Counters();
  EXPECT_EQ(c.misses, 3);
  EXPECT_EQ(c.exact_hits, 1);
  EXPECT_EQ(c.entries, 1);

  cache.Admit(spec, Algorithm::kRsa, res, /*epoch=*/4);
  EXPECT_EQ(cache.Counters().entries, 1);
  EXPECT_FALSE(cache.Lookup(spec, Algorithm::kRsa, 3).has_value());
  hit = cache.Lookup(spec, Algorithm::kRsa, 4);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->ids, res.ids);
}

TEST(ServeEpoch, SweepDropsAffectedRetagsUnaffectedRejectsStale) {
  Engine engine(Generate(Distribution::kAnticorrelated, 150, 3, 20260728));
  ResultCache cache;
  ConvexRegion box_a = ConvexRegion::FromBox({0.2, 0.25}, {0.3, 0.35});
  ConvexRegion box_b = ConvexRegion::FromBox({0.5, 0.1}, {0.6, 0.2});
  QuerySpec spec_a = MakeSpec(QueryMode::kUtk1, 5, box_a);
  QuerySpec spec_b = MakeSpec(QueryMode::kUtk1, 5, box_b);
  QueryResult res_a = engine.Run(spec_a);
  QueryResult res_b = engine.Run(spec_b);
  ASSERT_TRUE(res_a.ok);
  ASSERT_TRUE(res_b.ok);
  cache.Admit(spec_a, Algorithm::kRsa, res_a, /*epoch=*/0);
  cache.Admit(spec_b, Algorithm::kRsa, res_b, /*epoch=*/0);

  // Epoch 0 -> 1: invalidate exactly the entries covering box_a.
  const int64_t dropped = cache.ApplyInvalidation(
      0, 1, [&](const CacheEntryView& view) {
        return view.region.Contains(*box_a.Pivot());
      });
  EXPECT_EQ(dropped, 1);

  // The dropped entry misses at epoch 1; the re-tagged one exact-hits.
  EXPECT_FALSE(cache.Lookup(spec_a, Algorithm::kRsa, 1).has_value());
  std::optional<QueryResult> hit = cache.Lookup(spec_b, Algorithm::kRsa, 1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->ids, res_b.ids);
  // ...and no longer matches its old epoch (no stale reuse either way).
  EXPECT_FALSE(cache.Lookup(spec_b, Algorithm::kRsa, 0).has_value());

  // An admit computed against the superseded dataset is refused.
  EXPECT_EQ(cache.Admit(spec_a, Algorithm::kRsa, res_a, /*epoch=*/0), 0);
  EXPECT_FALSE(cache.Lookup(spec_a, Algorithm::kRsa, 0).has_value());

  CacheCounters c = cache.Counters();
  EXPECT_EQ(c.invalidation_sweeps, 1);
  EXPECT_EQ(c.invalidated, 1);
  EXPECT_EQ(c.stale_rejects, 1);
  EXPECT_EQ(c.entries, 1);
}

TEST(ServeEpoch, FreshAdmitReplacesItsStaleTwin) {
  // A query that observed the post-update dataset can admit at the new
  // epoch BEFORE the sweep runs. That admit replaces the old entry for the
  // same spec, so the sweep finds the fresh entry already at the new epoch
  // and drops nothing; the fresh entry stays exact-hittable.
  Engine engine(Generate(Distribution::kAnticorrelated, 150, 3, 20260728));
  ResultCache cache;
  QuerySpec spec = MakeSpec(
      QueryMode::kUtk1, 5, ConvexRegion::FromBox({0.2, 0.25}, {0.3, 0.35}));
  QueryResult res = engine.Run(spec);
  ASSERT_TRUE(res.ok);
  cache.Admit(spec, Algorithm::kRsa, res, /*epoch=*/0);
  cache.Admit(spec, Algorithm::kRsa, res, /*epoch=*/1);  // post-update racer
  EXPECT_EQ(cache.Counters().entries, 1);
  int tested = 0;
  const int64_t dropped = cache.ApplyInvalidation(
      0, 1, [&](const CacheEntryView&) {
        ++tested;
        return false;  // unaffected
      });
  EXPECT_EQ(dropped, 0);
  EXPECT_EQ(tested, 0);  // the fresh entry is already at epoch 1
  std::optional<QueryResult> hit = cache.Lookup(spec, Algorithm::kRsa, 1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->ids, res.ids);
  EXPECT_EQ(cache.Counters().entries, 1);
  // Re-admitting and re-hitting keeps working (the index stayed sane).
  cache.Admit(spec, Algorithm::kRsa, res, /*epoch=*/1);
  EXPECT_TRUE(cache.Lookup(spec, Algorithm::kRsa, 1).has_value());
  EXPECT_EQ(cache.Counters().entries, 1);
}

TEST(ServeEpoch, FloorSlotPersistsAcrossRetagsAndResetsOnAdmit) {
  Engine engine(Generate(Distribution::kAnticorrelated, 150, 3, 20260728));
  ResultCache cache;
  QuerySpec spec = MakeSpec(
      QueryMode::kUtk1, 5, ConvexRegion::FromBox({0.2, 0.25}, {0.3, 0.35}));
  QueryResult res = engine.Run(spec);
  ASSERT_TRUE(res.ok);
  cache.Admit(spec, Algorithm::kRsa, res, /*epoch=*/0);
  std::vector<Scalar> seen;
  auto record = [&](const CacheEntryView& view) {
    seen.push_back(view.floor);
    view.floor = 0.5 + static_cast<Scalar>(seen.size());
    return false;
  };
  cache.ApplyInvalidation(0, 1, record);
  cache.ApplyInvalidation(1, 2, record);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_TRUE(std::isnan(seen[0]));  // fresh entry: the slot starts empty
  EXPECT_EQ(seen[1], 1.5);           // a re-tag keeps what the sweep wrote
  // A re-admit is a new entry with an empty slot.
  cache.Admit(spec, Algorithm::kRsa, res, /*epoch=*/2);
  cache.ApplyInvalidation(2, 3, record);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_TRUE(std::isnan(seen[2]));
}

TEST(ServeEpoch, EntriesThatMissedASweepAreDropped) {
  Engine engine(Generate(Distribution::kAnticorrelated, 150, 3, 20260728));
  ResultCache cache;
  QuerySpec spec = MakeSpec(
      QueryMode::kUtk1, 5, ConvexRegion::FromBox({0.2, 0.25}, {0.3, 0.35}));
  QueryResult res = engine.Run(spec);
  ASSERT_TRUE(res.ok);
  cache.Admit(spec, Algorithm::kRsa, res, /*epoch=*/0);
  // The cache jumps 1 -> 2 without having seen 0 -> 1 (it was detached):
  // the epoch-0 entry is unauditable and must go even though the predicate
  // says unaffected.
  cache.ApplyInvalidation(1, 2, [](const CacheEntryView&) { return false; });
  EXPECT_FALSE(cache.Lookup(spec, Algorithm::kRsa, 2).has_value());
  EXPECT_EQ(cache.Counters().entries, 0);
}

}  // namespace
}  // namespace utk
