// The live-update subsystem (src/live/): incremental R-tree maintenance,
// epoch-versioned answers, and — the load-bearing property — equality with
// a from-scratch Engine rebuilt on the current catalog after any
// insert/delete/reinsert sequence (degenerate geometry included), plus
// soundness of the serve-cache invalidation contract (a warm Server over a
// LiveEngine always equals a cold one).
#include "live/live_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/topk.h"
#include "data/generator.h"
#include "data/workload.h"
#include "serve/server.h"

namespace utk {
namespace {

QuerySpec MakeSpec(QueryMode mode, Algorithm algo, int k,
                   ConvexRegion region) {
  QuerySpec spec;
  spec.mode = mode;
  spec.algorithm = algo;
  spec.k = k;
  spec.region = std::move(region);
  return spec;
}

ConvexRegion Region3d() {
  return ConvexRegion::FromBox({0.2, 0.25}, {0.38, 0.42});
}

/// live-id translation of a compact-engine answer (monotonic, so sorted
/// lists stay sorted).
std::vector<int32_t> Mapped(const std::vector<int32_t>& live_ids,
                            std::vector<int32_t> ids) {
  for (int32_t& id : ids) id = live_ids[id];
  return ids;
}

/// Asserts the live engine currently answers `spec` exactly like an Engine
/// built from scratch on the live records: the same ids and, for UTK2, the
/// same canonical cells, ids mapped back, witnesses bit-equal.
void ExpectEqualsRebuild(const LiveEngine& live, const QuerySpec& spec) {
  std::vector<int32_t> live_ids;
  Engine rebuilt(live.CompactSnapshot(&live_ids));
  QueryResult want = rebuilt.Run(spec);
  QueryResult got = live.Run(spec);
  ASSERT_EQ(want.ok, got.ok) << got.error;
  if (!want.ok) return;
  EXPECT_EQ(got.ids, Mapped(live_ids, want.ids));
  EXPECT_TRUE(got.utk2.IsCanonical());
  ASSERT_EQ(got.utk2.cells.size(), want.utk2.cells.size());
  for (size_t c = 0; c < got.utk2.cells.size(); ++c) {
    EXPECT_EQ(got.utk2.cells[c].topk,
              Mapped(live_ids, want.utk2.cells[c].topk));
    EXPECT_EQ(got.utk2.cells[c].witness, want.utk2.cells[c].witness);
  }
}

/// ExpectEqualsRebuild plus a check of every UTK2 cell against the live
/// top-k at its witness — an oracle outside both engines' refinement, but
/// one that ties within kEps defeat (TopK ranks by exact score, refinement
/// within kEps), so degenerate inputs use ExpectEqualsRebuild alone.
void ExpectMatchesRebuild(const LiveEngine& live, const QuerySpec& spec) {
  ExpectEqualsRebuild(live, spec);
  if (spec.mode != QueryMode::kUtk2) return;
  const QueryResult got = live.Run(spec);
  for (const Utk2Cell& cell : got.utk2.cells) {
    std::vector<int32_t> topk = live.TopK(cell.witness, spec.k);
    std::sort(topk.begin(), topk.end());
    EXPECT_EQ(topk, cell.topk);
  }
}

TEST(LiveEngine, FreshEngineEqualsImmutableEngine) {
  Dataset data = Generate(Distribution::kIndependent, 150, 3, 7);
  Engine fixed(Generate(Distribution::kIndependent, 150, 3, 7));
  LiveEngine live(std::move(data));
  EXPECT_EQ(live.epoch(), 0u);
  EXPECT_EQ(live.live_size(), 150);
  for (QueryMode mode : {QueryMode::kUtk1, QueryMode::kUtk2}) {
    Algorithm algo =
        mode == QueryMode::kUtk1 ? Algorithm::kRsa : Algorithm::kJaa;
    QuerySpec spec = MakeSpec(mode, algo, 3, Region3d());
    QueryResult want = fixed.Run(spec);
    QueryResult got = live.Run(spec);
    ASSERT_TRUE(got.ok) << got.error;
    EXPECT_EQ(got.ids, want.ids);
    EXPECT_EQ(got.stats.epoch, 0);
  }
}

TEST(LiveEngine, InsertDeleteReinsertMatchesRebuildEveryEpoch) {
  Dataset data = Generate(Distribution::kAnticorrelated, 90, 3, 11);
  LiveEngine live(std::move(data));
  UpdateTraceOptions opt;
  opt.seed = 31;
  opt.dist = Distribution::kAnticorrelated;
  std::vector<UpdateOp> trace =
      MakeUpdateTrace(Generate(Distribution::kAnticorrelated, 90, 3, 11), 120,
                      opt);
  const QuerySpec utk1 = MakeSpec(QueryMode::kUtk1, Algorithm::kRsa, 3,
                                  Region3d());
  const QuerySpec utk2 = MakeSpec(QueryMode::kUtk2, Algorithm::kJaa, 3,
                                  Region3d());
  for (size_t i = 0; i < trace.size(); ++i) {
    const int applied = live.ApplyBatch({&trace[i], 1});
    ASSERT_EQ(applied, 1) << "op " << i;
    if (i % 10 != 9) continue;  // full cross-check every 10 ops
    ExpectMatchesRebuild(live, utk1);
    ExpectMatchesRebuild(live, utk2);
  }
  EXPECT_EQ(live.epoch(), trace.size());
  LiveCounters c = live.counters();
  EXPECT_GT(c.erases, 0);
  EXPECT_GT(c.inserts, 0);
}

TEST(LiveEngine, FiveHundredOpTraceMatchesRebuild) {
  // The acceptance criterion: after a random 500-op trace, every query in
  // the differential suite matches a from-scratch Engine on the final
  // catalog.
  Dataset data = Generate(Distribution::kIndependent, 120, 3, 13);
  LiveEngine live(std::move(data));
  UpdateTraceOptions opt;
  opt.seed = 99;
  std::vector<UpdateOp> trace = MakeUpdateTrace(
      Generate(Distribution::kIndependent, 120, 3, 13), 500, opt);
  EXPECT_EQ(live.ApplyBatch(trace), 500);
  EXPECT_EQ(live.epoch(), 1u);  // one batch = one epoch
  for (int k : {1, 3, 5}) {
    ExpectMatchesRebuild(
        live, MakeSpec(QueryMode::kUtk1, Algorithm::kRsa, k, Region3d()));
    ExpectMatchesRebuild(
        live, MakeSpec(QueryMode::kUtk2, Algorithm::kJaa, k, Region3d()));
  }
  ExpectMatchesRebuild(
      live, MakeSpec(QueryMode::kUtk1, Algorithm::kRsa, 19, Region3d()));
  LiveCounters c = live.counters();
  EXPECT_GT(c.direct_queries, 0);
}

TEST(LiveEngine, DeleteOfATopkRecordPromotesShieldedOnes) {
  Dataset data = Generate(Distribution::kIndependent, 100, 3, 17);
  LiveEngine live(std::move(data));
  const QuerySpec spec =
      MakeSpec(QueryMode::kUtk1, Algorithm::kRsa, 3, Region3d());
  QueryResult before = live.Run(spec);
  ASSERT_TRUE(before.ok) << before.error;
  ASSERT_FALSE(before.ids.empty());
  // Erase the pivot's best record — by definition in the UTK1 answer.
  auto pivot = spec.region.Pivot();
  ASSERT_TRUE(pivot.has_value());
  const int32_t best = live.TopK(*pivot, 1).front();
  ASSERT_TRUE(std::binary_search(before.ids.begin(), before.ids.end(), best));
  ASSERT_TRUE(live.Erase(best));
  EXPECT_FALSE(live.IsLive(best));
  QueryResult after = live.Run(spec);
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_FALSE(std::binary_search(after.ids.begin(), after.ids.end(), best));
  ExpectMatchesRebuild(live, spec);
}

TEST(LiveEngine, InsertDominatingTheWholeBand) {
  Dataset data = Generate(Distribution::kIndependent, 80, 3, 19);
  LiveEngine live(std::move(data));
  Record top;
  top.attrs = {0.999, 0.999, 0.999};
  const int32_t id = live.Insert(top);
  ASSERT_GE(id, 0);
  const QuerySpec spec =
      MakeSpec(QueryMode::kUtk1, Algorithm::kRsa, 1, Region3d());
  QueryResult r = live.Run(spec);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.ids, (std::vector<int32_t>{id}));  // k=1: it IS the answer
  ExpectMatchesRebuild(live, spec);
  ExpectMatchesRebuild(live,
                       MakeSpec(QueryMode::kUtk2, Algorithm::kJaa, 3,
                                Region3d()));
}

TEST(LiveEngine, DeletionHeavyTraceMatchesRebuild) {
  Dataset data = Generate(Distribution::kIndependent, 100, 3, 23);
  LiveEngine live(std::move(data));
  UpdateTraceOptions opt;
  opt.seed = 5;
  opt.insert_fraction = 0.3;  // deletion-heavy
  std::vector<UpdateOp> trace = MakeUpdateTrace(
      Generate(Distribution::kIndependent, 100, 3, 23), 60, opt);
  for (const UpdateOp& op : trace) live.ApplyBatch({&op, 1});
  ExpectMatchesRebuild(
      live, MakeSpec(QueryMode::kUtk1, Algorithm::kRsa, 4, Region3d()));
  ExpectMatchesRebuild(
      live, MakeSpec(QueryMode::kUtk2, Algorithm::kJaa, 4, Region3d()));
}

TEST(LiveEngine, EraseToEmptyAndRefill) {
  Dataset data = Generate(Distribution::kIndependent, 12, 3, 29);
  Dataset copy = data;
  LiveEngine live(std::move(data));
  for (int32_t id = 0; id < 12; ++id) ASSERT_TRUE(live.Erase(id));
  EXPECT_EQ(live.live_size(), 0);
  QueryResult r = live.Run(
      MakeSpec(QueryMode::kUtk1, Algorithm::kRsa, 2, Region3d()));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "engine holds an empty dataset");
  // Reinsert everything under the old ids (revival path).
  for (const Record& rec : copy) EXPECT_EQ(live.Insert(rec), rec.id);
  EXPECT_EQ(live.live_size(), 12);
  ExpectMatchesRebuild(
      live, MakeSpec(QueryMode::kUtk1, Algorithm::kRsa, 2, Region3d()));
}

/// The record ids `tree` indexes, collected by a walk from the root.
std::vector<int32_t> IndexedIds(const RTree& tree) {
  std::vector<int32_t> ids;
  if (tree.empty()) return ids;
  std::vector<int32_t> stack = {tree.root()};
  while (!stack.empty()) {
    const RTreeNode& node = tree.node(stack.back());
    stack.pop_back();
    ids.insert(ids.end(), node.record_ids.begin(), node.record_ids.end());
    stack.insert(stack.end(), node.entries.begin(), node.entries.end());
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(LiveEngine, DegenerateUpdateStormMatchesRebuildEveryEpoch) {
  // The live R-tree is the only live index, so its r-skyband filter must
  // stay exact on the geometry that defeats strict comparisons: exact
  // duplicates, attributes tied within kEps, erase-then-revive of
  // identical attributes, k >= the live count, and a catalog erased down
  // to one record and refilled — at d = 2 and d = 7.
  for (int d : {2, 7}) {
    SCOPED_TRACE("d=" + std::to_string(d));
    Rng rng(1000 + d);
    // Every record copies one of a few prototypes, exactly or perturbed
    // by less than kEps per attribute.
    std::vector<Vec> protos(4, Vec(d));
    for (Vec& p : protos)
      for (Scalar& x : p) x = rng.Uniform(0.2, 0.8);
    auto tied = [&](Vec attrs) {
      for (Scalar& x : attrs) x += rng.Uniform(-0.4, 0.4) * kEps;
      return attrs;
    };
    Dataset initial;
    for (int i = 0; i < 14; ++i) {
      Record rec;
      rec.id = i;
      rec.attrs = protos[i % protos.size()];
      if (i % 3 == 2) rec.attrs = tied(rec.attrs);
      initial.push_back(std::move(rec));
    }
    // Attributes by id, tombstones included, for duplicates and revivals.
    std::vector<Vec> attrs;
    for (const Record& rec : initial) attrs.push_back(rec.attrs);
    LiveEngine live(std::move(initial));

    const int pref = d - 1;
    const ConvexRegion region = ConvexRegion::FromBox(
        Vec(pref, 0.8 / d), Vec(pref, 1.2 / d));
    auto check = [&](const std::string& when) {
      SCOPED_TRACE(when + " epoch=" + std::to_string(live.epoch()) +
                   " live=" + std::to_string(live.live_size()));
      const int n = static_cast<int>(live.live_size());
      for (int k : {1, 3, n, n + 2}) {
        ExpectEqualsRebuild(
            live, MakeSpec(QueryMode::kUtk1, Algorithm::kRsa, k, region));
        ExpectEqualsRebuild(
            live, MakeSpec(QueryMode::kUtk2, Algorithm::kJaa, k, region));
      }
    };
    auto pick = [&](bool alive) {
      std::vector<int32_t> ids;
      for (int32_t id = 0; id < static_cast<int32_t>(attrs.size()); ++id)
        if (live.IsLive(id) == alive) ids.push_back(id);
      if (ids.empty()) return -1;
      return ids[rng.UniformInt(0, static_cast<int>(ids.size()) - 1)];
    };
    auto insert = [&](int32_t id, Vec a) {
      Record rec;
      rec.id = id;
      rec.attrs = std::move(a);
      const int32_t got = live.Insert(rec);
      ASSERT_GE(got, 0);
      if (got == static_cast<int32_t>(attrs.size())) attrs.push_back(rec.attrs);
    };

    for (int step = 0; step < 40; ++step) {
      const int32_t some = pick(true);
      switch (step % 5) {
        case 0:  // exact duplicate of a live record
          insert(-1, attrs[some]);
          break;
        case 1:  // tie within kEps of a live record
          insert(-1, tied(attrs[some]));
          break;
        case 2:
          ASSERT_TRUE(live.Erase(some));
          break;
        case 3: {  // revive a tombstone with its identical attributes
          const int32_t dead = pick(false);
          if (dead >= 0) insert(dead, attrs[dead]);
          break;
        }
        case 4: {  // erase and revive identically inside one epoch
          UpdateOp erase;
          erase.kind = UpdateKind::kErase;
          erase.id = some;
          UpdateOp revive;
          revive.kind = UpdateKind::kInsert;
          revive.record.id = some;
          revive.record.attrs = attrs[some];
          const std::vector<UpdateOp> batch = {erase, revive};
          ASSERT_EQ(live.ApplyBatch(batch), 2);
          break;
        }
      }
      check("storm");
    }

    // Erase down to one record, then refill with copies of the survivor
    // and revivals of identical attributes.
    while (live.live_size() > 1) {
      ASSERT_TRUE(live.Erase(pick(true)));
      if (live.live_size() % 4 == 1) check("drain");
    }
    const int32_t survivor = pick(true);
    for (int i = 0; i < 12; ++i) {
      if (i % 2 == 0) {
        insert(-1, i % 4 == 0 ? attrs[survivor] : tied(attrs[survivor]));
      } else {
        const int32_t dead = pick(false);
        insert(dead, attrs[dead]);
      }
      check("refill");
    }

    live.WithSnapshot([&](const CatalogView& view) {
      std::string why;
      EXPECT_TRUE(view.tree.CheckInvariants(view.data, &why)) << why;
      std::vector<int32_t> alive_ids;
      for (size_t id = 0; id < view.alive.size(); ++id)
        if (view.alive[id]) alive_ids.push_back(static_cast<int32_t>(id));
      EXPECT_EQ(IndexedIds(view.tree), alive_ids);
    });
  }
}

TEST(LiveEngine, RejectsInvalidInserts) {
  Dataset data = Generate(Distribution::kIndependent, 10, 3, 31);
  LiveEngine live(std::move(data));
  Record bad_dim;
  bad_dim.attrs = {0.5, 0.5};  // dataset is 3-attribute
  EXPECT_EQ(live.Insert(bad_dim), -1);
  Record live_id;
  live_id.id = 3;  // already live
  live_id.attrs = {0.5, 0.5, 0.5};
  EXPECT_EQ(live.Insert(live_id), -1);
  Record gap;
  gap.id = 50;  // beyond the dense id range
  gap.attrs = {0.5, 0.5, 0.5};
  EXPECT_EQ(live.Insert(gap), -1);
  EXPECT_FALSE(live.Erase(50));
  EXPECT_EQ(live.epoch(), 0u);  // nothing committed
}

Record NonFiniteRecord(Scalar bad) {
  Record r;
  r.attrs = {0.5, bad, 0.5};
  return r;
}

TEST(LiveEngine, InsertRejectsNonFiniteRecords) {
  LiveEngine live(Generate(Distribution::kIndependent, 10, 3, 31));
  EXPECT_EQ(live.Insert(NonFiniteRecord(std::nan(""))), -1);
  EXPECT_EQ(live.Insert(
                NonFiniteRecord(std::numeric_limits<Scalar>::infinity())),
            -1);
  EXPECT_EQ(live.epoch(), 0u);  // nothing committed
  EXPECT_EQ(live.live_size(), 10);
  const QueryResult r =
      live.Run(MakeSpec(QueryMode::kUtk1, Algorithm::kAuto, 3, Region3d()));
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(LiveEngine, ApplyBatchSkipsNonFiniteInserts) {
  LiveEngine live(Generate(Distribution::kIndependent, 10, 3, 31));
  std::vector<UpdateOp> ops(3);
  ops[0].kind = UpdateKind::kInsert;
  ops[0].record = NonFiniteRecord(std::nan(""));
  ops[1].kind = UpdateKind::kInsert;
  ops[1].record = NonFiniteRecord(0.25);
  ops[2].kind = UpdateKind::kInsert;
  ops[2].record = NonFiniteRecord(-std::numeric_limits<Scalar>::infinity());
  EXPECT_EQ(live.ApplyBatch(ops), 1);
  EXPECT_EQ(live.live_size(), 11);
  EXPECT_TRUE(live.IsLive(10));
  EXPECT_FALSE(live.IsLive(11));
}

TEST(LiveEngine, NonFiniteStartAnswersDataError) {
  Dataset data = Generate(Distribution::kIndependent, 20, 3, 31);
  data[4].attrs[2] = std::nan("");
  LiveEngine live(std::move(data));
  for (QueryMode mode : {QueryMode::kUtk1, QueryMode::kUtk2}) {
    const QuerySpec spec = MakeSpec(mode, Algorithm::kAuto, 3, Region3d());
    EXPECT_EQ(live.Validate(spec), "record 4 attribute 2 is not finite");
    const QueryResult r = live.Run(spec);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error, "record 4 attribute 2 is not finite");
  }
  // An empty start is still valid: the catalog is built with Insert.
  LiveEngine empty(Dataset{});
  Record rec;
  rec.attrs = {0.5, 0.5, 0.5};
  ASSERT_EQ(empty.Insert(rec), 0);
  EXPECT_FALSE(
      empty.Validate(MakeSpec(QueryMode::kUtk1, Algorithm::kAuto, 1,
                              Region3d()))
          .has_value());
}

TEST(LiveEngine, TopKTracksTheLiveTree) {
  Dataset data = Generate(Distribution::kCorrelated, 200, 3, 37);
  LiveEngine live(std::move(data));
  UpdateTraceOptions opt;
  opt.seed = 41;
  std::vector<UpdateOp> trace = MakeUpdateTrace(
      Generate(Distribution::kCorrelated, 200, 3, 37), 150, opt);
  live.ApplyBatch(trace);
  const Vec w = {0.3, 0.4};
  std::vector<int32_t> live_ids;
  Dataset snapshot = live.CompactSnapshot(&live_ids);
  std::vector<int32_t> want = TopK(snapshot, w, 7);
  for (int32_t& id : want) id = live_ids[id];
  EXPECT_EQ(live.TopK(w, 7), want);
}

// ---------------------------------------------------------------- serving

TEST(LiveServe, WarmServerEqualsColdAfterEveryEpoch) {
  // The invalidation soundness criterion: after any update, a warm Server
  // answer equals what a cold Server (fresh cache) over the same engine
  // returns.
  Dataset data = Generate(Distribution::kIndependent, 110, 3, 43);
  auto live = std::make_shared<LiveEngine>(std::move(data));
  Server warm(live);
  CacheAttachment link(*live, warm.cache());

  UpdateTraceOptions opt;
  opt.seed = 47;
  std::vector<UpdateOp> trace = MakeUpdateTrace(
      Generate(Distribution::kIndependent, 110, 3, 43), 40, opt);

  const QuerySpec utk1 =
      MakeSpec(QueryMode::kUtk1, Algorithm::kRsa, 3, Region3d());
  const QuerySpec utk2 =
      MakeSpec(QueryMode::kUtk2, Algorithm::kJaa, 3, Region3d());
  for (size_t i = 0; i < trace.size(); ++i) {
    live->ApplyBatch({&trace[i], 1});
    for (const QuerySpec& spec : {utk1, utk2}) {
      QueryResult warmed = warm.Query(spec);   // may hit a surviving entry
      Server cold(live);                       // fresh cache: always a miss
      QueryResult fresh = cold.Query(spec);
      ASSERT_EQ(warmed.ok, fresh.ok) << warmed.error;
      if (!warmed.ok) continue;
      EXPECT_EQ(warmed.ids, fresh.ids) << "stale cache entry served at op "
                                       << i;
      if (spec.mode == QueryMode::kUtk2) {
        EXPECT_EQ(warmed.utk2.NumDistinctTopkSets(),
                  fresh.utk2.NumDistinctTopkSets());
      }
    }
  }
  CacheCounters c = warm.cache_counters();
  EXPECT_GT(c.invalidation_sweeps, 0);
  EXPECT_GT(c.invalidated, 0);
}

TEST(LiveServe, UnaffectedEntriesSurviveAndKeepServing) {
  Dataset data = Generate(Distribution::kIndependent, 120, 3, 53);
  auto live = std::make_shared<LiveEngine>(std::move(data));
  Server server(live);
  CacheAttachment link(*live, server.cache());

  const QuerySpec spec =
      MakeSpec(QueryMode::kUtk1, Algorithm::kRsa, 3, Region3d());
  QueryResult miss = server.Query(spec);
  ASSERT_TRUE(miss.ok) << miss.error;
  EXPECT_EQ(miss.stats.cache_misses, 1);

  // A record below everything cannot affect any top-k: the sweep must
  // re-tag the entry, which keeps exact-hitting at the new epoch.
  Record dud;
  dud.attrs = {1e-4, 1e-4, 1e-4};
  ASSERT_GE(live->Insert(dud), 0);
  QueryResult hit = server.Query(spec);
  ASSERT_TRUE(hit.ok) << hit.error;
  EXPECT_EQ(hit.stats.cache_hits, 1) << "unaffected entry was invalidated";
  EXPECT_EQ(hit.ids, miss.ids);
  EXPECT_EQ(hit.stats.epoch, 1);

  // A record dominating the whole catalog affects every region: the entry
  // must be dropped and re-answered (with the new record included).
  Record champion;
  champion.attrs = {0.999, 0.999, 0.999};
  const int32_t champ_id = live->Insert(champion);
  ASSERT_GE(champ_id, 0);
  QueryResult refreshed = server.Query(spec);
  ASSERT_TRUE(refreshed.ok) << refreshed.error;
  EXPECT_EQ(refreshed.stats.cache_misses, 1) << "affected entry survived";
  EXPECT_TRUE(std::binary_search(refreshed.ids.begin(), refreshed.ids.end(),
                                 champ_id));
  CacheCounters c = server.cache_counters();
  EXPECT_GE(c.invalidated, 1);
  EXPECT_EQ(c.invalidation_sweeps, 2);
}

TEST(LiveServe, ErasureInvalidatesExactlyTheAnswersContainingIt) {
  Dataset data = Generate(Distribution::kIndependent, 130, 3, 59);
  auto live = std::make_shared<LiveEngine>(std::move(data));
  Server server(live);
  CacheAttachment link(*live, server.cache());

  const QuerySpec spec =
      MakeSpec(QueryMode::kUtk1, Algorithm::kRsa, 3, Region3d());
  QueryResult first = server.Query(spec);
  ASSERT_TRUE(first.ok) << first.error;

  // Erase a record OUTSIDE the answer: the entry survives.
  int32_t outsider = -1;
  for (int32_t id = 0; id < 130; ++id) {
    if (!std::binary_search(first.ids.begin(), first.ids.end(), id)) {
      outsider = id;
      break;
    }
  }
  ASSERT_GE(outsider, 0);
  ASSERT_TRUE(live->Erase(outsider));
  QueryResult hit = server.Query(spec);
  ASSERT_TRUE(hit.ok);
  EXPECT_EQ(hit.stats.cache_hits, 1);
  EXPECT_EQ(hit.ids, first.ids);

  // Erase an answer member: the entry must go.
  ASSERT_TRUE(live->Erase(first.ids.front()));
  QueryResult redo = server.Query(spec);
  ASSERT_TRUE(redo.ok);
  EXPECT_EQ(redo.stats.cache_misses, 1);
  EXPECT_FALSE(std::binary_search(redo.ids.begin(), redo.ids.end(),
                                  first.ids.front()));
}

TEST(LiveServe, ConcurrentReadsDuringUpdatesAreRaceFree) {
  // Readers go through Server::Query — which reads the engine's size and
  // dimensionality for its history row — while a writer grows and shrinks
  // the catalog (fresh inserts reallocate the record vector). Under TSan
  // this is the race check; in every build each answer must be ok.
  auto live = std::make_shared<LiveEngine>(
      Generate(Distribution::kIndependent, 150, 3, 61));
  Server server(live);
  CacheAttachment link(*live, server.cache());
  UpdateTraceOptions opt;
  opt.insert_fraction = 0.7;
  opt.seed = 67;
  const std::vector<UpdateOp> trace = MakeUpdateTrace(
      Generate(Distribution::kIndependent, 150, 3, 61), 160, opt);

  std::atomic<bool> done{false};
  std::atomic<int> answered{0}, failed{0};
  std::vector<std::thread> readers;
  for (QueryMode mode : {QueryMode::kUtk1, QueryMode::kUtk2}) {
    readers.emplace_back([&, mode] {
      const QuerySpec spec = MakeSpec(mode, Algorithm::kAuto, 3, Region3d());
      while (!done.load()) {
        if (!server.Query(spec).ok) failed.fetch_add(1);
        answered.fetch_add(1);
      }
    });
  }
  while (answered.load() < 2) std::this_thread::yield();
  const std::span<const UpdateOp> ops(trace);
  for (size_t i = 0; i < ops.size(); i += 4) {
    live->ApplyBatch(ops.subspan(i, std::min<size_t>(4, ops.size() - i)));
    std::this_thread::yield();
  }
  done.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failed.load(), 0);
  EXPECT_GE(answered.load(), 2);
}

}  // namespace
}  // namespace utk
