#include "data/workload.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "data/generator.h"

namespace utk {
namespace {

TEST(Workload, BoxHasRequestedSide) {
  Rng rng(1);
  for (int dim : {1, 2, 3, 5}) {
    for (Scalar sigma : {0.01, 0.05, 0.1}) {
      ConvexRegion r = RandomQueryBox(dim, sigma, rng);
      ASSERT_TRUE(r.is_box());
      for (int i = 0; i < dim; ++i) {
        EXPECT_NEAR(r.box_hi()[i] - r.box_lo()[i], sigma, 1e-12);
      }
    }
  }
}

TEST(Workload, BoxInsideSimplex) {
  Rng rng(2);
  for (int t = 0; t < 200; ++t) {
    ConvexRegion r = RandomQueryBox(3, 0.08, rng);
    Scalar hi_sum = 0;
    for (int i = 0; i < 3; ++i) {
      EXPECT_GE(r.box_lo()[i], 0.0);
      hi_sum += r.box_hi()[i];
    }
    EXPECT_LE(hi_sum, 1.0 + 1e-12);
  }
}

TEST(Workload, BatchDeterministicBySeed) {
  auto a = QueryBatch(2, 0.05, 10, 99);
  auto b = QueryBatch(2, 0.05, 10, 99);
  ASSERT_EQ(a.size(), 10u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].box_lo(), b[i].box_lo());
    EXPECT_EQ(a[i].box_hi(), b[i].box_hi());
  }
}

TEST(Workload, BatchVariesAcrossQueries) {
  auto batch = QueryBatch(2, 0.05, 10, 100);
  bool differs = false;
  for (size_t i = 1; i < batch.size(); ++i)
    if (batch[i].box_lo() != batch[0].box_lo()) differs = true;
  EXPECT_TRUE(differs);
}

TEST(Workload, SubBoxContainedInParent) {
  Rng rng(4);
  for (int t = 0; t < 100; ++t) {
    ConvexRegion parent = RandomQueryBox(3, 0.1, rng);
    const Scalar shrink = rng.Uniform(0.2, 1.0);
    ConvexRegion sub = RandomSubBox(parent, shrink, rng);
    ASSERT_TRUE(sub.is_box());
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(EpsGe(sub.box_lo()[i], parent.box_lo()[i])) << i;
      EXPECT_TRUE(EpsLe(sub.box_hi()[i], parent.box_hi()[i])) << i;
      EXPECT_NEAR(sub.box_hi()[i] - sub.box_lo()[i],
                  shrink * (parent.box_hi()[i] - parent.box_lo()[i]), 1e-12);
    }
  }
}

TEST(Workload, ServeTraceShapesAndDeterminism) {
  ServeTraceOptions opt;
  opt.pref_dim = 2;
  opt.sigma = 0.1;
  opt.hot_regions = 3;
  opt.repeat_fraction = 0.4;
  opt.subregion_fraction = 0.3;
  opt.seed = 77;
  ServeTrace a = MakeServeTrace(200, opt);
  ASSERT_EQ(a.queries.size(), 200u);
  ASSERT_EQ(a.kinds.size(), 200u);
  ASSERT_EQ(a.hot.size(), 3u);

  int repeats = 0, subs = 0, fresh = 0;
  for (size_t i = 0; i < a.queries.size(); ++i) {
    switch (a.kinds[i]) {
      case TraceKind::kRepeat: {
        // An exact copy of some hot region.
        bool matches_hot = false;
        for (const ConvexRegion& h : a.hot)
          if (h.box_lo() == a.queries[i].box_lo() &&
              h.box_hi() == a.queries[i].box_hi())
            matches_hot = true;
        EXPECT_TRUE(matches_hot) << i;
        ++repeats;
        break;
      }
      case TraceKind::kSubregion: {
        // Contained in some hot region (the containment-hit path).
        bool contained = false;
        const ConvexRegion& q = a.queries[i];
        for (const ConvexRegion& h : a.hot) {
          bool inside = true;
          for (int d = 0; d < opt.pref_dim; ++d)
            inside &= EpsGe(q.box_lo()[d], h.box_lo()[d]) &&
                      EpsLe(q.box_hi()[d], h.box_hi()[d]);
          contained |= inside;
        }
        EXPECT_TRUE(contained) << i;
        ++subs;
        break;
      }
      case TraceKind::kFresh:
        ++fresh;
        break;
    }
  }
  // With 200 draws, every kind must appear, roughly per its fraction.
  EXPECT_GT(repeats, 40);
  EXPECT_GT(subs, 20);
  EXPECT_GT(fresh, 20);

  // Deterministic in the seed.
  ServeTrace b = MakeServeTrace(200, opt);
  for (size_t i = 0; i < a.queries.size(); ++i) {
    EXPECT_EQ(a.queries[i].box_lo(), b.queries[i].box_lo());
    EXPECT_TRUE(a.kinds[i] == b.kinds[i]);
  }
}

TEST(Workload, LargeSigmaHighDimStillFits) {
  // sigma * dim close to 1: rejection may fail, fallback must kick in.
  Rng rng(3);
  ConvexRegion r = RandomQueryBox(6, 0.16, rng);
  Scalar hi_sum = 0;
  for (int i = 0; i < 6; ++i) hi_sum += r.box_hi()[i];
  EXPECT_LE(hi_sum, 1.0 + 1e-9);
}

TEST(Workload, UpdateTraceIsConsistentAndDeterministic) {
  Dataset initial = Generate(Distribution::kIndependent, 30, 3, 3);
  UpdateTraceOptions opt;
  opt.seed = 9;
  std::vector<UpdateOp> a = MakeUpdateTrace(initial, 200, opt);
  std::vector<UpdateOp> b = MakeUpdateTrace(initial, 200, opt);
  ASSERT_EQ(a.size(), 200u);

  // Determinism in the seed.
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].record.id, b[i].record.id);
    EXPECT_EQ(a[i].record.attrs, b[i].record.attrs);
  }

  // Replay the liveness the generator promises: erases always target a
  // live id, reinserts revive a dead id verbatim, fresh inserts are
  // assigned sequentially from initial.size().
  std::set<int32_t> live;
  for (const Record& r : initial) live.insert(r.id);
  int32_t next_id = static_cast<int32_t>(initial.size());
  int fresh = 0, revivals = 0, erases = 0;
  for (const UpdateOp& op : a) {
    if (op.kind == UpdateKind::kInsert) {
      if (op.record.id < 0) {
        EXPECT_EQ(op.record.Dim(), 3);
        live.insert(next_id++);
        ++fresh;
      } else {
        EXPECT_EQ(live.count(op.record.id), 0u) << "revived a live id";
        live.insert(op.record.id);
        ++revivals;
      }
    } else {
      EXPECT_EQ(live.count(op.id), 1u) << "erased a dead id";
      live.erase(op.id);
      ++erases;
    }
  }
  EXPECT_GT(fresh, 0);
  EXPECT_GT(revivals, 0);
  EXPECT_GT(erases, 0);
}

TEST(Workload, UpdateTraceInsertFractionZeroDrainsThenInserts) {
  Dataset initial = Generate(Distribution::kIndependent, 5, 3, 4);
  UpdateTraceOptions opt;
  opt.seed = 11;
  opt.insert_fraction = 0.0;
  std::vector<UpdateOp> ops = MakeUpdateTrace(initial, 8, opt);
  // Erases drain the catalog; once empty the generator must fall back to
  // inserts rather than emit invalid ops, and every erase targets a live
  // id throughout.
  ASSERT_EQ(ops.size(), 8u);
  int live = 5, erases = 0;
  for (const UpdateOp& op : ops) {
    if (op.kind == UpdateKind::kErase) {
      ASSERT_GT(live, 0) << "erase emitted against an empty catalog";
      --live;
      ++erases;
    } else {
      ++live;
    }
  }
  EXPECT_GE(erases, 5);
}

}  // namespace
}  // namespace utk
