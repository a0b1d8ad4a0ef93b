// Differential.CacheSweep*: the live engine's invalidation sweep must keep
// and drop exactly the cache entries the per-id range test alone keeps and
// drops (tests/sweep_oracle.h). The sweep settles most entries with a
// memoized per-entry score floor first; these draws check that shortcut
// never changes a decision.
//
// Each draw drives a Server over a LiveEngine: reads admit answers, update
// batches commit epochs, and after every batch each answer the test put in
// the cache must hit at the new epoch exactly when the oracle keeps it.
// The stream draws follow serve-live's shape at small scale; the rest aim
// at the floor's edges: a flat member with inserts around kEps below it,
// exact duplicates of members, LP-ranged (non-box) regions, d = 2 and
// d = 7, k >= n, a catalog scaled by 1e6, and a member erased and revived
// with new attributes in one batch.
//
// Seeds: the base seed is fixed (UTK_DIFF_SEED overrides it) and every
// failure message carries the draw and its batch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/generator.h"
#include "data/workload.h"
#include "diff_env.h"
#include "live/live_engine.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "sweep_oracle.h"

namespace utk {
namespace {

constexpr int kOpsPerBatch = 8;
constexpr int kReadsPerStep = 5;

int64_t CounterValue(const char* name) {
  return obs::MetricRegistry::Global().GetCounter(name).Value();
}

QuerySpec Spec(QueryMode mode, int k, ConvexRegion region) {
  QuerySpec spec;
  spec.mode = mode;
  spec.k = k;
  spec.region = std::move(region);
  return spec;
}

/// What one batch did to the answers the test holds in the cache.
struct BatchOutcome {
  int64_t held = 0;         ///< answers resident before the batch
  int64_t dropped = 0;      ///< answers the sweep dropped
  int64_t tested = 0;       ///< utk_live_sweep_entries_total delta
  int64_t exact_tests = 0;  ///< utk_live_sweep_exact_tests_total delta
};

/// A Server over a LiveEngine plus the answers the test has admitted.
class SweepReplay {
 public:
  explicit SweepReplay(Dataset data)
      : live_(std::make_shared<LiveEngine>(std::move(data))),
        server_(live_),
        link_(*live_, server_.cache()) {}

  const LiveEngine& live() const { return *live_; }
  const std::vector<int32_t>& HeldIds(const QuerySpec& spec) const {
    return held_.at(Key(spec)).result.ids;
  }
  int64_t held() const { return static_cast<int64_t>(held_.size()); }
  CacheCounters counters() const { return server_.cache_counters(); }

  /// Serves `spec` and remembers the answer the cache now holds for it.
  void Read(const QuerySpec& spec) {
    QueryResult r = server_.Query(spec);
    ASSERT_TRUE(r.ok) << r.error;
    held_[Key(spec)] = Held{spec, live_->Plan(spec), std::move(r)};
  }

  /// Commits `ops` as one batch, then checks every held answer: it hits at
  /// the new epoch exactly when the oracle keeps it, and a hit serves the
  /// held answer. Dropped answers are forgotten.
  BatchOutcome Batch(std::span<const UpdateOp> ops, const std::string& where) {
    std::vector<Record> inserted;
    std::vector<int32_t> erased;
    for (const UpdateOp& op : ops) {
      if (op.kind == UpdateKind::kInsert)
        inserted.push_back(op.record);
      else
        erased.push_back(op.id);
    }
    BatchOutcome out;
    out.held = held();
    const int64_t tested0 = CounterValue("utk_live_sweep_entries_total");
    const int64_t exact0 = CounterValue("utk_live_sweep_exact_tests_total");
    EXPECT_EQ(live_->ApplyBatch(ops), static_cast<int>(ops.size())) << where;
    out.tested = CounterValue("utk_live_sweep_entries_total") - tested0;
    out.exact_tests =
        CounterValue("utk_live_sweep_exact_tests_total") - exact0;
    // Every held answer sits at the pre-batch epoch, so the sweep tests
    // each of them once.
    EXPECT_EQ(out.tested, out.held) << where;
    EXPECT_LE(out.exact_tests, out.tested) << where;
    for (auto it = held_.begin(); it != held_.end();) {
      const Held& h = it->second;
      const bool oracle_drops = sweep_oracle::CouldAffect(
          live_->data(), inserted, erased, h.spec.region, h.result);
      std::optional<QueryResult> hit =
          server_.cache().Lookup(h.spec, h.planned, live_->epoch());
      EXPECT_EQ(hit.has_value(), !oracle_drops)
          << where << ": the sweep " << (hit ? "kept" : "dropped")
          << " an entry the per-id test " << (oracle_drops ? "drops" : "keeps")
          << " (mode " << (h.spec.mode == QueryMode::kUtk1 ? 1 : 2) << ", k "
          << h.spec.k << ", " << h.result.ids.size() << " ids)";
      if (hit.has_value()) {
        EXPECT_EQ(hit->ids, h.result.ids) << where;
        ++it;
      } else {
        it = held_.erase(it);
        ++out.dropped;
      }
    }
    return out;
  }

 private:
  struct Held {
    QuerySpec spec;
    Algorithm planned;
    QueryResult result;
  };
  std::string Key(const QuerySpec& spec) const {
    return CanonicalFingerprint(spec, live_->Plan(spec));
  }

  std::shared_ptr<LiveEngine> live_;
  Server server_;
  CacheAttachment link_;
  std::map<std::string, Held> held_;
};

void Scale(Dataset* data, Scalar factor) {
  for (Record& r : *data)
    for (Scalar& v : r.attrs) v *= factor;
}

/// The serve-live shape at small scale.
struct StreamShape {
  int n = 2000;
  int dim = 4;
  int k = 10;
  Scalar sigma = 0.05;
  int hot = 64;
  int steps = 60;
  Scalar scale = 1.0;    ///< multiplies every attribute, inserts included
  bool cut = false;      ///< halve each region by a diagonal half-space
  bool utk2 = true;      ///< one read in four is UTK2
};

/// Cuts `box` through its center with w_0 + ... + w_{p-1} <= sum of the
/// center's coordinates, so RangeOf has to solve LPs over it.
ConvexRegion Cut(const ConvexRegion& box) {
  const int p = box.dim();
  Halfspace h;
  h.a.assign(p, 1.0);
  for (int i = 0; i < p; ++i) h.b += 0.5 * (box.box_lo()[i] + box.box_hi()[i]);
  ConvexRegion out = box;
  out.AddConstraint(h);
  return out;
}

/// Totals of a stream draw, for its own floor/loop coverage assertions.
struct StreamTotals {
  int64_t tested = 0;
  int64_t exact_tests = 0;
  int64_t dropped = 0;
  int64_t kept = 0;
};

/// Warms every hot region in both modes, then runs `shape.steps` steps of
/// five reads (40% hot repeats, 30% sub-boxes of a hot region, 30% fresh
/// regions; one read in four UTK2) and one batch of eight mixed updates.
StreamTotals RunStream(const StreamShape& shape, uint64_t seed,
                       const std::string& name) {
  Dataset initial =
      Generate(Distribution::kIndependent, shape.n, shape.dim, seed);
  UpdateTraceOptions writes;
  writes.insert_fraction = 0.5;
  writes.seed = seed + 2;
  std::vector<UpdateOp> ops =
      MakeUpdateTrace(initial, shape.steps * kOpsPerBatch, writes);
  Scale(&initial, shape.scale);
  for (UpdateOp& op : ops)
    for (Scalar& v : op.record.attrs) v *= shape.scale;

  const int p = shape.dim - 1;
  std::vector<ConvexRegion> hot = QueryBatch(p, shape.sigma, shape.hot,
                                             seed + 1);
  std::vector<ConvexRegion> fresh = QueryBatch(
      p, shape.sigma, shape.steps * kReadsPerStep, seed + 3);
  auto shaped = [&](const ConvexRegion& box) {
    return shape.cut ? Cut(box) : box;
  };
  SweepReplay replay(std::move(initial));
  for (const ConvexRegion& box : hot) {
    replay.Read(Spec(QueryMode::kUtk1, shape.k, shaped(box)));
    if (shape.utk2) replay.Read(Spec(QueryMode::kUtk2, shape.k, shaped(box)));
  }
  Rng rng(seed + 4);
  StreamTotals totals;
  int read = 0;
  for (int step = 0; step < shape.steps; ++step) {
    for (int i = 0; i < kReadsPerStep; ++i, ++read) {
      const double u = rng.Uniform(0.0, 1.0);
      const ConvexRegion& parent = hot[rng.UniformInt(0, shape.hot - 1)];
      ConvexRegion box = u < 0.4   ? parent
                         : u < 0.7 ? RandomSubBox(parent, 0.5, rng)
                                   : fresh[read];
      const QueryMode mode = shape.utk2 && read % 4 == 3 ? QueryMode::kUtk2
                                                         : QueryMode::kUtk1;
      replay.Read(Spec(mode, shape.k, shaped(box)));
    }
    const BatchOutcome out = replay.Batch(
        std::span<const UpdateOp>(ops).subspan(step * kOpsPerBatch,
                                               kOpsPerBatch),
        name + " seed " + std::to_string(seed) + " batch " +
            std::to_string(step));
    totals.tested += out.tested;
    totals.exact_tests += out.exact_tests;
    totals.dropped += out.dropped;
    totals.kept += out.held - out.dropped;
  }
  // Evictions would drop held answers behind the oracle's back.
  EXPECT_EQ(replay.counters().evictions, 0) << name;
  return totals;
}

TEST(Differential, CacheSweepServeLiveStream) {
  const uint64_t seed = EnvSeed();
  const StreamTotals t = RunStream(StreamShape{}, seed, "serve-live stream");
  // Both decisions occur, and the floor settles most entries: the draw
  // exercises the shortcut, not only the fallback.
  EXPECT_GT(t.dropped, 0);
  EXPECT_GT(t.kept, 0);
  EXPECT_GT(t.exact_tests, 0);
  EXPECT_LT(2 * t.exact_tests, t.tested)
      << t.exact_tests << " of " << t.tested << " went to the per-id test";
}

TEST(Differential, CacheSweepNonBoxRegions) {
  StreamShape shape;
  shape.cut = true;
  shape.hot = 24;
  shape.steps = 30;
  const StreamTotals t = RunStream(shape, EnvSeed() + 10, "cut regions");
  EXPECT_GT(t.kept, 0);
  EXPECT_GT(t.dropped, 0);
}

TEST(Differential, CacheSweepLowAndHighDims) {
  StreamShape low;
  low.dim = 2;
  low.sigma = 0.1;
  low.steps = 40;
  const StreamTotals t2 = RunStream(low, EnvSeed() + 20, "d=2");
  EXPECT_GT(t2.kept, 0);
  EXPECT_GT(t2.dropped, 0);

  StreamShape high;
  high.dim = 7;
  high.n = 500;
  high.k = 4;
  high.sigma = 0.02;
  high.hot = 12;
  high.steps = 20;
  high.utk2 = false;
  const StreamTotals t7 = RunStream(high, EnvSeed() + 21, "d=7");
  EXPECT_GT(t7.kept, 0);
}

TEST(Differential, CacheSweepKAtLeastN) {
  // Every live record is in every answer, so each insert faces the whole
  // catalog's lowest score. Each batch inserts four records and erases four
  // live ones, so the catalog stays at n = 12 while k is 16, then 12.
  for (int k : {16, 12}) {
    const uint64_t seed = EnvSeed() + 30 + static_cast<uint64_t>(k);
    SweepReplay replay(Generate(Distribution::kIndependent, 12, 4, seed));
    const std::vector<ConvexRegion> boxes = QueryBatch(3, 0.05, 8, seed + 1);
    Rng rng(seed + 2);
    std::vector<int32_t> live_ids;
    for (int32_t id = 0; id < 12; ++id) live_ids.push_back(id);
    int32_t next_id = 12;
    for (int step = 0; step < 30; ++step) {
      for (const ConvexRegion& box : boxes) {
        replay.Read(Spec(QueryMode::kUtk1, k, box));
        replay.Read(Spec(QueryMode::kUtk2, k, box));
      }
      std::vector<UpdateOp> ops;
      for (int i = 0; i < 4; ++i) {
        UpdateOp erase;
        erase.kind = UpdateKind::kErase;
        const int pick = rng.UniformInt(0, static_cast<int>(live_ids.size()) - 1);
        erase.id = live_ids[static_cast<size_t>(pick)];
        live_ids.erase(live_ids.begin() + pick);
        ops.push_back(erase);
      }
      for (int i = 0; i < 4; ++i) {
        UpdateOp insert;
        insert.record.attrs.resize(4);
        for (Scalar& v : insert.record.attrs) v = rng.Uniform(0.0, 1.0);
        ops.push_back(insert);
        live_ids.push_back(next_id++);
      }
      replay.Batch(ops, "k " + std::to_string(k) + " batch " +
                            std::to_string(step));
    }
  }
}

TEST(Differential, CacheSweepScaledCatalog) {
  // Scores near 1e6: the floor's margin scales with them, the per-id
  // test's kEps threshold does not.
  StreamShape shape;
  shape.scale = 1e6;
  shape.steps = 40;
  const StreamTotals t = RunStream(shape, EnvSeed() + 40, "scaled by 1e6");
  EXPECT_GT(t.kept, 0);
  EXPECT_GT(t.dropped, 0);
}

/// IND records below 0.6, k-1 records above 0.85 in every attribute and
/// one record at `c` in every attribute — whose score is c at every weight
/// vector, so it is the lowest member of every top-k — all times `scale`.
/// Returns the flat record's id.
int32_t FlatMemberCatalog(uint64_t seed, int k, Scalar c, Scalar scale,
                          Dataset* data) {
  *data = Generate(Distribution::kIndependent, 2000, 4, seed);
  Scale(data, 0.6);
  Rng rng(seed + 1);
  auto add = [&](Vec attrs) {
    Record r;
    r.id = static_cast<int32_t>(data->size());
    r.attrs = std::move(attrs);
    data->push_back(std::move(r));
  };
  for (int i = 0; i < k - 1; ++i) {
    Vec attrs(4);
    for (Scalar& v : attrs) v = rng.Uniform(0.85, 0.95);
    add(std::move(attrs));
  }
  add(Vec(4, c));
  Scale(data, scale);
  return static_cast<int32_t>(data->size()) - 1;
}

TEST(Differential, CacheSweepFlatMemberAtTheMargin) {
  // An insert at c - delta in every attribute scores exactly delta below
  // the flat member everywhere. The per-id test drops the entry when that
  // gap is within kEps; the floor may keep it only when the gap clears its
  // margin, 2 kEps times the score magnitude.
  const uint64_t seed = EnvSeed() + 50;
  const int k = 5;
  const Scalar c = 0.75;
  for (Scalar scale : {1.0, 1e6}) {
    const Scalar flat = c * scale;
    const Scalar margin = 2.0 * kEps * std::max(1.0, flat);
    for (Scalar delta : {0.5 * kEps, 1.0 * kEps, 1.5 * kEps, 2.0 * kEps,
                         3.0 * kEps, 1.5 * margin}) {
      Dataset data;
      const int32_t flat_id = FlatMemberCatalog(seed, k, c, scale, &data);
      SweepReplay replay(std::move(data));
      const std::vector<ConvexRegion> boxes = QueryBatch(3, 0.05, 8, seed);
      for (const ConvexRegion& box : boxes) {
        replay.Read(Spec(QueryMode::kUtk1, k, box));
        replay.Read(Spec(QueryMode::kUtk2, k, box));
        const std::vector<int32_t>& ids =
            replay.HeldIds(Spec(QueryMode::kUtk1, k, box));
        ASSERT_TRUE(std::binary_search(ids.begin(), ids.end(), flat_id));
      }
      UpdateOp op;
      op.record.attrs.assign(4, flat - delta);
      const std::string where = "scale " + std::to_string(scale) +
                                " delta " + std::to_string(delta / kEps) +
                                " kEps";
      const BatchOutcome out = replay.Batch({&op, 1}, where);
      if (delta < 0.75 * kEps) {
        EXPECT_EQ(out.dropped, out.held) << where;
      }
      if (delta > 1.25 * kEps) {
        EXPECT_EQ(out.dropped, 0) << where;
      }
      // The floor settles exactly the gaps beyond its margin; everything
      // closer goes to the per-id test.
      if (delta > 1.25 * margin) {
        EXPECT_EQ(out.exact_tests, 0) << where;
      }
      if (delta < 0.75 * margin) {
        EXPECT_EQ(out.exact_tests, out.held) << where;
      }
    }
  }
}

TEST(Differential, CacheSweepDuplicateMemberInserts) {
  // An exact copy of a member ties it everywhere, so every entry holding
  // that member must drop; the floor can never settle it.
  const uint64_t seed = EnvSeed() + 60;
  SweepReplay replay(Generate(Distribution::kIndependent, 2000, 4, seed));
  const std::vector<ConvexRegion> boxes = QueryBatch(3, 0.05, 16, seed + 1);
  for (const ConvexRegion& box : boxes) {
    replay.Read(Spec(QueryMode::kUtk1, 10, box));
    replay.Read(Spec(QueryMode::kUtk2, 10, box));
  }
  for (int round = 0; round < 4; ++round) {
    const std::vector<int32_t>& ids = replay.HeldIds(
        Spec(QueryMode::kUtk1, 10, boxes[static_cast<size_t>(round)]));
    ASSERT_FALSE(ids.empty());
    UpdateOp op;
    op.record.attrs = replay.live().data()[ids[ids.size() / 2]].attrs;
    const BatchOutcome out =
        replay.Batch({&op, 1}, "duplicate round " + std::to_string(round));
    EXPECT_GT(out.dropped, 0);
    for (const ConvexRegion& box : boxes) {
      replay.Read(Spec(QueryMode::kUtk1, 10, box));
      replay.Read(Spec(QueryMode::kUtk2, 10, box));
    }
  }
}

TEST(Differential, CacheSweepEraseAndReviveMember) {
  // One batch erases a member and revives its id with new attributes: the
  // erase drops every entry holding it. The re-admitted entries then
  // compute their floors from the new attributes, which later inserts test.
  const uint64_t seed = EnvSeed() + 70;
  SweepReplay replay(Generate(Distribution::kIndependent, 2000, 4, seed));
  const std::vector<ConvexRegion> boxes = QueryBatch(3, 0.05, 16, seed + 1);
  auto read_all = [&] {
    for (const ConvexRegion& box : boxes) {
      replay.Read(Spec(QueryMode::kUtk1, 10, box));
      replay.Read(Spec(QueryMode::kUtk2, 10, box));
    }
  };
  read_all();
  Rng rng(seed + 2);
  for (int round = 0; round < 6; ++round) {
    const std::string where = "revive round " + std::to_string(round);
    const std::vector<int32_t> ids = replay.HeldIds(
        Spec(QueryMode::kUtk1, 10, boxes[static_cast<size_t>(round)]));
    ASSERT_FALSE(ids.empty());
    const int32_t member = ids.front();
    UpdateOp ops[2];
    ops[0].kind = UpdateKind::kErase;
    ops[0].id = member;
    ops[1].record.id = member;
    // Alternate a revival that stays a member and one that sinks.
    const Scalar lo = round % 2 == 0 ? 0.9 : 0.0;
    ops[1].record.attrs.resize(4);
    for (Scalar& v : ops[1].record.attrs) v = rng.Uniform(lo, lo + 0.1);
    EXPECT_GT(replay.Batch(ops, where).dropped, 0) << where;
    read_all();
    // Plain inserts against the re-admitted entries and their new floors.
    UpdateOp insert;
    insert.record.attrs.resize(4);
    for (Scalar& v : insert.record.attrs) v = rng.Uniform(0.0, 1.0);
    replay.Batch({&insert, 1}, where + " follow-up insert");
    read_all();
  }
}

}  // namespace
}  // namespace utk
