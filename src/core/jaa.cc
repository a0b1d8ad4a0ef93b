#include "core/jaa.h"

#include <algorithm>
#include <cassert>

#include "arrangement/arrangement.h"
#include "common/parallel.h"
#include "core/drill.h"
#include "exec/kernels.h"
#include "geometry/linear.h"
#include "obs/trace.h"
#include "skyline/graph.h"
#include "skyline/rskyband.h"

namespace utk {

namespace {

struct JaaContext {
  const Dataset& data;
  const RSkybandResult& band;
  const ColumnStore& band_cols;  // gathered SoA mirror: row i = band.ids[i]
  std::vector<Scalar>* scratch;  // |band| score buffer for batched kernels
  const RDominanceGraph& g;
  const Jaa::Options& options;
  int k;
  Utk2Result* out;
  QueryStats* stats;
};

// Geometric description of the (sub-)region currently being partitioned.
struct Zone {
  const std::vector<Halfspace>& bounds;
  const Vec& interior;
  Scalar radius;
};

// `lanes` > 1 refines the cells of the NEXT PartitionRec level concurrently
// (Refine passes options.refine_threads for the top-level call; every
// recursive call passes 1).
void Solve(const JaaContext& ctx, const Zone& zone, const Bitset& prefix,
           int need, const Bitset& excluded, int lanes);

// Emits a finalized equal-to cell: top-k = prefix  U  above  U  {anchor}.
void Finalize(const JaaContext& ctx, const Zone& zone, const Bitset& prefix,
              const Bitset& above, int anchor) {
  Utk2Cell cell;
  cell.bounds = zone.bounds;
  cell.witness = zone.interior;
  prefix.ForEach([&](int i) { cell.topk.push_back(ctx.band.ids[i]); });
  above.ForEach([&](int i) { cell.topk.push_back(ctx.band.ids[i]); });
  cell.topk.push_back(ctx.band.ids[anchor]);
  std::sort(cell.topk.begin(), cell.topk.end());
  ctx.out->cells.push_back(std::move(cell));
}

// The verification-like process (Algorithm 4) for anchor `p` in `zone`.
//   prefix   records known to be the top-|prefix| everywhere in `zone`
//   need     k - |prefix|  (anchor aims for rank `need` among non-prefix)
//   excluded records proven unable to enter the top-k anywhere in `zone`
//   above    non-prefix records known to score above p everywhere in `zone`
//   irrelevant  non-prefix records known to score below p everywhere in
//               `zone` (inserted-not-covering and Lemma-1 disregarded)
void PartitionRec(const JaaContext& ctx, int p, const Zone& zone,
                  const Bitset& prefix, int need, const Bitset& excluded,
                  const Bitset& above, const Bitset& irrelevant, int lanes);

// One cell of a PartitionRec level: greater-than shortcut, Lemma-1
// classification, then finalize / recurse. All sub-recursion stays serial
// (lanes=1); the parallel path hands each task a private JaaContext (own
// out/stats/scratch) so tasks share only read-only state.
void PartitionCell(const JaaContext& ctx, int p, const Cell& cell,
                   const Bitset& prefix, int need, const Bitset& excluded,
                   const Bitset& above, const Bitset& irrelevant,
                   int rank_known, const Bitset& inserted,
                   const Bitset& remaining) {
  Bitset covering(ctx.g.size());
  for (int id : cell.covering) covering.Set(id);
  Bitset not_covering = inserted;
  not_covering.SubtractWith(covering);

  const int rank = rank_known + cell.Count();  // rank with inserted only
  Zone sub{cell.bounds, cell.interior, cell.radius};

  if (rank > need) {
    // Greater-than partition: p (and its descendants) cannot be in the
    // top-k here; the rank needs no Lemma-1 confirmation (line 12).
    Bitset next_excluded = excluded;
    next_excluded.Set(p);
    next_excluded.UnionWith(ctx.g.Descendants(p));
    Solve(ctx, sub, prefix, need, next_excluded, /*lanes=*/1);
    return;
  }

  // Classify via Lemma 1: which remaining competitors may still beat p
  // inside this cell?
  bool confirmed = true;
  Bitset disregarded(ctx.g.size());
  remaining.ForEach([&](int q) {
    if (ctx.options.use_lemma1 &&
        ctx.g.Ancestors(q).Intersects(not_covering)) {
      disregarded.Set(q);
    } else {
      confirmed = false;
    }
  });

  Bitset cell_above = above;
  cell_above.UnionWith(covering);

  if (confirmed) {
    if (rank == need) {
      Finalize(ctx, sub, prefix, cell_above, p);
    } else {  // rank < need: less-than partition
      Bitset next_prefix = prefix;
      next_prefix.UnionWith(cell_above);
      next_prefix.Set(p);
      Solve(ctx, sub, next_prefix, need - rank, excluded, /*lanes=*/1);
    }
  } else {
    // Unclassifiable: refine this cell with the next wave of competitors.
    Bitset cell_irrelevant = irrelevant;
    cell_irrelevant.UnionWith(not_covering);
    cell_irrelevant.UnionWith(disregarded);
    PartitionRec(ctx, p, sub, prefix, need, excluded, cell_above,
                 cell_irrelevant, /*lanes=*/1);
  }
}

void PartitionRec(const JaaContext& ctx, int p, const Zone& zone,
                  const Bitset& prefix, int need, const Bitset& excluded,
                  const Bitset& above, const Bitset& irrelevant, int lanes) {
  if (ctx.stats != nullptr) ++ctx.stats->verify_calls;

  // Competitors that can still affect p's rank in this zone.
  Bitset competitors = ctx.g.Active();
  competitors.SubtractWith(prefix);
  competitors.SubtractWith(excluded);
  competitors.SubtractWith(above);
  competitors.SubtractWith(irrelevant);
  competitors.SubtractWith(ctx.g.Descendants(p));  // never outscore p
  competitors.Reset(p);

  const int rank_known = above.Count() + 1;  // p's rank if no competitor wins

  if (competitors.Count() == 0) {
    // Rank of p is fully determined everywhere in the zone.
    if (rank_known == need) {
      Finalize(ctx, zone, prefix, above, p);
    } else if (rank_known < need) {
      Bitset next_prefix = prefix;
      next_prefix.UnionWith(above);
      next_prefix.Set(p);
      Solve(ctx, zone, next_prefix, need - rank_known, excluded, /*lanes=*/1);
    } else {
      Bitset next_excluded = excluded;
      next_excluded.Set(p);
      next_excluded.UnionWith(ctx.g.Descendants(p));
      Solve(ctx, zone, prefix, need, next_excluded, /*lanes=*/1);
    }
    return;
  }

  // Local arrangement over the zone with the strongest competitors (local
  // r-dominance count 0), wave-capped as in RSA. Once a cell's count pushes
  // the anchor's rank beyond `need` it is greater-than regardless of any
  // further half-space, so it freezes (no more refinement by this anchor).
  CellArrangement arr(zone.bounds, zone.interior, zone.radius, ctx.stats);
  arr.set_freeze_threshold(std::max(1, need - rank_known + 1));
  std::vector<int> wave;
  competitors.ForEach([&](int i) {
    if (!ctx.g.Ancestors(i).Intersects(competitors)) wave.push_back(i);
  });
  if (ctx.options.wave_cap > 0 &&
      static_cast<int>(wave.size()) > ctx.options.wave_cap) {
    // Batched scores at the zone interior; the sort compares flat scalars.
    ScoreAll(ctx.band_cols, zone.interior, ctx.scratch->data());
    const std::vector<Scalar>& sc = *ctx.scratch;
    std::partial_sort(
        wave.begin(), wave.begin() + ctx.options.wave_cap, wave.end(),
        [&](int a, int b) { return sc[a] > sc[b]; });
    wave.resize(ctx.options.wave_cap);
  }
  Bitset inserted(ctx.g.size());
  {
    UTK_SPAN_VAL("arrangement.build", static_cast<int64_t>(wave.size()));
    for (int i : wave) {
      arr.Insert(i, BetterOrEqual(ctx.data[ctx.band.ids[i]],
                                  ctx.data[ctx.band.ids[p]]));
      inserted.Set(i);
    }
  }
  assert(inserted.Count() > 0);

  Bitset remaining = competitors;
  remaining.SubtractWith(inserted);

  const int tasks = static_cast<int>(arr.cells().size());
  if (lanes <= 1 || tasks <= 1) {
    for (const Cell& cell : arr.cells()) {
      PartitionCell(ctx, p, cell, prefix, need, excluded, above, irrelevant,
                    rank_known, inserted, remaining);
    }
    return;
  }

  // Parallel cell walk. Unlike RSA there is no early exit — every cell's
  // sub-recursion always runs — so each task gets a private output/stats/
  // scratch sink and the merge below replays the serial emission order
  // exactly: cells of task i land before cells of task i+1, counters sum
  // to the serial totals, gauges max the same way.
  struct CellTask {
    Utk2Result out;
    QueryStats stats;
    int64_t us = 0;
  };
  std::vector<CellTask> results(tasks);
  const int width = std::min(lanes, tasks);
  ParallelFor(tasks, width, [&](int idx) {
    Timer t;
    CellTask& res = results[idx];
    std::vector<Scalar> local_scratch(ctx.scratch->size());
    JaaContext local = ctx;
    local.scratch = &local_scratch;
    local.out = &res.out;
    local.stats = &res.stats;
    PartitionCell(local, p, arr.cells()[idx], prefix, need, excluded, above,
                  irrelevant, rank_known, inserted, remaining);
    res.us = static_cast<int64_t>(t.ElapsedMs() * 1000.0);
  });

  int64_t sum_us = 0, max_us = 0;
  for (CellTask& res : results) {
    for (Utk2Cell& cell : res.out.cells)
      ctx.out->cells.push_back(std::move(cell));
    if (ctx.stats != nullptr) *ctx.stats += res.stats;
    sum_us += res.us;
    max_us = std::max(max_us, res.us);
  }
  if (ctx.stats != nullptr) {
    ctx.stats->refine_tasks += tasks;
    ctx.stats->refine_task_us += sum_us;
    // List-scheduling makespan lower bound at this lane count (see rsa.cc).
    ctx.stats->refine_critical_us +=
        std::max(max_us, (sum_us + width - 1) / width);
  }
}

// Chooses an anchor for the zone (Section 5.1) and runs the
// verification-like process for it. `prefix` are the known top records,
// `need` > 0 the slots left, `excluded` records that cannot fill them.
void Solve(const JaaContext& ctx, const Zone& zone, const Bitset& prefix,
           int need, const Bitset& excluded, int lanes) {
  assert(need > 0);
  Bitset pool = ctx.g.Active();
  pool.SubtractWith(prefix);
  pool.SubtractWith(excluded);

  const int pool_size = pool.Count();
  if (pool_size == 0) {
    // Fewer records than k: the prefix is the (short) exact top set.
    Utk2Cell cell;
    cell.bounds = zone.bounds;
    cell.witness = zone.interior;
    prefix.ForEach([&](int i) { cell.topk.push_back(ctx.band.ids[i]); });
    std::sort(cell.topk.begin(), cell.topk.end());
    ctx.out->cells.push_back(std::move(cell));
    return;
  }

  // Anchor strategy (Section 5.1): the need-th best pool record at a weight
  // vector inside the zone; for the initial call this is R's pivot.
  std::vector<int> probe = GraphTopK(ctx.data, ctx.band, ctx.g, pool,
                                     zone.interior, std::min(need, pool_size),
                                     ctx.stats);
  const int anchor = probe.back();

  // The anchor's ancestors within the pool score above it everywhere.
  Bitset above = ctx.g.Ancestors(anchor);
  above.IntersectWith(pool);

  PartitionRec(ctx, anchor, zone, prefix, need, excluded, above,
               Bitset(ctx.g.size()), lanes);
}

// The refinement step (Section 5): the anchor recursion over a computed
// band, appending its counters to result->stats and emitting cells.
void Refine(const Jaa::Options& options, const Dataset& data,
            const RSkybandResult& band, const ConvexRegion& r, int k,
            Utk2Result* result) {
  UTK_SPAN_VAL("jaa.refine", static_cast<int64_t>(band.ids.size()));
  RDominanceGraph g = RDominanceGraph::Build(band);

  auto interior = FindInteriorPoint(r.constraints(),
                                    r.Pivot().value_or(Vec(r.dim(), 0.0)));
  assert(interior.has_value() && interior->radius > 0);

  // Gathered SoA mirror of the band (see rsa.cc Refine).
  const ColumnStore band_cols(data, band.ids);
  std::vector<Scalar> scratch(band.ids.size());

  JaaContext ctx{data,    band, band_cols, &scratch, g,
                 options, k,    result,    &result->stats};
  Zone zone{r.constraints(), interior->x, interior->radius};
  Solve(ctx, zone, Bitset(g.size()), k, Bitset(g.size()),
        options.refine_threads);
}

}  // namespace

Utk2Result Jaa::Run(const Dataset& data, const RTree& tree,
                    const ConvexRegion& r, int k,
                    const ColumnStore* cols) const {
  Utk2Result result;
  Timer timer;
  RSkybandResult band =
      ComputeRSkyband(data, tree, r, k, &result.stats, cols);
  Refine(options_, data, band, r, k, &result);
  result.Canonicalize();
  result.stats.elapsed_ms = timer.ElapsedMs();
  return result;
}

Utk2Result Jaa::RunFiltered(const Dataset& data, const RSkybandResult& band,
                            const ConvexRegion& r, int k) const {
  Utk2Result result;
  Timer timer;
  result.stats.candidates = static_cast<int64_t>(band.ids.size());
  Refine(options_, data, band, r, k, &result);
  result.Canonicalize();
  result.stats.elapsed_ms = timer.ElapsedMs();
  return result;
}

}  // namespace utk
