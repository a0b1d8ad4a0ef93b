#include "core/jaa.h"

#include <algorithm>
#include <cassert>

#include "core/drill.h"
#include "obs/trace.h"

namespace utk {

namespace {

struct JaaContext {
  Refinement& ref;
  Utk2Result* out;
};

// A zone, the (sub-)region being partitioned, is an arrangement cell; only
// its geometry is used: bounds, centre, radius and vertices.
void Solve(const JaaContext& ctx, const Cell& zone, const Bitset& prefix,
           int need, const Bitset& excluded);

// Emits a finalized cell of the global arrangement with top-k `topk`.
void Emit(const JaaContext& ctx, const Cell& zone, const Bitset& topk) {
  Utk2Cell cell;
  cell.bounds = zone.bounds;
  cell.witness = zone.interior;
  topk.ForEach([&](int i) { cell.topk.push_back(ctx.ref.band.ids[i]); });
  std::sort(cell.topk.begin(), cell.topk.end());
  ctx.out->cells.push_back(std::move(cell));
}

// The rank rule for anchor `p`, whose rank among non-prefix records is
// `rank` everywhere in `zone`, with `above` the records ranked above it:
//   equal-to      rank == need  -> top-k = prefix + above + {p}, emitted
//   less-than     rank <  need  -> recurse with a longer known prefix
//   greater-than  rank >  need  -> recurse excluding p and its descendants
void Settle(const JaaContext& ctx, int p, const Cell& zone,
            const Bitset& prefix, int need, const Bitset& excluded,
            const Bitset& above, int rank) {
  if (rank > need) {
    Bitset next_excluded = excluded;
    next_excluded.Set(p);
    next_excluded.UnionWith(ctx.ref.g.Descendants(p));
    Solve(ctx, zone, prefix, need, next_excluded);
    return;
  }
  Bitset top = prefix;
  top.UnionWith(above);
  top.Set(p);
  if (rank == need) {
    Emit(ctx, zone, top);
  } else {
    Solve(ctx, zone, top, need - rank, excluded);
  }
}

// The verification-like process (Algorithm 4) for anchor `p` in `zone`.
//   prefix   records known to be the top-|prefix| everywhere in `zone`
//   need     k - |prefix|  (anchor aims for rank `need` among non-prefix)
//   excluded records proven unable to enter the top-k anywhere in `zone`
//   above    non-prefix records known to score above p everywhere in `zone`
//   irrelevant  non-prefix records known to score below p everywhere in
//               `zone` (inserted-not-covering and Lemma-1 disregarded)
void PartitionRec(const JaaContext& ctx, int p, const Cell& zone,
                  const Bitset& prefix, int need, const Bitset& excluded,
                  const Bitset& above, const Bitset& irrelevant) {
  Refinement& ref = ctx.ref;
  if (ref.stats != nullptr) ++ref.stats->verify_calls;

  // Competitors that can still affect p's rank in this zone.
  Bitset competitors = ref.g.Active();
  competitors.SubtractWith(prefix);
  competitors.SubtractWith(excluded);
  competitors.SubtractWith(above);
  competitors.SubtractWith(irrelevant);
  competitors.SubtractWith(ref.g.Descendants(p));  // never outscore p
  competitors.Reset(p);

  const int rank_known = above.Count() + 1;  // p's rank if no competitor wins
  if (competitors.Count() == 0) {
    // Rank of p is fully determined everywhere in the zone.
    Settle(ctx, p, zone, prefix, need, excluded, above, rank_known);
    return;
  }

  // Once a cell's count pushes the anchor's rank beyond `need` it is
  // greater-than regardless of any further half-space, so it freezes (no
  // more refinement by this anchor).
  Bitset inserted;
  const CellArrangement arr =
      ref.Arrange(zone, p, competitors, std::max(1, need - rank_known + 1),
                  &inserted);
  assert(inserted.Count() > 0);
  Bitset remaining = competitors;
  remaining.SubtractWith(inserted);

  for (const Cell& cell : arr.cells()) {
    const int rank = rank_known + cell.Count();  // rank with inserted only
    Bitset cell_above = above;
    for (int id : cell.covering) cell_above.Set(id);
    // A greater-than cell needs no Lemma-1 confirmation (line 12).
    Bitset not_covering, disregarded;
    if (rank > need || ref.SplitByLemma1(cell, inserted, remaining,
                                         &not_covering, &disregarded)) {
      Settle(ctx, p, cell, prefix, need, excluded, cell_above, rank);
    } else {
      // Unclassifiable: refine this cell with the next wave of competitors.
      Bitset cell_irrelevant = irrelevant;
      cell_irrelevant.UnionWith(not_covering);
      cell_irrelevant.UnionWith(disregarded);
      PartitionRec(ctx, p, cell, prefix, need, excluded, cell_above,
                   cell_irrelevant);
    }
  }
}

// Chooses an anchor for the zone (Section 5.1) and runs the
// verification-like process for it. `prefix` are the known top records,
// `need` > 0 the slots left, `excluded` records that cannot fill them.
void Solve(const JaaContext& ctx, const Cell& zone, const Bitset& prefix,
           int need, const Bitset& excluded) {
  assert(need > 0);
  const Refinement& ref = ctx.ref;
  Bitset pool = ref.g.Active();
  pool.SubtractWith(prefix);
  pool.SubtractWith(excluded);

  const int pool_size = pool.Count();
  if (pool_size == 0) {
    // Fewer records than k: the prefix is the (short) exact top set.
    Emit(ctx, zone, prefix);
    return;
  }

  // Anchor strategy (Section 5.1): the need-th best pool record at a weight
  // vector inside the zone; for the initial call this is R's pivot.
  std::vector<int> probe =
      GraphTopK(ref.data, ref.band, ref.g, pool, zone.interior,
                std::min(need, pool_size), ref.stats);
  const int anchor = probe.back();

  // The anchor's ancestors within the pool score above it everywhere.
  Bitset above = ref.g.Ancestors(anchor);
  above.IntersectWith(pool);

  PartitionRec(ctx, anchor, zone, prefix, need, excluded, above,
               Bitset(ref.g.size()));
}

// The refinement step (Section 5): the anchor recursion over a computed
// band, appending its counters to result->stats and emitting cells.
void Refine(const Jaa::Options& options, const Dataset& data,
            const RSkybandResult& band, const ConvexRegion& r, int k,
            Utk2Result* result) {
  UTK_SPAN_VAL("jaa.refine", static_cast<int64_t>(band.ids.size()));
  Refinement ref(data, band, options, &result->stats);
  const JaaContext ctx{ref, result};
  const Bitset none(ref.g.size());
  Solve(ctx, BaseCell(r, ref.stats), none, k, none);
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
