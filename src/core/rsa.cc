#include "core/rsa.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "arrangement/arrangement.h"
#include "core/drill.h"
#include "exec/kernels.h"
#include "geometry/linear.h"
#include "obs/trace.h"
#include "skyline/rskyband.h"

namespace utk {

namespace {

// Shared state for the verification of one candidate.
struct VerifyContext {
  const Dataset& data;
  const RSkybandResult& band;
  const ColumnStore& band_cols;   // gathered SoA mirror: row i = band.ids[i]
  std::vector<Scalar>* scratch;   // |band| score buffer for batched kernels
  const RDominanceGraph& g;
  const Rsa::Options& options;
  int cand;              // candidate node index
  AffineScore cand_score;
  QueryStats* stats;
};

// Counts nodes outside `ignored` (and active in G) that score strictly above
// the candidate at w. Exact within kEps. One batched ScoreAll sweep over the
// gathered band columns replaces the per-record Score() pointer chase; the
// kernel is bit-identical to Score(), so the comparisons are unchanged.
int CountStrictlyBetter(const VerifyContext& ctx, const Bitset& ignored,
                        const Vec& w) {
  const Scalar s = ctx.cand_score.Eval(w);
  ScoreAll(ctx.band_cols, w, ctx.scratch->data());
  int count = 0;
  const auto& active = ctx.g.Active();
  for (int i = 0; i < ctx.g.size(); ++i) {
    if (i == ctx.cand || !active.Test(i) || ignored.Test(i)) continue;
    if (EpsGt((*ctx.scratch)[i], s)) ++count;
  }
  return count;
}

// Recursive verification (Algorithm 2) of ctx.cand inside `zone`, with rank
// quota `quota` and ignore set `ignored`. Only the zone's geometry is used:
// bounds, centre, radius and vertices. Returns true iff some sub-partition
// admits the candidate into the top-k.
bool Verify(const VerifyContext& ctx, const Cell& zone, int quota,
            const Bitset& ignored);

// One promising partition of a Verify level: Lemma-1 confirmation first,
// else recursion with the reduced quota.
bool VerifyCell(const VerifyContext& ctx, const CellArrangement& arr, int c,
                int quota, const Bitset& ignored, const Bitset& inserted,
                const Bitset& competitors) {
  const Cell& cell = arr.cells()[c];
  Bitset covering(ctx.g.size());
  for (int id : cell.covering) covering.Set(id);
  // not_covering = inserted half-spaces that do NOT cover this cell; by
  // Lemma 1, competitors r-dominated by any of them cannot beat the
  // candidate inside the cell.
  Bitset not_covering = inserted;
  not_covering.SubtractWith(covering);

  Bitset remaining = competitors;
  remaining.SubtractWith(inserted);
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
  if (confirmed) return true;  // Lemma 1 froze the count below the quota

  // Recurse into the promising partition with a reduced quota; inserted
  // and disregarded competitors are accounted for and ignored below.
  Bitset next_ignored = ignored;
  next_ignored.UnionWith(inserted);
  next_ignored.UnionWith(disregarded);
  const int next_quota = quota - cell.Count();
  assert(next_quota >= 1);
  return Verify(ctx, cell, next_quota, next_ignored);
}

bool Verify(const VerifyContext& ctx, const Cell& zone, int quota,
            const Bitset& ignored) {
  assert(quota >= 1);
  if (ctx.stats != nullptr) ++ctx.stats->verify_calls;

  // Drill (Section 4.3): a top-k probe at the score-maximizing vector.
  if (ctx.options.use_drill) {
    auto w = DrillVector(ctx.cand_score, zone, ctx.stats);
    const Vec& probe = w.has_value() ? *w : zone.interior;
    if (CountStrictlyBetter(ctx, ignored, probe) < quota) return true;
  } else if (CountStrictlyBetter(ctx, ignored, zone.interior) < quota) {
    // Even without the LP drill, the cached interior point gives a free
    // membership witness.
    return true;
  }

  // Competitors: active nodes outside the ignore set, other than the
  // candidate itself.
  Bitset competitors = ctx.g.Active();
  competitors.SubtractWith(ignored);
  competitors.Reset(ctx.cand);
  if (competitors.Count() == 0) return true;  // nobody can outrank it

  // Local arrangement with half-spaces of the strongest competitors (local
  // r-dominance count 0, i.e. no r-dominator among the competitors). With a
  // wave cap, only the highest-scoring of them (at the cell's interior) are
  // inserted now; the rest stay competitors for the recursive calls, which
  // descend only into promising partitions. Cells whose count reaches the
  // quota are frozen: they can never become promising, so their geometry
  // needs no further refinement.
  CellArrangement arr(zone, ctx.stats);
  arr.set_freeze_threshold(quota);
  std::vector<int> wave;
  competitors.ForEach([&](int i) {
    if (!ctx.g.Ancestors(i).Intersects(competitors)) wave.push_back(i);
  });
  if (ctx.options.wave_cap > 0 &&
      static_cast<int>(wave.size()) > ctx.options.wave_cap) {
    // Batched scores at the interior once; the sort compares flat scalars.
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
                                  ctx.data[ctx.band.ids[ctx.cand]]));
      inserted.Set(i);
    }
  }

  // Promising partitions: cells whose covering count is below the quota,
  // most covered first (Section 4.2's ordering heuristic).
  std::vector<int> promising;
  for (int c = 0; c < static_cast<int>(arr.cells().size()); ++c)
    if (arr.cells()[c].Count() < quota) promising.push_back(c);
  std::sort(promising.begin(), promising.end(), [&](int a, int b) {
    return arr.cells()[a].Count() > arr.cells()[b].Count();
  });

  for (int c : promising) {
    if (VerifyCell(ctx, arr, c, quota, ignored, inserted, competitors))
      return true;
  }
  return false;
}

// The refinement step (Section 4.2): candidate verification over a computed
// band, appending its counters to result->stats and filling result->ids.
void Refine(const Rsa::Options& options, const Dataset& data,
            const RSkybandResult& band, const ConvexRegion& r, int k,
            Utk1Result* result) {
  UTK_SPAN_VAL("rsa.refine", static_cast<int64_t>(band.ids.size()));
  RDominanceGraph g = RDominanceGraph::Build(band);
  const int n = g.size();

  enum class State : uint8_t { kUnknown, kInResult, kDisqualified };
  std::vector<State> state(n, State::kUnknown);

  // Process candidates in descending r-dominance-count order; descendants
  // (strictly larger counts) are settled before their ancestors.
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::vector<int> init_count(n);
  for (int i = 0; i < n; ++i) init_count[i] = g.Ancestors(i).Count();
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return init_count[a] > init_count[b];
  });

  const Cell base = BaseCell(r);

  // Gathered SoA mirror of the band: row i = data[band.ids[i]]. Every
  // verification scores these few hundred rows over and over; the batched
  // kernels sweep them contiguously.
  const ColumnStore band_cols(data, band.ids);
  std::vector<Scalar> scratch(band.ids.size());

  for (int p : order) {
    if (state[p] != State::kUnknown) continue;
    UTK_SPAN("rsa.candidate");
    VerifyContext ctx{data,   band, band_cols, &scratch, g, options, p,
                      MakeScore(data[band.ids[p]]), &result->stats};
    // Ancestors are ignored and their count is absorbed into the quota.
    Bitset ignored = g.Ancestors(p);
    const int quota = k - g.Ancestors(p).CountAnd(g.Active());
    assert(quota >= 1);
    if (Verify(ctx, base, quota, ignored)) {
      state[p] = State::kInResult;
      g.Ancestors(p).ForEach([&](int a) { state[a] = State::kInResult; });
    } else {
      state[p] = State::kDisqualified;
      g.Remove(p);
    }
  }

  for (int i = 0; i < n; ++i)
    if (state[i] == State::kInResult) result->ids.push_back(band.ids[i]);
  std::sort(result->ids.begin(), result->ids.end());
}

}  // namespace

Utk1Result Rsa::Run(const Dataset& data, const RTree& tree,
                    const ConvexRegion& r, int k,
                    const ColumnStore* cols) const {
  Utk1Result result;
  Timer timer;
  RSkybandResult band =
      ComputeRSkyband(data, tree, r, k, &result.stats, cols);
  Refine(options_, data, band, r, k, &result);
  result.stats.elapsed_ms = timer.ElapsedMs();
  return result;
}

Utk1Result Rsa::RunFiltered(const Dataset& data, const RSkybandResult& band,
                            const ConvexRegion& r, int k) const {
  Utk1Result result;
  Timer timer;
  result.stats.candidates = static_cast<int64_t>(band.ids.size());
  Refine(options_, data, band, r, k, &result);
  result.stats.elapsed_ms = timer.ElapsedMs();
  return result;
}

}  // namespace utk
