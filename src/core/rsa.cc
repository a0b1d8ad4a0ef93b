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

// The verification of one candidate.
struct VerifyContext {
  Refinement& ref;
  bool use_drill;
  int cand;  // candidate node index
  AffineScore cand_score;
};

// Counts nodes outside `ignored` (and active in G) that score strictly above
// the candidate at w. Exact within kEps. One batched ScoreAll sweep over the
// gathered band columns replaces the per-record Score() pointer chase; the
// kernel is bit-identical to Score(), so the comparisons are unchanged.
int CountStrictlyBetter(const VerifyContext& ctx, const Bitset& ignored,
                        const Vec& w) {
  Refinement& ref = ctx.ref;
  const Scalar s = ctx.cand_score.Eval(w);
  ScoreAll(ref.band_cols, w, ref.scratch.data());
  int count = 0;
  const auto& active = ref.g.Active();
  for (int i = 0; i < ref.g.size(); ++i) {
    if (i == ctx.cand || !active.Test(i) || ignored.Test(i)) continue;
    if (EpsGt(ref.scratch[i], s)) ++count;
  }
  return count;
}

// Recursive verification (Algorithm 2) of ctx.cand inside `zone`, with rank
// quota `quota` and ignore set `ignored`. Returns true iff some
// sub-partition admits the candidate into the top-k.
bool Verify(const VerifyContext& ctx, const Cell& zone, int quota,
            const Bitset& ignored) {
  assert(quota >= 1);
  Refinement& ref = ctx.ref;
  if (ref.stats != nullptr) ++ref.stats->verify_calls;

  // Drill (Section 4.3): a top-k probe at the score-maximizing vector.
  if (ctx.use_drill) {
    auto w = DrillVector(ctx.cand_score, zone, ref.stats);
    const Vec& probe = w.has_value() ? *w : zone.interior;
    if (CountStrictlyBetter(ctx, ignored, probe) < quota) return true;
  } else if (CountStrictlyBetter(ctx, ignored, zone.interior) < quota) {
    // Even without the LP drill, the cached interior point gives a free
    // membership witness.
    return true;
  }

  // Competitors: active nodes outside the ignore set, other than the
  // candidate itself.
  Bitset competitors = ref.g.Active();
  competitors.SubtractWith(ignored);
  competitors.Reset(ctx.cand);
  if (competitors.Count() == 0) return true;  // nobody can outrank it

  // Cells whose count reaches the quota are frozen: they can never become
  // promising, so their geometry needs no further refinement.
  Bitset inserted;
  const CellArrangement arr =
      ref.Arrange(zone, ctx.cand, competitors, quota, &inserted);
  Bitset remaining = competitors;
  remaining.SubtractWith(inserted);

  // Promising partitions: cells whose covering count is below the quota,
  // most covered first (Section 4.2's ordering heuristic).
  std::vector<int> promising;
  for (int c = 0; c < static_cast<int>(arr.cells().size()); ++c)
    if (arr.cells()[c].Count() < quota) promising.push_back(c);
  std::sort(promising.begin(), promising.end(), [&](int a, int b) {
    return arr.cells()[a].Count() > arr.cells()[b].Count();
  });

  for (int c : promising) {
    const Cell& cell = arr.cells()[c];
    Bitset not_covering, disregarded;
    // Lemma 1 froze the count below the quota.
    if (ref.SplitByLemma1(cell, inserted, remaining, &not_covering,
                          &disregarded))
      return true;
    // Recurse into the promising partition with a reduced quota; inserted
    // and disregarded competitors are accounted for and ignored below.
    Bitset next_ignored = ignored;
    next_ignored.UnionWith(inserted);
    next_ignored.UnionWith(disregarded);
    if (Verify(ctx, cell, quota - cell.Count(), next_ignored)) return true;
  }
  return false;
}

// The refinement step (Section 4.2): candidate verification over a computed
// band, appending its counters to result->stats and filling result->ids.
void Refine(const Rsa::Options& options, const Dataset& data,
            const RSkybandResult& band, const ConvexRegion& r, int k,
            Utk1Result* result) {
  UTK_SPAN_VAL("rsa.refine", static_cast<int64_t>(band.ids.size()));
  Refinement ref(data, band, options, &result->stats);
  RDominanceGraph& g = ref.g;
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
  for (int p : order) {
    if (state[p] != State::kUnknown) continue;
    UTK_SPAN("rsa.candidate");
    const VerifyContext ctx{ref, options.use_drill, p,
                            MakeScore(data[band.ids[p]])};
    // Ancestors are ignored and their count is absorbed into the quota.
    const int quota = k - g.Ancestors(p).CountAnd(g.Active());
    assert(quota >= 1);
    if (Verify(ctx, base, quota, g.Ancestors(p))) {
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
