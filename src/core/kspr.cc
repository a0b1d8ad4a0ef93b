#include "core/kspr.h"

#include <algorithm>

#include "geometry/linear.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace utk {

KsprResult Kspr(const Dataset& data, int32_t p,
                const std::vector<int32_t>& competitors,
                const ConvexRegion& r, int k, bool early_exit,
                QueryStats* stats) {
  UTK_SPAN_VAL("kspr.decide", static_cast<int64_t>(competitors.size()));
  static obs::Counter& decides =
      obs::MetricRegistry::Global().GetCounter("utk_kspr_decides_total");
  static obs::Counter& early_exits =
      obs::MetricRegistry::Global().GetCounter("utk_kspr_early_exits_total");
  decides.Add();
  KsprResult result;
  CellArrangement arr(r, stats);
  arr.set_freeze_threshold(k);

  // Insert stronger competitors first (higher score at the pivot), so cells
  // freeze as early as possible.
  std::vector<int32_t> order = competitors;
  auto pivot = r.Pivot();
  if (pivot.has_value()) {
    std::vector<Scalar> score(data.size());
    for (int32_t q : order) score[q] = Score(data[q], *pivot);
    std::sort(order.begin(), order.end(),
              [&](int32_t a, int32_t b) { return score[a] > score[b]; });
  }

  Halfspace cut;
  for (int32_t q : order) {
    if (q == p) continue;
    BetterOrEqual(data[q], data[p], &cut);
    arr.Insert(q, cut);
    if (early_exit && arr.AllFrozen()) {
      // Every cell already has k competitors above p: disqualified.
      early_exits.Add();
      return result;
    }
  }
  for (const Cell& c : arr.cells()) {
    if (c.Count() < k) {
      result.qualifies = true;
      if (early_exit) return result;
      result.topk_cells.push_back(c);
    }
  }
  return result;
}

}  // namespace utk
