#include "core/extensions.h"

#include <cassert>
#include <cmath>
#include <set>

#include "core/topk.h"
#include "geometry/linear.h"
#include "index/rtree.h"
#include "skyline/skyband.h"

namespace utk {

ImmutableRegionResult ImmutableRegion(const Dataset& data, const Vec& w,
                                      int k, bool prune) {
  ImmutableRegionResult out;
  Timer timer;
  out.topk = TopK(data, w, k);
  std::set<int32_t> top_set(out.topk.begin(), out.topk.end());

  // Challenger pool: records that could overtake a top-k member somewhere.
  // Any record q outside the (k+1)-skyband is dominated by more than k
  // others; wherever q would outscore a top-k member t, so would its k+1
  // dominators, and at least one of them lies outside the top-k set — whose
  // pairwise constraint is already part of the intersection. Hence the
  // (k+1)-skyband challengers define the same region.
  std::vector<int32_t> challengers;
  if (prune) {
    RTree tree = RTree::BulkLoad(data);
    for (int32_t id : KSkyband(data, tree, k + 1, &out.stats)) {
      if (top_set.count(id) == 0) challengers.push_back(id);
    }
  } else {
    for (const Record& q : data) {
      if (top_set.count(q.id) == 0) challengers.push_back(q.id);
    }
  }

  // The region: every member stays >= every challenger. The domain simplex
  // bounds keep the region closed.
  const int pref_dim = DataDim(data) - 1;
  ConvexRegion region = ConvexRegion::FullDomain(pref_dim);
  for (int32_t t : out.topk) {
    for (int32_t q : challengers) {
      Halfspace h = BetterOrEqual(data[t], data[q]);
      if (!IsTrivial(h)) region.AddConstraint(h);
    }
  }
  out.region = std::move(region);
  assert(out.region.Contains(w, 1e-7));
  out.stats.elapsed_ms = timer.ElapsedMs();
  return out;
}

Dataset ApplyPowerTransform(const Dataset& data, Scalar exponent) {
  assert(exponent > 0.0);
  Dataset out = data;
  for (Record& rec : out) {
    for (Scalar& v : rec.attrs) {
      assert(v >= 0.0 && "power transform requires non-negative attributes");
      v = std::pow(v, exponent);
    }
  }
  return out;
}

}  // namespace utk
