// The cache sweep's could-affect predicate without the score floor: the
// per-(inserted record × cached id) range test, kept as the oracle the
// cache-sweep suite replays the live sweep against.
//
// LiveEngine::CouldAffect settles most entries with a memoized score floor
// and falls back to this loop only when the floor cannot decide. The floor
// may only keep entries this loop keeps, so the live sweep must drop
// exactly the entries this predicate drops, entry by entry.
#ifndef UTK_TESTS_SWEEP_ORACLE_H_
#define UTK_TESTS_SWEEP_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <span>

#include "api/query.h"
#include "common/types.h"
#include "geometry/region.h"

namespace utk {

namespace sweep_oracle {

/// Reduced coefficients of f(w) = S(q)(w) - S(t)(w) (see rdominance.cc).
inline void DiffScore(const Vec& q, const Vec& t, Vec* coef, Scalar* offset) {
  const int d = static_cast<int>(q.size());
  coef->resize(d - 1);
  *offset = q[d - 1] - t[d - 1];
  for (int i = 0; i < d - 1; ++i)
    (*coef)[i] = (q[i] - q[d - 1]) - (t[i] - t[d - 1]);
}

/// True iff a batch that inserted `inserted` and erased `erased` could
/// change `result`, the answer cached for `region`. `data` is the catalog
/// after the batch (id-addressed, tombstones included).
inline bool CouldAffect(const Dataset& data, std::span<const Record> inserted,
                        std::span<const int32_t> erased,
                        const ConvexRegion& region, const QueryResult& result) {
  // An empty UTK1 answer should never have been cached; drop defensively.
  if (result.ids.empty()) return true;
  // Erase: removing a record changes some top-k over R iff it was IN some
  // top-k over R — exactly membership in the cached UTK1 id set.
  for (int32_t id : erased) {
    if (std::binary_search(result.ids.begin(), result.ids.end(), id))
      return true;
  }
  // Insert: if the new record is outscored by every cached answer member
  // everywhere in R, it cannot displace any top-k (the old top-k at each w
  // in R is a subset of the cached ids), so the entry stands. Otherwise be
  // conservative. One affine range per (record, cached id) — closed form
  // for box regions.
  Vec coef;
  Scalar offset;
  for (const Record& q : inserted) {
    for (int32_t t : result.ids) {
      DiffScore(q.attrs, data[t].attrs, &coef, &offset);
      auto range = region.RangeOf(coef, offset);
      if (!range.has_value() || range->second >= -kEps) return true;
    }
  }
  return false;
}

}  // namespace sweep_oracle

}  // namespace utk

#endif  // UTK_TESTS_SWEEP_ORACLE_H_
