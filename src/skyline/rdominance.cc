#include "skyline/rdominance.h"

#include <cassert>

#include "geometry/linear.h"

namespace utk {

void DiffScore(const Vec& p, const Vec& q, Vec* coef, Scalar* offset) {
  const int d = static_cast<int>(p.size());
  coef->resize(d - 1);
  *offset = p[d - 1] - q[d - 1];
  for (int i = 0; i < d - 1; ++i)
    (*coef)[i] = (p[i] - p[d - 1]) - (q[i] - q[d - 1]);
}

RDom ClassifyScoreRange(Scalar lo, Scalar hi) {
  if (EpsGe(lo, 0.0) && EpsGt(hi, 0.0)) return RDom::kDominates;
  if (EpsLe(hi, 0.0) && EpsLt(lo, 0.0)) return RDom::kDominatedBy;
  if (EpsGe(lo, 0.0) && EpsLe(hi, 0.0)) return RDom::kEqual;
  return RDom::kIncomparable;
}

RDom RDominance(const Record& p, const Record& q, const ConvexRegion& r,
                QueryStats* stats) {
  if (stats != nullptr) ++stats->rdom_tests;
  Vec coef;
  Scalar offset;
  DiffScore(p.attrs, q.attrs, &coef, &offset);
  auto range = r.RangeOf(coef, offset);
  assert(range.has_value() && "r-dominance test over an empty region");
  return ClassifyScoreRange(range->first, range->second);
}

bool RDominatesCorner(const Record& q, const Vec& corner,
                      const ConvexRegion& r, QueryStats* stats) {
  if (stats != nullptr) ++stats->rdom_tests;
  Vec coef;
  Scalar offset;
  DiffScore(q.attrs, corner, &coef, &offset);
  auto range = r.RangeOf(coef, offset);
  assert(range.has_value());
  // q r-dominates the corner when S(q) >= S(corner) everywhere in R with a
  // strict gap somewhere.
  return EpsGe(range->first, 0.0) && EpsGt(range->second, 0.0);
}

}  // namespace utk
