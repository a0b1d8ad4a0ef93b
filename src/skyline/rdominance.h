// r-dominance (Definition 1): record p r-dominates p' when S(p) >= S(p')
// for every weight vector in region R, with strict inequality somewhere.
//
// Deciding r-dominance reduces to the range of the affine function
// f(w) = S(p)(w) - S(p')(w) over R:
//   min f >= 0 and max f > 0   ->  p r-dominates p'
//   max f <= 0 and min f < 0   ->  p' r-dominates p
//   min f == max f == 0        ->  score-equal everywhere in R
//   otherwise                  ->  r-incomparable
// For axis-parallel boxes inside the simplex the range is a closed form over
// the box corners (the paper's vertex test); for general convex regions it is
// two LPs.
#ifndef UTK_SKYLINE_RDOMINANCE_H_
#define UTK_SKYLINE_RDOMINANCE_H_

#include "common/stats.h"
#include "geometry/region.h"
#include "index/rtree.h"

namespace utk {

enum class RDom {
  kDominates,     ///< p r-dominates q
  kDominatedBy,   ///< q r-dominates p
  kIncomparable,  ///< each scores higher somewhere in R
  kEqual,         ///< identical scores everywhere in R
};

/// Reduced coefficients of f(w) = S(p)(w) - S(q)(w) for attribute vectors
/// p and q: f(w) = sum_i coef[i] * w[i] + offset over the d - 1 free
/// weights. ConvexRegion::RangeOf(coef, offset) gives f's range over R.
void DiffScore(const Vec& p, const Vec& q, Vec* coef, Scalar* offset);

/// Relation of p to q over region R.
RDom RDominance(const Record& p, const Record& q, const ConvexRegion& r,
                QueryStats* stats = nullptr);

/// Classifies a score-difference range [lo, hi] = range of S(p) - S(q)
/// over R into the four RDom outcomes. This is the single classification
/// rule: RDominance() routes through it, and so does the columnar filter
/// path (exec/kernels.h BoxGapEvaluator), so AoS and SoA execution agree
/// bit-for-bit.
RDom ClassifyScoreRange(Scalar lo, Scalar hi);

/// True iff the record with attribute vector `p_top` (typically an MBB top
/// corner) scores >= `q` everywhere in R... i.e. whether `q` r-dominates the
/// *optimistic* representative of a subtree. Used for node pruning in the
/// r-skyband BBS: a node can be pruned once k confirmed members r-dominate
/// its top corner.
bool RDominatesCorner(const Record& q, const Vec& corner,
                      const ConvexRegion& r, QueryStats* stats = nullptr);

}  // namespace utk

#endif  // UTK_SKYLINE_RDOMINANCE_H_
