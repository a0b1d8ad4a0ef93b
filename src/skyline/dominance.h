// Classic (attribute-wise) dominance tests (Section 2).
//
// Record p dominates p' if p has no smaller value in any dimension and the
// records do not coincide. The same test against the top corner of an MBB
// conservatively decides whether an R-tree subtree can contain non-dominated
// records.
#ifndef UTK_SKYLINE_DOMINANCE_H_
#define UTK_SKYLINE_DOMINANCE_H_

#include "common/types.h"
#include "index/rtree.h"

namespace utk {

/// True iff a dominates b: a >= b component-wise with at least one strict.
/// The default tolerance is the library-wide kEps (common/types.h) — the
/// same convention Halfspace::Contains and the r-dominance classification
/// use, so a score tie and an attribute tie are judged by one yardstick.
/// Pass eps = 0 explicitly for exact comparisons.
bool Dominates(const Vec& a, const Vec& b, Scalar eps = kEps);

inline bool Dominates(const Record& a, const Record& b) {
  return Dominates(a.attrs, b.attrs);
}

/// True iff a >= b component-wise (weak dominance; equality allowed).
bool WeaklyDominates(const Vec& a, const Vec& b, Scalar eps = kEps);

}  // namespace utk

#endif  // UTK_SKYLINE_DOMINANCE_H_
