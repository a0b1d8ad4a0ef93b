// Companion operators built on the UTK machinery.
//
// * ImmutableRegion — the maximal convex region around a weight vector where
//   the top-k *set* is unchanged (the result-sensitivity measure of Zhang et
//   al. [52], discussed in Section 2). Dual to UTK2: it answers "how wrong
//   can my weights be before the recommendation changes?", while UTK answers
//   "what are all recommendations within my uncertainty?".
// * ApplyPowerTransform — the Section 6 generalization: scoring functions
//   sum w_i * x_i^p (and, by extension, any per-attribute monotone f_i) are
//   handled by transforming attributes up front.
#ifndef UTK_CORE_EXTENSIONS_H_
#define UTK_CORE_EXTENSIONS_H_

#include <vector>

#include "core/utk.h"

namespace utk {

/// Result of an immutable-region computation.
struct ImmutableRegionResult {
  std::vector<int32_t> topk;      ///< the top-k set at the query vector
  ConvexRegion region;            ///< maximal region where it is unchanged
  QueryStats stats;
};

/// Computes the maximal convex region of the preference domain containing
/// `w` in which the top-k set equals the top-k set at `w`. The region is the
/// intersection of half-spaces S(t) >= S(q) for t in the top-k and q among
/// the potential challengers; with `prune` (default), challengers are
/// limited to the (k+1)-skyband, which provably suffices (tested against the
/// unpruned construction).
ImmutableRegionResult ImmutableRegion(const Dataset& data, const Vec& w,
                                      int k, bool prune = true);

/// Returns a copy of the dataset with every attribute raised to the power
/// `exponent` (> 0, monotone on non-negative attributes). Running UTK on the
/// transformed data answers UTK under S(p) = sum w_i * x_i^exponent.
Dataset ApplyPowerTransform(const Dataset& data, Scalar exponent);

}  // namespace utk

#endif  // UTK_CORE_EXTENSIONS_H_
