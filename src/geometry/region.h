// ConvexRegion: an H-polytope in the (d-1)-dimensional preference domain.
//
// The UTK query region R is one of these (by default an axis-parallel
// hyper-rectangle, Section 3.1); so is every cell of a half-space
// arrangement. Axis-parallel boxes that lie strictly inside the weight
// simplex get closed-form fast paths for pivot computation and for
// minimizing/maximizing linear functions (used by the r-dominance test).
#ifndef UTK_GEOMETRY_REGION_H_
#define UTK_GEOMETRY_REGION_H_

#include <optional>
#include <utility>
#include <vector>

#include "geometry/lp.h"

namespace utk {

class ConvexRegion {
 public:
  ConvexRegion() = default;

  /// Builds a region from explicit half-space constraints.
  explicit ConvexRegion(std::vector<Halfspace> constraints);

  /// Builds the axis-parallel box [lo, hi] in the preference domain. If the
  /// box pokes outside the valid weight simplex (w_i >= 0, sum w <= 1), the
  /// simplex constraints are added and box fast paths are disabled.
  static ConvexRegion FromBox(const Vec& lo, const Vec& hi);

  /// The full valid preference domain (the weight simplex) for `pref_dim`
  /// reduced dimensions.
  static ConvexRegion FullDomain(int pref_dim);

  /// Preference-domain dimensionality.
  int dim() const { return dim_; }

  const std::vector<Halfspace>& constraints() const { return constraints_; }

  /// True if the region is a pure axis-parallel box inside the simplex.
  bool is_box() const { return is_box_; }
  const Vec& box_lo() const { return box_lo_; }
  const Vec& box_hi() const { return box_hi_; }

  /// Adds a half-space constraint (disables box fast paths).
  void AddConstraint(const Halfspace& h);

  /// Membership test.
  bool Contains(const Vec& w, Scalar eps = kEps) const;

  /// The pivot vector of the region (Section 4.1): for boxes, the average of
  /// the vertices (== box center); for general regions, the Chebyshev
  /// center. Returns nullopt when the region has empty interior.
  std::optional<Vec> Pivot() const;

  /// The vertex list of a box region (2^dim corners). Only valid for boxes.
  std::vector<Vec> BoxVertices() const;

  /// Range {min, max} of the affine function f(w) = offset + coef.w over the
  /// region. Uses the closed form for boxes and two LPs otherwise.
  /// Returns nullopt if the region is empty.
  std::optional<std::pair<Scalar, Scalar>> RangeOf(const Vec& coef,
                                                   Scalar offset) const;

  /// True iff the region keeps interior (Chebyshev radius > kInteriorEps)
  /// once clipped to the weight simplex. Boxes lie inside it by
  /// construction (FromBox clips any other) and take a closed form; other
  /// regions solve one LP.
  bool HasInteriorPoint() const;

 private:
  int dim_ = 0;
  std::vector<Halfspace> constraints_;
  bool is_box_ = false;
  Vec box_lo_, box_hi_;
};

}  // namespace utk

#endif  // UTK_GEOMETRY_REGION_H_
