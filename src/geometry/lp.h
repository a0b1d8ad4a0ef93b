// Simplex solver for the small linear programs that drive UTK processing:
// drill-vector computation (Section 4.3), the onion-layer margin test, and
// feasibility / interior point queries on arrangement cells (Section 4.5).
//
// Problems have very few variables (d-1 <= 6 in all experiments) and at most
// a few hundred half-space constraints, so the tableau is condensed: it
// stores one column per nonbasic variable and no slack identity, and
// pivots by Bland's anti-cycling rule. There is one simplex and no
// phase 1: every solve starts from a point the caller has, with
// x = start + u - v, so each row's right-hand side is its slack there and
// the slack basis is feasible. FindInteriorPoint solves the Chebyshev LP
// from any start; SolveLp needs a feasible start, or finds one with
// FindInteriorPoint (DESIGN.md §4).
#ifndef UTK_GEOMETRY_LP_H_
#define UTK_GEOMETRY_LP_H_

#include <optional>
#include <vector>

#include "geometry/linear.h"

namespace utk {

enum class LpStatus { kOptimal, kInfeasible, kUnbounded };

struct LpResult {
  LpStatus status = LpStatus::kInfeasible;
  Vec x;                   ///< optimizer (valid when status == kOptimal)
  Scalar objective = 0.0;  ///< optimal objective value
};

/// Solves: maximize (or minimize) c . x subject to a_i . x <= b_i for every
/// half-space in `cons`, with x free, from `start`, which must satisfy every
/// constraint within kEps (asserted in debug builds). Without a start, it
/// starts from the Chebyshev centre of `cons` found from the origin, and
/// returns kInfeasible when that radius is below -kEps. Zero-normal
/// constraints with b >= -kEps are ignored; with b < -kEps they make the
/// program infeasible.
LpResult SolveLp(const Vec& c, const std::vector<Halfspace>& cons,
                 bool maximize = true, const Vec* start = nullptr);
/// The same over the rows of `cons`, reading each row's stored norm.
LpResult SolveLp(const Vec& c, const HalfspaceRows& cons,
                 bool maximize = true, const Vec* start = nullptr);

/// Cap on the Chebyshev radius, so unbounded regions still yield a finite
/// centre.
inline constexpr Scalar kRadiusCap = 1.0;

/// Chebyshev centre: maximizes t subject to a_i . x + ||a_i|| * t <= b_i and
/// t <= kRadiusCap. `start` is any point of the right dimension, normally
/// a centre the caller already has. With t0 its own signed radius
/// (negative outside the region), (start, t0) is feasible, so the LP is
/// solved from there with no phase 1. The returned radius is optimal and
/// its ball lies within every constraint, up to rounding. A radius
/// <= 0 means the region has empty interior (it may still contain boundary
/// points). Returns nullopt only for an empty `start` or a zero-normal
/// constraint with b < -kEps; zero-normal rows with b >= -kEps are ignored.
struct InteriorPoint {
  Vec x;
  Scalar radius = -1.0;
};
std::optional<InteriorPoint> FindInteriorPoint(
    const std::vector<Halfspace>& cons, const Vec& start);

/// The same for the rows of `bounds` plus row `row` of `cut`, without
/// copying the bounds; each row's stored norm is read, not recomputed.
std::optional<InteriorPoint> FindInteriorPoint(const HalfspaceRows& bounds,
                                               const HalfspaceRows& cut,
                                               int row, const Vec& start);

/// True iff the region has an interior point with Chebyshev radius
/// > kInteriorEps, solved from the origin.
bool HasInterior(const std::vector<Halfspace>& cons);

}  // namespace utk

#endif  // UTK_GEOMETRY_LP_H_
