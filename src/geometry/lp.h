// Dense simplex solver for the small linear programs that drive UTK
// processing: drill-vector computation (Section 4.3), r-dominance tests
// over general convex regions (Definition 1), and feasibility / interior
// point queries on arrangement cells (Section 4.5).
//
// Problems have very few variables (d-1 <= 6 in all experiments) and at most
// a few hundred half-space constraints, so a dense tableau with Bland's
// anti-cycling rule is both simple and fast. Free variables are handled by
// the standard x = u - v split. SolveLp / FindInteriorPoint are the
// reference two-phase solver and the only source of optimizers and centres;
// ChebyshevRadius is a phase-1-free screen on the same tableau that reports
// an optimal radius only (DESIGN.md §4).
#ifndef UTK_GEOMETRY_LP_H_
#define UTK_GEOMETRY_LP_H_

#include <cstdint>
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
/// half-space in `cons`, with x free. Trivial (zero-normal) constraints with
/// b >= 0 are ignored; zero-normal constraints with b < 0 make the program
/// infeasible.
LpResult SolveLp(const Vec& c, const std::vector<Halfspace>& cons,
                 bool maximize = true);

/// Default cap on the Chebyshev radius.
inline constexpr Scalar kRadiusCap = 1.0;

/// Chebyshev-style interior point: maximizes t subject to
/// a_i . x + ||a_i|| * t <= b_i. Returns the center and radius.
/// A radius <= 0 means the region has empty interior (it may still contain
/// boundary points). The radius is capped at `radius_cap` so unbounded
/// regions still yield a finite center.
struct InteriorPoint {
  Vec x;
  Scalar radius = -1.0;
};
std::optional<InteriorPoint> FindInteriorPoint(
    const std::vector<Halfspace>& cons, Scalar radius_cap = kRadiusCap);

/// The optimal Chebyshev radius of `bounds` plus `extra`, i.e.
/// FindInteriorPoint(bounds + {extra})->radius up to rounding (-inf where
/// that reports trivially infeasible zero-normal rows), without a centre.
/// `feasible_x` is any point, normally the cached centre of `bounds`: the
/// LP is solved from (feasible_x, its own radius), which is always
/// feasible, so there is no phase 1. Not counted by LpSolveCount().
Scalar ChebyshevRadius(const std::vector<Halfspace>& bounds,
                       const Halfspace& extra, const Vec& feasible_x);

/// True iff the region has an interior point with Chebyshev radius
/// > min_radius. This is the cell-feasibility predicate used by the
/// arrangement index.
bool HasInterior(const std::vector<Halfspace>& cons,
                 Scalar min_radius = kInteriorEps);

/// Thread-local count of reference simplex solves (SolveLp and everything
/// built on it), for QueryStats plumbing.
int64_t LpSolveCount();
void ResetLpSolveCount();

}  // namespace utk

#endif  // UTK_GEOMETRY_LP_H_
