// Core value types shared across the UTK library.
//
// A Record is a point in the d-dimensional *data domain* (larger is better in
// every attribute). Weight vectors live in the (d-1)-dimensional *preference
// domain* obtained by dropping w_d = 1 - sum_{i<d} w_i (Section 3.1 of the
// paper).
#ifndef UTK_COMMON_TYPES_H_
#define UTK_COMMON_TYPES_H_

#include <cstdint>
#include <string>
#include <vector>

namespace utk {

/// Scalar type used throughout the library.
using Scalar = double;

/// Dense vector, used both for data-domain points and preference-domain
/// weight vectors.
using Vec = std::vector<Scalar>;

/// Global numeric tolerance for score / geometry comparisons.
inline constexpr Scalar kEps = 1e-9;

/// Minimum Chebyshev radius for an arrangement cell to be considered
/// non-degenerate. Thinner sides of a cut are not created; a dropped side
/// wider than kEps bounds the kept one (see DESIGN.md, "Numerical policy").
inline constexpr Scalar kInteriorEps = 1e-7;

/// Pivot / reduced-cost tolerance of the simplex solver
/// (geometry/lp.cc). Strictly tighter than kEps: the solver must keep
/// resolving differences the geometric predicates above still consider
/// ties, otherwise LP feasibility and Contains() could disagree on
/// boundary points.
inline constexpr Scalar kPivotEps = 1e-10;

// ---------------------------------------------------------------------------
// Named tolerance predicates. Every eps comparison in the library routes
// through these so the conventions stay auditable in one place:
//
//   * attribute-wise dominance (skyline/dominance.h) and all geometry —
//     half-space membership, r-dominance classification, region
//     containment — compare with kEps;
//   * the simplex solver compares with kPivotEps (see above);
//   * "exact" comparisons pass eps = 0 explicitly instead of using bare
//     operators, so intent is visible at the call site.
//
// The closed predicates (EpsGe/EpsLe) accept a boundary point; the open
// ones (EpsGt/EpsLt) require clearing it by more than eps. A point exactly
// on a halfspace therefore satisfies Contains() under every entry point
// (Halfspace::Contains, ConvexRegion::Contains, Arrangement::Locate, LP
// feasibility) — tests/test_epsilon.cc pins that agreement down.
// ---------------------------------------------------------------------------

/// a >= b, accepting shortfalls up to eps.
inline constexpr bool EpsGe(Scalar a, Scalar b, Scalar eps = kEps) {
  return a >= b - eps;
}

/// a <= b, accepting overshoots up to eps.
inline constexpr bool EpsLe(Scalar a, Scalar b, Scalar eps = kEps) {
  return a <= b + eps;
}

/// a > b by more than eps.
inline constexpr bool EpsGt(Scalar a, Scalar b, Scalar eps = kEps) {
  return a > b + eps;
}

/// a < b by more than eps.
inline constexpr bool EpsLt(Scalar a, Scalar b, Scalar eps = kEps) {
  return a < b - eps;
}

/// |a - b| <= eps.
inline constexpr bool EpsEq(Scalar a, Scalar b, Scalar eps = kEps) {
  return a >= b - eps && a <= b + eps;
}

/// A data record: an id (stable index into the owning dataset) plus its
/// attribute vector in the data domain.
struct Record {
  int32_t id = -1;
  Vec attrs;

  int Dim() const { return static_cast<int>(attrs.size()); }
};

/// A dataset is an id-addressable vector of records; `data[i].id == i` is an
/// invariant maintained by all generators and loaders in this repo.
using Dataset = std::vector<Record>;

/// Returns the data dimensionality of a (non-empty) dataset.
inline int DataDim(const Dataset& data) {
  return data.empty() ? 0 : data.front().Dim();
}

/// Returns the preference-domain dimensionality for d-dimensional data.
inline int PrefDim(int data_dim) { return data_dim - 1; }

}  // namespace utk

#endif  // UTK_COMMON_TYPES_H_
