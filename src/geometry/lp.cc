#include "geometry/lp.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace utk {

namespace {

// The pivot tolerance is the library-wide kPivotEps (common/types.h),
// deliberately tighter than the geometric kEps — see the note there.

// Dense simplex tableau over the equality system  B z = rhs, z >= 0, with an
// explicit basis. Maximizes obj . z. Rows are constraints, columns are
// variables. Uses Bland's rule, so it terminates on degenerate problems.
class Tableau {
 public:
  // Re-dimensions to a zeroed rows x cols tableau, keeping the storage.
  void Reset(int rows, int cols) {
    rows_ = rows;
    cols_ = cols;
    a_.assign(static_cast<size_t>(rows) * (cols + 1), 0.0);
    basis_.assign(rows, -1);
    obj_.assign(cols + 1, 0.0);
  }

  Scalar& At(int r, int c) { return a_[r * (cols_ + 1) + c]; }
  Scalar& Rhs(int r) { return a_[r * (cols_ + 1) + cols_]; }
  Scalar& Obj(int c) { return obj_[c]; }
  void SetBasis(int r, int c) { basis_[r] = c; }

  // Runs simplex iterations to optimality or unboundedness.
  // Returns false on unbounded.
  bool Optimize() {
    for (;;) {
      // Bland's rule: entering variable = smallest index with positive
      // reduced profit (we maximize, so look for obj coefficient > eps).
      int enter = -1;
      for (int c = 0; c < cols_; ++c) {
        if (EpsGt(obj_[c], 0.0, kPivotEps)) {
          enter = c;
          break;
        }
      }
      if (enter < 0) return true;  // optimal
      // Ratio test, Bland tie-break on basis variable index. Rows whose
      // ratio is within a tie band of the minimum may leave, the smallest
      // basis index first. The band is kPivotEps in right-hand-side units:
      // leaving at ratio `limit` drives row q's right-hand side to
      // coef_q * (ratio_q - limit), so `limit` is capped at every row's
      // ratio_q + kPivotEps / max(1, coef_q) and no row goes negative by
      // more than kPivotEps, however large its coefficient.
      Scalar limit = std::numeric_limits<Scalar>::infinity();
      for (int r = 0; r < rows_; ++r) {
        const Scalar coef = a_[r * (cols_ + 1) + enter];
        if (EpsGt(coef, 0.0, kPivotEps)) {
          const Scalar ratio = a_[r * (cols_ + 1) + cols_] / coef;
          limit = std::min(limit, ratio + kPivotEps / std::max(1.0, coef));
        }
      }
      int leave = -1;
      for (int r = 0; r < rows_; ++r) {
        const Scalar coef = a_[r * (cols_ + 1) + enter];
        if (EpsGt(coef, 0.0, kPivotEps) &&
            a_[r * (cols_ + 1) + cols_] / coef <= limit &&
            (leave < 0 || basis_[r] < basis_[leave]))
          leave = r;
      }
      if (leave < 0) return false;  // unbounded
      Pivot(leave, enter);
    }
  }

  void Pivot(int r, int c) {
    const Scalar piv = At(r, c);
    // utk-lint: allow(eps-compare) pivot-magnitude assert; kPivotEps is the
    // tolerance itself, not a fuzz on an exact comparison.
    assert(std::fabs(piv) > kPivotEps);
    const Scalar inv = 1.0 / piv;
    for (int j = 0; j <= cols_; ++j) a_[r * (cols_ + 1) + j] *= inv;
    for (int i = 0; i < rows_; ++i) {
      if (i == r) continue;
      const Scalar f = a_[i * (cols_ + 1) + c];
      // utk-lint: allow(eps-compare) pivot-magnitude test: strict < against
      // kPivotEps IS the policy (types.h); EpsEq would widen < to <=.
      if (std::fabs(f) < kPivotEps) continue;
      for (int j = 0; j <= cols_; ++j)
        a_[i * (cols_ + 1) + j] -= f * a_[r * (cols_ + 1) + j];
    }
    const Scalar f = obj_[c];
    // utk-lint: allow(eps-compare) pivot-magnitude test (see above)
    if (std::fabs(f) > kPivotEps)
      for (int j = 0; j <= cols_; ++j) obj_[j] -= f * a_[r * (cols_ + 1) + j];
    basis_[r] = c;
  }

  // Extracts the value of variable c from the current basic solution.
  Scalar Value(int c) const {
    for (int r = 0; r < rows_; ++r)
      if (basis_[r] == c) return a_[r * (cols_ + 1) + cols_];
    return 0.0;
  }

 private:
  int rows_ = 0, cols_ = 0;
  std::vector<Scalar> a_;  // row-major, last column is rhs
  std::vector<int> basis_;
  std::vector<Scalar> obj_;
};

// The one simplex, from a start point. With `c`, it maximizes c . x over the
// rows of `bounds` and `*extra`, and `start` must satisfy them. Without `c`,
// it solves their Chebyshev LP: maximize t subject to
// a_i . x + ||a_i|| t <= b_i and t <= kRadiusCap, from
// t0 = min(kRadiusCap, min_i slack_i(start) / ||a_i||), so `start` need not
// lie in the region; the radius goes to `*radius`. In x = start + u - v
// (and t = t0 + s), each right-hand side is that row's slack at the start
// (less ||a_i|| t0), clamped at 0 against rounding, so the slack basis is
// feasible and no phase 1 is needed. The optimum has t >= t0 because
// (start, t0) is feasible, so s >= 0 loses nothing. Zero-normal rows are
// dropped when b >= -kEps and make the program infeasible otherwise.
LpStatus SolveFrom(const std::vector<Halfspace>& bounds, const Halfspace* extra,
                   const Vec& start, const Vec* c, Vec* x, Scalar* radius) {
  const int nv = static_cast<int>(start.size());
  const bool chebyshev = c == nullptr;

  // Kept rows (normal, ||normal||, slack at the start). A row is zero-normal
  // when ||a|| <= kEps; for the Chebyshev LP that is the entrywise test of
  // its augmented row (a, ||a||), as ||a|| >= max |a_j|.
  thread_local std::vector<const Halfspace*> rows;
  thread_local std::vector<Scalar> norms, slacks;
  rows.clear();
  norms.clear();
  slacks.clear();
  Scalar t0 = chebyshev ? kRadiusCap : 0.0;
  auto keep = [&](const Halfspace& h) {
    assert(static_cast<int>(h.a.size()) == nv);
    const Scalar norm = Norm(h.a);
    if (EpsEq(norm, 0.0)) return !EpsLt(h.b, 0.0);
    const Scalar slack = h.Slack(start);
    if (chebyshev) t0 = std::min(t0, slack / norm);
    rows.push_back(&h);
    norms.push_back(norm);
    slacks.push_back(slack);
    return true;
  };
  for (const Halfspace& h : bounds)
    if (!keep(h)) return LpStatus::kInfeasible;
  if (extra != nullptr && !keep(*extra)) return LpStatus::kInfeasible;

  // Columns u, v, then s (Chebyshev only), then one slack per row; the
  // Chebyshev LP has one more row, s <= cap - t0.
  const int m = static_cast<int>(rows.size());
  const int s_col = 2 * nv;
  const int first_slack = chebyshev ? s_col + 1 : s_col;
  const int n_rows = chebyshev ? m + 1 : m;
  thread_local Tableau t;
  t.Reset(n_rows, first_slack + n_rows);
  for (int r = 0; r < m; ++r) {
    const Vec& a = rows[r]->a;
    for (int j = 0; j < nv; ++j) {
      t.At(r, j) = a[j];
      t.At(r, nv + j) = -a[j];
    }
    if (chebyshev) t.At(r, s_col) = norms[r];
    t.At(r, first_slack + r) = 1.0;
    t.Rhs(r) = std::max(0.0, slacks[r] - norms[r] * t0);
    t.SetBasis(r, first_slack + r);
  }
  if (chebyshev) {
    t.At(m, s_col) = 1.0;
    t.At(m, first_slack + m) = 1.0;
    t.Rhs(m) = std::max(0.0, kRadiusCap - t0);
    t.SetBasis(m, first_slack + m);
    t.Obj(s_col) = 1.0;
  } else {
    for (int j = 0; j < nv; ++j) {
      t.Obj(j) = (*c)[j];
      t.Obj(nv + j) = -(*c)[j];
    }
  }
  // The cap row bounds s, so the Chebyshev LP cannot report unbounded.
  if (!t.Optimize()) return LpStatus::kUnbounded;

  *x = start;
  for (int j = 0; j < nv; ++j) (*x)[j] += t.Value(j) - t.Value(nv + j);
  if (chebyshev) *radius = t0 + t.Value(s_col);
  return LpStatus::kOptimal;
}

// The Chebyshev LP of `bounds` plus `*extra` (if any), solved from `start`.
std::optional<InteriorPoint> SolveChebyshev(
    const std::vector<Halfspace>& bounds, const Halfspace* extra,
    const Vec& start) {
  if (start.empty()) return std::nullopt;
  InteriorPoint ip;
  if (SolveFrom(bounds, extra, start, nullptr, &ip.x, &ip.radius) !=
      LpStatus::kOptimal)
    return std::nullopt;
  return ip;
}

}  // namespace

LpResult SolveLp(const Vec& c, const std::vector<Halfspace>& cons,
                 bool maximize, const Vec* start) {
  std::optional<InteriorPoint> centre;
  if (start == nullptr) {
    centre = FindInteriorPoint(cons, Vec(c.size(), 0.0));
    if (!centre.has_value() || EpsLt(centre->radius, 0.0))
      return {LpStatus::kInfeasible, {}, 0.0};
    start = &centre->x;
  } else {
    assert(std::all_of(cons.begin(), cons.end(), [&](const Halfspace& h) {
      return h.Contains(*start);
    }));
  }
  const Vec* obj = &c;
  Vec neg;
  if (!maximize) {
    neg = c;
    for (Scalar& v : neg) v = -v;
    obj = &neg;
  }
  LpResult res;
  res.status = SolveFrom(cons, nullptr, *start, obj, &res.x, nullptr);
  // Recompute the objective from x for numerical cleanliness.
  if (res.status == LpStatus::kOptimal) res.objective = Dot(c, res.x);
  return res;
}

std::optional<InteriorPoint> FindInteriorPoint(
    const std::vector<Halfspace>& cons, const Vec& start) {
  return SolveChebyshev(cons, nullptr, start);
}

std::optional<InteriorPoint> FindInteriorPoint(
    const std::vector<Halfspace>& bounds, const Halfspace& extra,
    const Vec& start) {
  return SolveChebyshev(bounds, &extra, start);
}

bool HasInterior(const std::vector<Halfspace>& cons) {
  const Vec origin(cons.empty() ? 0 : cons.front().a.size(), 0.0);
  auto ip = FindInteriorPoint(cons, origin);
  // utk-lint: allow(eps-compare) kInteriorEps is the threshold itself: a
  // radius strictly above it is interior (DESIGN.md §4).
  return ip.has_value() && ip->radius > kInteriorEps;
}

}  // namespace utk
