#include "geometry/lp.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace utk {

namespace {

// The pivot tolerance is the library-wide kPivotEps (common/types.h),
// deliberately tighter than the geometric kEps — see the note there.

// Condensed simplex tableau over the equality system  B z = rhs, z >= 0.
// Maximizes obj . z. It keeps one row per basic variable and one column
// per nonbasic variable, so the identity columns of the basic variables
// are never stored: `basis_[r]` names row r's basic variable and
// `nonbasic_[c]` column c's nonbasic one. The objective row is stored
// last, below the constraint rows. Uses Bland's rule on variable indices,
// so it terminates on degenerate problems and visits the same bases as a
// dense tableau would, up to rounding.
class Tableau {
 public:
  // Re-dimensions to a zeroed tableau of `rows` constraints and `cols`
  // structural variables, keeping the storage. Variables 0..cols-1 start
  // nonbasic; the slack cols + r starts basic in row r.
  void Reset(int rows, int cols) {
    rows_ = rows;
    cols_ = cols;
    a_.assign(static_cast<size_t>(rows + 1) * (cols + 1), 0.0);
    basis_.resize(rows);
    for (int r = 0; r < rows; ++r) basis_[r] = cols + r;
    nonbasic_.resize(cols);
    for (int c = 0; c < cols; ++c) nonbasic_[c] = c;
    ratio_.resize(rows);
  }

  Scalar& At(int r, int c) { return a_[r * (cols_ + 1) + c]; }
  Scalar& Rhs(int r) { return At(r, cols_); }
  Scalar& Obj(int c) { return At(rows_, c); }

  // Runs simplex iterations to optimality or unboundedness.
  // Returns false on unbounded.
  bool Optimize() {
    const int stride = cols_ + 1;
    for (;;) {
      // Bland's rule: entering variable = smallest variable index with
      // positive reduced profit (we maximize, so look for obj > eps).
      int enter = -1;
      const Scalar* obj = &a_[rows_ * stride];
      for (int c = 0; c < cols_; ++c) {
        if (EpsGt(obj[c], 0.0, kPivotEps) &&
            (enter < 0 || nonbasic_[c] < nonbasic_[enter]))
          enter = c;
      }
      if (enter < 0) return true;  // optimal
      // Ratio test, Bland tie-break on basis variable index. Rows whose
      // ratio is within a tie band of the minimum may leave, the smallest
      // basis index first. The band is kPivotEps in right-hand-side units:
      // leaving at ratio `limit` drives row q's right-hand side to
      // coef_q * (ratio_q - limit), so `limit` is capped at every row's
      // ratio_q + kPivotEps / max(1, coef_q) and no row goes negative by
      // more than kPivotEps, however large its coefficient. Each ratio is
      // divided once and kept for the leave loop.
      Scalar limit = std::numeric_limits<Scalar>::infinity();
      for (int r = 0; r < rows_; ++r) {
        const Scalar coef = a_[r * stride + enter];
        if (EpsGt(coef, 0.0, kPivotEps)) {
          ratio_[r] = a_[r * stride + cols_] / coef;
          limit = std::min(limit, ratio_[r] + kPivotEps / std::max(1.0, coef));
        }
      }
      int leave = -1;
      for (int r = 0; r < rows_; ++r) {
        if (EpsGt(a_[r * stride + enter], 0.0, kPivotEps) &&
            ratio_[r] <= limit && (leave < 0 || basis_[r] < basis_[leave]))
          leave = r;
      }
      if (leave < 0) return false;  // unbounded
      Pivot(leave, enter);
    }
  }

  // Exchanges row r's basic variable with column c's nonbasic one. Column c
  // then holds the leaving variable: 1/piv in row r and -f/piv in a row
  // whose entry was f, which is what eliminating the entering column from
  // the leaving variable's unit column gives.
  void Pivot(int r, int c) {
    const int stride = cols_ + 1;
    Scalar* pr = &a_[r * stride];
    const Scalar piv = pr[c];
    // utk-lint: allow(eps-compare) pivot-magnitude assert; kPivotEps is the
    // tolerance itself, not a fuzz on an exact comparison.
    assert(std::fabs(piv) > kPivotEps);
    const Scalar inv = 1.0 / piv;
    for (int j = 0; j <= cols_; ++j) pr[j] *= inv;
    pr[c] = inv;
    // Every other row, the objective row (index rows_) included.
    for (int i = 0; i <= rows_; ++i) {
      if (i == r) continue;
      Scalar* pi = &a_[i * stride];
      const Scalar f = pi[c];
      // utk-lint: allow(eps-compare) pivot-magnitude test: strict < against
      // kPivotEps IS the policy (types.h); EpsEq would widen < to <=. The
      // skipped row keeps 0 in the leaving variable's column.
      if (std::fabs(f) < kPivotEps) {
        pi[c] = 0.0;
        continue;
      }
      for (int j = 0; j <= cols_; ++j) pi[j] -= f * pr[j];
      pi[c] = -f * inv;
    }
    std::swap(basis_[r], nonbasic_[c]);
  }

  // Extracts the value of variable v from the current basic solution.
  Scalar Value(int v) const {
    for (int r = 0; r < rows_; ++r)
      if (basis_[r] == v) return a_[r * (cols_ + 1) + cols_];
    return 0.0;
  }

 private:
  int rows_ = 0, cols_ = 0;
  // Row-major (rows_ + 1) x (cols_ + 1): the constraint rows, then the
  // objective row; the last column is the right-hand side.
  std::vector<Scalar> a_;
  std::vector<int> basis_;     // variable basic in each row
  std::vector<int> nonbasic_;  // variable nonbasic in each column
  std::vector<Scalar> ratio_;  // ratio-test scratch, one per row
};

// One kept row of a program: its normal, ||normal|| and slack at the start.
struct LpRow {
  const Scalar* a;
  Scalar norm;
  Scalar slack;
};

// The rows of the program being solved, gathered by Gather.
thread_local std::vector<LpRow> t_rows;

// Keeps row (a, b, ||a||, slack) in t_rows unless it is zero-normal,
// ||a|| <= kEps (for the Chebyshev LP, the entrywise test of its augmented
// row (a, ||a||), as ||a|| >= max |a_j|). False when such a row's
// b < -kEps makes the program infeasible.
bool Keep(const Scalar* a, Scalar b, Scalar norm, Scalar slack) {
  if (EpsEq(norm, 0.0)) return !EpsLt(b, 0.0);
  t_rows.push_back({a, norm, slack});
  return true;
}

// Gathers the rows of `cons` into t_rows with their slacks at `start`; the
// rows overload also gathers row `row` of `*cut`. False when Keep is.
bool Gather(const std::vector<Halfspace>& cons, const Vec& start) {
  t_rows.clear();
  for (const Halfspace& h : cons) {
    assert(h.a.size() == start.size());
    if (!Keep(h.a.data(), h.b, Norm(h.a), h.Slack(start))) return false;
  }
  return true;
}
bool Gather(const HalfspaceRows& cons, const Vec& start,
            const HalfspaceRows* cut = nullptr, int row = 0) {
  t_rows.clear();
  assert(cons.empty() || cons.dim() == static_cast<int>(start.size()));
  for (int i = 0; i < cons.size(); ++i)
    if (!Keep(cons.a(i), cons.b(i), cons.norm(i), cons.Slack(i, start)))
      return false;
  return cut == nullptr ||
         Keep(cut->a(row), cut->b(row), cut->norm(row), cut->Slack(row, start));
}

// The one simplex over the gathered rows, from a start point. With `c`, it
// maximizes c . x, and `start` must satisfy every row. Without `c`, it
// solves their Chebyshev LP: maximize t subject to
// a_i . x + ||a_i|| t <= b_i and t <= kRadiusCap, from
// t0 = min(kRadiusCap, min_i slack_i(start) / ||a_i||), so `start` need not
// lie in the region; the radius goes to `*radius`. In x = start + u - v
// (and t = t0 + s), each right-hand side is that row's slack at the start
// (less ||a_i|| t0), clamped at 0 against rounding, so the slack basis is
// feasible and no phase 1 is needed. The optimum has t >= t0 because
// (start, t0) is feasible, so s >= 0 loses nothing.
LpStatus SolveFrom(const Vec& start, const Vec* c, Vec* x, Scalar* radius) {
  const int nv = static_cast<int>(start.size());
  const bool chebyshev = c == nullptr;
  Scalar t0 = chebyshev ? kRadiusCap : 0.0;
  if (chebyshev)
    for (const LpRow& row : t_rows) t0 = std::min(t0, row.slack / row.norm);

  // Variables u, v, then s (Chebyshev only), then one slack per row, each
  // basic in its own row; the Chebyshev LP has one more row,
  // s <= cap - t0.
  const int m = static_cast<int>(t_rows.size());
  const int s_col = 2 * nv;
  const int n_cols = chebyshev ? s_col + 1 : s_col;
  thread_local Tableau t;
  t.Reset(chebyshev ? m + 1 : m, n_cols);
  for (int r = 0; r < m; ++r) {
    const LpRow& row = t_rows[r];
    for (int j = 0; j < nv; ++j) {
      t.At(r, j) = row.a[j];
      t.At(r, nv + j) = -row.a[j];
    }
    if (chebyshev) t.At(r, s_col) = row.norm;
    t.Rhs(r) = std::max(0.0, row.slack - row.norm * t0);
  }
  if (chebyshev) {
    t.At(m, s_col) = 1.0;
    t.Rhs(m) = std::max(0.0, kRadiusCap - t0);
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

// The Chebyshev LP of the rows a Gather kept, solved from `start`; nullopt
// when the gather found the program infeasible.
std::optional<InteriorPoint> SolveChebyshev(bool gathered, const Vec& start) {
  InteriorPoint ip;
  if (!gathered ||
      SolveFrom(start, nullptr, &ip.x, &ip.radius) != LpStatus::kOptimal)
    return std::nullopt;
  return ip;
}

template <class Cons>
LpResult Solve(const Vec& c, const Cons& cons, bool maximize,
               const Vec* start) {
  std::optional<InteriorPoint> centre;
  if (start == nullptr) {
    const Vec origin(c.size(), 0.0);
    if (!origin.empty()) centre = SolveChebyshev(Gather(cons, origin), origin);
    if (!centre.has_value() || EpsLt(centre->radius, 0.0))
      return {LpStatus::kInfeasible, {}, 0.0};
    start = &centre->x;
  }
  const Vec* obj = &c;
  Vec neg;
  if (!maximize) {
    neg = c;
    for (Scalar& v : neg) v = -v;
    obj = &neg;
  }
  LpResult res;
  if (!Gather(cons, *start)) return res;
  assert(std::all_of(t_rows.begin(), t_rows.end(),
                     [](const LpRow& row) { return EpsGe(row.slack, 0.0); }));
  res.status = SolveFrom(*start, obj, &res.x, nullptr);
  // Recompute the objective from x for numerical cleanliness.
  if (res.status == LpStatus::kOptimal) res.objective = Dot(c, res.x);
  return res;
}

}  // namespace

LpResult SolveLp(const Vec& c, const std::vector<Halfspace>& cons,
                 bool maximize, const Vec* start) {
  return Solve(c, cons, maximize, start);
}

LpResult SolveLp(const Vec& c, const HalfspaceRows& cons, bool maximize,
                 const Vec* start) {
  return Solve(c, cons, maximize, start);
}

std::optional<InteriorPoint> FindInteriorPoint(
    const std::vector<Halfspace>& cons, const Vec& start) {
  if (start.empty()) return std::nullopt;
  return SolveChebyshev(Gather(cons, start), start);
}

std::optional<InteriorPoint> FindInteriorPoint(const HalfspaceRows& bounds,
                                               const HalfspaceRows& cut,
                                               int row, const Vec& start) {
  if (start.empty()) return std::nullopt;
  return SolveChebyshev(Gather(bounds, start, &cut, row), start);
}

bool HasInterior(const std::vector<Halfspace>& cons) {
  const Vec origin(cons.empty() ? 0 : cons.front().a.size(), 0.0);
  auto ip = FindInteriorPoint(cons, origin);
  // utk-lint: allow(eps-compare) kInteriorEps is the threshold itself: a
  // radius strictly above it is interior (DESIGN.md §4).
  return ip.has_value() && ip->radius > kInteriorEps;
}

}  // namespace utk
