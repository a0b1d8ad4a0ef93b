#include "geometry/lp.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace utk {

namespace {

// The pivot tolerance is the library-wide kPivotEps (common/types.h),
// deliberately tighter than the geometric kEps — see the note there.

thread_local int64_t g_lp_solves = 0;

// Dense simplex tableau over the equality system  B z = rhs, z >= 0, with an
// explicit basis. Maximizes obj . z. Rows are constraints, columns are
// variables. Uses Bland's rule, so it terminates on degenerate problems.
class Tableau {
 public:
  Tableau(int rows, int cols) { Reset(rows, cols); }

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
  Scalar& ObjValue() { return obj_[cols_]; }
  void SetBasis(int r, int c) { basis_[r] = c; }
  int BasisVar(int r) const { return basis_[r]; }

  // Eliminates basic columns from the objective row (price out).
  void PriceOut() {
    for (int r = 0; r < rows_; ++r) {
      const int bc = basis_[r];
      const Scalar factor = obj_[bc];
      // utk-lint: allow(eps-compare) pivot-magnitude test: strict < against
      // kPivotEps IS the policy (types.h); EpsEq would widen < to <=.
      if (std::fabs(factor) < kPivotEps) continue;
      for (int c = 0; c <= cols_; ++c) obj_[c] -= factor * a_[r * (cols_ + 1) + c];
    }
  }

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
      // utk-lint: allow(eps-compare) pivot-magnitude test (see PriceOut)
      if (std::fabs(f) < kPivotEps) continue;
      for (int j = 0; j <= cols_; ++j)
        a_[i * (cols_ + 1) + j] -= f * a_[r * (cols_ + 1) + j];
    }
    const Scalar f = obj_[c];
    // utk-lint: allow(eps-compare) pivot-magnitude test (see PriceOut)
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

  int rows() const { return rows_; }
  int cols() const { return cols_; }

 private:
  int rows_ = 0, cols_ = 0;
  std::vector<Scalar> a_;  // row-major, last column is rhs
  std::vector<int> basis_;
  std::vector<Scalar> obj_;
};

// Core solver: maximize c . x, A x <= b, x free.
LpResult SolveCore(const Vec& c, const std::vector<Halfspace>& raw_cons) {
  ++g_lp_solves;
  const int nv = static_cast<int>(c.size());

  // Drop trivial constraints; detect trivially infeasible ones.
  std::vector<const Halfspace*> cons;
  cons.reserve(raw_cons.size());
  for (const Halfspace& h : raw_cons) {
    assert(static_cast<int>(h.a.size()) == nv);
    bool zero = true;
    for (Scalar v : h.a)
      if (!EpsEq(v, 0.0)) {
        zero = false;
        break;
      }
    if (zero) {
      if (EpsLt(h.b, 0.0)) return {LpStatus::kInfeasible, {}, 0.0};
      continue;
    }
    cons.push_back(&h);
  }
  const int m = static_cast<int>(cons.size());

  // Variables: u (nv), v (nv), slack (m), artificial (count of negative rhs).
  int n_art = 0;
  for (const Halfspace* h : cons)
    // utk-lint: allow(eps-compare) exact sign split: rows are negated iff
    // b < 0, and the artificial-count below must agree bit-for-bit.
    if (h->b < 0.0) ++n_art;
  const int cols = 2 * nv + m + n_art;
  Tableau t(m, cols);

  int art = 2 * nv + m;
  for (int r = 0; r < m; ++r) {
    const Halfspace& h = *cons[r];
    // utk-lint: allow(eps-compare) exact sign split, must match n_art above
    const Scalar sign = (h.b < 0.0) ? -1.0 : 1.0;
    for (int j = 0; j < nv; ++j) {
      t.At(r, j) = sign * h.a[j];
      t.At(r, nv + j) = -sign * h.a[j];
    }
    t.At(r, 2 * nv + r) = sign;  // slack
    t.Rhs(r) = sign * h.b;
    // utk-lint: allow(eps-compare) exact sign split, must match n_art above
    if (h.b < 0.0) {
      t.At(r, art) = 1.0;
      t.SetBasis(r, art);
      ++art;
    } else {
      t.SetBasis(r, 2 * nv + r);
    }
  }

  if (n_art > 0) {
    // Phase 1: maximize -(sum of artificials).
    for (int a = 2 * nv + m; a < cols; ++a) t.Obj(a) = -1.0;
    t.PriceOut();
    const bool ok = t.Optimize();
    (void)ok;  // phase 1 objective is bounded above by 0
    // The objective row's rhs cell holds the *negated* objective value, so a
    // positive residual means sum(artificials) > 0, i.e. infeasible.
    if (EpsGt(t.ObjValue(), 0.0, 1e-7)) return {LpStatus::kInfeasible, {}, 0.0};
    // Drive any artificial still in the basis out (degenerate); if it cannot
    // be driven out its row is redundant and harmless because its value is 0.
    for (int r = 0; r < m; ++r) {
      if (t.BasisVar(r) >= 2 * nv + m) {
        for (int cidx = 0; cidx < 2 * nv + m; ++cidx) {
          if (EpsGt(std::fabs(t.At(r, cidx)), 0.0, 1e-7)) {
            t.Pivot(r, cidx);
            break;
          }
        }
      }
    }
    // Switch to phase 2. Artificials must never re-enter the basis, and a
    // zero objective coefficient alone would not stop Bland's rule from
    // picking one after price-out, so their columns are zeroed instead.
    for (int r = 0; r < m; ++r)
      for (int a2 = 2 * nv + m; a2 < cols; ++a2) t.At(r, a2) = 0.0;
    for (int cidx = 0; cidx <= cols; ++cidx) t.Obj(cidx) = 0.0;
  }

  for (int j = 0; j < nv; ++j) {
    t.Obj(j) = c[j];
    t.Obj(nv + j) = -c[j];
  }
  t.PriceOut();
  if (!t.Optimize()) return {LpStatus::kUnbounded, {}, 0.0};

  LpResult res;
  res.status = LpStatus::kOptimal;
  res.x.resize(nv);
  for (int j = 0; j < nv; ++j) res.x[j] = t.Value(j) - t.Value(nv + j);
  // Recompute the objective from x for numerical cleanliness.
  res.objective = Dot(c, res.x);
  return res;
}

// The Chebyshev LP of `bounds` plus `*extra` (if any), solved from `start`.
std::optional<InteriorPoint> SolveChebyshev(
    const std::vector<Halfspace>& bounds, const Halfspace* extra,
    const Vec& start) {
  ++g_lp_solves;
  const int nv = static_cast<int>(start.size());
  if (nv == 0) return std::nullopt;

  // Kept rows (normal, ||normal||, slack at the start). Zero-normal rows
  // follow SolveCore's rule for the augmented row (a, ||a||): it tests every
  // entry against kEps, which is testing ||a|| alone, as ||a|| >= max |a_j|.
  thread_local std::vector<const Halfspace*> rows;
  thread_local std::vector<Scalar> norms, slacks;
  rows.clear();
  norms.clear();
  slacks.clear();
  Scalar t0 = kRadiusCap;
  auto keep = [&](const Halfspace& h) {
    assert(static_cast<int>(h.a.size()) == nv);
    const Scalar norm = Norm(h.a);
    if (EpsEq(norm, 0.0)) return !EpsLt(h.b, 0.0);
    const Scalar slack = h.Slack(start);
    t0 = std::min(t0, slack / norm);
    rows.push_back(&h);
    norms.push_back(norm);
    slacks.push_back(slack);
    return true;
  };
  for (const Halfspace& h : bounds)
    if (!keep(h)) return std::nullopt;
  if (extra != nullptr && !keep(*extra)) return std::nullopt;

  // maximize s  s.t.  a_i.(u - v) + ||a_i|| s <= slack_i - ||a_i|| t0,
  //                   s <= cap - t0,   u, v, s >= 0,
  // i.e. the Chebyshev LP in x = start + u - v, t = t0 + s. Every
  // right-hand side is >= 0 by the choice of t0 (clamped against rounding),
  // so the slack basis is feasible and no phase 1 is needed. The optimum
  // has t >= t0 because (start, t0) is feasible, so s >= 0 loses nothing.
  const int m = static_cast<int>(rows.size());
  const int s_col = 2 * nv;
  const int cols = 2 * nv + 1 + m + 1;
  thread_local Tableau t(0, 0);
  t.Reset(m + 1, cols);
  for (int r = 0; r < m; ++r) {
    const Vec& a = rows[r]->a;
    for (int j = 0; j < nv; ++j) {
      t.At(r, j) = a[j];
      t.At(r, nv + j) = -a[j];
    }
    t.At(r, s_col) = norms[r];
    t.At(r, s_col + 1 + r) = 1.0;
    t.Rhs(r) = std::max(0.0, slacks[r] - norms[r] * t0);
    t.SetBasis(r, s_col + 1 + r);
  }
  t.At(m, s_col) = 1.0;
  t.At(m, s_col + 1 + m) = 1.0;
  t.Rhs(m) = std::max(0.0, kRadiusCap - t0);
  t.SetBasis(m, s_col + 1 + m);
  t.Obj(s_col) = 1.0;
  // The cap row bounds s, so this cannot report unbounded; every basic
  // solution simplex visits is feasible, so the one it stops at is read
  // either way.
  t.Optimize();

  InteriorPoint ip;
  ip.x = start;
  for (int j = 0; j < nv; ++j) ip.x[j] += t.Value(j) - t.Value(nv + j);
  ip.radius = t0 + t.Value(s_col);
  return ip;
}

}  // namespace

LpResult SolveLp(const Vec& c, const std::vector<Halfspace>& cons,
                 bool maximize) {
  if (maximize) return SolveCore(c, cons);
  Vec neg(c.size());
  for (size_t i = 0; i < c.size(); ++i) neg[i] = -c[i];
  LpResult r = SolveCore(neg, cons);
  r.objective = -r.objective;
  return r;
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

int64_t LpSolveCount() { return g_lp_solves; }
void ResetLpSolveCount() { g_lp_solves = 0; }

}  // namespace utk
