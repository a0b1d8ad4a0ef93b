// The two-phase simplex, kept as the test oracle for general LPs.
//
// The library has one simplex, started from a feasible point the caller
// supplies or FindInteriorPoint finds (geometry/lp.h). This is the solver
// it replaced: it needs no start, runs phase 1 over artificial columns when
// a right-hand side is negative, and judges feasibility by the phase-1
// residual. The two share no code, so LpFuzz and the Chebyshev oracle
// (chebyshev_oracle.h) compare the library against an independent path.
#ifndef UTK_TESTS_LP_ORACLE_H_
#define UTK_TESTS_LP_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "geometry/lp.h"

namespace utk {

namespace lp_oracle {

// Dense tableau over B z = rhs, z >= 0, maximizing obj . z with Bland's
// rule and the library's kPivotEps ratio band.
class Tableau {
 public:
  Tableau(int rows, int cols)
      : rows_(rows),
        cols_(cols),
        a_(static_cast<size_t>(rows) * (cols + 1), 0.0),
        basis_(rows, -1),
        obj_(cols + 1, 0.0) {}

  Scalar& At(int r, int c) { return a_[r * (cols_ + 1) + c]; }
  Scalar& Rhs(int r) { return a_[r * (cols_ + 1) + cols_]; }
  Scalar& Obj(int c) { return obj_[c]; }
  Scalar& ObjValue() { return obj_[cols_]; }
  void SetBasis(int r, int c) { basis_[r] = c; }
  int BasisVar(int r) const { return basis_[r]; }

  // Eliminates basic columns from the objective row.
  void PriceOut() {
    for (int r = 0; r < rows_; ++r) {
      const Scalar factor = obj_[basis_[r]];
      if (std::fabs(factor) < kPivotEps) continue;
      for (int c = 0; c <= cols_; ++c) obj_[c] -= factor * At(r, c);
    }
  }

  // Returns false on unbounded.
  bool Optimize() {
    for (;;) {
      int enter = -1;
      for (int c = 0; c < cols_ && enter < 0; ++c)
        if (obj_[c] > kPivotEps) enter = c;
      if (enter < 0) return true;
      Scalar limit = std::numeric_limits<Scalar>::infinity();
      for (int r = 0; r < rows_; ++r) {
        const Scalar coef = At(r, enter);
        if (coef > kPivotEps)
          limit = std::min(limit,
                           Rhs(r) / coef + kPivotEps / std::max(1.0, coef));
      }
      int leave = -1;
      for (int r = 0; r < rows_; ++r) {
        const Scalar coef = At(r, enter);
        if (coef > kPivotEps && Rhs(r) / coef <= limit &&
            (leave < 0 || basis_[r] < basis_[leave]))
          leave = r;
      }
      if (leave < 0) return false;
      Pivot(leave, enter);
    }
  }

  void Pivot(int r, int c) {
    const Scalar inv = 1.0 / At(r, c);
    for (int j = 0; j <= cols_; ++j) At(r, j) *= inv;
    for (int i = 0; i < rows_; ++i) {
      const Scalar f = At(i, c);
      if (i == r || std::fabs(f) < kPivotEps) continue;
      for (int j = 0; j <= cols_; ++j) At(i, j) -= f * At(r, j);
    }
    const Scalar f = obj_[c];
    if (std::fabs(f) > kPivotEps)
      for (int j = 0; j <= cols_; ++j) obj_[j] -= f * At(r, j);
    basis_[r] = c;
  }

  Scalar Value(int c) const {
    for (int r = 0; r < rows_; ++r)
      if (basis_[r] == c) return a_[r * (cols_ + 1) + cols_];
    return 0.0;
  }

 private:
  int rows_, cols_;
  std::vector<Scalar> a_;  // row-major, last column is rhs
  std::vector<int> basis_;
  std::vector<Scalar> obj_;
};

// maximize c . x subject to cons, x free.
inline LpResult Maximize(const Vec& c, const std::vector<Halfspace>& raw) {
  const int nv = static_cast<int>(c.size());
  // Zero-normal rows are dropped, or make the program infeasible.
  std::vector<const Halfspace*> cons;
  for (const Halfspace& h : raw) {
    if (std::all_of(h.a.begin(), h.a.end(),
                    [](Scalar v) { return EpsEq(v, 0.0); })) {
      if (EpsLt(h.b, 0.0)) return {LpStatus::kInfeasible, {}, 0.0};
      continue;
    }
    cons.push_back(&h);
  }
  const int m = static_cast<int>(cons.size());

  // Columns: u (nv), v (nv), slack (m), one artificial per negative rhs.
  int n_art = 0;
  for (const Halfspace* h : cons)
    if (h->b < 0.0) ++n_art;
  const int first_art = 2 * nv + m;
  const int cols = first_art + n_art;
  Tableau t(m, cols);
  int art = first_art;
  for (int r = 0; r < m; ++r) {
    const Halfspace& h = *cons[r];
    const Scalar sign = h.b < 0.0 ? -1.0 : 1.0;
    for (int j = 0; j < nv; ++j) {
      t.At(r, j) = sign * h.a[j];
      t.At(r, nv + j) = -sign * h.a[j];
    }
    t.At(r, 2 * nv + r) = sign;
    t.Rhs(r) = sign * h.b;
    if (h.b < 0.0) {
      t.At(r, art) = 1.0;
      t.SetBasis(r, art++);
    } else {
      t.SetBasis(r, 2 * nv + r);
    }
  }

  if (n_art > 0) {
    // Phase 1: maximize -(sum of artificials). The objective row's rhs
    // holds the negated objective, so a positive residual is infeasible.
    for (int a = first_art; a < cols; ++a) t.Obj(a) = -1.0;
    t.PriceOut();
    t.Optimize();
    if (t.ObjValue() > 1e-7) return {LpStatus::kInfeasible, {}, 0.0};
    // Drive degenerate artificials out of the basis where possible; one
    // that stays sits on a redundant row at value 0.
    for (int r = 0; r < m; ++r) {
      if (t.BasisVar(r) < first_art) continue;
      for (int c2 = 0; c2 < first_art; ++c2) {
        if (std::fabs(t.At(r, c2)) > 1e-7) {
          t.Pivot(r, c2);
          break;
        }
      }
    }
    // Phase 2 must never re-enter an artificial: zero their columns.
    for (int r = 0; r < m; ++r)
      for (int a = first_art; a < cols; ++a) t.At(r, a) = 0.0;
    for (int c2 = 0; c2 <= cols; ++c2) t.Obj(c2) = 0.0;
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
  res.objective = Dot(c, res.x);
  return res;
}

}  // namespace lp_oracle

// The oracle's answer to SolveLp(c, cons, maximize).
inline LpResult TwoPhaseLp(const Vec& c, const std::vector<Halfspace>& cons,
                           bool maximize = true) {
  if (maximize) return lp_oracle::Maximize(c, cons);
  Vec neg = c;
  for (Scalar& v : neg) v = -v;
  LpResult r = lp_oracle::Maximize(neg, cons);
  r.objective = -r.objective;
  return r;
}

}  // namespace utk

#endif  // UTK_TESTS_LP_ORACLE_H_
