// A two-phase Chebyshev LP used as the test oracle for FindInteriorPoint.
//
// It solves the same program, maximize t subject to
// a_i . x + ||a_i|| * t <= b_i and t <= kRadiusCap, by a different path:
// the two-phase oracle (lp_oracle.h) over the augmented rows (a_i, ||a_i||),
// from no start point. The library solves it phase-1-free from a
// caller-given start, so the two share no code. The optimal radius is
// unique and must agree; the centre need not, and is checked by
// ExpectValidCentre instead.
#ifndef UTK_TESTS_CHEBYSHEV_ORACLE_H_
#define UTK_TESTS_CHEBYSHEV_ORACLE_H_

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "geometry/lp.h"
#include "lp_oracle.h"

namespace utk {

inline std::optional<InteriorPoint> TwoPhaseInteriorPoint(
    const std::vector<Halfspace>& cons) {
  const int nv = cons.empty() ? 0 : static_cast<int>(cons.front().a.size());
  if (nv == 0) return std::nullopt;
  std::vector<Halfspace> aug;
  aug.reserve(cons.size() + 1);
  for (const Halfspace& h : cons) {
    Halfspace g;
    g.a = h.a;
    g.a.push_back(Norm(h.a));
    g.b = h.b;
    aug.push_back(std::move(g));
  }
  Halfspace cap;
  cap.a.assign(nv + 1, 0.0);
  cap.a[nv] = 1.0;
  cap.b = kRadiusCap;
  aug.push_back(std::move(cap));

  Vec obj(nv + 1, 0.0);
  obj[nv] = 1.0;
  const LpResult r = TwoPhaseLp(obj, aug, /*maximize=*/true);
  if (r.status != LpStatus::kOptimal) return std::nullopt;
  InteriorPoint ip;
  ip.radius = r.x[nv];
  ip.x.assign(r.x.begin(), r.x.begin() + nv);
  return ip;
}

// The centre contract: (x, radius) is feasible for the Chebyshev LP of
// `cons`, i.e. every row keeps the ball, up to 1e-9 of rounding.
inline void ExpectValidCentre(const std::vector<Halfspace>& cons,
                              const InteriorPoint& ip,
                              const std::string& label) {
  EXPECT_LE(ip.radius, kRadiusCap + 1e-12) << label;
  for (size_t i = 0; i < cons.size(); ++i) {
    const Halfspace& h = cons[i];
    EXPECT_GE(h.Slack(ip.x), ip.radius * Norm(h.a) - 1e-9)
        << label << " row " << i << " radius " << ip.radius;
  }
}

}  // namespace utk

#endif  // UTK_TESTS_CHEBYSHEV_ORACLE_H_
