#include "geometry/region.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>

namespace utk {

ConvexRegion::ConvexRegion(std::vector<Halfspace> constraints)
    : constraints_(std::move(constraints)) {
  dim_ = constraints_.empty() ? 0 : static_cast<int>(constraints_[0].a.size());
}

ConvexRegion ConvexRegion::FromBox(const Vec& lo, const Vec& hi) {
  assert(lo.size() == hi.size());
  const int dim = static_cast<int>(lo.size());
  ConvexRegion r;
  r.dim_ = dim;
  for (int i = 0; i < dim; ++i) {
    Halfspace upper, lower;
    upper.a.assign(dim, 0.0);
    upper.a[i] = 1.0;
    upper.b = hi[i];
    lower.a.assign(dim, 0.0);
    lower.a[i] = -1.0;
    lower.b = -lo[i];
    r.constraints_.push_back(std::move(upper));
    r.constraints_.push_back(std::move(lower));
  }
  const Scalar hi_sum = std::accumulate(hi.begin(), hi.end(), Scalar{0});
  bool inside_simplex = EpsLe(hi_sum, 1.0);
  for (int i = 0; i < dim; ++i) inside_simplex &= EpsGe(lo[i], 0.0);
  if (inside_simplex) {
    r.is_box_ = true;
    r.box_lo_ = lo;
    r.box_hi_ = hi;
  } else {
    // Clip against the weight simplex: w_i >= 0, sum w <= 1.
    for (int i = 0; i < dim; ++i) {
      Halfspace nonneg;
      nonneg.a.assign(dim, 0.0);
      nonneg.a[i] = -1.0;
      nonneg.b = 0.0;
      r.constraints_.push_back(std::move(nonneg));
    }
    Halfspace simplex;
    simplex.a.assign(dim, 1.0);
    simplex.b = 1.0;
    r.constraints_.push_back(std::move(simplex));
  }
  return r;
}

ConvexRegion ConvexRegion::FullDomain(int pref_dim) {
  ConvexRegion r;
  r.dim_ = pref_dim;
  for (int i = 0; i < pref_dim; ++i) {
    Halfspace nonneg;
    nonneg.a.assign(pref_dim, 0.0);
    nonneg.a[i] = -1.0;
    nonneg.b = 0.0;
    r.constraints_.push_back(std::move(nonneg));
  }
  Halfspace simplex;
  simplex.a.assign(pref_dim, 1.0);
  simplex.b = 1.0;
  r.constraints_.push_back(std::move(simplex));
  return r;
}

void ConvexRegion::AddConstraint(const Halfspace& h) {
  assert(static_cast<int>(h.a.size()) == dim_ || dim_ == 0);
  if (dim_ == 0) dim_ = static_cast<int>(h.a.size());
  constraints_.push_back(h);
  is_box_ = false;
}

bool ConvexRegion::Contains(const Vec& w, Scalar eps) const {
  for (const Halfspace& h : constraints_)
    if (!h.Contains(w, eps)) return false;
  return true;
}

std::optional<Vec> ConvexRegion::Pivot() const {
  if (is_box_) {
    Vec c(dim_);
    for (int i = 0; i < dim_; ++i) c[i] = 0.5 * (box_lo_[i] + box_hi_[i]);
    return c;
  }
  auto ip = FindInteriorPoint(constraints_, Vec(dim_, 0.0));
  // utk-lint: allow(eps-compare) exact degeneracy test: a Chebyshev radius
  // of 0 means the LP found only a boundary point, not an interior one.
  if (!ip.has_value() || ip->radius <= 0.0) return std::nullopt;
  return ip->x;
}

std::vector<Vec> ConvexRegion::BoxVertices() const {
  assert(is_box_);
  std::vector<Vec> verts;
  const int n = 1 << dim_;
  verts.reserve(n);
  for (int mask = 0; mask < n; ++mask) {
    Vec v(dim_);
    for (int i = 0; i < dim_; ++i)
      v[i] = (mask >> i) & 1 ? box_hi_[i] : box_lo_[i];
    verts.push_back(std::move(v));
  }
  return verts;
}

std::optional<std::pair<Scalar, Scalar>> ConvexRegion::RangeOf(
    const Vec& coef, Scalar offset) const {
  assert(static_cast<int>(coef.size()) == dim_);
  if (is_box_) {
    Scalar lo = offset, hi = offset;
    for (int i = 0; i < dim_; ++i) {
      // utk-lint: allow(eps-compare) exact sign split choosing which box
      // corner minimizes/maximizes the linear form; either branch is exact.
      if (coef[i] >= 0.0) {
        lo += coef[i] * box_lo_[i];
        hi += coef[i] * box_hi_[i];
      } else {
        lo += coef[i] * box_hi_[i];
        hi += coef[i] * box_lo_[i];
      }
    }
    return std::make_pair(lo, hi);
  }
  LpResult lo_r = SolveLp(coef, constraints_, /*maximize=*/false);
  if (lo_r.status != LpStatus::kOptimal) return std::nullopt;
  LpResult hi_r = SolveLp(coef, constraints_, /*maximize=*/true);
  if (hi_r.status != LpStatus::kOptimal) return std::nullopt;
  return std::make_pair(lo_r.objective + offset, hi_r.objective + offset);
}

bool ConvexRegion::HasInteriorPoint() const {
  if (is_box_) {
    // Chebyshev radius of a box (unit facet normals): half the shortest
    // side. Matches the LP answer without solving it — this predicate sits
    // on the serving layer's per-query path.
    Scalar radius = std::numeric_limits<Scalar>::max();
    for (int i = 0; i < dim_; ++i)
      radius = std::min(radius, 0.5 * (box_hi_[i] - box_lo_[i]));
    // utk-lint: allow(eps-compare) kInteriorEps is the threshold itself, as
    // in HasInterior.
    return radius > kInteriorEps;
  }
  std::vector<Halfspace> clipped = constraints_;
  const ConvexRegion simplex = FullDomain(dim_);
  clipped.insert(clipped.end(), simplex.constraints_.begin(),
                 simplex.constraints_.end());
  return HasInterior(clipped);
}

}  // namespace utk
