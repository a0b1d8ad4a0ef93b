#include "geometry/linear.h"

#include <cassert>
#include <cmath>

namespace utk {

Scalar Dot(const Vec& a, const Vec& b) {
  assert(a.size() == b.size());
  Scalar s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

Scalar Norm(const Vec& a) { return std::sqrt(Dot(a, a)); }

Halfspace Halfspace::Complement() const {
  Halfspace c;
  c.a.resize(a.size());
  for (size_t i = 0; i < a.size(); ++i) c.a[i] = -a[i];
  c.b = -b;
  return c;
}

AffineScore MakeScore(const Record& p) {
  const int d = p.Dim();
  AffineScore s;
  s.offset = p.attrs[d - 1];
  s.coef.resize(d - 1);
  for (int i = 0; i < d - 1; ++i) s.coef[i] = p.attrs[i] - p.attrs[d - 1];
  return s;
}

Scalar Score(const Record& p, const Vec& w) {
  const int d = p.Dim();
  assert(static_cast<int>(w.size()) == d - 1);
  Scalar s = p.attrs[d - 1];
  for (int i = 0; i < d - 1; ++i) s += w[i] * (p.attrs[i] - p.attrs[d - 1]);
  return s;
}

Halfspace BetterOrEqual(const Record& p, const Record& q) {
  Halfspace h;
  BetterOrEqual(p, q, &h);
  return h;
}

void BetterOrEqual(const Record& p, const Record& q, Halfspace* out) {
  // S(p) >= S(q)  <=>  (coef_q - coef_p) . w <= offset_p - offset_q.
  const int d = p.Dim();
  const Scalar pd = p.attrs[d - 1], qd = q.attrs[d - 1];
  out->a.resize(d - 1);
  for (int i = 0; i < d - 1; ++i)
    out->a[i] = (q.attrs[i] - qd) - (p.attrs[i] - pd);
  out->b = pd - qd;
}

HalfspaceRows::HalfspaceRows(const std::vector<Halfspace>& hs) {
  if (!hs.empty()) Reserve(static_cast<int>(hs.front().a.size()), hs.size());
  for (const Halfspace& h : hs) push_back(h);
}

void HalfspaceRows::Reserve(int dim, int rows) {
  data_.clear();
  dim_ = dim;
  data_.reserve(static_cast<size_t>(rows) * Stride());
}

void HalfspaceRows::push_back(const Halfspace& h) {
  if (empty()) dim_ = static_cast<int>(h.a.size());
  assert(static_cast<int>(h.a.size()) == dim_);
  data_.insert(data_.end(), h.a.begin(), h.a.end());
  data_.push_back(h.b);
  data_.push_back(Norm(h.a));
}

void HalfspaceRows::PushRow(const HalfspaceRows& src, int i) {
  if (empty()) dim_ = src.dim_;
  assert(src.dim_ == dim_ && &src != this);
  data_.insert(data_.end(), src.a(i), src.a(i) + Stride());
}

void HalfspaceRows::PushComplement(int i) {
  const size_t from = Row(i), to = data_.size(), norm = dim_ + 1;
  data_.resize(to + Stride());
  for (size_t j = 0; j < norm; ++j) data_[to + j] = -data_[from + j];
  data_[to + norm] = data_[from + norm];
}

void HalfspaceRows::Append(const HalfspaceRows& src) {
  if (empty()) dim_ = src.dim_;
  assert((src.empty() || src.dim_ == dim_) && &src != this);
  data_.insert(data_.end(), src.data_.begin(), src.data_.end());
}

std::vector<Halfspace> HalfspaceRows::ToVector() const {
  std::vector<Halfspace> out(size());
  for (int i = 0; i < size(); ++i) {
    out[i].a.assign(a(i), a(i) + dim_);
    out[i].b = b(i);
  }
  return out;
}

bool IsTrivial(const Halfspace& h, Scalar eps) {
  for (Scalar v : h.a)
    if (!EpsEq(v, 0.0, eps)) return false;
  return EpsGe(h.b, 0.0, eps);
}

}  // namespace utk
