// Linear-algebra primitives for the preference domain.
//
// Scores are affine functions of the reduced weight vector (Section 3.1):
//   S(p)(w) = x_d + sum_{i<d} w_i * (x_i - x_d).
// Comparisons between two records therefore induce half-spaces in the
// preference domain, which is the foundation of the refinement machinery in
// RSA, JAA, and kSPR.
#ifndef UTK_GEOMETRY_LINEAR_H_
#define UTK_GEOMETRY_LINEAR_H_

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace utk {

/// Dot product; vectors must have equal length.
Scalar Dot(const Vec& a, const Vec& b);

/// Euclidean norm.
Scalar Norm(const Vec& a);

/// Closed half-space { w : a . w <= b } in the preference domain.
struct Halfspace {
  Vec a;
  Scalar b = 0.0;

  /// Signed slack b - a.w ; >= 0 inside the half-space.
  Scalar Slack(const Vec& w) const { return b - Dot(a, w); }
  bool Contains(const Vec& w, Scalar eps = kEps) const {
    return EpsGe(Slack(w), 0.0, eps);
  }
  /// The complementary (open, here closed-with-eps) half-space a.w >= b.
  Halfspace Complement() const;
};

/// An affine score function S(w) = offset + coef . w over the reduced
/// preference domain.
struct AffineScore {
  Vec coef;
  Scalar offset = 0.0;

  Scalar Eval(const Vec& w) const { return offset + Dot(coef, w); }
};

/// Builds the reduced affine score of record p (data domain, d attributes)
/// over the (d-1)-dimensional preference domain.
AffineScore MakeScore(const Record& p);

/// Evaluates S(p) directly for a reduced weight vector w (|w| = d-1).
Scalar Score(const Record& p, const Vec& w);

/// Half-space of the preference domain where S(p) >= S(q).
/// Degenerate case: if p and q have identical reduced scores everywhere the
/// half-space is the whole domain (a = 0, b = 0); callers treat zero-normal
/// half-spaces as "always satisfied".
Halfspace BetterOrEqual(const Record& p, const Record& q);

/// The same, written into `out`, whose storage is reused: a_i =
/// (q_i - q_d) - (p_i - p_d) and b = p_d - q_d, MakeScore's arithmetic.
void BetterOrEqual(const Record& p, const Record& q, Halfspace* out);

/// Half-spaces stored flat, one row per half-space: its dim() coefficients,
/// then b, then ||a|| computed as Norm does. Copying a list is one
/// allocation, and readers take the norm from the row. Every value equals
/// that of the Halfspace the row came from, bit for bit, and Slack rounds
/// as Halfspace::Slack does (DESIGN.md §4, "Flat bounds").
class HalfspaceRows {
 public:
  HalfspaceRows() = default;
  explicit HalfspaceRows(const std::vector<Halfspace>& hs);

  int size() const { return static_cast<int>(data_.size()) / Stride(); }
  bool empty() const { return data_.empty(); }
  /// Coefficients per row, set by Reserve or the first row of an empty list.
  int dim() const { return dim_; }
  const Scalar* a(int i) const { return &data_[Row(i)]; }
  Scalar b(int i) const { return data_[Row(i) + dim_]; }
  Scalar norm(int i) const { return data_[Row(i) + dim_ + 1]; }
  /// b - a.w of row i, rounded as Halfspace::Slack.
  Scalar Slack(int i, const Vec& w) const {
    const Scalar* row = a(i);
    Scalar dot = 0.0;
    for (int j = 0; j < dim_; ++j) dot += row[j] * w[j];
    return b(i) - dot;
  }

  /// Empties the list and makes room for `rows` rows of `dim` coefficients.
  void Reserve(int dim, int rows);
  void push_back(const Halfspace& h);
  /// Appends row i of another list.
  void PushRow(const HalfspaceRows& src, int i);
  /// Appends the complement of row i: a and b negated entry by entry, as
  /// Halfspace::Complement does, and the norm kept, which is Norm(-a).
  void PushComplement(int i);
  /// Appends every row of another list.
  void Append(const HalfspaceRows& src);

  std::vector<Halfspace> ToVector() const;
  /// Bytes the rows take: size() * (dim() + 2) scalars.
  int64_t Bytes() const { return data_.size() * sizeof(Scalar); }

 private:
  int Stride() const { return dim_ + 2; }
  size_t Row(int i) const { return static_cast<size_t>(i) * Stride(); }

  int dim_ = 0;
  std::vector<Scalar> data_;
};

/// True iff the half-space constrains nothing (zero normal, b >= -eps).
bool IsTrivial(const Halfspace& h, Scalar eps = kEps);

}  // namespace utk

#endif  // UTK_GEOMETRY_LINEAR_H_
