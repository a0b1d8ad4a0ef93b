// Batched execution kernels over a ColumnStore.
//
// Each kernel is the SoA twin of a scalar hot-loop body elsewhere in the
// library, written as contiguous per-column sweeps the compiler
// auto-vectorizes. The per-row arithmetic replays the scalar reference in
// the exact same operation order, so every kernel is bit-for-bit equal to
// its AoS counterpart — the differential tests (tests/test_exec.cc) and
// the 200-draw engine fuzz (tests/test_differential.cc) pin that down:
//
//   ScoreAll / ScoreBatch               ==  geometry/linear.h Score()
//   DominatedCounts / CountDominatorsOfPoint == skyline/dominance.h loops
//   BoxGapEvaluator::Range              ==  rdominance.cc DiffScore +
//                                           ConvexRegion::RangeOf (box path)
//
// Consumers: the r-skyband filter (skyline/rskyband.cc), the R-tree top-k
// (core/topk.cc), RSA/JAA refinement scoring (core/rsa.cc, core/jaa.cc),
// R-tree leaf scans inside those traversals, and the live engine's
// incrementally maintained store (src/live/). CountDominatorsOfPoint backs
// the SK k-skyband membership probes; DominatedCounts is the many-vs-many
// form behind the k-skyband brute-force oracle (skyline/skyband.cc).
//
// Each kernel has one implementation, the scalar SoA loop in kernels.cc,
// except ScoreBatch: it dispatches on exec/simd.h ActiveSimdTier() to an
// AVX2 twin (simd_avx2.cc) that vectorizes across rows with the identical
// per-row expression tree and is bit-identical by construction.
#ifndef UTK_EXEC_KERNELS_H_
#define UTK_EXEC_KERNELS_H_

#include <cstdint>
#include <span>
#include <utility>

#include "exec/column_store.h"
#include "geometry/region.h"

namespace utk {

/// out[j] = S(row j)(w) for every row of the store; |out| >= size().
/// Identical arithmetic order to Score(): start from the last attribute,
/// then add w[i] * (attr_i - attr_last) in dimension order.
void ScoreAll(const ColumnStore& cols, const Vec& w, Scalar* out);

/// out[j] = S(rows[j])(w) — the gathered form, for scoring an R-tree leaf's
/// record ids or a candidate pool in one pass.
void ScoreBatch(const ColumnStore& cols, const Vec& w,
                std::span<const int32_t> rows, Scalar* out);

/// out[j] = number of rows r in `refs` with r != rows[j] whose attributes
/// dominate rows[j]'s (skyline/dominance.h Dominates with `eps`), counted
/// exactly up to `cap` and clamped there.
void DominatedCounts(const ColumnStore& cols, std::span<const int32_t> rows,
                     std::span<const int32_t> refs, int cap, Scalar eps,
                     int32_t* out);

/// Number of rows in `rows` dominating the free-standing point `v`, capped
/// at `cap` — the k-skyband membership probe as one batched sweep.
int CountDominatorsOfPoint(const ColumnStore& cols,
                           std::span<const int32_t> rows, const Vec& v,
                           int cap, Scalar eps);

/// {min, max} of S(p) - S(q) over the box [box_lo, box_hi], for d
/// attributes read through the accessors p(i) and q(i): the single range
/// accumulation behind BoxGapEvaluator, the bit-for-bit twin of DiffScore +
/// ConvexRegion::RangeOf's box path. The accessors abstract only where p
/// and q live (a store row, a free Vec, or the zero record, which gives
/// the range of S(p) itself); the expression tree and accumulation order
/// are fixed here, once.
template <typename GetP, typename GetQ>
inline std::pair<Scalar, Scalar> GapRange(int d, const GetP& p, const GetQ& q,
                                          const Vec& box_lo,
                                          const Vec& box_hi) {
  const Scalar pl = p(d - 1), ql = q(d - 1);
  const Scalar offset = pl - ql;
  Scalar lo = offset, hi = offset;
  for (int i = 0; i < d - 1; ++i) {
    const Scalar c = (p(i) - pl) - (q(i) - ql);
    if (c >= 0.0) {
      lo += c * box_lo[i];
      hi += c * box_hi[i];
    } else {
      lo += c * box_hi[i];
      hi += c * box_lo[i];
    }
  }
  return {lo, hi};
}

/// Allocation-free score-difference ranges over an axis-parallel box
/// region. RDominance() builds a temporary coefficient vector per pair and
/// routes it through ConvexRegion::RangeOf; for box regions this evaluator
/// computes the same (min, max) of S(p) - S(q) straight from the columns —
/// same expressions, same accumulation order, hence bit-identical — with
/// zero heap traffic. valid() is false for non-box regions (LP territory);
/// callers must fall back to RDominance() there. The evaluator borrows the
/// store and the region's box vectors — both must outlive it (passing a
/// temporary ConvexRegion leaves lo_/hi_ dangling).
class BoxGapEvaluator {
 public:
  BoxGapEvaluator(const ColumnStore& cols, const ConvexRegion& r)
      : cols_(&cols) {
    if (r.is_box() && r.dim() == cols.dim() - 1) {
      lo_ = &r.box_lo();
      hi_ = &r.box_hi();
    }
  }

  bool valid() const { return lo_ != nullptr; }

  /// Range of S(row p) - S(row q) over the box.
  std::pair<Scalar, Scalar> Range(int32_t p, int32_t q) const;

  /// Range of S(row p) - S(corner): the MBB top-corner form used by subtree
  /// pruning.
  std::pair<Scalar, Scalar> Range(int32_t p, const Vec& corner) const;

 private:
  const ColumnStore* cols_;
  const Vec* lo_ = nullptr;
  const Vec* hi_ = nullptr;
};

}  // namespace utk

#endif  // UTK_EXEC_KERNELS_H_
