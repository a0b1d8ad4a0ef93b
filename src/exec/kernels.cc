#include "exec/kernels.h"

#include <cassert>

#include "exec/simd.h"
#include "exec/simd_kernels.h"
#include "obs/metrics.h"

namespace utk {

void ScoreAll(const ColumnStore& cols, const Vec& w, Scalar* out) {
  if (cols.empty()) return;
  const int d = cols.dim();
  assert(static_cast<int>(w.size()) == d - 1);
  const Scalar* last = cols.col(d - 1);
  const int32_t n = cols.size();
  for (int32_t j = 0; j < n; ++j) out[j] = last[j];
  for (int i = 0; i < d - 1; ++i) {
    const Scalar wi = w[i];
    const Scalar* ci = cols.col(i);
    for (int32_t j = 0; j < n; ++j) out[j] += wi * (ci[j] - last[j]);
  }
}

void ScoreBatch(const ColumnStore& cols, const Vec& w,
                std::span<const int32_t> rows, Scalar* out) {
  if (cols.empty() || rows.empty()) return;
  const int d = cols.dim();
  assert(static_cast<int>(w.size()) == d - 1);
#if UTK_SIMD_X86
  if (ActiveSimdTier() == SimdTier::kAvx2) {
    simd::Avx2ScoreBatch(cols, w, rows, out);
    return;
  }
#endif
  const Scalar* last = cols.col(d - 1);
  const size_t n = rows.size();
  for (size_t j = 0; j < n; ++j) out[j] = last[rows[j]];
  for (int i = 0; i < d - 1; ++i) {
    const Scalar wi = w[i];
    const Scalar* ci = cols.col(i);
    for (size_t j = 0; j < n; ++j)
      out[j] += wi * (ci[rows[j]] - last[rows[j]]);
  }
}

namespace {

// The single eps-dominance loop both counting kernels share — the
// bit-for-bit twin of skyline/dominance.cc Dominates(). As with GapRange
// below, the accessors abstract only where the attributes live; the
// comparison logic exists once.
template <typename GetA, typename GetB>
inline bool DominatesWith(int d, const GetA& a, const GetB& b, Scalar eps) {
  bool strict = false;
  for (int i = 0; i < d; ++i) {
    const Scalar av = a(i), bv = b(i);
    if (av < bv - eps) return false;
    if (av > bv + eps) strict = true;
  }
  return strict;
}

/// Replays Dominates(cols row r, cols row j, eps) column-wise.
inline bool RowDominates(const ColumnStore& cols, int32_t r, int32_t j,
                         Scalar eps) {
  return DominatesWith(
      cols.dim(), [&](int i) { return cols.at(r, i); },
      [&](int i) { return cols.at(j, i); }, eps);
}

}  // namespace

void DominatedCounts(const ColumnStore& cols, std::span<const int32_t> rows,
                     std::span<const int32_t> refs, int cap, Scalar eps,
                     int32_t* out) {
  static obs::Counter& calls = obs::MetricRegistry::Global().GetCounter(
      "utk_exec_dominated_count_calls_total");
  static obs::Counter& counted = obs::MetricRegistry::Global().GetCounter(
      "utk_exec_dominated_count_rows_total");
  calls.Add();
  counted.Add(static_cast<int64_t>(rows.size()));
  for (size_t j = 0; j < rows.size(); ++j) {
    int32_t count = 0;
    for (int32_t r : refs) {
      if (r == rows[j]) continue;
      if (RowDominates(cols, r, rows[j], eps) && ++count >= cap) break;
    }
    out[j] = count;
  }
}

int CountDominatorsOfPoint(const ColumnStore& cols,
                           std::span<const int32_t> rows, const Vec& v,
                           int cap, Scalar eps) {
  const int d = cols.dim();
  assert(static_cast<int>(v.size()) == d);
  int count = 0;
  for (int32_t r : rows) {
    const bool dominates = DominatesWith(
        d, [&](int i) { return cols.at(r, i); },
        [&](int i) { return v[i]; }, eps);
    if (dominates && ++count >= cap) return cap;
  }
  return count;
}

std::pair<Scalar, Scalar> BoxGapEvaluator::Range(int32_t p, int32_t q) const {
  return GapRange(
      cols_->dim(), [&](int i) { return cols_->at(p, i); },
      [&](int i) { return cols_->at(q, i); }, *lo_, *hi_);
}

std::pair<Scalar, Scalar> BoxGapEvaluator::Range(int32_t p,
                                                 const Vec& corner) const {
  return GapRange(
      cols_->dim(), [&](int i) { return cols_->at(p, i); },
      [&](int i) { return corner[i]; }, *lo_, *hi_);
}

}  // namespace utk
