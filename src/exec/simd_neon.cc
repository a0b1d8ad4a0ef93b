// NEON kernel twins (2-wide double, aarch64). Mirror of simd_avx2.cc at
// half the width: lanes are rows, per-row arithmetic order is the scalar
// kernel's, multiply and add stay separate (no vfma), so each lane is
// bit-identical to the scalar reference. aarch64 has no gather — gathered
// lanes are assembled from two scalar loads, which still halves the
// per-dimension compare/accumulate work.
#include "exec/simd.h"

#if UTK_SIMD_ARM

#include <arm_neon.h>

#include <cassert>

#include "exec/simd_kernels.h"

namespace utk {
namespace simd {

namespace {

inline float64x2_t Gather2(const Scalar* base, int32_t i0, int32_t i1) {
  float64x2_t v = vdupq_n_f64(base[i0]);
  return vsetq_lane_f64(base[i1], v, 1);
}

template <typename GetB>
inline bool DominatesTail(const ColumnStore& cols, int32_t a_row,
                          const GetB& b, Scalar eps) {
  bool strict = false;
  for (int i = 0; i < cols.dim(); ++i) {
    const Scalar av = cols.at(a_row, i), bv = b(i);
    if (av < bv - eps) return false;
    if (av > bv + eps) strict = true;
  }
  return strict;
}

// 2-lane eps-dominance mask (bit l set when row idx[l] dominates b).
template <typename GetB>
inline int DominateMask2(const ColumnStore& cols, int32_t i0, int32_t i1,
                         const GetB& b, Scalar eps) {
  uint64x2_t fail = vdupq_n_u64(0);
  uint64x2_t strict = vdupq_n_u64(0);
  for (int i = 0; i < cols.dim(); ++i) {
    const Scalar bv = b(i);
    const float64x2_t av = Gather2(cols.col(i), i0, i1);
    fail = vorrq_u64(fail, vcltq_f64(av, vdupq_n_f64(bv - eps)));
    strict = vorrq_u64(strict, vcgtq_f64(av, vdupq_n_f64(bv + eps)));
  }
  const uint64x2_t dom = vbicq_u64(strict, fail);  // strict & ~fail
  return (vgetq_lane_u64(dom, 0) ? 1 : 0) | (vgetq_lane_u64(dom, 1) ? 2 : 0);
}

}  // namespace

void NeonScoreRange(const ColumnStore& cols, const Vec& w, int32_t begin,
                    int32_t end, Scalar* out) {
  const int d = cols.dim();
  const Scalar* last = cols.col(d - 1);
  const int32_t n = end - begin;
  int32_t j = 0;
  for (; j + 2 <= n; j += 2) vst1q_f64(out + j, vld1q_f64(last + begin + j));
  for (; j < n; ++j) out[j] = last[begin + j];
  for (int i = 0; i < d - 1; ++i) {
    const Scalar wi = w[i];
    const float64x2_t wv = vdupq_n_f64(wi);
    const Scalar* ci = cols.col(i);
    j = 0;
    for (; j + 2 <= n; j += 2) {
      const float64x2_t diff =
          vsubq_f64(vld1q_f64(ci + begin + j), vld1q_f64(last + begin + j));
      vst1q_f64(out + j, vaddq_f64(vld1q_f64(out + j), vmulq_f64(wv, diff)));
    }
    for (; j < n; ++j) out[j] += wi * (ci[begin + j] - last[begin + j]);
  }
}

void NeonScoreBatch(const ColumnStore& cols, const Vec& w,
                    std::span<const int32_t> rows, Scalar* out) {
  const int d = cols.dim();
  const Scalar* last = cols.col(d - 1);
  const size_t n = rows.size();
  size_t j = 0;
  for (; j + 2 <= n; j += 2) {
    const int32_t i0 = rows[j], i1 = rows[j + 1];
    const float64x2_t lastv = Gather2(last, i0, i1);
    float64x2_t acc = lastv;
    for (int i = 0; i < d - 1; ++i) {
      const float64x2_t civ = Gather2(cols.col(i), i0, i1);
      acc = vaddq_f64(acc, vmulq_f64(vdupq_n_f64(w[i]), vsubq_f64(civ, lastv)));
    }
    vst1q_f64(out + j, acc);
  }
  for (; j < n; ++j) {
    const int32_t row = rows[j];
    Scalar acc = last[row];
    for (int i = 0; i < d - 1; ++i)
      acc += w[i] * (cols.col(i)[row] - last[row]);
    out[j] = acc;
  }
}

void NeonDominatedCounts(const ColumnStore& cols,
                         std::span<const int32_t> rows,
                         std::span<const int32_t> refs, int cap, Scalar eps,
                         int32_t* out) {
  const size_t nref = refs.size();
  for (size_t j = 0; j < rows.size(); ++j) {
    const int32_t row = rows[j];
    const auto b = [&](int i) { return cols.at(row, i); };
    int32_t count = 0;
    bool done = false;
    size_t r = 0;
    for (; !done && r + 2 <= nref; r += 2) {
      const int mask = DominateMask2(cols, refs[r], refs[r + 1], b, eps);
      if (mask == 0) continue;
      for (int lane = 0; lane < 2; ++lane) {
        if ((mask >> lane & 1) == 0 || refs[r + lane] == row) continue;
        if (++count >= cap) {
          done = true;
          break;
        }
      }
    }
    for (; !done && r < nref; ++r) {
      if (refs[r] == row) continue;
      if (DominatesTail(cols, refs[r], b, eps) && ++count >= cap) done = true;
    }
    out[j] = count;
  }
}

int NeonCountDominatorsOfPoint(const ColumnStore& cols,
                               std::span<const int32_t> rows, const Vec& v,
                               int cap, Scalar eps) {
  assert(static_cast<int>(v.size()) == cols.dim());
  const auto b = [&](int i) { return v[i]; };
  const size_t n = rows.size();
  int count = 0;
  size_t r = 0;
  for (; r + 2 <= n; r += 2) {
    const int mask = DominateMask2(cols, rows[r], rows[r + 1], b, eps);
    if (mask == 0) continue;
    for (int lane = 0; lane < 2; ++lane) {
      if ((mask >> lane & 1) == 0) continue;
      if (++count >= cap) return cap;
    }
  }
  for (; r < n; ++r) {
    if (DominatesTail(cols, rows[r], b, eps) && ++count >= cap) return cap;
  }
  return count;
}

void NeonGapRangeBatch(const ColumnStore& cols, const Vec& box_lo,
                       const Vec& box_hi, std::span<const int32_t> ps,
                       int32_t q, Scalar* out_lo, Scalar* out_hi) {
  const int d = cols.dim();
  const Scalar ql = cols.at(q, d - 1);
  const size_t n = ps.size();
  size_t j = 0;
  for (; j + 2 <= n; j += 2) {
    const int32_t p0 = ps[j], p1 = ps[j + 1];
    const float64x2_t pl = Gather2(cols.col(d - 1), p0, p1);
    const float64x2_t offset = vsubq_f64(pl, vdupq_n_f64(ql));
    float64x2_t lo = offset, hi = offset;
    for (int i = 0; i < d - 1; ++i) {
      const float64x2_t pv = Gather2(cols.col(i), p0, p1);
      const float64x2_t c = vsubq_f64(vsubq_f64(pv, pl),
                                      vdupq_n_f64(cols.at(q, i) - ql));
      const uint64x2_t ge = vcgeq_f64(c, vdupq_n_f64(0.0));
      const float64x2_t blo = vdupq_n_f64(box_lo[i]);
      const float64x2_t bhi = vdupq_n_f64(box_hi[i]);
      lo = vaddq_f64(lo, vmulq_f64(c, vbslq_f64(ge, blo, bhi)));
      hi = vaddq_f64(hi, vmulq_f64(c, vbslq_f64(ge, bhi, blo)));
    }
    vst1q_f64(out_lo + j, lo);
    vst1q_f64(out_hi + j, hi);
  }
  for (; j < n; ++j) {
    const int32_t p = ps[j];
    const Scalar pl = cols.at(p, d - 1);
    const Scalar offset = pl - ql;
    Scalar lo = offset, hi = offset;
    for (int i = 0; i < d - 1; ++i) {
      const Scalar c = (cols.at(p, i) - pl) - (cols.at(q, i) - ql);
      if (c >= 0.0) {
        lo += c * box_lo[i];
        hi += c * box_hi[i];
      } else {
        lo += c * box_hi[i];
        hi += c * box_lo[i];
      }
    }
    out_lo[j] = lo;
    out_hi[j] = hi;
  }
}

}  // namespace simd
}  // namespace utk

#endif  // UTK_SIMD_ARM
