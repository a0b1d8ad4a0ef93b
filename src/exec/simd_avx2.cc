// AVX2 kernel twins (4-wide double). This translation unit is the only one
// compiled with -mavx2 (and deliberately NOT -mfma: FP contraction would
// break the bit-identity contract with the scalar kernels), so nothing here
// may be called unless ActiveSimdTier() == kAvx2 — kernels.cc guarantees
// that, and BestSupportedSimdTier() guarantees the CPU agrees.
//
// Vectorization strategy, shared by every kernel: lanes are rows. The
// per-row expression tree — initialization from the last column, one
// multiply-then-add per preference dimension, comparisons against bv ± eps
// computed once — is exactly the scalar kernel's, so each lane reproduces
// the scalar result bit for bit (IEEE ops are deterministic per element;
// only cross-element order could diverge, and none is reordered). Tails
// and consumed-in-order mask walks replay the scalar loops directly.
#include "exec/simd.h"

#if UTK_SIMD_X86

#include <immintrin.h>

#include <cassert>

#include "exec/simd_kernels.h"

namespace utk {
namespace simd {

namespace {

inline __m128i LoadIdx(const int32_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// col[idx[l]] for the 4 lanes. The masked form with a zero source and an
// all-ones mask is the same vgatherdpd as _mm256_i32gather_pd, but its
// source operand is defined, which keeps gcc's -Wmaybe-uninitialized quiet.
inline __m256d Gather4(const Scalar* col, __m128i idx) {
  return _mm256_mask_i32gather_pd(_mm256_setzero_pd(), col, idx,
                                  _mm256_castsi256_pd(_mm256_set1_epi64x(-1)),
                                  8);
}

// Scalar twin of kernels.cc DominatesWith for tails: a is a store row, b an
// accessor (store row or free vector).
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

// 4-lane eps-dominance mask: bit l set when store row idx[l] dominates the
// point whose per-dimension values b(i) provides. All dimensions are
// evaluated (no early exit) — the predicate is order-independent.
template <typename GetB>
inline int DominateMask4(const ColumnStore& cols, __m128i idx, const GetB& b,
                         Scalar eps) {
  __m256d fail = _mm256_setzero_pd();
  __m256d strict = _mm256_setzero_pd();
  for (int i = 0; i < cols.dim(); ++i) {
    const Scalar bv = b(i);
    const __m256d av = Gather4(cols.col(i), idx);
    fail = _mm256_or_pd(
        fail, _mm256_cmp_pd(av, _mm256_set1_pd(bv - eps), _CMP_LT_OQ));
    strict = _mm256_or_pd(
        strict, _mm256_cmp_pd(av, _mm256_set1_pd(bv + eps), _CMP_GT_OQ));
  }
  return _mm256_movemask_pd(_mm256_andnot_pd(fail, strict));
}

}  // namespace

void Avx2ScoreRange(const ColumnStore& cols, const Vec& w, int32_t begin,
                    int32_t end, Scalar* out) {
  const int d = cols.dim();
  const Scalar* last = cols.col(d - 1);
  const int32_t n = end - begin;
  int32_t j = 0;
  for (; j + 4 <= n; j += 4)
    _mm256_storeu_pd(out + j, _mm256_loadu_pd(last + begin + j));
  for (; j < n; ++j) out[j] = last[begin + j];
  for (int i = 0; i < d - 1; ++i) {
    const Scalar wi = w[i];
    const __m256d wv = _mm256_set1_pd(wi);
    const Scalar* ci = cols.col(i);
    j = 0;
    for (; j + 4 <= n; j += 4) {
      const __m256d diff = _mm256_sub_pd(_mm256_loadu_pd(ci + begin + j),
                                         _mm256_loadu_pd(last + begin + j));
      const __m256d acc = _mm256_add_pd(_mm256_loadu_pd(out + j),
                                        _mm256_mul_pd(wv, diff));
      _mm256_storeu_pd(out + j, acc);
    }
    for (; j < n; ++j) out[j] += wi * (ci[begin + j] - last[begin + j]);
  }
}

void Avx2ScoreBatch(const ColumnStore& cols, const Vec& w,
                    std::span<const int32_t> rows, Scalar* out) {
  const int d = cols.dim();
  const Scalar* last = cols.col(d - 1);
  const size_t n = rows.size();
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m128i idx = LoadIdx(rows.data() + j);
    const __m256d lastv = Gather4(last, idx);
    __m256d acc = lastv;
    for (int i = 0; i < d - 1; ++i) {
      const __m256d civ = Gather4(cols.col(i), idx);
      acc = _mm256_add_pd(
          acc, _mm256_mul_pd(_mm256_set1_pd(w[i]), _mm256_sub_pd(civ, lastv)));
    }
    _mm256_storeu_pd(out + j, acc);
  }
  for (; j < n; ++j) {
    const int32_t row = rows[j];
    Scalar acc = last[row];
    for (int i = 0; i < d - 1; ++i)
      acc += w[i] * (cols.col(i)[row] - last[row]);
    out[j] = acc;
  }
}

void Avx2DominatedCounts(const ColumnStore& cols,
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
    for (; !done && r + 4 <= nref; r += 4) {
      const int mask = DominateMask4(cols, LoadIdx(refs.data() + r), b, eps);
      if (mask == 0) continue;
      // Consume lanes in reference order so the cap break lands exactly
      // where the scalar loop's would.
      for (int lane = 0; lane < 4; ++lane) {
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

int Avx2CountDominatorsOfPoint(const ColumnStore& cols,
                               std::span<const int32_t> rows, const Vec& v,
                               int cap, Scalar eps) {
  assert(static_cast<int>(v.size()) == cols.dim());
  const auto b = [&](int i) { return v[i]; };
  const size_t n = rows.size();
  int count = 0;
  size_t r = 0;
  for (; r + 4 <= n; r += 4) {
    const int mask = DominateMask4(cols, LoadIdx(rows.data() + r), b, eps);
    if (mask == 0) continue;
    for (int lane = 0; lane < 4; ++lane) {
      if ((mask >> lane & 1) == 0) continue;
      if (++count >= cap) return cap;
    }
  }
  for (; r < n; ++r) {
    if (DominatesTail(cols, rows[r], b, eps) && ++count >= cap) return cap;
  }
  return count;
}

void Avx2GapRangeBatch(const ColumnStore& cols, const Vec& box_lo,
                       const Vec& box_hi, std::span<const int32_t> ps,
                       int32_t q, Scalar* out_lo, Scalar* out_hi) {
  const int d = cols.dim();
  const Scalar ql = cols.at(q, d - 1);
  const size_t n = ps.size();
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m128i idx = LoadIdx(ps.data() + j);
    const __m256d pl = Gather4(cols.col(d - 1), idx);
    const __m256d offset = _mm256_sub_pd(pl, _mm256_set1_pd(ql));
    __m256d lo = offset, hi = offset;
    for (int i = 0; i < d - 1; ++i) {
      const __m256d pv = Gather4(cols.col(i), idx);
      // (p(i) - pl) - (q(i) - ql): the inner q-side difference is one
      // scalar op, broadcast — identical to the scalar GapRange's value.
      const __m256d c = _mm256_sub_pd(_mm256_sub_pd(pv, pl),
                                      _mm256_set1_pd(cols.at(q, i) - ql));
      const __m256d ge = _mm256_cmp_pd(c, _mm256_setzero_pd(), _CMP_GE_OQ);
      const __m256d blo = _mm256_set1_pd(box_lo[i]);
      const __m256d bhi = _mm256_set1_pd(box_hi[i]);
      lo = _mm256_add_pd(lo, _mm256_mul_pd(c, _mm256_blendv_pd(bhi, blo, ge)));
      hi = _mm256_add_pd(hi, _mm256_mul_pd(c, _mm256_blendv_pd(blo, bhi, ge)));
    }
    _mm256_storeu_pd(out_lo + j, lo);
    _mm256_storeu_pd(out_hi + j, hi);
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

#endif  // UTK_SIMD_X86
