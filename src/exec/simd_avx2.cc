// The AVX2 twin of ScoreBatch (4-wide double), the only vector kernel. This
// translation unit is the only one compiled with -mavx2 (and deliberately
// NOT -mfma: FP contraction would break the bit-identity contract with the
// scalar kernel), so nothing here may be called unless ActiveSimdTier() ==
// kAvx2 — kernels.cc guarantees that, and BestSupportedSimdTier()
// guarantees the CPU agrees.
//
// Lanes are rows. The per-row expression tree — initialization from the
// last column, then one multiply-then-add per preference dimension — is
// exactly the scalar kernel's, so each lane reproduces the scalar result
// bit for bit (IEEE ops are deterministic per element; only cross-element
// order could diverge, and none is reordered). The tail replays the scalar
// loop directly.
#include "exec/simd.h"

#if UTK_SIMD_X86

#include <immintrin.h>

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

}  // namespace

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

}  // namespace simd
}  // namespace utk

#endif  // UTK_SIMD_X86
