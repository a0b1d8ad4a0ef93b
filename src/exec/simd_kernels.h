// Internal per-tier kernel entry points, dispatched from exec/kernels.cc.
//
// Each function is the bit-identical vector twin of the scalar loop of the
// same shape in kernels.cc: lanes are rows, the per-row expression tree and
// accumulation order are the scalar ones, multiply and add stay separate
// (no FMA). The AVX2 set lives in simd_avx2.cc (compiled with -mavx2 on
// x86-64 only). Nothing here is public API — consumers go through
// kernels.h.
#ifndef UTK_EXEC_SIMD_KERNELS_H_
#define UTK_EXEC_SIMD_KERNELS_H_

#include <cstdint>
#include <span>

#include "common/types.h"
#include "exec/column_store.h"
#include "exec/simd.h"

namespace utk {
namespace simd {

#if UTK_SIMD_X86
void Avx2ScoreRange(const ColumnStore& cols, const Vec& w, int32_t begin,
                    int32_t end, Scalar* out);
void Avx2ScoreBatch(const ColumnStore& cols, const Vec& w,
                    std::span<const int32_t> rows, Scalar* out);
void Avx2DominatedCounts(const ColumnStore& cols,
                         std::span<const int32_t> rows,
                         std::span<const int32_t> refs, int cap, Scalar eps,
                         int32_t* out);
int Avx2CountDominatorsOfPoint(const ColumnStore& cols,
                               std::span<const int32_t> rows, const Vec& v,
                               int cap, Scalar eps);
/// GapRange(ps[j], q) for each lane j into (out_lo[j], out_hi[j]).
void Avx2GapRangeBatch(const ColumnStore& cols, const Vec& box_lo,
                       const Vec& box_hi, std::span<const int32_t> ps,
                       int32_t q, Scalar* out_lo, Scalar* out_hi);
#endif  // UTK_SIMD_X86

}  // namespace simd
}  // namespace utk

#endif  // UTK_EXEC_SIMD_KERNELS_H_
