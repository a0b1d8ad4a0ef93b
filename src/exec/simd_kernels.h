// Internal per-tier kernel entry points, dispatched from exec/kernels.cc.
//
// Avx2ScoreBatch is the bit-identical vector twin of the scalar ScoreBatch
// loop in kernels.cc: lanes are rows, the per-row expression tree and
// accumulation order are the scalar ones, multiply and add stay separate
// (no FMA). It lives in simd_avx2.cc (compiled with -mavx2 on x86-64
// only). Every other kernel has only its scalar loop. Nothing here is
// public API — consumers go through kernels.h.
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
void Avx2ScoreBatch(const ColumnStore& cols, const Vec& w,
                    std::span<const int32_t> rows, Scalar* out);
#endif  // UTK_SIMD_X86

}  // namespace simd
}  // namespace utk

#endif  // UTK_EXEC_SIMD_KERNELS_H_
