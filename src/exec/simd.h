// Runtime SIMD dispatch for the batched kernels in exec/kernels.h.
//
// Two tiers: the scalar reference loops (the bitwise ground truth the
// vector path is tested against) and AVX2 (4-wide double, x86-64). Other
// CPUs run scalar. The tier is resolved once, on first use:
//
//   UTK_SIMD=0|scalar|off   force the scalar reference kernels
//   UTK_SIMD=avx2           request AVX2 (falls back to scalar when the CPU
//                           or build does not support it)
//   unset / auto            best tier the running CPU supports
//
// The vectorized kernels are *bit-identical* to their scalar twins, not
// merely close: they vectorize across rows (lanes are independent records),
// never across the accumulation dimension, use separate multiply and add
// (no FMA contraction — the AVX2 translation unit is compiled with -mavx2
// only), and replay the exact per-element expression trees of kernels.cc.
// The differential harness (tests/test_differential.cc) and the forced-
// scalar CI job hold both tiers to EXPECT_EQ on doubles.
#ifndef UTK_EXEC_SIMD_H_
#define UTK_EXEC_SIMD_H_

#if defined(__x86_64__) || defined(_M_X64)
#define UTK_SIMD_X86 1
#else
#define UTK_SIMD_X86 0
#endif

namespace utk {

enum class SimdTier {
  kScalar = 0,  ///< reference loops in kernels.cc
  kAvx2 = 1,    ///< 4-wide double, x86-64 with AVX2
};

const char* SimdTierName(SimdTier tier);

/// Best tier the running CPU (and this build) supports.
SimdTier BestSupportedSimdTier();

/// The tier the kernels dispatch on: resolved once from UTK_SIMD (see file
/// comment) on first call, then cached for the process lifetime.
SimdTier ActiveSimdTier();

/// Overrides the active tier — the hook tests and benches use to compare
/// tiers within one process. Unsupported requests clamp to kScalar.
void SetSimdTier(SimdTier tier);

/// Row-lanes the active tier processes per step (1 / 4). Batch
/// consumers (the gap-range batcher) use this to size their speculative
/// chunks so scalar dispatch never computes a single wasted element.
int SimdWidth();

}  // namespace utk

#endif  // UTK_EXEC_SIMD_H_
