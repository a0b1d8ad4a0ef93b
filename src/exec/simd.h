// Runtime SIMD dispatch for exec/kernels.h ScoreBatch, the one kernel with
// a vector twin (EXPERIMENTS.md records the measurement that keeps it).
//
// Two tiers: the scalar reference loop (the bitwise ground truth the
// vector path is tested against) and AVX2 (4-wide double, x86-64). Other
// CPUs run scalar. The tier is resolved once, on first use:
//
//   UTK_SIMD=0|scalar|off   force the scalar reference kernels
//   UTK_SIMD=avx2           request AVX2 (falls back to scalar when the CPU
//                           or build does not support it)
//   unset / auto            best tier the running CPU supports
//
// The vector kernel is *bit-identical* to its scalar twin, not merely
// close: it vectorizes across rows (lanes are independent records), never
// across the accumulation dimension, uses separate multiply and add (no
// FMA contraction — the AVX2 translation unit is compiled with -mavx2
// only), and replays the exact per-element expression tree of kernels.cc.
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
  kScalar = 0,  ///< reference loop in kernels.cc
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

}  // namespace utk

#endif  // UTK_EXEC_SIMD_H_
