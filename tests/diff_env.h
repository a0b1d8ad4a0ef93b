// Seed and draw-count knobs shared by the randomized equivalence suites
// (differential, and FindInteriorPoint and the arrangement against the
// two-phase Chebyshev oracle): UTK_DIFF_SEED overrides the fixed base seed
// and UTK_DIFF_DRAWS the number of draws, so CI can pin one configuration
// and a failure can be replayed from its printed seed.
#ifndef UTK_TESTS_DIFF_ENV_H_
#define UTK_TESTS_DIFF_ENV_H_

#include <cstdint>
#include <cstdlib>

namespace utk {

inline uint64_t EnvSeed() {
  const char* v = std::getenv("UTK_DIFF_SEED");
  return v != nullptr ? std::strtoull(v, nullptr, 10) : 20260729ull;
}

inline int EnvDraws() {
  const char* v = std::getenv("UTK_DIFF_DRAWS");
  return v != nullptr ? std::atoi(v) : 200;
}

}  // namespace utk

#endif  // UTK_TESTS_DIFF_ENV_H_
