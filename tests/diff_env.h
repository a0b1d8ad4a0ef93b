// Seed and draw-count knobs shared by the randomized equivalence suites
// (differential, and the simplex, FindInteriorPoint and the arrangement
// against the two-phase oracles): UTK_DIFF_SEED overrides the fixed base
// seed and UTK_DIFF_DRAWS the number of draws, so CI can pin one
// configuration and a failure can be replayed from its printed seed.
// A set but malformed value throws, naming the variable, so the test fails
// instead of silently running a default or zero draws.
#ifndef UTK_TESTS_DIFF_ENV_H_
#define UTK_TESTS_DIFF_ENV_H_

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

namespace utk {

// The whole-number value of env var `name`, or `fallback` when it is unset.
template <typename T>
T EnvNumber(const char* name, T fallback, T min) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const char* end = v + std::strlen(v);
  T out{};
  const auto [ptr, ec] = std::from_chars(v, end, out);
  if (ec != std::errc() || ptr != end || out < min)
    throw std::invalid_argument(std::string(name) + "=\"" + v +
                                "\" is not a whole number >= " +
                                std::to_string(min));
  return out;
}

inline uint64_t EnvSeed() {
  return EnvNumber<uint64_t>("UTK_DIFF_SEED", 20260729ull, 0);
}

inline int EnvDraws() { return EnvNumber<int>("UTK_DIFF_DRAWS", 200, 1); }

}  // namespace utk

#endif  // UTK_TESTS_DIFF_ENV_H_
